//! Property tests pinning the lane-batched decoders — the only BP and
//! window engines — to the naive oracles **bit for bit**: random block
//! and coupled codes, all four check rules, lane counts {1, 2, 4, 8},
//! ragged tails (frame counts not divisible by the batch width),
//! mixed-convergence batches where lanes stop at different iterations,
//! batches that take the straggler bail-out, and window decodes where
//! the change-driven check skip and the fixed-point stop fire.

use proptest::prelude::*;
use wi_ldpc::batch::{BatchWorkspace, WindowBatchWorkspace};
use wi_ldpc::ber::{
    ebn0_db_to_sigma, fill_frame_llrs, BerTarget, BerWorkspace, BlockBerTarget, CoupledBerTarget,
    FrameStats,
};
use wi_ldpc::decoder::{reference, BpConfig, BpDecoder, CheckRule, DecodeResult};
use wi_ldpc::window::{self, CoupledCode, WindowDecoder};
use wi_ldpc::LdpcCode;
use wi_num::rng::{seeded_rng, Gaussian};

/// Noisy all-zero-codeword channel LLRs (exact for these linear codes on
/// the symmetric AWGN channel).
fn noisy_zero_llrs(n: usize, sigma: f64, seed: u64) -> Vec<f64> {
    let mut rng = seeded_rng(seed);
    let mut gauss = Gaussian::new();
    let scale = 2.0 / (sigma * sigma);
    (0..n)
        .map(|_| scale * (1.0 + gauss.sample_with(&mut rng, 0.0, sigma)))
        .collect()
}

fn rule_from_selector(selector: u8) -> CheckRule {
    match selector % 4 {
        0 => CheckRule::SumProduct,
        1 => CheckRule::min_sum(),
        2 => CheckRule::MinSum { alpha: 0.7 },
        _ => CheckRule::sum_product_table(),
    }
}

/// A decode result with its posteriors as raw bit patterns, so that
/// comparing two of them tells `-0.0` from `+0.0`.
fn result_bits(r: &DecodeResult) -> (usize, bool, Vec<bool>, Vec<u64>) {
    let posterior = r.posterior.iter().map(|p| p.to_bits()).collect();
    (r.iterations, r.converged, r.hard.clone(), posterior)
}

/// Every lane count the engine is compiled for.
fn lanes_from_selector(selector: u8) -> usize {
    [1, 2, 4, 8][selector as usize % 4]
}

/// The oracle's fold of frames `frames` of a target: each frame's LLRs
/// from [`fill_frame_llrs`], decoded by `decode` into hard decisions.
fn reference_fold(
    n: usize,
    sigma: f64,
    seed: u64,
    frames: std::ops::Range<u64>,
    decode: impl Fn(&[f64]) -> Vec<bool>,
) -> FrameStats {
    let mut llr = vec![0.0; n];
    let mut stats = FrameStats::default();
    for frame in frames {
        fill_frame_llrs(&mut llr, sigma, seed, frame);
        let errors = decode(&llr).iter().filter(|&&b| b).count() as u64;
        stats.push_frame(n as u64, errors);
    }
    stats
}

/// Decodes `frames` as one batch and asserts every lane's status,
/// posterior bits and hard bits against `reference::decode`.
fn assert_batch_matches_reference(decoder: &BpDecoder<'_>, frames: &[Vec<f64>]) {
    let code = decoder.code();
    let mut bws = BatchWorkspace::new(code, frames.len());
    for (lane, llr) in frames.iter().enumerate() {
        bws.set_lane_llr(lane, llr);
    }
    decoder.decode_batch(&mut bws);
    let rule = decoder.config().check_rule;
    for (lane, llr) in frames.iter().enumerate() {
        let want = reference::decode(code, decoder.config(), llr);
        let got = bws.lane_result(lane);
        assert_eq!(
            result_bits(&got),
            result_bits(&want),
            "{rule:?} lane {lane}"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn batched_bp_matches_reference_per_lane(
        lifting in 8usize..32,
        code_seed in 0u64..1000,
        noise_seed in 0u64..1000,
        sigma in 0.5f64..1.2,
        rule_selector in 0u8..4,
        lanes_selector in 0u8..4,
    ) {
        let code = LdpcCode::paper_block(lifting, code_seed);
        let config = BpConfig {
            max_iterations: 30,
            check_rule: rule_from_selector(rule_selector),
        };
        let decoder = BpDecoder::new(&code, config);
        let lanes = lanes_from_selector(lanes_selector);

        let frames: Vec<Vec<f64>> = (0..lanes)
            .map(|lane| noisy_zero_llrs(code.len(), sigma, noise_seed + lane as u64))
            .collect();
        let mut bws = BatchWorkspace::new(&code, lanes);
        for (lane, llr) in frames.iter().enumerate() {
            bws.set_lane_llr(lane, llr);
        }
        decoder.decode_batch(&mut bws);

        for (lane, llr) in frames.iter().enumerate() {
            let want = reference::decode(&code, config, llr);
            // Bit-identical: same decisions, same posterior bits, same
            // iteration count and convergence flag.
            prop_assert_eq!(result_bits(&bws.lane_result(lane)), result_bits(&want));
        }
    }

    #[test]
    fn batched_window_matches_reference_per_lane(
        lifting in 6usize..16,
        term_length in 4usize..9,
        code_seed in 0u64..500,
        noise_seed in 0u64..500,
        sigma in 0.3f64..1.1,
        rule_selector in 0u8..4,
        lanes_selector in 0u8..4,
        window in 3usize..5,
        reuse_selector in 0u8..2,
        iterations_selector in 0u8..3,
    ) {
        // Long budgets and low noise are where window positions reach a
        // fixed point and most checks stop changing, so the skip fires.
        let iterations = [8, 50, 200][iterations_selector as usize];
        let code = CoupledCode::paper_cc(lifting, term_length, code_seed);
        let decoder = WindowDecoder {
            reuse_messages: reuse_selector == 1,
            ..WindowDecoder::new(window, iterations).with_rule(rule_from_selector(rule_selector))
        };
        let lanes = lanes_from_selector(lanes_selector);

        let frames: Vec<Vec<f64>> = (0..lanes)
            .map(|lane| noisy_zero_llrs(code.code().len(), sigma, noise_seed + lane as u64))
            .collect();
        let mut bws = WindowBatchWorkspace::new(code.code(), lanes);
        for (lane, llr) in frames.iter().enumerate() {
            bws.set_lane_llr(lane, llr);
        }
        decoder.decode_batch(&mut bws, &code);

        for (lane, llr) in frames.iter().enumerate() {
            let want = window::reference::decode(&decoder, &code, llr);
            for (v, &bit) in want.iter().enumerate() {
                prop_assert_eq!(bws.hard_bit(v, lane), bit);
            }
        }
    }

    #[test]
    fn batched_block_target_matches_reference_across_ragged_ranges(
        lifting in 8usize..24,
        code_seed in 0u64..500,
        seed in 0u64..1000,
        ebn0_db in 1.0f64..4.0,
        first in 0u64..10,
        count in 1u64..21,
        lanes_selector in 0u8..4,
    ) {
        // Target-level ragged tails: frame ranges deliberately not a
        // multiple of the batch width must produce the oracle's
        // FrameStats fold, frame for frame.
        let code = LdpcCode::paper_block(lifting, code_seed);
        let config = BpConfig { max_iterations: 25, ..BpConfig::default() };
        let lanes = lanes_from_selector(lanes_selector);
        let target = BlockBerTarget::new(&code, config, 0.5).with_batch(lanes);
        let mut ws = BerWorkspace::new();
        let frames = first..first + count;
        let got = target.eval_frames(&mut ws, ebn0_db, seed, frames.clone());
        let sigma = ebn0_db_to_sigma(ebn0_db, 0.5);
        let want = reference_fold(code.len(), sigma, seed, frames, |llr| {
            reference::decode(&code, config, llr).hard
        });
        prop_assert_eq!(got, want);
    }

    #[test]
    fn batched_coupled_target_matches_reference_across_ragged_ranges(
        lifting in 6usize..14,
        term_length in 4usize..8,
        code_seed in 0u64..500,
        seed in 0u64..1000,
        ebn0_db in 1.0f64..4.0,
        count in 1u64..14,
        lanes_selector in 0u8..4,
    ) {
        let code = CoupledCode::paper_cc(lifting, term_length, code_seed);
        let decoder = WindowDecoder::new(3, 8).with_rule(CheckRule::min_sum());
        let lanes = lanes_from_selector(lanes_selector);
        let target = CoupledBerTarget::new(&code, decoder).with_batch(lanes);
        let mut ws = BerWorkspace::new();
        let got = target.eval_frames(&mut ws, ebn0_db, seed, 0..count);
        let sigma = ebn0_db_to_sigma(ebn0_db, code.design_rate());
        let want = reference_fold(code.code().len(), sigma, seed, 0..count, |llr| {
            window::reference::decode(&decoder, &code, llr)
        });
        prop_assert_eq!(got, want);
    }

    #[test]
    fn reused_batch_workspace_is_stateless(
        lifting in 8usize..20,
        noise_seed in 0u64..500,
        rule_selector in 0u8..4,
    ) {
        // One workspace driven across two different codes and lane counts
        // must give the same results as fresh workspaces.
        let code_a = LdpcCode::paper_block(lifting, 31);
        let code_b = LdpcCode::paper_block(lifting + 5, 32);
        let config = BpConfig {
            max_iterations: 20,
            check_rule: rule_from_selector(rule_selector),
        };
        let dec_a = BpDecoder::new(&code_a, config);
        let dec_b = BpDecoder::new(&code_b, config);
        let llr_a = noisy_zero_llrs(code_a.len(), 0.8, noise_seed);
        let llr_b = noisy_zero_llrs(code_b.len(), 0.8, noise_seed ^ 1);

        let mut shared = BatchWorkspace::new(&code_a, 4);
        shared.set_lane_llr(0, &llr_a);
        dec_a.decode_batch(&mut shared);
        let first = result_bits(&shared.lane_result(0));
        shared.ensure(&code_b, 8);
        shared.set_lane_llr(7, &llr_b);
        dec_b.decode_batch(&mut shared);
        prop_assert_eq!(
            result_bits(&shared.lane_result(7)),
            result_bits(&reference::decode(&code_b, config, &llr_b))
        );
        shared.ensure(&code_a, 4);
        shared.set_lane_llr(0, &llr_a);
        dec_a.decode_batch(&mut shared);
        prop_assert_eq!(result_bits(&shared.lane_result(0)), first);
    }
}

#[test]
fn mixed_convergence_batches_freeze_lanes_independently() {
    // The masking rule is only exercised when lanes stop at different
    // iterations; pick a noise level where that provably happens and pin
    // per-lane bit-identity (status + posterior) in that regime for every
    // check rule.
    let code = LdpcCode::paper_block(20, 77);
    for rule in [
        CheckRule::SumProduct,
        CheckRule::min_sum(),
        CheckRule::sum_product_table(),
    ] {
        let config = BpConfig {
            max_iterations: 40,
            check_rule: rule,
        };
        let decoder = BpDecoder::new(&code, config);
        let frames: Vec<Vec<f64>> = (0..8)
            .map(|lane| noisy_zero_llrs(code.len(), 0.95, 9_000 + lane))
            .collect();
        assert_batch_matches_reference(&decoder, &frames);

        let iteration_counts: std::collections::BTreeSet<usize> = frames
            .iter()
            .map(|llr| reference::decode(&code, config, llr).iterations)
            .collect();
        assert!(
            iteration_counts.len() >= 2,
            "{rule:?}: all lanes stopped at the same iteration \
             ({iteration_counts:?}) — the masking rule went unexercised"
        );
    }
}

#[test]
fn straggler_bail_out_matches_reference() {
    // Clean lanes (every LLR +4.0) satisfy the syndrome before the first
    // iteration, so with at most 2 noisy lanes of 8, active·3 < 8 and the
    // bail-out re-decodes the noisy lanes alone before iteration 1.
    let code = LdpcCode::paper_block(20, 77);
    let clean = vec![4.0; code.len()];
    for rule in [
        CheckRule::SumProduct,
        CheckRule::min_sum(),
        CheckRule::sum_product_table(),
    ] {
        let config = BpConfig {
            max_iterations: 40,
            check_rule: rule,
        };
        let decoder = BpDecoder::new(&code, config);
        for noisy_lanes in [vec![5usize], vec![2, 6]] {
            let frames: Vec<Vec<f64>> = (0..8)
                .map(|lane| {
                    if noisy_lanes.contains(&lane) {
                        noisy_zero_llrs(code.len(), 0.95, 7_000 + lane as u64)
                    } else {
                        clean.clone()
                    }
                })
                .collect();
            // The bail-out precondition: clean lanes converge at
            // iteration 0, noisy lanes need at least one iteration.
            for (lane, llr) in frames.iter().enumerate() {
                let iterations = reference::decode(&code, config, llr).iterations;
                assert_eq!(
                    iterations > 0,
                    noisy_lanes.contains(&lane),
                    "{rule:?} lane {lane}: {iterations} iterations"
                );
            }
            assert_batch_matches_reference(&decoder, &frames);
        }
    }
}

#[test]
fn change_driven_window_skips_work_and_matches_reference() {
    // Clean +4.0 frames saturate within a few iterations, so most of a
    // 50-iteration budget per position runs on unchanged messages: the
    // skip must fire and the bits must not move.
    let code = CoupledCode::paper_cc(25, 10, 2);
    let iterations = 50;
    let clean = vec![4.0; code.code().len()];
    for reuse_messages in [false, true] {
        let decoder = WindowDecoder {
            reuse_messages,
            ..WindowDecoder::new(4, iterations)
        };
        let want = window::reference::decode(&decoder, &code, &clean);
        for lanes in [1, 8] {
            let mut bws = WindowBatchWorkspace::new(code.code(), lanes);
            for lane in 0..lanes {
                bws.set_lane_llr(lane, &clean);
            }
            decoder.decode_batch(&mut bws, &code);
            for lane in 0..lanes {
                let got: Vec<bool> = (0..want.len()).map(|v| bws.hard_bit(v, lane)).collect();
                assert_eq!(got, want, "reuse {reuse_messages}, lane {lane}");
            }

            // Checks per position: rows t..min(t+W, L+mcc), block_checks
            // each. Without the skip every one runs every iteration; the
            // first iteration at each position always runs them all.
            let rows: u64 = (0..code.num_blocks())
                .map(|t| ((t + decoder.window).min(code.num_blocks() + code.memory()) - t) as u64)
                .sum();
            let first_pass = rows * code.block_checks() as u64;
            let unskipped = first_pass * iterations as u64;
            let ran = bws.check_updates();
            assert!(
                ran >= first_pass && ran < unskipped,
                "reuse {reuse_messages}, {lanes} lanes: {ran} check updates, \
                 want [{first_pass}, {unskipped})"
            );
        }
    }
}
