//! Property tests pinning the flat CSR message-passing engine (through
//! `BpDecoder::decode`) to the retained naive reference decoder, and the
//! parallel BER harness to its serial path — all bit for bit, not
//! approximately.

use proptest::prelude::*;
use wi_ldpc::batch::BatchWorkspace;
use wi_ldpc::ber::{simulate_ber_with_threads, BerSimOptions, BlockBerTarget, CoupledBerTarget};
use wi_ldpc::decoder::{reference, BpConfig, BpDecoder, CheckRule};
use wi_ldpc::protograph::EdgeSpreading;
use wi_ldpc::window::CoupledCode;
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
        // The table rule is accuracy-tested against exact sum-product
        // (tests/phi_table.rs), but the two *engines* must still agree
        // bit-for-bit when both run it.
        _ => CheckRule::sum_product_table(),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn csr_engine_matches_reference_on_random_block_codes(
        lifting in 8usize..40,
        code_seed in 0u64..1000,
        noise_seed in 0u64..1000,
        sigma in 0.45f64..1.3,
        rule_selector in 0u8..4,
    ) {
        let code = LdpcCode::paper_block(lifting, code_seed);
        let config = BpConfig {
            max_iterations: 30,
            check_rule: rule_from_selector(rule_selector),
        };
        let llr = noisy_zero_llrs(code.len(), sigma, noise_seed);
        let fast = BpDecoder::new(&code, config).decode(&llr);
        let naive = reference::decode(&code, config, &llr);
        // Bit-identical: same decisions, same posterior bits, same
        // iteration count and convergence flag.
        prop_assert_eq!(fast, naive);
    }

    #[test]
    fn csr_engine_matches_reference_on_random_coupled_codes(
        lifting in 6usize..20,
        term_length in 4usize..10,
        code_seed in 0u64..500,
        noise_seed in 0u64..500,
        sigma in 0.5f64..1.1,
    ) {
        let base = EdgeSpreading::paper_cc().coupled(term_length);
        let code = LdpcCode::lift(&base, lifting, code_seed);
        let config = BpConfig {
            max_iterations: 25,
            ..BpConfig::default()
        };
        let llr = noisy_zero_llrs(code.len(), sigma, noise_seed);
        let fast = BpDecoder::new(&code, config).decode(&llr);
        let naive = reference::decode(&code, config, &llr);
        prop_assert_eq!(fast, naive);
    }

    #[test]
    fn workspace_reuse_is_stateless_across_codes(
        lifting_a in 8usize..25,
        lifting_b in 8usize..25,
        noise_seed in 0u64..500,
    ) {
        // One workspace driven across two different code shapes must give
        // the same results as fresh workspaces (ensure() resizing and full
        // reinitialization per decode).
        let code_a = LdpcCode::paper_block(lifting_a, 11);
        let code_b = LdpcCode::paper_block(lifting_b, 12);
        let config = BpConfig::default();
        let llr_a = noisy_zero_llrs(code_a.len(), 0.8, noise_seed);
        let llr_b = noisy_zero_llrs(code_b.len(), 0.8, noise_seed ^ 1);
        let mut shared = BatchWorkspace::new(&code_a, 1);
        let dec_a = BpDecoder::new(&code_a, config);
        let dec_b = BpDecoder::new(&code_b, config);
        let mut decode_shared = |decoder: &BpDecoder<'_>, llr: &[f64]| {
            shared.ensure(decoder.code(), 1);
            shared.set_lane_llr(0, llr);
            decoder.decode_batch(&mut shared);
            shared.lane_result(0)
        };
        let a_shared = decode_shared(&dec_a, &llr_a);
        let b_shared = decode_shared(&dec_b, &llr_b);
        let a_again = decode_shared(&dec_a, &llr_a);
        prop_assert_eq!(&a_shared, &dec_a.decode(&llr_a));
        prop_assert_eq!(&b_shared, &dec_b.decode(&llr_b));
        prop_assert_eq!(&a_again, &a_shared);
    }

    #[test]
    fn parallel_bc_ber_matches_serial(
        seed in 0u64..2000,
        threads in 2usize..7,
        target_errors in 10u64..80,
    ) {
        let code = LdpcCode::paper_block(25, 5);
        let opts = BerSimOptions {
            target_errors,
            max_frames: 48,
            min_frames: 3,
            seed,
        };
        let target = BlockBerTarget::new(&code, BpConfig::default(), 0.5);
        let serial = simulate_ber_with_threads(&target, 2.2, &opts, 1);
        let par = simulate_ber_with_threads(&target, 2.2, &opts, threads);
        prop_assert_eq!(serial, par);
    }

    #[test]
    fn parallel_cc_ber_matches_serial(
        seed in 0u64..2000,
        threads in 2usize..6,
    ) {
        let code = CoupledCode::paper_cc(12, 6, 9);
        let decoder = wi_ldpc::WindowDecoder::new(3, 8);
        let opts = BerSimOptions {
            target_errors: 30,
            max_frames: 20,
            min_frames: 2,
            seed,
        };
        let target = CoupledBerTarget::new(&code, decoder);
        let serial = simulate_ber_with_threads(&target, 2.0, &opts, 1);
        let par = simulate_ber_with_threads(&target, 2.0, &opts, threads);
        prop_assert_eq!(serial, par);
    }
}

#[test]
fn min_sum_converges_on_the_paper_codes() {
    // Normalized min-sum must decode the paper's (4,8)-regular block codes
    // in the operating region — this is the hardware-faithful decoder the
    // α normalization exists for.
    for lifting in [25usize, 40, 60] {
        let code = LdpcCode::paper_block(lifting, 17);
        let decoder = BpDecoder::new(
            &code,
            BpConfig {
                max_iterations: 50,
                check_rule: CheckRule::min_sum(),
            },
        );
        let sigma = 0.62; // ≈ 4.1 dB Eb/N0 at rate 1/2: inside the waterfall
        let mut converged = 0;
        let total = 20;
        for frame in 0..total {
            let llr = noisy_zero_llrs(code.len(), sigma, 3_000 + frame);
            let result = decoder.decode(&llr);
            if result.converged && result.hard.iter().all(|&b| !b) {
                converged += 1;
            }
        }
        assert!(
            converged >= total - 1,
            "min-sum N={lifting}: only {converged}/{total} frames decoded"
        );
    }
}

#[test]
fn min_sum_tracks_sum_product_within_fraction_of_db() {
    // Required-Eb/N0 sanity: at a fixed moderate noise level min-sum's BER
    // stays within an order of magnitude of sum-product on the N=40 code.
    let code = LdpcCode::paper_block(40, 23);
    let opts = BerSimOptions {
        target_errors: 200,
        max_frames: 120,
        min_frames: 120,
        seed: 0x5EED,
    };
    let sp = simulate_ber_with_threads(
        &BlockBerTarget::new(&code, BpConfig::default(), 0.5),
        2.5,
        &opts,
        1,
    );
    let ms_config = BpConfig {
        check_rule: CheckRule::min_sum(),
        ..BpConfig::default()
    };
    let ms = simulate_ber_with_threads(&BlockBerTarget::new(&code, ms_config, 0.5), 2.5, &opts, 1);
    assert!(sp.ber > 0.0 && ms.ber > 0.0, "both in the waterfall");
    assert!(
        ms.ber < sp.ber * 10.0,
        "min-sum BER {} vs sum-product {}",
        ms.ber,
        sp.ber
    );
}
