//! Belief-propagation decoding over the flat CSR edge layout.
//!
//! A flooding-schedule log-domain decoder with three check-node update
//! rules (the kernels themselves live in [`crate::kernel`]):
//!
//! * [`CheckRule::SumProduct`] — exact: forward/backward partial products
//!   of `tanh(L/2)`, each check in O(degree).
//! * [`CheckRule::SumProductTable { bits }`][CheckRule::SumProductTable]
//!   — sum-product through the involutive φ-function evaluated from a
//!   precomputed [`kernel::PhiTable`] (linear interpolation + saturation
//!   tail): no transcendentals in the loop, accuracy-tested against the
//!   exact rule instead of bit-identical (see the [`kernel`] docs).
//! * [`CheckRule::MinSum { alpha }`][CheckRule::MinSum] — normalized
//!   min-sum: sign product and two-smallest-magnitude tracking, one
//!   kernel for every lane count and check degree. This is the standard
//!   hardware-faithful approximation; `alpha ≈ 0.8` recovers most of the
//!   sum-product performance on the paper's (4,8)-regular codes.
//!
//! The decoding engine is the lane-batched one in [`crate::batch`]:
//! messages live in flat per-edge arrays owned by a reusable
//! [`BatchWorkspace`], so [`BpDecoder::decode_batch`] performs **zero
//! heap allocation**, and [`BpDecoder::decode`] is its one-lane
//! convenience wrapper. The original nested-`Vec` decoder is retained in
//! [`mod@reference`] as the correctness oracle; the engine is
//! bit-identical to it under every rule (see `tests/csr_equivalence.rs`
//! and `tests/batch_equivalence.rs` — the *table rule's* accuracy
//! relative to exact sum-product is what `tests/phi_table.rs` bounds
//! instead).

use crate::batch::BatchWorkspace;
use crate::code::LdpcCode;
use crate::kernel::{self, PhiTable};
use serde::{Deserialize, Serialize};

/// Maximum message magnitude (log-likelihood ratios are clamped here).
pub const LLR_CLAMP: f64 = 30.0;

/// Check-node update rule.
#[derive(Clone, Copy, Debug, Default, PartialEq, Serialize, Deserialize)]
pub enum CheckRule {
    /// Exact sum-product (tanh/atanh) update.
    #[default]
    SumProduct,
    /// Sum-product through a geometric φ lookup table with `2^bits`
    /// cells per input octave ([`kernel::PhiTable`]) — the fast
    /// accuracy-tested variant; within 0.05 dB of
    /// [`CheckRule::SumProduct`] on the paper's codes at the default
    /// 7 bits.
    SumProductTable {
        /// log₂ of the table cells per input octave (valid range 2–12;
        /// the per-evaluation error shrinks as `4^-bits`).
        bits: u32,
    },
    /// Normalized min-sum: `c2v = α · sign-product · min-magnitude`.
    MinSum {
        /// Normalization factor `α` in `(0, 1]` (typically 0.7–0.9).
        alpha: f64,
    },
}

impl CheckRule {
    /// Normalized min-sum with the workspace default `α = 0.8`.
    pub fn min_sum() -> Self {
        CheckRule::MinSum { alpha: 0.8 }
    }

    /// Table-driven sum-product with the workspace default `bits = 7`
    /// (128 cells per octave, ≈ 6k nodes / 48 KiB — cache-resident;
    /// per-evaluation error uniformly ≤ ≈ 10⁻⁵ over the whole domain).
    pub fn sum_product_table() -> Self {
        CheckRule::SumProductTable { bits: 7 }
    }

    /// Returns a human-readable problem when the rule's parameters are
    /// unusable (`α ∉ (0, 1]` — zero or negative `α` silently corrupts
    /// every message; φ-table `bits ∉ 2..=12`), `None` when valid. The
    /// single source of truth for rule validity, shared by decoder
    /// construction and system-level config validation.
    pub fn problem(&self) -> Option<String> {
        match *self {
            CheckRule::SumProduct => None,
            CheckRule::SumProductTable { bits } => {
                if (2..=12).contains(&bits) {
                    None
                } else {
                    Some(format!("phi table bits {bits} must be in 2..=12"))
                }
            }
            CheckRule::MinSum { alpha } => {
                if alpha > 0.0 && alpha <= 1.0 {
                    None
                } else {
                    Some(format!("min-sum alpha {alpha} must be in (0, 1]"))
                }
            }
        }
    }

    /// Panics unless the rule's parameters are usable (see
    /// [`problem`](CheckRule::problem)).
    pub fn validate(&self) {
        if let Some(problem) = self.problem() {
            panic!("{problem}");
        }
    }
}

/// Belief-propagation decoder configuration.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct BpConfig {
    /// Maximum flooding iterations.
    pub max_iterations: usize,
    /// Check-node update rule.
    pub check_rule: CheckRule,
}

impl Default for BpConfig {
    fn default() -> Self {
        BpConfig {
            max_iterations: 50,
            check_rule: CheckRule::SumProduct,
        }
    }
}

/// Decoding outcome.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct DecodeResult {
    /// Hard decisions (true = bit 1).
    pub hard: Vec<bool>,
    /// Posterior LLRs (positive favours bit 0).
    pub posterior: Vec<f64>,
    /// Iterations executed.
    pub iterations: usize,
    /// Whether the syndrome was zero at exit.
    pub converged: bool,
}

/// Iterations/convergence summary of one lane of a batched decode; the
/// hard decisions and posteriors stay in the
/// [`BatchWorkspace`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DecodeStatus {
    /// Iterations executed.
    pub iterations: usize,
    /// Whether the syndrome was zero at exit.
    pub converged: bool,
}

/// One flooding check-node update over the checks in
/// `check_lo..check_hi` that have an edge flagged in `changed`,
/// streaming the flat CSR arrays with messages in `[edge][lane]`
/// structure-of-arrays layout: dispatches `rule` to its
/// [`crate::kernel`] implementation and returns the number of checks
/// updated. Scratch slices must hold `max_check_degree` (+1 for `fwd`)
/// entries; `phi` must be built (see [`PhiTable::ensure`]) when the rule
/// is [`CheckRule::SumProductTable`].
///
/// Shared by [`BpDecoder`] and the window decoder so both schedules apply
/// identical numerics.
#[allow(clippy::too_many_arguments)] // flat kernel: every slice is a distinct buffer
pub(crate) fn update_checks_batch<const L: usize>(
    offsets: &[u32],
    check_lo: usize,
    check_hi: usize,
    rule: CheckRule,
    phi: &PhiTable,
    v2c: &[[f64; L]],
    changed: &[u8],
    c2v: &mut [[f64; L]],
    scratch: &mut [[f64; L]],
    fwd: &mut [[f64; L]],
) -> usize {
    match rule {
        CheckRule::SumProduct => kernel::sum_product_exact_batch(
            offsets, check_lo, check_hi, v2c, changed, c2v, scratch, fwd,
        ),
        CheckRule::SumProductTable { .. } => kernel::sum_product_table_batch(
            offsets, check_lo, check_hi, phi, v2c, changed, c2v, scratch,
        ),
        CheckRule::MinSum { alpha } => {
            kernel::min_sum_batch(offsets, check_lo, check_hi, alpha, v2c, changed, c2v)
        }
    }
}

/// A belief-propagation decoder bound to a code.
#[derive(Clone, Debug)]
pub struct BpDecoder<'a> {
    code: &'a LdpcCode,
    config: BpConfig,
}

impl<'a> BpDecoder<'a> {
    /// Creates a decoder.
    ///
    /// # Panics
    ///
    /// Panics if the check rule's parameters are invalid (see
    /// [`CheckRule::validate`]).
    pub fn new(code: &'a LdpcCode, config: BpConfig) -> Self {
        config.check_rule.validate();
        BpDecoder { code, config }
    }

    /// The configuration in use.
    pub fn config(&self) -> BpConfig {
        self.config
    }

    /// The code the decoder is bound to.
    pub fn code(&self) -> &'a LdpcCode {
        self.code
    }

    /// Decodes channel LLRs (positive favours bit 0) as a one-lane
    /// [`decode_batch`](BpDecoder::decode_batch), allocating a fresh
    /// workspace. Monte-Carlo loops should prefer `decode_batch` with a
    /// reused [`BatchWorkspace`].
    ///
    /// # Panics
    ///
    /// Panics if `channel_llr.len()` differs from the code length.
    pub fn decode(&self, channel_llr: &[f64]) -> DecodeResult {
        let mut ws = BatchWorkspace::new(self.code, 1);
        ws.set_lane_llr(0, channel_llr);
        self.decode_batch(&mut ws);
        ws.lane_result(0)
    }
}

/// Converts AWGN/BPSK observations to channel LLRs: bit 0 ↦ +1, bit 1 ↦ −1,
/// `LLR = 2·y/σ²` (positive favours bit 0).
pub fn awgn_llrs(received: &[f64], sigma: f64) -> Vec<f64> {
    assert!(sigma > 0.0, "sigma must be positive");
    let scale = 2.0 / (sigma * sigma);
    received.iter().map(|&y| scale * y).collect()
}

/// The original nested-`Vec` decoder, retained as the correctness oracle
/// for the lane-batched engine.
///
/// It allocates per-check message vectors and per-iteration scratch on
/// every call — exactly the behaviour the workspace engine removes — and
/// is kept unoptimized on purpose: `tests/csr_equivalence.rs` and
/// `tests/batch_equivalence.rs` assert that every lane of the engine
/// produces a bit-identical [`DecodeResult`] under every [`CheckRule`]
/// (the table rule shares the same [`PhiTable`] evaluation, so engine
/// equivalence stays exact even though the *rule* is only
/// accuracy-tested against exact sum-product), and the `bp_decode_*`
/// benches measure the speedup against it. Its per-check update,
/// `check_update`, is also the check rule of the window oracle
/// [`crate::window::reference`].
pub mod reference {
    use super::{BpConfig, CheckRule, DecodeResult, LLR_CLAMP};
    use crate::code::LdpcCode;
    use crate::kernel::{phi_gather_floor, PhiTable, TANH_CLAMP};

    /// Decodes `channel_llr` with the naive nested-`Vec` engine.
    ///
    /// # Panics
    ///
    /// Panics if `channel_llr.len()` differs from the code length.
    pub fn decode(code: &LdpcCode, config: BpConfig, channel_llr: &[f64]) -> DecodeResult {
        let n = code.len();
        assert_eq!(channel_llr.len(), n, "LLR length mismatch");
        let n_checks = code.num_checks();

        let mut v2c: Vec<Vec<f64>> = (0..n_checks)
            .map(|c| {
                code.check_neighbors(c)
                    .iter()
                    .map(|&v| channel_llr[v as usize].clamp(-LLR_CLAMP, LLR_CLAMP))
                    .collect()
            })
            .collect();
        let mut c2v: Vec<Vec<f64>> = (0..n_checks)
            .map(|c| vec![0.0; code.check_neighbors(c).len()])
            .collect();
        let mut posterior: Vec<f64> = channel_llr.to_vec();
        let mut hard: Vec<bool> = channel_llr.iter().map(|&l| l < 0.0).collect();
        let phi = rule_table(config.check_rule);

        let mut iterations = 0;
        let mut converged = syndrome_ok(code, &hard);
        while iterations < config.max_iterations && !converged {
            iterations += 1;

            for (m, out) in v2c.iter().zip(c2v.iter_mut()) {
                check_update(config.check_rule, phi.as_ref(), m, out);
            }

            for (p, &ch) in posterior.iter_mut().zip(channel_llr) {
                *p = ch.clamp(-LLR_CLAMP, LLR_CLAMP);
            }
            for (c, c2v_c) in c2v.iter().enumerate() {
                for (j, &v) in code.check_neighbors(c).iter().enumerate() {
                    posterior[v as usize] += c2v_c[j];
                }
            }
            for (c, v2c_c) in v2c.iter_mut().enumerate() {
                for (j, &v) in code.check_neighbors(c).iter().enumerate() {
                    v2c_c[j] = (posterior[v as usize] - c2v[c][j]).clamp(-LLR_CLAMP, LLR_CLAMP);
                }
            }

            for (h, &p) in hard.iter_mut().zip(&posterior) {
                *h = p < 0.0;
            }
            converged = syndrome_ok(code, &hard);
        }

        DecodeResult {
            hard,
            posterior,
            iterations,
            converged,
        }
    }

    /// The φ table `rule` evaluates, built fresh; `None` unless `rule` is
    /// [`CheckRule::SumProductTable`]. The oracles share the engine's
    /// table construction so the two stay bit-identical under the table
    /// rule as well.
    pub(crate) fn rule_table(rule: CheckRule) -> Option<PhiTable> {
        match rule {
            CheckRule::SumProductTable { bits } => Some(PhiTable::new(bits)),
            _ => None,
        }
    }

    /// The naive update of one check: extrinsic messages `out[j]` from the
    /// incoming `m` under `rule`. `phi` must hold the rule's table (see
    /// [`rule_table`]) under [`CheckRule::SumProductTable`].
    pub(crate) fn check_update(
        rule: CheckRule,
        phi: Option<&PhiTable>,
        m: &[f64],
        out: &mut [f64],
    ) {
        let deg = m.len();
        match rule {
            CheckRule::SumProduct => {
                let tanhs: Vec<f64> = m
                    .iter()
                    .map(|&v| (v / 2.0).tanh().clamp(-TANH_CLAMP, TANH_CLAMP))
                    .collect();
                let mut fwd = vec![1.0; deg + 1];
                for j in 0..deg {
                    fwd[j + 1] = fwd[j] * tanhs[j];
                }
                let mut bwd = 1.0;
                for j in (0..deg).rev() {
                    let excl = fwd[j] * bwd;
                    out[j] = (2.0 * excl.atanh()).clamp(-LLR_CLAMP, LLR_CLAMP);
                    bwd *= tanhs[j];
                }
            }
            CheckRule::SumProductTable { .. } => {
                let phi = phi.expect("table built for the table rule");
                let floor = phi_gather_floor();
                let phis: Vec<f64> = m.iter().map(|&v| phi.eval(v.abs()).max(floor)).collect();
                let total = phis.iter().fold(0.0f64, |t, &a| t + a);
                let sign_prod = m.iter().fold(1.0f64, |s, &v| if v < 0.0 { -s } else { s });
                for j in 0..deg {
                    let mag = phi.eval((total - phis[j]).max(0.0));
                    let sign = if m[j] < 0.0 { -sign_prod } else { sign_prod };
                    out[j] = (sign * mag).clamp(-LLR_CLAMP, LLR_CLAMP);
                }
            }
            CheckRule::MinSum { alpha } => {
                let mut min1 = f64::INFINITY;
                let mut min2 = f64::INFINITY;
                let mut min1_at = 0;
                let mut sign_prod = 1.0f64;
                for (j, &v) in m.iter().enumerate() {
                    let mag = v.abs();
                    if mag < min1 {
                        min2 = min1;
                        min1 = mag;
                        min1_at = j;
                    } else if mag < min2 {
                        min2 = mag;
                    }
                    if v < 0.0 {
                        sign_prod = -sign_prod;
                    }
                }
                for (j, &v) in m.iter().enumerate() {
                    let mag = if j == min1_at { min2 } else { min1 };
                    let sign = if v < 0.0 { -sign_prod } else { sign_prod };
                    out[j] = (alpha * sign * mag).clamp(-LLR_CLAMP, LLR_CLAMP);
                }
            }
        }
    }

    fn syndrome_ok(code: &LdpcCode, hard: &[bool]) -> bool {
        (0..code.num_checks()).all(|c| {
            !code
                .check_neighbors(c)
                .iter()
                .fold(false, |acc, &v| acc ^ hard[v as usize])
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::code::Encoder;
    use wi_num::rng::{seeded_rng, Gaussian};

    fn bpsk(cw: &[bool]) -> Vec<f64> {
        cw.iter().map(|&b| if b { -1.0 } else { 1.0 }).collect()
    }

    #[test]
    fn noiseless_decoding_is_exact() {
        let code = LdpcCode::paper_block(25, 3);
        let enc = Encoder::new(&code);
        let mut rng = seeded_rng(1);
        let cw = code.random_codeword(&enc, &mut rng);
        let llr = awgn_llrs(&bpsk(&cw), 0.5);
        let dec = BpDecoder::new(&code, BpConfig::default()).decode(&llr);
        assert!(dec.converged);
        assert_eq!(dec.hard, cw);
        assert_eq!(dec.iterations, 0, "syndrome already satisfied");
    }

    #[test]
    fn corrects_moderate_noise() {
        let code = LdpcCode::paper_block(40, 5);
        let enc = Encoder::new(&code);
        let mut rng = seeded_rng(2);
        let mut gauss = Gaussian::new();
        let sigma = 0.6; // Eb/N0 ≈ 4.4 dB at rate 1/2
        let decoder = BpDecoder::new(&code, BpConfig::default());
        let mut failures = 0;
        for _ in 0..20 {
            let cw = code.random_codeword(&enc, &mut rng);
            let rx: Vec<f64> = bpsk(&cw)
                .iter()
                .map(|&s| s + gauss.sample_with(&mut rng, 0.0, sigma))
                .collect();
            let dec = decoder.decode(&awgn_llrs(&rx, sigma));
            if dec.hard != cw {
                failures += 1;
            }
        }
        assert!(failures <= 1, "{failures} failures out of 20");
    }

    #[test]
    fn min_sum_corrects_moderate_noise() {
        let code = LdpcCode::paper_block(40, 5);
        let enc = Encoder::new(&code);
        let mut rng = seeded_rng(2);
        let mut gauss = Gaussian::new();
        let sigma = 0.58;
        let decoder = BpDecoder::new(
            &code,
            BpConfig {
                check_rule: CheckRule::min_sum(),
                ..BpConfig::default()
            },
        );
        let mut failures = 0;
        for _ in 0..20 {
            let cw = code.random_codeword(&enc, &mut rng);
            let rx: Vec<f64> = bpsk(&cw)
                .iter()
                .map(|&s| s + gauss.sample_with(&mut rng, 0.0, sigma))
                .collect();
            let dec = decoder.decode(&awgn_llrs(&rx, sigma));
            if dec.hard != cw {
                failures += 1;
            }
        }
        assert!(failures <= 1, "{failures} min-sum failures out of 20");
    }

    #[test]
    fn fails_gracefully_under_heavy_noise() {
        let code = LdpcCode::paper_block(25, 7);
        let mut rng = seeded_rng(3);
        let mut gauss = Gaussian::new();
        let sigma = 3.0;
        let cw = vec![false; code.len()];
        let rx: Vec<f64> = bpsk(&cw)
            .iter()
            .map(|&s| s + gauss.sample_with(&mut rng, 0.0, sigma))
            .collect();
        let dec = BpDecoder::new(
            &code,
            BpConfig {
                max_iterations: 10,
                ..BpConfig::default()
            },
        )
        .decode(&awgn_llrs(&rx, sigma));
        // No panic; may or may not converge, but must report honestly.
        assert!(dec.iterations <= 10);
        if dec.converged {
            assert!(code.is_codeword(&dec.hard));
        }
    }

    #[test]
    fn converged_output_is_a_codeword() {
        let code = LdpcCode::paper_block(30, 9);
        let mut rng = seeded_rng(4);
        let mut gauss = Gaussian::new();
        let sigma = 0.7;
        let cw = vec![false; code.len()];
        let decoder = BpDecoder::new(&code, BpConfig::default());
        for _ in 0..10 {
            let rx: Vec<f64> = bpsk(&cw)
                .iter()
                .map(|&s| s + gauss.sample_with(&mut rng, 0.0, sigma))
                .collect();
            let dec = decoder.decode(&awgn_llrs(&rx, sigma));
            if dec.converged {
                assert!(code.is_codeword(&dec.hard));
            }
        }
    }

    #[test]
    fn stronger_code_beats_weaker_code() {
        // Larger lifting factor -> longer constraint length -> fewer errors
        // at the same noise level (the N knob of Fig. 10).
        let sigma = 0.78;
        let count_errors = |n: usize| -> u64 {
            let code = LdpcCode::paper_block(n, 13);
            let decoder = BpDecoder::new(&code, BpConfig::default());
            let mut ws = BatchWorkspace::new(&code, 1);
            let mut rng = seeded_rng(5);
            let mut gauss = Gaussian::new();
            let cw = vec![false; code.len()];
            let mut errs = 0u64;
            let frames = 4000 / n; // equal bit budget
            for _ in 0..frames.max(20) {
                let rx: Vec<f64> = bpsk(&cw)
                    .iter()
                    .map(|&s| s + gauss.sample_with(&mut rng, 0.0, sigma))
                    .collect();
                ws.set_lane_llr(0, &awgn_llrs(&rx, sigma));
                decoder.decode_batch(&mut ws);
                errs += ws.lane_error_count(0);
            }
            errs
        };
        let weak = count_errors(20);
        let strong = count_errors(100);
        assert!(strong < weak, "strong {strong} vs weak {weak}");
    }

    #[test]
    fn workspace_reuse_matches_fresh_workspace() {
        let code = LdpcCode::paper_block(30, 6);
        let decoder = BpDecoder::new(&code, BpConfig::default());
        let mut rng = seeded_rng(9);
        let mut gauss = Gaussian::new();
        let mut ws = BatchWorkspace::new(&code, 1);
        for _ in 0..5 {
            let rx: Vec<f64> = (0..code.len())
                .map(|_| 1.0 + gauss.sample_with(&mut rng, 0.0, 0.8))
                .collect();
            let llr = awgn_llrs(&rx, 0.8);
            ws.set_lane_llr(0, &llr);
            decoder.decode_batch(&mut ws);
            let reused = ws.lane_result(0);
            let fresh = decoder.decode(&llr);
            assert_eq!(reused, fresh, "stale workspace state leaked");
        }
    }

    #[test]
    fn llr_sign_convention() {
        let llr = awgn_llrs(&[0.9, -1.1], 1.0);
        assert!(llr[0] > 0.0 && llr[1] < 0.0);
    }

    #[test]
    #[should_panic(expected = "LLR length mismatch")]
    fn wrong_length_panics() {
        let code = LdpcCode::paper_block(10, 1);
        BpDecoder::new(&code, BpConfig::default()).decode(&[0.0; 3]);
    }

    #[test]
    #[should_panic(expected = "must be in (0, 1]")]
    fn invalid_min_sum_alpha_panics() {
        let code = LdpcCode::paper_block(10, 1);
        BpDecoder::new(
            &code,
            BpConfig {
                check_rule: CheckRule::MinSum { alpha: -0.8 },
                ..BpConfig::default()
            },
        );
    }
}
