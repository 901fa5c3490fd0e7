//! Check-node update kernels — the innermost loops of every decoder in
//! this crate.
//!
//! Every kernel works on lane arrays: messages live in
//! structure-of-arrays layout `[edge][lane]` (lane = frame), so one call
//! updates `L` independent frames in lockstep. Every
//! [`CheckRule`](crate::decoder::CheckRule) resolves to one of the check
//! kernels below; [`BpDecoder`](crate::decoder::BpDecoder) and
//! [`WindowDecoder`](crate::window::WindowDecoder) share them through
//! `decoder::update_checks_batch`, so both schedules apply identical
//! numerics. A single-frame decode is the `L = 1` instance of the same
//! code. The kernels are public so the criterion benches (and any
//! external experiment) can measure them in isolation:
//!
//! * [`sum_product_exact_batch`] — the exact `tanh`/`atanh`
//!   forward/backward kernel, bit-identical per lane to the naive
//!   reference oracle.
//! * [`sum_product_table_batch`] — the same check update expressed
//!   through the involutive φ-function `φ(x) = −ln tanh(x/2)` and
//!   evaluated from a precomputed [`PhiTable`]: no transcendentals in the
//!   loop, accuracy bounded by [`PhiTable::error_bound_at`] instead of
//!   bit-identity.
//! * [`min_sum_batch`] — normalized min-sum with a branch-free two-min
//!   tracker per lane.
//!
//! The φ-table kernel takes a fixed-array fast path for the degree-8
//! checks of the paper's (4,8)-regular codes.
//!
//! Every check kernel is change-driven: it takes the per-edge "changed"
//! flags that [`v2c_update_batch`] writes and skips a check none of
//! whose edges is flagged. A check's output is a pure function of its
//! inputs, so a skipped update would have rewritten the same bits.
//! Callers outside a decoder pass all-set flags. Each kernel returns
//! the number of check updates it ran.
//!
//! # The φ formulation
//!
//! For a check of degree `d` with incoming messages `m₁ … m_d`, the exact
//! sum-product extrinsic message to edge `j` is
//!
//! ```text
//! |c2v_j| = φ( Σ_{i≠j} φ(|m_i|) ),   sign(c2v_j) = Π_{i≠j} sign(m_i),
//! ```
//!
//! because φ is its own inverse on `(0, ∞)`. One table evaluation per
//! edge on the gather pass and one on the scatter pass replace the
//! `tanh`/`atanh` pair that makes the exact kernel transcendental-bound
//! (see the ROADMAP item this subsystem closes, and
//! `docs/ARCHITECTURE.md` for where it sits in the workspace).

use crate::decoder::LLR_CLAMP;

/// Upper edge of the φ-table input domain. Decoder messages are clamped
/// to `±LLR_CLAMP`, so magnitudes never exceed this; φ-sums beyond it
/// land in the saturation tail.
pub const PHI_X_MAX: f64 = LLR_CLAMP;

/// Exact φ-function with the decoder's clamp semantics:
/// `φ(x) = min(−ln tanh(x/2), LLR_CLAMP)` for `x > 0`, and `LLR_CLAMP`
/// at `x = 0` (where the true φ diverges — the clamp mirrors the
/// `±LLR_CLAMP` message clamp every kernel applies).
///
/// This is the reference the table kernel is accuracy-tested against.
pub fn phi_exact(x: f64) -> f64 {
    phi_raw(x).min(LLR_CLAMP)
}

/// Unclamped `−ln tanh(x/2)` (`+∞` at 0 via the `ln` of 0); the node
/// values of the geometric grid, so that interpolation error analysis
/// never has to reason about the clamp.
fn phi_raw(x: f64) -> f64 {
    debug_assert!(x >= 0.0, "phi domain is x >= 0, got {x}");
    -(x / 2.0).tanh().ln()
}

/// The input below which the clamped φ is identically [`LLR_CLAMP`]:
/// `2·atanh(e^-LLR_CLAMP) ≈ 1.87·10⁻¹³`.
fn phi_clamp_knee() -> f64 {
    2.0 * (-LLR_CLAMP).exp().atanh()
}

/// Second derivative `φ''(x) = cosh(x)/sinh²(x)` — positive and strictly
/// decreasing on `(0, ∞)`, which makes the per-interval linear
/// interpolation bound of [`PhiTable::error_bound_at`] rigorous.
fn phi_second_derivative(x: f64) -> f64 {
    let s = x.sinh();
    x.cosh() / (s * s)
}

/// Smallest binary exponent the table resolves: below `2^EXP_MIN`
/// (≈ 1.1·10⁻¹³) the clamped φ is identically [`LLR_CLAMP`], so nothing
/// is lost by returning the clamp directly.
const EXP_MIN: i32 = -43;

/// One-past-largest binary exponent: `PHI_X_MAX = 30 < 2^5`, so octaves
/// `2^-43 … 2^4` cover the whole domain.
const EXP_END: i32 = 5;

/// Number of octaves the table spans.
const N_OCTAVES: usize = (EXP_END - EXP_MIN) as usize;

/// Precomputed lookup table for φ with linear interpolation and a
/// saturation tail.
///
/// Because φ has a logarithmic singularity at 0 — and extrinsic φ-sums
/// of saturated messages are as small as `10⁻¹²` — the breakpoints are
/// spaced **geometrically**, not uniformly: each binary octave
/// `[2^e, 2^(e+1))` of the input gets `2^bits` equal-width cells, indexed
/// straight from the f64 exponent and top mantissa bits (within a cell
/// the input is linear in its mantissa, so cell-local interpolation is
/// ordinary linear interpolation). This keeps the *relative* node
/// spacing constant, which bounds the interpolation error uniformly over
/// nine decades: `x²·φ''(x) ≤ 1.15`, so every cell's error is at most
/// `≈ 1.15 / (8·4^bits)` (about `1.1·10⁻⁵` at the default `bits = 7`).
///
/// Inputs below `2^-43` return [`LLR_CLAMP`] (the clamped φ is exactly
/// that there) and inputs at or beyond [`PHI_X_MAX`] saturate to the
/// tail value `φ(PHI_X_MAX) ≈ 1.9·10⁻¹³`.
///
/// # Accuracy contract
///
/// Unlike the CSR engines, which are pinned bit-for-bit to their naive
/// oracles, this table is **accuracy-tested**: for any input `x` the
/// evaluation error versus [`phi_exact`] is bounded by
/// [`error_bound_at(x)`](PhiTable::error_bound_at), a per-cell bound
/// derived from φ's convexity that shrinks as `4^-bits`.
/// `tests/phi_table.rs` property-tests the bound, the kernel's sign
/// symmetry and the monotonicity across `bits` settings, and pins the
/// end-to-end required Eb/N0 of the table rule to exact sum-product
/// within 0.05 dB on the paper's codes.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct PhiTable {
    bits: u32,
    /// `2^(52 - bits)` mantissa remainder → fraction-in-cell scale.
    frac_scale: f64,
    /// Inputs below this return [`LLR_CLAMP`] exactly (the clamp knee
    /// `2·atanh(e^-LLR_CLAMP)`; above it the unclamped φ is ≤ the clamp,
    /// so clamping never enters the interpolation error analysis).
    x_min: f64,
    /// Worst per-cell interpolation bound over the table (computed at
    /// build time).
    max_bound: f64,
    /// Saturation-tail value `φ(PHI_X_MAX)`, returned for inputs at or
    /// beyond [`PHI_X_MAX`].
    tail: f64,
    /// `values[(e - EXP_MIN)·2^bits + c] = φ(2^e·(1 + c/2^bits))`
    /// (unclamped), length `N_OCTAVES·2^bits + 1`.
    values: Vec<f64>,
}

impl PhiTable {
    /// Builds the table with `2^bits` geometric cells per input octave
    /// (`N_OCTAVES · 2^bits + 1` nodes overall).
    ///
    /// # Panics
    ///
    /// Panics unless `2 ≤ bits ≤ 12` (below 2 the worst-cell bound is
    /// coarser than a tenth of an LLR; above 12 the table outgrows any
    /// cache for no accuracy the f64 messages can use).
    pub fn new(bits: u32) -> Self {
        assert!(
            (2..=12).contains(&bits),
            "phi table bits {bits} must be in 2..=12"
        );
        let m = 1usize << bits;
        let n = N_OCTAVES * m;
        let node = |k: usize| {
            let exp = EXP_MIN + (k / m) as i32;
            let cell = (k % m) as f64;
            (exp as f64).exp2() * (1.0 + cell / m as f64)
        };
        let values: Vec<f64> = (0..=n).map(|k| phi_raw(node(k))).collect();
        let max_bound = (0..n)
            .map(|k| {
                let h = node(k + 1) - node(k);
                phi_second_derivative(node(k)) * h * h / 8.0
            })
            .fold(0.0f64, f64::max);
        PhiTable {
            bits,
            frac_scale: (-((52 - bits) as f64)).exp2(),
            x_min: phi_clamp_knee(),
            max_bound,
            tail: phi_raw(PHI_X_MAX),
            values,
        }
    }

    /// The `bits` parameter the table was built with (log₂ of the cells
    /// per input octave).
    pub fn bits(&self) -> u32 {
        self.bits
    }

    /// Whether the table has been built (a `Default` table is empty and
    /// must not be evaluated).
    pub fn is_built(&self) -> bool {
        !self.values.is_empty()
    }

    /// Rebuilds the table only when `bits` differs from the current
    /// build (or the table is still the empty `Default`). Workspaces
    /// call this once per decode, so switching rules is cheap and
    /// steady-state decoding never reallocates.
    pub fn ensure(&mut self, bits: u32) {
        if !self.is_built() || self.bits != bits {
            *self = PhiTable::new(bits);
        }
    }

    /// Evaluates φ at `x ≥ 0` by cell-local linear interpolation,
    /// returning [`LLR_CLAMP`] below the clamp knee `2·atanh(e^-30)`
    /// (where the clamped φ is exactly that) and saturating to
    /// `φ(PHI_X_MAX)` at or beyond [`PHI_X_MAX`] (the tail) — no
    /// transcendentals, no division.
    ///
    /// # Panics
    ///
    /// Debug-asserts that the table [`is_built`](PhiTable::is_built) and
    /// `x` is non-negative.
    #[inline]
    pub fn eval(&self, x: f64) -> f64 {
        debug_assert!(self.is_built(), "evaluating an unbuilt phi table");
        debug_assert!(x >= 0.0, "phi table domain is x >= 0, got {x}");
        if x >= PHI_X_MAX {
            return self.tail;
        }
        if x < self.x_min {
            return LLR_CLAMP;
        }
        // x is a positive normal ≥ 2^EXP_MIN here, so its exponent and
        // top mantissa bits index directly into the geometric grid.
        let b = x.to_bits();
        let exp = ((b >> 52) as i32) - 1023;
        let mant = b & ((1u64 << 52) - 1);
        let cell = (mant >> (52 - self.bits)) as usize;
        let frac = (mant & ((1u64 << (52 - self.bits)) - 1)) as f64 * self.frac_scale;
        let k = (((exp - EXP_MIN) as usize) << self.bits) + cell;
        let lo = self.values[k];
        // The cell straddling the clamp knee interpolates from an
        // unclamped left node > LLR_CLAMP; cap the chord so the ceiling
        // and monotonicity contracts hold right at the knee (the cap is
        // 1-Lipschitz, so the documented error bound is unaffected).
        (lo + frac * (self.values[k + 1] - lo)).min(LLR_CLAMP)
    }

    /// Documented bound on `|eval(x) − phi_exact(x)|`.
    ///
    /// * `x` below the clamp knee `2·atanh(e^-30)`: zero — the clamped φ
    ///   and the table are both exactly [`LLR_CLAMP`] there.
    /// * knee `≤ x < PHI_X_MAX`: the linear-interpolation bound
    ///   `φ''(x_k) · h² / 8` on `x`'s cell (`x_k` the cell's left node,
    ///   `h = 2^e / 2^bits` its width), rigorous because φ is convex
    ///   with decreasing `φ''` (above the knee the unclamped φ is below
    ///   the clamp, so clamping never enters).
    /// * `x ≥ PHI_X_MAX` (saturation tail): `φ(PHI_X_MAX)` — the table
    ///   returns that value while the true φ lies in `(0, φ(PHI_X_MAX)]`.
    ///
    /// Since the geometric grid keeps `h/x_k ≤ 2^-bits` and
    /// `x²·φ''(x) ≤ 1.15` on `(0, ∞)`, the bound is uniformly
    /// `≤ ≈ 1.15 / (8·4^bits)` over the whole table
    /// ([`max_error_bound`](Self::max_error_bound)).
    pub fn error_bound_at(&self, x: f64) -> f64 {
        assert!(self.is_built(), "unbuilt phi table has no error bound");
        if x >= PHI_X_MAX {
            return self.tail;
        }
        if x < self.x_min {
            return 0.0;
        }
        let b = x.to_bits();
        let exp = ((b >> 52) as i32) - 1023;
        let m = 1u64 << self.bits;
        let cell = ((b & ((1u64 << 52) - 1)) >> (52 - self.bits)) as f64;
        let octave = (exp as f64).exp2();
        let node = octave * (1.0 + cell / m as f64);
        let h = octave / m as f64;
        phi_second_derivative(node) * h * h / 8.0
    }

    /// The worst documented error over the whole table — the maximum of
    /// the per-cell bounds behind
    /// [`error_bound_at`](Self::error_bound_at), computed at build time;
    /// `≈ 1.15/(8·4^bits)` (the `x ≈ 2` cells, where `x²·φ''(x)` peaks).
    /// Quoted per `bits` in `docs/REPRODUCING.md`.
    pub fn max_error_bound(&self) -> f64 {
        assert!(self.is_built(), "unbuilt phi table has no error bound");
        self.max_bound
    }
}

/// Gather-side floor on φ values, `−ln(TANH_CLAMP) ≈ 10⁻¹²`: the exact
/// kernel clamps every `tanh` factor to `±TANH_CLAMP`, which in the
/// φ-domain is exactly this floor on each summand. Applying it keeps the
/// table kernel's *saturation* behaviour aligned with the exact kernel
/// (a fully saturated degree-8 check emits ≈ 26.4 under both, instead of
/// the φ-clamp 30), which matters in the window decoder, where pinned
/// blocks make saturated checks ubiquitous.
pub fn phi_gather_floor() -> f64 {
    -TANH_CLAMP.ln()
}

/// Tanh clamp keeping `atanh` finite in the exact sum-product update.
pub(crate) const TANH_CLAMP: f64 = 0.999_999_999_999;

/// Message magnitude beyond which `tanh(m/2)` is guaranteed to exceed
/// [`TANH_CLAMP`], so the clamped result is exactly `±TANH_CLAMP` and the
/// `tanh` call can be skipped: `tanh(14.25) = 1 − 2e⁻²⁸·⁵ ≈ 1 − 8.4e−13 >
/// 1 − 1e−12`, with ~1.6e−13 of margin over any rounding of `tanh`.
/// Saturated beliefs sit at exactly `±LLR_CLAMP = ±30` (and the window
/// decoder's pinned decisions always do), so this fast path fires
/// frequently in late iterations while remaining bit-identical to the
/// naive reference.
pub(crate) const TANH_SAT: f64 = 28.5;

// Each lane executes exactly the naive reference's operation sequence
// (`decoder::reference`), so each lane's output is bit-identical to a
// reference decode of that frame. The inner `for lane in 0..L` loops are
// written branch-free (conditional *selects*, never arithmetic blends — a
// blend like `m·new + (1−m)·old` would turn `-0.0` into `+0.0` and break
// bit-identity) so stable-rust LLVM auto-vectorizes them over `[f64; L]`.

/// Whether any edge in `lo..hi` is flagged in `changed` — the skip test
/// every check kernel applies before updating a check.
#[inline(always)]
fn any_changed(changed: &[u8], lo: usize, hi: usize) -> bool {
    changed[lo..hi].iter().any(|&f| f != 0)
}

/// Lane-array normalized min-sum over the checks in `check_lo..check_hi`
/// that have a flagged edge in `changed`, with `v2c`/`c2v` in
/// `[edge][lane]` structure-of-arrays layout; every lane is
/// bit-identical to the reference's two-min tracker on that lane's
/// messages. Returns the number of checks updated.
pub fn min_sum_batch<const L: usize>(
    offsets: &[u32],
    check_lo: usize,
    check_hi: usize,
    alpha: f64,
    v2c: &[[f64; L]],
    changed: &[u8],
    c2v: &mut [[f64; L]],
) -> usize {
    let mut updated = 0;
    for c in check_lo..check_hi {
        let lo = offsets[c] as usize;
        let hi = offsets[c + 1] as usize;
        if !any_changed(changed, lo, hi) {
            continue;
        }
        updated += 1;
        min_sum_check_lanes(alpha, &v2c[lo..hi], &mut c2v[lo..hi]);
    }
    updated
}

/// One lane-array min-sum check: a branch-free two-min tracker per lane.
/// `min1_at` is carried as an exact small-integer f64 so the scatter
/// pass's "am I the minimum position" test is a lane-wise compare; the
/// select-based updates reproduce the reference tracker's
/// first-strict-improvement tie semantics exactly.
///
/// `#[inline(never)]` is load-bearing: under the workspace's thin-LTO
/// release profile the pre-link pipeline skips loop/SLP vectorization,
/// and the post-link vectorizer only recovers these lane loops when the
/// kernel is a small standalone function — inlined into the decode loop
/// it compiles to scalar `minsd` chains (measured: the outlined form is
/// packed `minpd`/`cmpltpd` end to end).
#[inline(never)]
fn min_sum_check_lanes<const L: usize>(alpha: f64, m: &[[f64; L]], out: &mut [[f64; L]]) {
    let mut min1 = [f64::INFINITY; L];
    let mut min2 = [f64::INFINITY; L];
    let mut min1_at = [0.0f64; L];
    let mut sign_prod = [1.0f64; L];
    for (j, mj) in m.iter().enumerate() {
        let jf = j as f64;
        for lane in 0..L {
            let v = mj[lane];
            let mag = v.abs();
            let lt = mag < min1[lane];
            min2[lane] = if lt { min1[lane] } else { min2[lane].min(mag) };
            min1[lane] = if lt { mag } else { min1[lane] };
            min1_at[lane] = if lt { jf } else { min1_at[lane] };
            sign_prod[lane] = if v < 0.0 {
                -sign_prod[lane]
            } else {
                sign_prod[lane]
            };
        }
    }
    for (j, (mj, oj)) in m.iter().zip(out.iter_mut()).enumerate() {
        let jf = j as f64;
        for lane in 0..L {
            let mag = if min1_at[lane] == jf {
                min2[lane]
            } else {
                min1[lane]
            };
            let sign = if mj[lane] < 0.0 {
                -sign_prod[lane]
            } else {
                sign_prod[lane]
            };
            oj[lane] = (alpha * sign * mag).clamp(-LLR_CLAMP, LLR_CLAMP);
        }
    }
}

/// Lane-array exact sum-product over the checks in `check_lo..check_hi`
/// that have a flagged edge in `changed`: forward/backward `tanh`
/// partial products per lane, each check in O(degree). The per-lane
/// `tanh`/`atanh` calls keep this kernel transcendental-bound (it does
/// not vectorize), but every lane is bit-identical to the naive
/// reference — the contract under `CheckRule::SumProduct`. `tanhs`/`fwd`
/// are scratch of `max_check_degree` (+1 for `fwd`) lane-array entries.
/// Returns the number of checks updated.
#[allow(clippy::too_many_arguments)] // flat kernel: every slice is a distinct buffer
pub fn sum_product_exact_batch<const L: usize>(
    offsets: &[u32],
    check_lo: usize,
    check_hi: usize,
    v2c: &[[f64; L]],
    changed: &[u8],
    c2v: &mut [[f64; L]],
    tanhs: &mut [[f64; L]],
    fwd: &mut [[f64; L]],
) -> usize {
    let mut updated = 0;
    for c in check_lo..check_hi {
        let lo = offsets[c] as usize;
        let hi = offsets[c + 1] as usize;
        if !any_changed(changed, lo, hi) {
            continue;
        }
        updated += 1;
        let deg = hi - lo;
        for (t, mj) in tanhs[..deg].iter_mut().zip(&v2c[lo..hi]) {
            for lane in 0..L {
                let m = mj[lane];
                t[lane] = if m >= TANH_SAT {
                    TANH_CLAMP
                } else if m <= -TANH_SAT {
                    -TANH_CLAMP
                } else {
                    (m / 2.0).tanh().clamp(-TANH_CLAMP, TANH_CLAMP)
                };
            }
        }
        fwd[0] = [1.0; L];
        for j in 0..deg {
            let prev = fwd[j];
            for lane in 0..L {
                fwd[j + 1][lane] = prev[lane] * tanhs[j][lane];
            }
        }
        let mut bwd = [1.0f64; L];
        for j in (0..deg).rev() {
            for lane in 0..L {
                c2v[lo + j][lane] =
                    (2.0 * (fwd[j][lane] * bwd[lane]).atanh()).clamp(-LLR_CLAMP, LLR_CLAMP);
                bwd[lane] *= tanhs[j][lane];
            }
        }
    }
    updated
}

/// Lane-array table-driven sum-product over the checks in
/// `check_lo..check_hi` that have a flagged edge in `changed`: per edge,
/// one φ-table evaluation on the gather pass (`φ(|m|)`, floored at
/// [`phi_gather_floor`] and accumulated into the check total) and one
/// on the scatter pass (`φ(total − φ(|m_j|))`). The φ-table gather is a
/// per-lane scalar lookup (no hardware gather on stable rust), but the
/// accumulate/scatter arithmetic around it is lane-parallel. `phis` is
/// scratch of `max_check_degree` lane-array entries; degree-8 checks keep
/// theirs in a fixed array instead, which drops the bounds checks from
/// both passes. Returns the number of checks updated.
///
/// The kernel is *accuracy-tested*, not bit-identical, against
/// [`sum_product_exact_batch`]; see the [`PhiTable`] contract. The
/// decoders and the naive reference evaluate the same table in the same
/// order, so engine bit-identity still holds under the table rule.
#[allow(clippy::too_many_arguments)] // flat kernel: every slice is a distinct buffer
pub fn sum_product_table_batch<const L: usize>(
    offsets: &[u32],
    check_lo: usize,
    check_hi: usize,
    phi: &PhiTable,
    v2c: &[[f64; L]],
    changed: &[u8],
    c2v: &mut [[f64; L]],
    phis: &mut [[f64; L]],
) -> usize {
    let floor = phi_gather_floor();
    let mut updated = 0;
    for c in check_lo..check_hi {
        let lo = offsets[c] as usize;
        let hi = offsets[c + 1] as usize;
        if !any_changed(changed, lo, hi) {
            continue;
        }
        updated += 1;
        if hi - lo == 8 {
            let m: &[[f64; L]; 8] = v2c[lo..hi].try_into().expect("degree-8 check");
            let out: &mut [[f64; L]; 8] = (&mut c2v[lo..hi]).try_into().expect("degree-8 check");
            let mut a = [[0.0f64; L]; 8];
            table_check_lanes(phi, floor, m, out, &mut a);
        } else {
            let deg = hi - lo;
            table_check_lanes(phi, floor, &v2c[lo..hi], &mut c2v[lo..hi], &mut phis[..deg]);
        }
    }
    updated
}

/// One lane-array φ-table check: `phis` receives the gather values
/// (floored at `floor`), one per edge.
#[inline(always)]
fn table_check_lanes<const L: usize>(
    phi: &PhiTable,
    floor: f64,
    m: &[[f64; L]],
    out: &mut [[f64; L]],
    phis: &mut [[f64; L]],
) {
    let mut total = [0.0f64; L];
    let mut sign_prod = [1.0f64; L];
    for (p, mj) in phis.iter_mut().zip(m) {
        for lane in 0..L {
            let v = mj[lane];
            let a = phi.eval(v.abs()).max(floor);
            p[lane] = a;
            total[lane] += a;
            sign_prod[lane] = if v < 0.0 {
                -sign_prod[lane]
            } else {
                sign_prod[lane]
            };
        }
    }
    for ((oj, mj), pj) in out.iter_mut().zip(m).zip(phis.iter()) {
        for lane in 0..L {
            // Float cancellation can push the extrinsic φ-sum a hair
            // below zero when one edge dominates; clamp into the domain.
            let mag = phi.eval((total[lane] - pj[lane]).max(0.0));
            let sign = if mj[lane] < 0.0 {
                -sign_prod[lane]
            } else {
                sign_prod[lane]
            };
            oj[lane] = (sign * mag).clamp(-LLR_CLAMP, LLR_CLAMP);
        }
    }
}

// ---------------------------------------------------------------------
// Lane-array edge/variable kernels: the per-iteration decoder loops that
// surround the check update (initialization, posterior accumulation,
// variable-to-check update, hard decisions). Each is `#[inline(never)]`
// for the same reason as `min_sum_check_lanes`: the thin-LTO post-link
// vectorizer packs these lane loops only when they compile as small
// standalone functions — inlined into the decode loop they stay scalar.

/// Batched v2c (re)initialization: `out[e] = clamp(llr[edge_var[e]])`
/// for every edge in `edge_var`, the lane-wise channel clamp of the
/// reference decoders' message initialization.
#[inline(never)]
pub fn gather_clamp_batch<const L: usize>(
    edge_var: &[u32],
    llr: &[[f64; L]],
    out: &mut [[f64; L]],
) {
    for (m, &v) in out.iter_mut().zip(edge_var) {
        let ch = &llr[v as usize];
        for lane in 0..L {
            m[lane] = ch[lane].clamp(-LLR_CLAMP, LLR_CLAMP);
        }
    }
}

/// Elementwise lane clamp: `out[i] = clamp(llr[i])` — the channel term
/// of the posterior accumulation.
#[inline(never)]
pub fn clamp_batch<const L: usize>(llr: &[[f64; L]], out: &mut [[f64; L]]) {
    for (o, ch) in out.iter_mut().zip(llr) {
        for lane in 0..L {
            o[lane] = ch[lane].clamp(-LLR_CLAMP, LLR_CLAMP);
        }
    }
}

/// Posterior accumulation over edges: `post[edge_var[e]] += m[e]`.
#[inline(never)]
pub fn scatter_add_batch<const L: usize>(
    edge_var: &[u32],
    messages: &[[f64; L]],
    post: &mut [[f64; L]],
) {
    for (&v, m) in edge_var.iter().zip(messages) {
        let p = &mut post[v as usize];
        for lane in 0..L {
            p[lane] += m[lane];
        }
    }
}

/// Variable-to-check update over edges:
/// `v2c[e] = clamp(posterior[edge_var[e]] - c2v[e])`. Also sets
/// `changed[e]` to 1 when the new message differs from the old one on
/// any lane and to 0 otherwise, and returns whether any edge changed.
/// The comparison is on bit patterns, so a `-0.0` ↔ `+0.0` flip counts
/// as a change (the check kernels propagate signs, so it must).
#[inline(never)]
pub fn v2c_update_batch<const L: usize>(
    edge_var: &[u32],
    posterior: &[[f64; L]],
    c2v: &[[f64; L]],
    v2c: &mut [[f64; L]],
    changed: &mut [u8],
) -> bool {
    debug_assert_eq!(changed.len(), v2c.len(), "one flag per edge");
    for (((o, me), &v), flag) in v2c
        .iter_mut()
        .zip(c2v)
        .zip(edge_var)
        .zip(changed.iter_mut())
    {
        let pv = &posterior[v as usize];
        let mut diff = 0u64;
        for lane in 0..L {
            let new = (pv[lane] - me[lane]).clamp(-LLR_CLAMP, LLR_CLAMP);
            diff |= new.to_bits() ^ o[lane].to_bits();
            o[lane] = new;
        }
        *flag = u8::from(diff != 0);
    }
    // A separate early-exit scan: cheaper than folding the flags inside
    // the edge loop (measured ~5 % on one-lane min-sum BP).
    changed.iter().any(|&f| f != 0)
}

/// Hard decisions from committed posteriors: `hard[i]` bit `l` set when
/// `posterior[i][l] < 0.0`.
#[inline(never)]
pub fn hard_decisions_batch<const L: usize>(posterior: &[[f64; L]], hard: &mut [u8]) {
    for (h, p) in hard.iter_mut().zip(posterior) {
        let mut bits = 0u8;
        for (lane, pv) in p.iter().enumerate() {
            bits |= u8::from(*pv < 0.0) << lane;
        }
        *h = bits;
    }
}

/// Masked posterior/hard commit of the batched BP decoder: on lanes set
/// in `active` the freshly accumulated `post_new` is committed, frozen
/// lanes keep their old `posterior` (a conditional *select* — an
/// arithmetic blend would rewrite `-0.0` to `+0.0` and break
/// bit-identity). Hard decisions recompute from the committed posterior,
/// so frozen lanes reproduce their frozen bits.
#[inline(never)]
pub fn masked_commit_batch<const L: usize>(
    active: u8,
    post_new: &[[f64; L]],
    posterior: &mut [[f64; L]],
    hard: &mut [u8],
) {
    let act: [bool; L] = core::array::from_fn(|lane| (active >> lane) & 1 == 1);
    for ((p, pn), h) in posterior.iter_mut().zip(post_new).zip(hard.iter_mut()) {
        let mut bits = 0u8;
        for lane in 0..L {
            let val = if act[lane] { pn[lane] } else { p[lane] };
            p[lane] = val;
            bits |= u8::from(val < 0.0) << lane;
        }
        *h = bits;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;
    use wi_num::rng::seeded_rng;

    #[test]
    fn phi_is_its_own_inverse_midrange() {
        for &x in &[0.2, 0.5, 1.0, 2.0, 5.0, 10.0] {
            let y = phi_exact(phi_exact(x));
            assert!((y - x).abs() < 1e-9, "phi(phi({x})) = {y}");
        }
    }

    #[test]
    fn table_edges_and_monotonicity() {
        let t = PhiTable::new(7);
        assert_eq!(t.eval(0.0), LLR_CLAMP);
        assert_eq!(t.eval(1e-300), LLR_CLAMP, "below the clamp knee");
        assert_eq!(t.eval(PHI_X_MAX), phi_exact(PHI_X_MAX));
        assert_eq!(t.eval(1000.0), phi_exact(PHI_X_MAX), "saturation tail");
        // Geometric sweep across every octave: monotone non-increasing.
        let mut prev = f64::INFINITY;
        let mut x = 5e-14;
        while x < 40.0 {
            let v = t.eval(x);
            assert!(v <= prev, "eval({x}) = {v} rose above {prev}");
            prev = v;
            x *= 1.07;
        }
    }

    #[test]
    fn table_error_within_documented_bound() {
        for bits in [3u32, 7, 11] {
            let t = PhiTable::new(bits);
            let mut rng = seeded_rng(42 + bits as u64);
            for _ in 0..2_000 {
                // Log-uniform over the full resolved range.
                let x = 10f64.powf(rng.gen::<f64>() * 15.0 - 13.5);
                let err = (t.eval(x) - phi_exact(x)).abs();
                let bound = t.error_bound_at(x) + 1e-9;
                assert!(err <= bound, "bits {bits}, x {x}: err {err} > {bound}");
                assert!(bound <= t.max_error_bound() + 1e-9 || x >= PHI_X_MAX);
            }
        }
    }

    #[test]
    fn more_bits_means_tighter_bound() {
        let coarse = PhiTable::new(3).max_error_bound();
        let fine = PhiTable::new(9).max_error_bound();
        assert!(
            fine < coarse / 1000.0,
            "quadratic shrink: {fine} vs {coarse}"
        );
    }

    #[test]
    fn gather_floor_matches_tanh_clamp() {
        // −ln(TANH_CLAMP) in the φ domain is exactly the tanh clamp of
        // the exact kernel; a fully saturated degree-8 check must emit
        // the same ≈ 26.4 under both kernels.
        let floor = phi_gather_floor();
        assert!((floor - 1e-12).abs() < 1e-14, "{floor}");
        let offsets = [0u32, 8];
        let v2c = [[LLR_CLAMP]; 8];
        let phi = PhiTable::new(7);
        let mut exact = [[0.0f64]; 8];
        let mut table = [[0.0f64]; 8];
        let mut scratch = [[0.0f64]; 8];
        let mut fwd = [[0.0f64]; 9];
        let changed = [1u8; 8];
        sum_product_exact_batch(
            &offsets,
            0,
            1,
            &v2c,
            &changed,
            &mut exact,
            &mut scratch,
            &mut fwd,
        );
        sum_product_table_batch(
            &offsets,
            0,
            1,
            &phi,
            &v2c,
            &changed,
            &mut table,
            &mut scratch,
        );
        for ([e], [t]) in exact.iter().zip(&table) {
            assert!((e - t).abs() < 0.05, "saturated: exact {e} vs table {t}");
        }
    }

    #[test]
    fn ensure_rebuilds_only_on_bits_change() {
        let mut t = PhiTable::default();
        assert!(!t.is_built());
        t.ensure(7);
        assert!(t.is_built());
        let before = t.clone();
        t.ensure(7);
        assert_eq!(t, before, "same bits must not rebuild");
        t.ensure(9);
        assert_eq!(t.bits(), 9);
    }

    #[test]
    #[should_panic(expected = "must be in 2..=12")]
    fn absurd_bits_panics() {
        PhiTable::new(32);
    }

    #[test]
    fn table_kernel_tracks_exact_kernel_on_a_check() {
        // One degree-5 check, moderate messages: the table kernel's c2v
        // must stay within a few table error bounds of the exact kernel.
        let offsets = [0u32, 5];
        let v2c = [[1.3], [-0.7], [2.4], [-5.0], [0.9]];
        let mut exact = [[0.0f64]; 5];
        let mut table = [[0.0f64]; 5];
        let mut scratch = [[0.0f64]; 5];
        let mut fwd = [[0.0f64]; 6];
        let changed = [1u8; 5];
        sum_product_exact_batch(
            &offsets,
            0,
            1,
            &v2c,
            &changed,
            &mut exact,
            &mut scratch,
            &mut fwd,
        );
        let phi = PhiTable::new(12);
        sum_product_table_batch(
            &offsets,
            0,
            1,
            &phi,
            &v2c,
            &changed,
            &mut table,
            &mut scratch,
        );
        for ([e], [t]) in exact.iter().zip(&table) {
            assert!((e - t).abs() < 5e-3, "exact {exact:?} vs table {table:?}");
            assert_eq!(e.signum(), t.signum(), "sign flip");
        }
    }

    #[test]
    fn v2c_update_rewriting_identical_bits_flags_nothing() {
        // Two edges on variables 0 and 1, 8 lanes: the first pass writes
        // fresh messages, the second recomputes the same bits.
        let edge_var = [0u32, 1];
        let posterior = [[1.5f64, -2.0, 0.25, 31.0, -31.0, 0.0, 3.0, -0.5]; 2];
        let c2v = [[0.5f64; 8], [-1.0; 8]];
        let mut v2c = [[0.0f64; 8]; 2];
        let mut changed = [0u8; 2];
        assert!(v2c_update_batch(
            &edge_var,
            &posterior,
            &c2v,
            &mut v2c,
            &mut changed
        ));
        assert_eq!(changed, [1, 1]);
        let before = v2c;
        assert!(!v2c_update_batch(
            &edge_var,
            &posterior,
            &c2v,
            &mut v2c,
            &mut changed
        ));
        assert_eq!(changed, [0, 0]);
        assert_eq!(
            v2c.map(|m| m.map(f64::to_bits)),
            before.map(|m| m.map(f64::to_bits))
        );
    }

    #[test]
    fn v2c_update_flags_a_signed_zero_flip() {
        // -0.0 == +0.0 as floats, but the sign feeds the check kernels'
        // sign products, so the flip must count as a change.
        let edge_var = [0u32];
        let posterior = [[0.0f64]];
        let c2v = [[0.0f64]];
        let mut v2c = [[-0.0f64]];
        let mut changed = [0u8];
        assert!(v2c_update_batch(
            &edge_var,
            &posterior,
            &c2v,
            &mut v2c,
            &mut changed
        ));
        assert_eq!(changed, [1]);
        assert_eq!(v2c[0][0].to_bits(), 0.0f64.to_bits());
    }

    #[test]
    fn v2c_update_flags_a_change_on_one_lane_of_eight() {
        let edge_var = [0u32, 0, 1];
        let mut posterior = [[2.0f64; 8]; 2];
        let c2v = [[0.5f64; 8]; 3];
        let mut v2c = [[0.0f64; 8]; 3];
        let mut changed = [0u8; 3];
        v2c_update_batch(&edge_var, &posterior, &c2v, &mut v2c, &mut changed);
        // Each lane in turn: only that lane of variable 1 moves, and only
        // the edge on variable 1 is flagged.
        for lane in 0..8 {
            posterior[1][lane] = -2.0;
            assert!(v2c_update_batch(
                &edge_var,
                &posterior,
                &c2v,
                &mut v2c,
                &mut changed
            ));
            assert_eq!(changed, [0, 0, 1], "lane {lane}");
            posterior[1][lane] = 2.0;
            v2c_update_batch(&edge_var, &posterior, &c2v, &mut v2c, &mut changed);
        }
    }

    #[test]
    fn check_kernels_skip_checks_without_a_changed_edge() {
        // Two degree-3 checks; only the second has a flagged edge, so the
        // first check's output keeps its sentinel under every rule.
        let offsets = [0u32, 3, 6];
        let v2c = [[1.0f64], [-2.0], [3.0], [0.5], [1.5], [-2.5]];
        let changed = [0u8, 0, 0, 0, 1, 0];
        let phi = PhiTable::new(7);
        let (mut tanhs, mut fwd) = ([[0.0f64]; 3], [[0.0f64]; 4]);
        for rule in ["min-sum", "exact", "table"] {
            let mut c2v = [[99.0f64]; 6];
            let updated = match rule {
                "min-sum" => min_sum_batch(&offsets, 0, 2, 0.8, &v2c, &changed, &mut c2v),
                "exact" => sum_product_exact_batch(
                    &offsets, 0, 2, &v2c, &changed, &mut c2v, &mut tanhs, &mut fwd,
                ),
                _ => sum_product_table_batch(
                    &offsets, 0, 2, &phi, &v2c, &changed, &mut c2v, &mut tanhs,
                ),
            };
            assert_eq!(updated, 1, "{rule}");
            assert_eq!(&c2v[..3], &[[99.0]; 3], "{rule}: clean check rewritten");
            assert!(c2v[3..].iter().all(|&[m]| m != 99.0), "{rule}");
        }
    }
}
