//! Inter-frame batched decoding: several frames in SIMD lockstep — the
//! crate's only BP and window decoding engine.
//!
//! Every Monte-Carlo BER probe decodes thousands of *independent* frames
//! through the same code, rule and iteration budget. This module decodes
//! `lanes` of them at once with all message state in structure-of-arrays
//! layout — `[edge][lane]`, lane = frame — so the lane-array kernels in
//! [`crate::kernel`] (`min_sum_batch`, `sum_product_table_batch`,
//! `sum_product_exact_batch`) present LLVM with uniform, branch-free
//! inner loops over `[f64; L]` that auto-vectorize on stable rust. A
//! single frame is the one-lane instance: [`BpDecoder::decode`] and
//! [`WindowDecoder::decode`] are one-lane batches.
//!
//! # The bit-identity contract
//!
//! Each lane of a batched decode is **bit-identical** to the naive oracle
//! run on that frame ([`crate::decoder::reference`] /
//! [`crate::window::reference`]), under all four `CheckRule`
//! configurations, at every lane width — pinned by
//! `tests/batch_equivalence.rs`. Three rules make this hold:
//!
//! * **Lane masking** ([`BpDecoder::decode_batch`]): BP stops a frame at
//!   convergence, so lanes stop at different iterations. In the flooding
//!   schedule everything *after* the check update is a pure function of
//!   `(channel, c2v)`; a converged lane therefore only needs its
//!   posterior/hard **writes** masked (a conditional select of the old
//!   value — never an arithmetic blend, which would rewrite `-0.0` to
//!   `+0.0`). A frozen lane's messages keep updating but are never
//!   observed again.
//! * **No masking needed** ([`WindowDecoder::decode_batch`]): the window
//!   decoder runs the reference's iteration schedule, which is
//!   lane-independent (activation, window sweep, decide-and-pin are
//!   structurally identical across lanes), so a straight lane-wise
//!   transcription of the reference operation sequence is already
//!   bit-identical.
//! * **Change-driven updates** (both schedules): a check's c2v output is
//!   a pure function of its v2c inputs, so when none of its inputs
//!   changed bit for bit on any lane since its last update, rerunning it
//!   would write the same bits, and it is skipped. `v2c_update_batch`
//!   flags each edge whose message changed on some lane (comparing bit
//!   patterns, so `-0.0` ↔ `+0.0` counts), and the check kernels skip
//!   checks with no flagged edge. Every flag is set whenever c2v may be
//!   stale: at BP decode start, and at every window position (restart
//!   just cleared c2v; reuse keeps c2v computed from the previous
//!   position's older v2c). When a v2c pass changes nothing, every later
//!   iteration at that window position would repeat the last one bit for
//!   bit, so the window decoder moves on. Frozen BP lanes keep drifting,
//!   so the checks they touch stay flagged: that costs work, never bits.
//!
//! The BER layer ([`crate::ber`]) drives these decoders through
//! `BerTarget::eval_frames_each` in chunks of the target's batch width,
//! with a ragged tail decoded at narrower power-of-two widths, so search
//! strategies, thread fan-out and the co-sim FER cache inherit the
//! speedup with unchanged results.

use crate::code::LdpcCode;
use crate::decoder::{
    update_checks_batch, BpDecoder, CheckRule, DecodeResult, DecodeStatus, LLR_CLAMP,
};
use crate::kernel::{
    clamp_batch, gather_clamp_batch, hard_decisions_batch, masked_commit_batch, scatter_add_batch,
    v2c_update_batch, PhiTable,
};
use crate::window::{CoupledCode, WindowDecoder};

/// Largest supported lane count (frames per batch). Lane masks are `u8`
/// bitmaps, and wider batches would only add register pressure beyond
/// the widest f64 vector unit in sight.
pub const MAX_LANES: usize = 8;

/// Default lane count of the batched BER targets: full width — the
/// bit-identity contract makes the batched path safe to prefer.
pub const DEFAULT_LANES: usize = 8;

/// Validates a lane count, [`None`] when usable. The batched decoders
/// are compiled for lane counts 1, 2, 4 and 8 (monomorphized so the
/// lane loops unroll); anything else is a configuration error.
pub fn lanes_problem(lanes: usize) -> Option<String> {
    if matches!(lanes, 1 | 2 | 4 | 8) {
        None
    } else {
        Some(format!("batch width {lanes} is not one of 1, 2, 4, 8"))
    }
}

/// Dispatches a runtime lane count to the monomorphized `<const L>`
/// implementation.
macro_rules! dispatch_lanes {
    ($lanes:expr, $func:ident($($args:expr),* $(,)?)) => {
        match $lanes {
            1 => $func::<1>($($args),*),
            2 => $func::<2>($($args),*),
            4 => $func::<4>($($args),*),
            8 => $func::<8>($($args),*),
            other => panic!(
                "{}",
                lanes_problem(other).unwrap_or_else(|| "unreachable".into())
            ),
        }
    };
}

/// Views a flat structure-of-arrays buffer (`len·L` scalars) as
/// lane-array chunks.
#[inline]
fn chunks<const L: usize>(flat: &[f64]) -> &[[f64; L]] {
    let (c, rest) = flat.as_chunks::<L>();
    debug_assert!(rest.is_empty(), "SoA buffer not a multiple of the lanes");
    c
}

/// Mutable counterpart of [`chunks`].
#[inline]
fn chunks_mut<const L: usize>(flat: &mut [f64]) -> &mut [[f64; L]] {
    let (c, rest) = flat.as_chunks_mut::<L>();
    debug_assert!(rest.is_empty(), "SoA buffer not a multiple of the lanes");
    c
}

/// Reusable structure-of-arrays state for [`BpDecoder::decode_batch`]:
/// `lanes` frames of LLR/message/posterior state interleaved lane-minor
/// (`buffer[i·lanes + lane]`), plus per-lane iteration/convergence
/// results. Construct once and reuse across batches — decoding then
/// performs no heap allocation.
#[derive(Clone, Debug, Default)]
pub struct BatchWorkspace {
    lanes: usize,
    n: usize,
    /// Channel LLRs, `[variable][lane]`.
    llr: Vec<f64>,
    /// Variable-to-check messages, `[edge][lane]`.
    v2c: Vec<f64>,
    /// Check-to-variable messages, `[edge][lane]`.
    c2v: Vec<f64>,
    /// Per edge, 1 when its v2c message changed on some lane in the last
    /// v2c pass (the change-driven check skip; see the module docs).
    changed: Vec<u8>,
    /// Committed posteriors, `[variable][lane]` — frozen lanes keep the
    /// value from their convergence iteration.
    posterior: Vec<f64>,
    /// Freshly accumulated posteriors before the masked commit (the
    /// in-place accumulation would otherwise destroy frozen lanes).
    post_new: Vec<f64>,
    /// Hard decisions as per-variable lane bitmasks (bit `l` = lane `l`).
    hard: Vec<u8>,
    /// Check-kernel scratch, `[degree][lane]`.
    scratch: Vec<f64>,
    /// Sum-product forward partial products, `[degree + 1][lane]`.
    fwd: Vec<f64>,
    /// φ lookup table (built lazily, only for the table rule).
    phi: PhiTable,
    /// One-lane workspace the straggler bail-out re-decodes lanes in
    /// (built on the first bail-out).
    straggler: Option<Box<BatchWorkspace>>,
    /// Iterations each lane ran.
    iterations: [usize; MAX_LANES],
    /// Lanes whose final syndrome was zero, as a bitmask.
    converged: u8,
}

impl BatchWorkspace {
    /// Allocates buffers for `lanes` frames of `code`.
    ///
    /// # Panics
    ///
    /// Panics if `lanes` is unsupported (see [`lanes_problem`]).
    pub fn new(code: &LdpcCode, lanes: usize) -> Self {
        let mut ws = BatchWorkspace::default();
        ws.ensure(code, lanes);
        ws
    }

    /// Resizes the buffers for `code` and `lanes` (no-op when already
    /// sized).
    ///
    /// # Panics
    ///
    /// Panics if `lanes` is unsupported (see [`lanes_problem`]).
    pub fn ensure(&mut self, code: &LdpcCode, lanes: usize) {
        if let Some(problem) = lanes_problem(lanes) {
            panic!("{problem}");
        }
        let e = code.num_edges();
        let n = code.len();
        let d = code.max_check_degree();
        self.lanes = lanes;
        self.n = n;
        self.llr.resize(n * lanes, 0.0);
        self.v2c.resize(e * lanes, 0.0);
        self.c2v.resize(e * lanes, 0.0);
        self.changed.resize(e, 1);
        self.posterior.resize(n * lanes, 0.0);
        self.post_new.resize(n * lanes, 0.0);
        self.hard.resize(n, 0);
        self.scratch.resize(d * lanes, 0.0);
        self.fwd.resize((d + 1) * lanes, 1.0);
    }

    /// The lane count the workspace is sized for.
    pub fn lanes(&self) -> usize {
        self.lanes
    }

    /// Loads one frame's channel LLRs into `lane`.
    ///
    /// # Panics
    ///
    /// Panics if `lane` is out of range or `llr` does not match the code
    /// length the workspace was sized for.
    pub fn set_lane_llr(&mut self, lane: usize, llr: &[f64]) {
        assert!(lane < self.lanes, "lane {lane} of {}", self.lanes);
        assert_eq!(llr.len(), self.n, "LLR length mismatch");
        for (i, &l) in llr.iter().enumerate() {
            self.llr[i * self.lanes + lane] = l;
        }
    }

    /// Hard decision for variable `v` on `lane` (true = bit 1).
    pub fn hard_bit(&self, v: usize, lane: usize) -> bool {
        assert!(lane < self.lanes, "lane {lane} of {}", self.lanes);
        (self.hard[v] >> lane) & 1 == 1
    }

    /// Number of one-bits in `lane`'s hard decisions — the frame's bit
    /// errors under the all-zero-codeword convention of [`crate::ber`].
    pub fn lane_error_count(&self, lane: usize) -> u64 {
        assert!(lane < self.lanes, "lane {lane} of {}", self.lanes);
        self.hard
            .iter()
            .map(|&bits| u64::from((bits >> lane) & 1))
            .sum()
    }

    /// Posterior LLR for variable `v` on `lane`.
    pub fn posterior_at(&self, v: usize, lane: usize) -> f64 {
        assert!(lane < self.lanes, "lane {lane} of {}", self.lanes);
        self.posterior[v * self.lanes + lane]
    }

    /// Iteration count and convergence flag of `lane`'s decode — exactly
    /// what a single-frame decode of that lane returns.
    pub fn status(&self, lane: usize) -> DecodeStatus {
        assert!(lane < self.lanes, "lane {lane} of {}", self.lanes);
        DecodeStatus {
            iterations: self.iterations[lane],
            converged: (self.converged >> lane) & 1 == 1,
        }
    }

    /// `lane`'s decisions, posteriors and status as an owned
    /// [`DecodeResult`] (allocates the two output vectors).
    pub fn lane_result(&self, lane: usize) -> DecodeResult {
        let status = self.status(lane);
        DecodeResult {
            hard: (0..self.n).map(|v| self.hard_bit(v, lane)).collect(),
            posterior: (0..self.n).map(|v| self.posterior_at(v, lane)).collect(),
            iterations: status.iterations,
            converged: status.converged,
        }
    }
}

impl BpDecoder<'_> {
    /// Decodes the `ws.lanes()` frames previously loaded with
    /// [`BatchWorkspace::set_lane_llr`] in SIMD lockstep — zero heap
    /// allocation once the workspace is sized (the first straggler
    /// bail-out builds a one-lane side workspace). Each lane's
    /// posterior/hard/status is bit-identical to
    /// [`reference::decode`](crate::decoder::reference::decode) on that
    /// lane's LLRs: converged lanes freeze at exactly the iteration a
    /// single-frame decode stops (see the module docs for the masking
    /// rule).
    ///
    /// # Example
    ///
    /// ```
    /// use wi_ldpc::{BatchWorkspace, BpConfig, BpDecoder, CheckRule, LdpcCode};
    ///
    /// let code = LdpcCode::paper_block(10, 1);
    /// let config = BpConfig {
    ///     check_rule: CheckRule::sum_product_table(),
    ///     ..BpConfig::default()
    /// };
    /// let decoder = BpDecoder::new(&code, config);
    /// let mut ws = BatchWorkspace::new(&code, 1);
    /// // Clean all-zero codeword: positive LLRs favour bit 0 everywhere.
    /// ws.set_lane_llr(0, &vec![4.0; code.len()]);
    /// decoder.decode_batch(&mut ws);
    /// assert!(ws.status(0).converged);
    /// assert_eq!(ws.lane_error_count(0), 0);
    /// ```
    ///
    /// # Panics
    ///
    /// Panics if the workspace was sized for a different code length.
    pub fn decode_batch(&self, ws: &mut BatchWorkspace) {
        let code = self.code();
        assert_eq!(ws.n, code.len(), "workspace sized for a different code");
        let lanes = ws.lanes;
        ws.ensure(code, lanes);
        if let CheckRule::SumProductTable { bits } = self.config().check_rule {
            ws.phi.ensure(bits);
        }
        let bailed = dispatch_lanes!(lanes, bp_decode_batch_impl(self, ws));
        if bailed != 0 {
            self.finish_stragglers(ws, bailed);
        }
    }

    /// Straggler bail-out: re-decodes each lane in `bailed` from scratch
    /// as a one-lane batch and writes its result back into `ws`. A
    /// one-lane decode never bails, so this recurses at most once.
    fn finish_stragglers(&self, ws: &mut BatchWorkspace, bailed: u8) {
        let lanes = ws.lanes;
        let mut single = ws.straggler.take().unwrap_or_default();
        single.ensure(self.code(), 1);
        for lane in (0..lanes).filter(|&lane| (bailed >> lane) & 1 == 1) {
            for (v, l) in single.llr.iter_mut().enumerate() {
                *l = ws.llr[v * lanes + lane];
            }
            self.decode_batch(&mut single);
            for (v, (&p, &h)) in single.posterior.iter().zip(&single.hard).enumerate() {
                ws.posterior[v * lanes + lane] = p;
                ws.hard[v] = (ws.hard[v] & !(1 << lane)) | (h << lane);
            }
            ws.iterations[lane] = single.iterations[0];
            ws.converged = (ws.converged & !(1 << lane)) | (single.converged << lane);
        }
        ws.straggler = Some(single);
    }
}

/// Per-lane unsatisfied-check bitmask of the current hard decisions: an
/// integer-only pass over the checks (byte XOR fold of the per-variable
/// lane bitmasks).
fn syndrome_batch(offsets: &[u32], edge_var: &[u32], n_checks: usize, hard: &[u8]) -> u8 {
    let mut unsat = 0u8;
    for c in 0..n_checks {
        let lo = offsets[c] as usize;
        let hi = offsets[c + 1] as usize;
        let mut parity = 0u8;
        for &v in &edge_var[lo..hi] {
            parity ^= hard[v as usize];
        }
        unsat |= parity;
    }
    unsat
}

/// Monomorphized batched BP decode: the reference operation sequence
/// per lane, with per-lane convergence masking on the posterior/hard
/// commits. Returns the lanes left to the straggler bail-out.
fn bp_decode_batch_impl<const L: usize>(decoder: &BpDecoder<'_>, ws: &mut BatchWorkspace) -> u8 {
    let code = decoder.code();
    let config = decoder.config();
    let n_checks = code.num_checks();
    let offsets = code.check_edge_offsets();
    let edge_var = code.edge_vars();

    let llr = chunks::<L>(&ws.llr);
    let v2c = chunks_mut::<L>(&mut ws.v2c);
    let c2v = chunks_mut::<L>(&mut ws.c2v);
    let changed = &mut ws.changed[..];
    let posterior = chunks_mut::<L>(&mut ws.posterior);
    let post_new = chunks_mut::<L>(&mut ws.post_new);
    let hard = &mut ws.hard[..];
    let scratch = chunks_mut::<L>(&mut ws.scratch);
    let fwd = chunks_mut::<L>(&mut ws.fwd);

    // v2c from the clamped channel; posterior/hard from the raw channel —
    // the reference decoder's exact initialization.
    gather_clamp_batch(edge_var, llr, v2c);
    changed.fill(1);
    posterior.copy_from_slice(llr);
    hard_decisions_batch(posterior, hard);

    let lane_mask: u8 = if L == 8 { 0xFF } else { (1u8 << L) - 1 };
    // Per-lane unsatisfied-check mask of the *current* hard decisions;
    // a lane leaves `active` the moment its syndrome clears and its
    // posterior/hard never move again — exactly where a single-frame
    // decode stops.
    let mut unsat = syndrome_batch(offsets, edge_var, n_checks, hard) & lane_mask;
    let mut active = unsat;
    ws.iterations = [0; MAX_LANES];

    // Straggler bail-out: once fewer than a third of the lanes are still
    // active, every full-width iteration wastes most of the vector work
    // (the batch otherwise runs to the max-over-lanes iteration count).
    // Those lanes finish with a from-scratch one-lane decode
    // (`finish_stragglers`), which never bails. The one-third cut was
    // tuned on the BER-eval benchmark at a straggler-heavy operating
    // point; bailing at half re-decodes too many near-converged lanes.
    let mut bailed = 0u8;
    let mut it = 0;
    while it < config.max_iterations && active != 0 {
        if L > 1 && (active.count_ones() as usize) * 3 < L {
            bailed = active;
            break;
        }
        it += 1;
        for (lane, count) in ws.iterations.iter_mut().enumerate().take(L) {
            if (active >> lane) & 1 == 1 {
                *count = it;
            }
        }

        // Check update on every lane: frozen lanes' messages drift but
        // are never observed (posterior/hard below select the old value).
        update_checks_batch::<L>(
            offsets,
            0,
            n_checks,
            config.check_rule,
            &ws.phi,
            v2c,
            changed,
            c2v,
            scratch,
            fwd,
        );

        // Posterior accumulation into the scratch buffer (the in-place
        // variant would destroy frozen lanes before the masked commit),
        // then the masked commit and the variable-to-check update. The
        // syndrome is a separate integer-only pass, so the split loops
        // vectorize. Frozen lanes write drifted v2c (never observed) but
        // contribute their *frozen* parity, so a converged lane stays
        // converged.
        clamp_batch(llr, post_new);
        scatter_add_batch(edge_var, c2v, post_new);
        masked_commit_batch(active, post_new, posterior, hard);
        v2c_update_batch(edge_var, posterior, c2v, v2c, changed);
        unsat = syndrome_batch(offsets, edge_var, n_checks, hard) & lane_mask;
        active &= unsat;
    }
    ws.converged = lane_mask & !unsat;
    bailed
}

/// Reusable structure-of-arrays state for
/// [`WindowDecoder::decode_batch`]. The per-check activation flags and
/// per-edge change flags are shared across lanes — the window schedule
/// is lane-independent.
#[derive(Clone, Debug, Default)]
pub struct WindowBatchWorkspace {
    lanes: usize,
    n: usize,
    /// Working LLRs (`[variable][lane]`): channel values loaded via
    /// [`set_lane_llr`](Self::set_lane_llr), with decided blocks
    /// overwritten by saturated pins during the decode.
    llr: Vec<f64>,
    /// Variable-to-check messages, `[edge][lane]`.
    v2c: Vec<f64>,
    /// Check-to-variable messages, `[edge][lane]`.
    c2v: Vec<f64>,
    /// Per edge, 1 when its v2c message changed on some lane in the last
    /// v2c pass (the change-driven check skip; see the module docs).
    changed: Vec<u8>,
    /// Whether each check holds valid persisted messages (lane-shared).
    active: Vec<bool>,
    /// Posterior per variable, `[variable][lane]`.
    posterior: Vec<f64>,
    /// Hard decisions as per-variable lane bitmasks.
    hard: Vec<u8>,
    /// Check-kernel scratch, `[degree][lane]`.
    scratch: Vec<f64>,
    /// Sum-product forward partial products, `[degree + 1][lane]`.
    fwd: Vec<f64>,
    /// φ lookup table (built lazily, only for the table rule).
    phi: PhiTable,
    /// Check updates the last decode executed.
    check_updates: u64,
}

impl WindowBatchWorkspace {
    /// Allocates buffers for `lanes` frames of `code`.
    ///
    /// # Panics
    ///
    /// Panics if `lanes` is unsupported (see [`lanes_problem`]).
    pub fn new(code: &LdpcCode, lanes: usize) -> Self {
        let mut ws = WindowBatchWorkspace::default();
        ws.ensure(code, lanes);
        ws
    }

    /// Resizes the buffers for `code` and `lanes` (no-op when already
    /// sized).
    ///
    /// # Panics
    ///
    /// Panics if `lanes` is unsupported (see [`lanes_problem`]).
    pub fn ensure(&mut self, code: &LdpcCode, lanes: usize) {
        if let Some(problem) = lanes_problem(lanes) {
            panic!("{problem}");
        }
        let e = code.num_edges();
        let n = code.len();
        let d = code.max_check_degree();
        self.lanes = lanes;
        self.n = n;
        self.llr.resize(n * lanes, 0.0);
        self.v2c.resize(e * lanes, 0.0);
        self.c2v.resize(e * lanes, 0.0);
        self.changed.resize(e, 1);
        self.active.resize(code.num_checks(), false);
        self.posterior.resize(n * lanes, 0.0);
        self.hard.resize(n, 0);
        self.scratch.resize(d * lanes, 0.0);
        self.fwd.resize((d + 1) * lanes, 1.0);
    }

    /// The lane count the workspace is sized for.
    pub fn lanes(&self) -> usize {
        self.lanes
    }

    /// Loads one frame's channel LLRs into `lane`. Reload every lane
    /// before each decode — the decode pins decided blocks in place.
    ///
    /// # Panics
    ///
    /// Panics if `lane` is out of range or `llr` does not match the code
    /// length the workspace was sized for.
    pub fn set_lane_llr(&mut self, lane: usize, llr: &[f64]) {
        assert!(lane < self.lanes, "lane {lane} of {}", self.lanes);
        assert_eq!(llr.len(), self.n, "LLR length mismatch");
        for (i, &l) in llr.iter().enumerate() {
            self.llr[i * self.lanes + lane] = l;
        }
    }

    /// Hard decision for variable `v` on `lane` (true = bit 1).
    pub fn hard_bit(&self, v: usize, lane: usize) -> bool {
        assert!(lane < self.lanes, "lane {lane} of {}", self.lanes);
        (self.hard[v] >> lane) & 1 == 1
    }

    /// Number of one-bits in `lane`'s hard decisions — the frame's bit
    /// errors under the all-zero-codeword convention of [`crate::ber`].
    pub fn lane_error_count(&self, lane: usize) -> u64 {
        assert!(lane < self.lanes, "lane {lane} of {}", self.lanes);
        self.hard
            .iter()
            .map(|&bits| u64::from((bits >> lane) & 1))
            .sum()
    }

    /// Check updates the last decode ran, summed over window positions;
    /// one update covers every lane. Without the change-driven skip and
    /// the fixed-point stop it would be `positions × iterations × window
    /// checks`, so the shortfall is the work those two saved.
    pub fn check_updates(&self) -> u64 {
        self.check_updates
    }
}

impl WindowDecoder {
    /// Window-decodes the `ws.lanes()` frames previously loaded with
    /// [`WindowBatchWorkspace::set_lane_llr`] in SIMD lockstep. The
    /// window decoder's lane-independent schedule needs no convergence
    /// masking: each lane's decisions are bit-identical to
    /// [`reference::decode`](crate::window::reference::decode) on that
    /// lane's LLRs.
    ///
    /// # Panics
    ///
    /// Panics as [`decode`](WindowDecoder::decode) does, and if the
    /// workspace was sized for a different code length.
    pub fn decode_batch(&self, ws: &mut WindowBatchWorkspace, code: &CoupledCode) {
        assert_eq!(
            ws.n,
            code.code().len(),
            "workspace sized for a different code"
        );
        self.validate_for(code);
        let lanes = ws.lanes;
        ws.ensure(code.code(), lanes);
        if let CheckRule::SumProductTable { bits } = self.check_rule {
            ws.phi.ensure(bits);
        }
        dispatch_lanes!(lanes, window_decode_batch_impl(self, code, ws));
    }
}

/// Monomorphized batched window decode: the reference operation
/// sequence per lane.
fn window_decode_batch_impl<const L: usize>(
    decoder: &WindowDecoder,
    code: &CoupledCode,
    ws: &mut WindowBatchWorkspace,
) {
    let offsets = code.code().check_edge_offsets();
    let edge_var = code.code().edge_vars();

    let llr = chunks_mut::<L>(&mut ws.llr);
    let v2c = chunks_mut::<L>(&mut ws.v2c);
    let c2v = chunks_mut::<L>(&mut ws.c2v);
    let changed = &mut ws.changed[..];
    let posterior = chunks_mut::<L>(&mut ws.posterior);
    let active = &mut ws.active[..];
    let hard = &mut ws.hard[..];
    let scratch = chunks_mut::<L>(&mut ws.scratch);
    let fwd = chunks_mut::<L>(&mut ws.fwd);

    hard.fill(0);
    active.fill(false);
    let mut check_updates = 0u64;

    for t in 0..code.num_blocks() {
        let (check_lo, check_hi) = decoder.check_range(code, t);
        if !decoder.reuse_messages {
            active[check_lo..check_hi].fill(false);
        }

        // Activate newly entered checks: v2c from the current working
        // LLRs, c2v cleared.
        for c in check_lo..check_hi {
            if !active[c] {
                active[c] = true;
                let lo = offsets[c] as usize;
                let hi = offsets[c + 1] as usize;
                gather_clamp_batch(&edge_var[lo..hi], llr, &mut v2c[lo..hi]);
                c2v[lo..hi].fill([0.0; L]);
            }
        }
        let edge_lo = offsets[check_lo] as usize;
        let edge_hi = offsets[check_hi] as usize;
        // Every window check's c2v may be stale here (cleared, or
        // computed from the previous position's v2c), so all run once.
        changed[edge_lo..edge_hi].fill(1);

        posterior.copy_from_slice(llr);
        for _ in 0..decoder.iterations {
            check_updates += update_checks_batch::<L>(
                offsets,
                check_lo,
                check_hi,
                decoder.check_rule,
                &ws.phi,
                v2c,
                changed,
                c2v,
                scratch,
                fwd,
            ) as u64;
            posterior.copy_from_slice(llr);
            scatter_add_batch(
                &edge_var[edge_lo..edge_hi],
                &c2v[edge_lo..edge_hi],
                posterior,
            );
            let moved = v2c_update_batch(
                &edge_var[edge_lo..edge_hi],
                posterior,
                &c2v[edge_lo..edge_hi],
                &mut v2c[edge_lo..edge_hi],
                &mut changed[edge_lo..edge_hi],
            );
            if !moved {
                // Bit-exact fixed point: every remaining iteration would
                // skip every check and rewrite these same messages.
                break;
            }
        }

        // Decide and pin the target block only.
        for v in code.block_range(t) {
            let p = &posterior[v];
            let mut bits = 0u8;
            for lane in 0..L {
                let b = p[lane] < 0.0;
                bits |= u8::from(b) << lane;
                llr[v][lane] = if b { -LLR_CLAMP } else { LLR_CLAMP };
            }
            hard[v] = bits;
        }
    }
    ws.check_updates = check_updates;
}
