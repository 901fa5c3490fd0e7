//! Low-latency error-correction coding — §V of the DATE'13 paper.
//!
//! The paper's argument: convolutional codes win at low latency, LDPC block
//! codes win at high latency, and **LDPC convolutional codes (LDPC-CC) with
//! sliding-window decoding combine both advantages**. The *structural
//! latency* — how many information bits the decoder must wait for before it
//! can decide, a property of the coding scheme independent of
//! implementation — is `T_WD = W·N·nv·R` for a window decoder (Eq. 4)
//! versus `T_B = N·nv·R` for a block code (Eq. 5), and at equal structural
//! latency the LDPC-CC needs less Eb/N0 for BER 10⁻⁵ (Fig. 10; e.g. 200 vs
//! 400 information bits at 3 dB).
//!
//! * [`protograph`] — base matrices, edge spreading (Eq. 2), terminated
//!   convolutional protographs (Eq. 3).
//! * [`code`] — circulant lifting to a flat CSR (compressed sparse row)
//!   parity-check structure, plus a reference systematic encoder.
//! * [`gf2`] — the dense GF(2) linear algebra behind the encoder.
//! * [`decoder`] — flooding belief propagation over the CSR edge layout:
//!   exact sum-product, table-driven sum-product or hardware-faithful
//!   normalized min-sum ([`decoder::CheckRule`]); the original
//!   nested-`Vec` engine survives as [`decoder::reference`], the
//!   correctness oracle.
//! * [`kernel`] — the lane-array check-node update kernels behind every
//!   rule: the exact `tanh`/`atanh` kernel, the φ-table kernel
//!   ([`kernel::PhiTable`]: lookup + linear interpolation + saturation
//!   tail, accuracy-tested rather than bit-identical, with a degree-8
//!   fast path for the paper's codes) and the min-sum kernel.
//! * [`window`] — terminated coupled codes and the sliding-window decoder
//!   of Fig. 9, with structural-latency accounting and its nested-`Vec`
//!   oracle [`window::reference`].
//! * [`batch`] — the decoding engine of both schedules:
//!   [`batch::BatchWorkspace`] and [`batch::WindowBatchWorkspace`] hold up
//!   to 8 frames of message state in structure-of-arrays layout so the
//!   lane-array kernels auto-vectorize the whole decode loop, with
//!   per-lane convergence masking keeping every lane bit-identical to the
//!   oracles; a single-frame decode is a one-lane batch, and the hot loop
//!   performs zero heap allocation.
//! * [`ber`] — the BER evaluation and required-Eb/N0 search subsystem:
//!   [`ber::BerTarget`] unifies block and coupled codes behind one
//!   object-safe Monte-Carlo surface (fanned out over all cores with
//!   bit-identical results at any thread count), [`ber::BerEstimate`]
//!   carries frame-level variance/CI, and [`ber::SearchConfig`] selects
//!   between the retained bisection-ladder oracle, CI-pruned concurrent
//!   bisection and the paired-grid common-random-numbers estimator used
//!   to regenerate Fig. 10.
//!
//! # Performance
//!
//! The CSR engine exists because Fig. 10 is the most compute-heavy result
//! of the reproduction: each curve point bisects over Monte-Carlo BER
//! runs, each of which decodes hundreds of frames. Measured on the
//! paper's n = 200 block code at 3 dB (single core, `benches/kernels.rs`):
//!
//! * **Sum-product** is transcendental-bound — the engine and the naive
//!   reference pay the same `tanh`/`atanh` per edge (bit-identity forbids
//!   approximating them) — so the flat engine gains a modest ≈ 1.2× over
//!   the naive reference; a provably-exact saturation fast path (clamped
//!   beliefs skip `tanh`) lifts the *window* decoder, whose pinned blocks
//!   always saturate, by ≈ 1.5×.
//! * **Table-driven sum-product** breaks the transcendental wall without
//!   giving up sum-product accuracy: the φ-table kernel
//!   ([`kernel::PhiTable`]) replaces every `tanh`/`atanh` pair with two
//!   table interpolations and lands within 0.05 dB of the exact rule on
//!   the paper's codes (pinned by `tests/phi_table.rs`) at a multiple of
//!   its speed — see `docs/REPRODUCING.md` for the measured table.
//! * **Normalized min-sum** eliminates the transcendentals, at a
//!   fraction of a dB (tracked by the equivalence suite); batching 8
//!   frames lets its branch-free lane loops vectorize.
//! * The BER harness fans frames out over all cores with bit-identical
//!   results at any thread count, for a further ~core-count factor on
//!   multi-core hosts.
//!
//! A workspace-wide tour of where this crate sits (and which engines are
//! pinned to which oracles) is in `docs/ARCHITECTURE.md` at the
//! repository root.
//!
//! # Example
//!
//! ```
//! use wi_ldpc::window::{CoupledCode, WindowDecoder};
//!
//! // The paper's (4,8)-regular LDPC-CC at N = 25, terminated at L = 20.
//! let code = CoupledCode::paper_cc(25, 20, 0);
//! // Window size 4: structural latency W·N·nv·R = 100 information bits.
//! assert_eq!(code.window_latency_bits(4), 100.0);
//! let decoder = WindowDecoder::new(4, 20);
//! let clean: Vec<f64> = vec![10.0; code.code().len()];
//! let bits = decoder.decode(&code, &clean);
//! assert!(bits.iter().all(|&b| !b));
//! ```

#![warn(missing_docs)]

pub mod batch;
pub mod ber;
pub mod code;
pub mod decoder;
pub mod gf2;
pub mod kernel;
pub mod protograph;
pub mod window;

pub use batch::{BatchWorkspace, WindowBatchWorkspace};
pub use ber::{
    ebn0_db_to_sigma, log_linear_required_ebn0, required_ebn0_db, search_required_ebn0,
    simulate_ber, BerEstimate, BerSimOptions, BerTarget, BerWorkspace, BlockBerTarget,
    CoupledBerTarget, FrameStats, SearchConfig, SearchOutcome, SearchReport, SearchStrategy,
};
pub use code::{Encoder, LdpcCode};
pub use decoder::{awgn_llrs, BpConfig, BpDecoder, CheckRule, DecodeResult, DecodeStatus};
pub use kernel::PhiTable;
pub use protograph::{BaseMatrix, EdgeSpreading};
pub use window::{block_latency_bits, CoupledCode, WindowDecoder};
