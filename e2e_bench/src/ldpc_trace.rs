//! Spans around the `wi_ldpc` layer, recorded from outside it: a
//! [`BerTarget`] decorator that times every frame-batch evaluation the
//! Monte-Carlo loop hands its workers, plus a span per search.

use std::collections::BTreeMap;
use std::ops::Range;
use std::sync::Mutex;
use std::time::Instant;
use wi_ldpc::ber::{ebn0_db_to_sigma, fill_frame_llrs, BerTarget, BerWorkspace, FrameStats};

/// Code family of a traced target, for the per-frame cost split.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Family {
    /// Window-decoded LDPC convolutional code.
    Cc,
    /// LDPC block code.
    Bc,
}

/// One timed `eval_frames_each` / `eval_frames` call.
struct Call {
    start: Instant,
    end: Instant,
    family: Family,
    ebn0_db: f64,
    seed: u64,
    first: u64,
    frames: u64,
    bits_per_frame: u64,
    rate: f64,
}

/// Spans collected over one traced repetition.
#[derive(Default)]
pub struct LdpcTrace {
    calls: Mutex<Vec<Call>>,
    /// `(start, end, frames used, probes)` per search.
    searches: Mutex<Vec<(Instant, Instant, u64, u64)>>,
}

/// The per-layer numbers a trace folds to.
#[derive(Clone, Copy, Debug, Default)]
pub struct LdpcLayer {
    pub decode_s: f64,
    pub us_per_frame_cc: f64,
    pub us_per_frame_bc: f64,
    pub frames_evaluated: u64,
    pub frames_used: u64,
    pub worker_util: f64,
    pub search_self_s: f64,
    pub probes: u64,
}

impl LdpcTrace {
    /// Records one search span and what the search reported using.
    pub fn search_done(&self, start: Instant, end: Instant, frames: u64, probes: u64) {
        self.searches
            .lock()
            .expect("trace lock poisoned by a panicking caller")
            .push((start, end, frames, probes));
    }

    /// Folds the spans: decode busy time, per-frame cost per family,
    /// wasted frames, worker utilization over `threads` and the
    /// searches' self time (their span minus the union of the decode
    /// spans inside it).
    pub fn layer(&self, threads: usize) -> LdpcLayer {
        let calls = self
            .calls
            .lock()
            .expect("trace lock poisoned by a panicking worker");
        let mut busy: BTreeMap<Family, (f64, u64)> = BTreeMap::new();
        for c in calls.iter() {
            let slot = busy.entry(c.family).or_default();
            slot.0 += (c.end - c.start).as_secs_f64();
            slot.1 += c.frames;
        }
        let per_frame = |f: Family| {
            busy.get(&f)
                .filter(|(_, n)| *n > 0)
                .map_or(0.0, |(s, n)| 1e6 * s / *n as f64)
        };
        let decode_s: f64 = busy.values().map(|(s, _)| s).sum();
        let searches = self
            .searches
            .lock()
            .expect("trace lock poisoned by a panicking caller");
        let search_wall: f64 = searches.iter().map(|s| (s.1 - s.0).as_secs_f64()).sum();
        let covered: f64 = searches
            .iter()
            .map(|&(a, b, _, _)| {
                let mut spans: Vec<(Instant, Instant)> = calls
                    .iter()
                    .filter(|c| c.start >= a && c.end <= b)
                    .map(|c| (c.start, c.end))
                    .collect();
                union_s(&mut spans)
            })
            .sum();
        LdpcLayer {
            decode_s,
            us_per_frame_cc: per_frame(Family::Cc),
            us_per_frame_bc: per_frame(Family::Bc),
            frames_evaluated: busy.values().map(|(_, n)| n).sum(),
            frames_used: searches.iter().map(|s| s.2).sum(),
            worker_util: if search_wall > 0.0 {
                decode_s / (threads as f64 * search_wall)
            } else {
                0.0
            },
            search_self_s: search_wall - covered,
            probes: searches.iter().map(|s| s.3).sum(),
        }
    }

    /// Regenerates the channel LLRs of every evaluated frame, serially,
    /// and returns the seconds taken — the most any LLR-generation
    /// speed-up could save.
    pub fn replay_llrs(&self) -> f64 {
        let calls = self
            .calls
            .lock()
            .expect("trace lock poisoned by a panicking worker");
        let mut llr = Vec::new();
        let start = Instant::now();
        for c in calls.iter() {
            llr.resize(c.bits_per_frame as usize, 0.0);
            let sigma = ebn0_db_to_sigma(c.ebn0_db, c.rate);
            for frame in c.first..c.first + c.frames {
                fill_frame_llrs(&mut llr, sigma, c.seed, frame);
                std::hint::black_box(&llr);
            }
        }
        start.elapsed().as_secs_f64()
    }
}

/// Total length of the union of `spans`.
fn union_s(spans: &mut [(Instant, Instant)]) -> f64 {
    spans.sort_by_key(|s| s.0);
    let mut total = 0.0;
    let mut current: Option<(Instant, Instant)> = None;
    for &(a, b) in spans.iter() {
        current = match current {
            Some((ca, cb)) if a <= cb => Some((ca, cb.max(b))),
            Some((ca, cb)) => {
                total += (cb - ca).as_secs_f64();
                Some((a, b))
            }
            None => Some((a, b)),
        };
    }
    if let Some((ca, cb)) = current {
        total += (cb - ca).as_secs_f64();
    }
    total
}

/// A [`BerTarget`] that forwards every call to `inner` and records a
/// span per frame-batch evaluation. Transparent: the workspace, seeds
/// and batch width pass through untouched, so every search through it
/// reports exactly what the bare target reports.
pub struct Timed<'a> {
    pub inner: &'a dyn BerTarget,
    pub family: Family,
    pub trace: &'a LdpcTrace,
}

impl Timed<'_> {
    fn push(&self, start: Instant, ebn0_db: f64, seed: u64, first: u64, frames: u64) {
        let call = Call {
            start,
            end: Instant::now(),
            family: self.family,
            ebn0_db,
            seed,
            first,
            frames,
            bits_per_frame: self.inner.bits_per_frame(),
            rate: self.inner.rate(),
        };
        self.trace
            .calls
            .lock()
            .expect("trace lock poisoned by a panicking worker")
            .push(call);
    }
}

impl BerTarget for Timed<'_> {
    fn bits_per_frame(&self) -> u64 {
        self.inner.bits_per_frame()
    }

    fn rate(&self) -> f64 {
        self.inner.rate()
    }

    fn eval_frames(
        &self,
        ws: &mut BerWorkspace,
        ebn0_db: f64,
        seed: u64,
        frames: Range<u64>,
    ) -> FrameStats {
        let start = Instant::now();
        let stats = self.inner.eval_frames(ws, ebn0_db, seed, frames.clone());
        self.push(
            start,
            ebn0_db,
            seed,
            frames.start,
            frames.end - frames.start,
        );
        stats
    }

    fn batch_width(&self) -> usize {
        self.inner.batch_width()
    }

    fn eval_frames_each(
        &self,
        ws: &mut BerWorkspace,
        ebn0_db: f64,
        seed: u64,
        first: u64,
        out: &mut [FrameStats],
    ) {
        let start = Instant::now();
        self.inner.eval_frames_each(ws, ebn0_db, seed, first, out);
        self.push(start, ebn0_db, seed, first, out.len() as u64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wi_ldpc::ber::{
        search_required_ebn0_with_threads, BerSimOptions, BlockBerTarget, SearchConfig,
    };
    use wi_ldpc::decoder::{BpConfig, CheckRule};
    use wi_ldpc::LdpcCode;

    #[test]
    fn decorator_is_transparent_and_counts_every_frame() {
        let code = LdpcCode::paper_block(50, 0xBC32);
        let config = BpConfig {
            max_iterations: 10,
            check_rule: CheckRule::min_sum(),
        };
        let bare = BlockBerTarget::new(&code, config, 0.5);
        let opts = BerSimOptions {
            target_errors: 40,
            max_frames: 40,
            min_frames: 8,
            seed: 7,
        };
        let search = SearchConfig {
            tol_db: 0.5,
            ..SearchConfig::default()
        };
        for threads in [1, 2] {
            let want = search_required_ebn0_with_threads(&bare, 1e-2, &opts, &search, threads);
            let trace = LdpcTrace::default();
            let timed = Timed {
                inner: &bare,
                family: Family::Bc,
                trace: &trace,
            };
            let start = Instant::now();
            let got = search_required_ebn0_with_threads(&timed, 1e-2, &opts, &search, threads);
            trace.search_done(start, Instant::now(), got.frames, got.probes);
            assert_eq!(got, want, "threads = {threads}");
            let layer = trace.layer(threads);
            // Speculative frames past a stop are evaluated but unused.
            assert!(layer.frames_evaluated >= got.frames);
            assert_eq!(layer.frames_used, got.frames);
            assert!(layer.us_per_frame_bc > 0.0 && layer.us_per_frame_cc == 0.0);
            assert!(layer.search_self_s >= 0.0);
            assert!(trace.replay_llrs() > 0.0);
        }
    }

    #[test]
    fn span_union_merges_overlaps() {
        let t0 = Instant::now();
        let at = |ms: u64| t0 + std::time::Duration::from_millis(ms);
        let mut spans = vec![
            (at(5), at(8)),
            (at(0), at(3)),
            (at(2), at(4)),
            (at(7), at(9)),
        ];
        assert!((union_s(&mut spans) - 0.008).abs() < 1e-9);
    }
}
