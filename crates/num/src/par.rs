//! Ordered parallel fan-out: the one place the workspace spawns threads.
//!
//! [`for_each_chunk`] lets a fixed set of workers claim grain-sized
//! chunks of an output slice from one counter, each result written at its
//! own index. When every chunk is a pure function of its index (the
//! `derive_seed` discipline), the filled slice — and any serial in-order
//! fold over it — is bit-identical at every worker count.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Worker threads for the auto-parallel entry points: the
/// `WI_TEST_THREADS` environment variable when it holds a positive
/// integer (the CI matrix runs the suite at 1 and 4 to exercise every
/// thread-invariance contract end to end), otherwise the available
/// parallelism, otherwise 1.
pub fn threads() -> usize {
    std::env::var("WI_TEST_THREADS")
        .ok()
        .and_then(|s| s.parse::<usize>().ok())
        .filter(|&n| n > 0)
        .or_else(|| std::thread::available_parallelism().ok().map(|n| n.get()))
        .unwrap_or(1)
}

/// Calls `f(state, start, chunk)` for every `grain`-sized chunk of `out`
/// (the last one may be shorter), where `start` is the chunk's offset in
/// `out`, across up to `states.len()` workers.
///
/// Workers claim chunks in index order from one atomic counter, each
/// keeping its own `&mut` element of `states` (scratch such as decoder
/// workspaces or DES engines) across all its claims. With one worker (one
/// state, or at most one chunk) everything runs inline on the caller's
/// thread and nothing is spawned. A panic in `f` reaches the caller with
/// its original payload.
///
/// # Panics
///
/// Panics if `grain` is zero, or if `states` is empty while `out` is
/// not.
pub fn for_each_chunk<S, T, F>(states: &mut [S], out: &mut [T], grain: usize, f: F)
where
    S: Send,
    T: Send,
    F: Fn(&mut S, usize, &mut [T]) + Sync,
{
    assert!(grain > 0, "fan-out grain must be positive");
    assert!(
        !states.is_empty() || out.is_empty(),
        "fan-out needs a worker"
    );
    let workers = states.len().min(out.len().div_ceil(grain));
    if workers <= 1 {
        for (k, chunk) in out.chunks_mut(grain).enumerate() {
            f(&mut states[0], k * grain, chunk);
        }
        return;
    }

    // Each chunk sits behind its own mutex and is locked exactly once, by
    // the worker that claimed its index, so the locks never contend; the
    // counter publishes no data (Relaxed suffices).
    let chunks: Vec<Mutex<&mut [T]>> = out.chunks_mut(grain).map(Mutex::new).collect();
    let next = AtomicUsize::new(0);
    let work = |state: &mut S| loop {
        let k = next.fetch_add(1, Ordering::Relaxed);
        let Some(chunk) = chunks.get(k) else { break };
        let mut chunk = chunk.lock().expect("each chunk is claimed once");
        f(state, k * grain, &mut chunk);
    };
    let (first, rest) = states[..workers].split_first_mut().expect("workers >= 2");
    std::thread::scope(|scope| {
        let work = &work;
        let handles: Vec<_> = rest
            .iter_mut()
            .map(|state| scope.spawn(move || work(state)))
            .collect();
        work(first);
        for handle in handles {
            if let Err(payload) = handle.join() {
                std::panic::resume_unwind(payload);
            }
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::panic::{catch_unwind, AssertUnwindSafe};

    #[test]
    fn every_index_is_written_once_at_its_own_position() {
        for workers in [1, 2, 3, 8, 64] {
            for grain in [1, 8] {
                for len in [0, 1, grain - 1, grain, 1000] {
                    let mut states = vec![(); workers];
                    let mut out = vec![(usize::MAX, 0u32); len];
                    for_each_chunk(&mut states, &mut out, grain, |_, start, chunk| {
                        assert!(chunk.len() <= grain && start % grain == 0);
                        for (i, slot) in chunk.iter_mut().enumerate() {
                            *slot = (start + i, slot.1 + 1);
                        }
                    });
                    for (i, &(at, writes)) in out.iter().enumerate() {
                        assert_eq!(
                            (at, writes),
                            (i, 1),
                            "workers {workers}, grain {grain}, len {len}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn worker_state_is_reused_across_claims() {
        for workers in [1, 2, 3, 8] {
            // Each state counts the chunks its worker claimed and keeps a
            // buffer alive across them; every claim sees the buffer the
            // worker's previous claim left behind.
            let mut states: Vec<(usize, Vec<usize>)> = vec![(0, Vec::new()); workers];
            let mut out = vec![0usize; 100];
            for_each_chunk(&mut states, &mut out, 3, |(claims, seen), start, chunk| {
                assert_eq!(seen.len(), *claims);
                *claims += 1;
                seen.push(start);
                chunk.fill(start);
            });
            let claims: usize = states.iter().map(|s| s.0).sum();
            assert_eq!(claims, 100usize.div_ceil(3), "workers {workers}");
            let mut starts: Vec<usize> = states.into_iter().flat_map(|s| s.1).collect();
            starts.sort_unstable();
            assert_eq!(starts, (0..100).step_by(3).collect::<Vec<_>>());
        }
    }

    #[test]
    fn one_worker_runs_inline() {
        let caller = std::thread::current().id();
        let mut out = vec![0u8; 20];
        for_each_chunk(&mut [()], &mut out, 4, |_, _, chunk| {
            assert_eq!(std::thread::current().id(), caller);
            chunk.fill(1);
        });
        assert!(out.iter().all(|&v| v == 1));
    }

    #[test]
    fn a_panic_in_the_closure_reaches_the_caller() {
        for workers in [1, 2, 8] {
            let mut states = vec![(); workers];
            let mut out = vec![0u8; 64];
            let err = catch_unwind(AssertUnwindSafe(|| {
                for_each_chunk(&mut states, &mut out, 1, |_, start, _| {
                    if start == 37 {
                        panic!("chunk 37 failed");
                    }
                })
            }))
            .expect_err("the panic must propagate");
            let msg = err
                .downcast_ref::<&str>()
                .copied()
                .or_else(|| err.downcast_ref::<String>().map(String::as_str));
            assert_eq!(msg, Some("chunk 37 failed"), "workers {workers}");
        }
    }
}
