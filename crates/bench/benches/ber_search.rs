//! Criterion benches for the required-Eb/N0 search strategies of
//! `wi_ldpc::ber` — the wall-clock term the `fig10_latency_ebn0` sweep is
//! dominated by. One bench per [`SearchStrategy`] over the same reduced
//! block-code search (φ-table rule, single worker thread so the numbers
//! measure the *strategy's* frame budget, not the host's core count).
//!
//! `ber_search_bisect` is the pre-redesign ladder (the pinned oracle);
//! `ber_search_concurrent` and `ber_search_paired` are the CI-pruned and
//! common-random-numbers strategies the redesign added. The interesting
//! figure is the ratio between them — it tracks the end-to-end speedup
//! recorded in `docs/REPRODUCING.md`. `ber_search_bisect_2w` runs the
//! bisect search at two workers: the one bench whose Monte-Carlo rounds
//! fan out, so it measures how rounds are sized and split across workers.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use wi_ldpc::ber::{
    search_required_ebn0_with_threads, BerSimOptions, BlockBerTarget, SearchConfig, SearchStrategy,
};
use wi_ldpc::decoder::{BpConfig, CheckRule};
use wi_ldpc::LdpcCode;

fn bench_search(c: &mut Criterion) {
    let code = LdpcCode::paper_block(50, 0xBC00 + 50);
    let config = BpConfig {
        max_iterations: 50,
        check_rule: CheckRule::sum_product_table(),
    };
    let target = BlockBerTarget::new(&code, config, 0.5);
    // The fig10 --quick budget: BER 1e-2, coarse tolerance.
    let opts = BerSimOptions {
        target_errors: 120,
        max_frames: 60,
        min_frames: 20,
        seed: 0xF10,
    };
    let base = SearchConfig {
        lo_db: 0.5,
        hi_db: 8.0,
        tol_db: 0.25,
        grid_points: 7,
        ..SearchConfig::default()
    };
    for (name, strategy, threads) in [
        ("ber_search_bisect", SearchStrategy::Bisection, 1),
        (
            "ber_search_concurrent",
            SearchStrategy::ConcurrentBisection,
            1,
        ),
        ("ber_search_paired", SearchStrategy::PairedGrid, 1),
        ("ber_search_bisect_2w", SearchStrategy::Bisection, 2),
    ] {
        let search = SearchConfig { strategy, ..base };
        c.bench_function(name, |b| {
            b.iter(|| {
                search_required_ebn0_with_threads(&target, 1e-2, black_box(&opts), &search, threads)
            })
        });
    }
}

criterion_group! {
    name = ber_search;
    config = Criterion::default().sample_size(10).measurement_time(std::time::Duration::from_secs(5)).warm_up_time(std::time::Duration::from_millis(500));
    targets = bench_search
}
criterion_main!(ber_search);
