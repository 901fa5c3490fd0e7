//! `ber_search`: the Fig. 10 `--quick` preset on the default decoder —
//! exact sum-product, batch 8, bisection to BER 1e-2 over LDPC-CC N=25
//! W∈{4,6} and LDPC-BC N∈{50,100}, no frame store. Pure `wi_ldpc` work.

use crate::harness::{guarded, peak_rss_mb, setup_samples, timed, Ctx, Ops, Outcome};
use crate::ldpc_trace::{Family, LdpcTrace, Timed};
use crate::stats::median;
use std::collections::BTreeMap;
use std::time::Instant;
use wi_ldpc::ber::{
    search_required_ebn0_with_threads, BerSimOptions, BerTarget, BlockBerTarget, CoupledBerTarget,
    SearchConfig, SearchReport,
};
use wi_ldpc::decoder::{BpConfig, CheckRule};
use wi_ldpc::window::{CoupledCode, WindowDecoder};
use wi_ldpc::LdpcCode;
use wi_sweep::exec::render_search_report;

/// The Monte-Carlo seed `fig10_latency_ebn0` uses.
pub const DEFAULT_SEED: u64 = 0xF10;

const TARGET_BER: f64 = 1e-2;
const ITERATIONS: usize = 50;
const TERM_LENGTH: usize = 20;
const CC_LIFTING: usize = 25;
const CC_WINDOWS: [usize; 2] = [4, 6];
const BLOCK_LENGTHS: [usize; 2] = [50, 100];
const SETUP_SAMPLES: usize = 11;
/// Code builds per set-up sample: one takes a fraction of a millisecond.
const SETUPS_PER_SAMPLE: usize = 20;

/// The codes every repetition searches on.
struct Codes {
    cc: CoupledCode,
    blocks: Vec<(usize, LdpcCode)>,
}

fn build_codes() -> Codes {
    Codes {
        cc: CoupledCode::paper_cc(CC_LIFTING, TERM_LENGTH, 0xCC00 + CC_LIFTING as u64),
        blocks: BLOCK_LENGTHS
            .iter()
            .map(|&n| (n, LdpcCode::paper_block(n, 0xBC00 + n as u64)))
            .collect(),
    }
}

/// The four search targets of the preset, named as ops.
fn targets(codes: &Codes) -> Vec<(String, Family, Box<dyn BerTarget + '_>)> {
    let mut out: Vec<(String, Family, Box<dyn BerTarget + '_>)> = Vec::new();
    for w in CC_WINDOWS {
        let decoder = WindowDecoder::new(w, ITERATIONS).with_rule(CheckRule::SumProduct);
        out.push((
            format!("cc_n{CC_LIFTING}_w{w}"),
            Family::Cc,
            Box::new(CoupledBerTarget::new(&codes.cc, decoder).with_batch(8)),
        ));
    }
    for (n, code) in &codes.blocks {
        let config = BpConfig {
            max_iterations: ITERATIONS,
            check_rule: CheckRule::SumProduct,
        };
        out.push((
            format!("bc_n{n}"),
            Family::Bc,
            Box::new(BlockBerTarget::new(code, config, 0.5).with_batch(8)),
        ));
    }
    out
}

fn options(seed: u64) -> (BerSimOptions, SearchConfig) {
    let opts = BerSimOptions {
        target_errors: 120,
        max_frames: 60,
        min_frames: 20,
        seed,
    };
    let search = SearchConfig {
        lo_db: 0.5,
        hi_db: 8.0,
        tol_db: 0.25,
        grid_points: 7,
        ..SearchConfig::default()
    };
    (opts, search)
}

/// One target's op name and search report, or why it failed.
type Searched = (String, Result<SearchReport, String>);

/// One repetition at Monte-Carlo seed `seed`: every target searched
/// once, optionally through the timing decorator. Returns each op's
/// report (or failure) and the wall.
fn repetition(
    ctx: &Ctx,
    codes: &Codes,
    seed: u64,
    trace: Option<&LdpcTrace>,
) -> (Vec<Searched>, f64) {
    let (opts, search) = options(seed);
    let targets = targets(codes);
    timed(|| {
        targets
            .iter()
            .map(|(name, family, target)| {
                let report = guarded(|| match trace {
                    None => search_required_ebn0_with_threads(
                        target.as_ref(),
                        TARGET_BER,
                        &opts,
                        &search,
                        ctx.threads,
                    ),
                    Some(trace) => {
                        let timed = Timed {
                            inner: target.as_ref(),
                            family: *family,
                            trace,
                        };
                        let start = Instant::now();
                        let r = search_required_ebn0_with_threads(
                            &timed,
                            TARGET_BER,
                            &opts,
                            &search,
                            ctx.threads,
                        );
                        trace.search_done(start, Instant::now(), r.frames, r.probes);
                        r
                    }
                });
                (name.clone(), report)
            })
            .collect()
    })
}

fn check(report: &SearchReport) -> Result<String, String> {
    match report.outcome.found() {
        Some(_) => Ok(render_search_report(report)),
        None => Err(format!("search did not resolve: {:?}", report.outcome)),
    }
}

pub fn run(ctx: &Ctx) -> Outcome {
    let mut ops = Ops::default();
    let mut metrics = BTreeMap::new();
    let setup = || {
        let codes = build_codes();
        drop(targets(&codes));
        codes
    };
    let (codes, mut setup_s) = setup_samples(SETUP_SAMPLES, SETUPS_PER_SAMPLE, setup);

    let start = Instant::now();
    let (mut walls, mut rates, mut traced_walls) = (Vec::new(), Vec::new(), Vec::new());
    let mut layers = Vec::new();
    let mut llr_s = 0.0;
    while ctx.another_rep(start, walls.len()) {
        let seed = ctx.rep_seed(walls.len());
        let (reports, wall) = repetition(ctx, &codes, seed, None);
        let mut frames = 0;
        for (op, r) in &reports {
            if let Ok(r) = r {
                frames += r.frames;
            }
            let outcome = r.as_ref().map_err(Clone::clone).and_then(check);
            ops.record(ctx, op, seed, outcome);
        }
        walls.push(wall);
        rates.push(frames as f64 / wall);
        setup_s.extend(setup_samples(SETUP_SAMPLES, SETUPS_PER_SAMPLE, setup).1);
        if ctx.trace {
            let trace = LdpcTrace::default();
            let (traced, wall) = repetition(ctx, &codes, seed, Some(&trace));
            traced_walls.push(wall);
            for ((op, want), (_, got)) in reports.iter().zip(&traced) {
                let same = match (want, got) {
                    (Ok(a), Ok(b)) if a == b => Ok(()),
                    (_, Err(e)) => Err(format!("traced search failed: {e}")),
                    _ => Err("decorated search reported differently from the bare one".into()),
                };
                ops.check(ctx, &format!("{op}.decorator_transparent"), same);
            }
            layers.push(trace.layer(ctx.threads));
            if layers.len() == 1 {
                llr_s = trace.replay_llrs();
            }
        }
    }

    metrics.insert("setup_s", median(&mut setup_s));
    let wall_s = median(&mut walls.clone());
    metrics.insert("wall_s", wall_s);
    metrics.insert("throughput_per_s", median(&mut rates));
    metrics.insert("peak_rss_mb", peak_rss_mb());
    println!(
        "ber_search: {} repetitions, wall per repetition {walls:?} s",
        walls.len()
    );
    if ctx.trace {
        let pick = |f: fn(&crate::ldpc_trace::LdpcLayer) -> f64| {
            median(&mut layers.iter().map(f).collect::<Vec<_>>())
        };
        metrics.insert("ldpc.decode_s", pick(|l| l.decode_s));
        metrics.insert("ldpc.us_per_frame.cc", pick(|l| l.us_per_frame_cc));
        metrics.insert("ldpc.us_per_frame.bc", pick(|l| l.us_per_frame_bc));
        metrics.insert("ldpc.frames_evaluated", pick(|l| l.frames_evaluated as f64));
        metrics.insert("ldpc.frames_used", pick(|l| l.frames_used as f64));
        metrics.insert(
            "ldpc.useful_frame_ratio",
            pick(|l| l.frames_used as f64 / l.frames_evaluated.max(1) as f64),
        );
        metrics.insert("ldpc.worker_util", pick(|l| l.worker_util));
        metrics.insert("ldpc.search_self_s", pick(|l| l.search_self_s));
        metrics.insert("ldpc.probes", pick(|l| l.probes as f64));
        metrics.insert("ldpc.llr_s", llr_s);
        crate::harness::insert_overhead(&mut metrics, wall_s, median(&mut traced_walls));
    }
    Outcome { ops, metrics }
}
