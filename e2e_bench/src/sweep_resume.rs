//! `sweep_resume`: a 16-cell `ebn0_search` spec — window {4,6} × check
//! rule {minsum, table} × search tolerance {0.25, 0.1} dB × 2 seeds at
//! the paper-default lifting 40 — run against a fresh on-disk store in
//! three phases: stopped after 8 cells, resumed to completion, and a warm
//! rerun that must execute nothing, then folded. The frame cache starts
//! empty in every repetition.

use crate::harness::{
    guarded_try, insert_overhead, peak_rss_mb, setup_samples, timed, Ctx, Ops, Outcome,
};
use crate::stats::median;
use std::collections::{BTreeMap, BTreeSet};
use std::time::Instant;
use wi_sweep::json::Json;
use wi_sweep::{coding_target_hash, fold, run as run_sweep, ResultStore, RunOptions, RunSummary};
use wi_sweep::{StoreFrameCache, SweepSpec};

/// Default workload seed; the spec's two cell seeds are it and its
/// successor.
pub const DEFAULT_SEED: u64 = 0x5EED;

const CELLS: usize = 16;
const STOP_AFTER: usize = 8;
const SETUP_SAMPLES: usize = 11;
/// Spec parses and expansions per set-up sample: one takes tens of
/// microseconds, too short to time steadily on its own.
const SETUPS_PER_SAMPLE: usize = 200;

/// The spec. Every probe simulates exactly 24 frames (`min_frames` =
/// `max_frames`), so a cell's work does not hinge on where the seed's
/// early stops fall.
fn spec_text(seed: u64) -> String {
    format!(
        r#"{{"name": "resume-bench", "base": "paper",
  "axes": [
    {{"field": "window", "values": ["4", "6"]}},
    {{"field": "check_rule", "values": ["minsum", "table"]}},
    {{"field": "search_tol_db", "values": ["0.25", "0.1"]}}
  ],
  "seeds": ["{seed}", "{next}"],
  "eval": {{"kind": "ebn0_search", "target_ber": 0.01, "target_errors": 120,
            "max_frames": 24, "min_frames": 24}}}}"#,
        next = seed.wrapping_add(1)
    )
}

fn parse_spec(text: &str) -> Result<SweepSpec, String> {
    let spec = SweepSpec::from_json(&Json::parse(text)?)?;
    let cells = spec.expand().map_err(|p| p.join("; "))?;
    if cells.len() != CELLS {
        return Err(format!(
            "spec expands to {} cells, not {CELLS}",
            cells.len()
        ));
    }
    Ok(spec)
}

/// Spans and counts of one repetition's phases, and its fold.
#[derive(Default)]
struct Phases {
    open_s: f64,
    stopped_s: f64,
    resume_s: f64,
    warm_s: f64,
    fold_s: f64,
    records: usize,
    hits: u64,
    misses: u64,
    duplicate_frames: u64,
    search_frames: f64,
    fold: Option<String>,
}

/// Checks a phase's `(total, cached, executed, complete)` summary.
fn expect(phase: &str, s: &RunSummary, want: (usize, usize, usize, bool)) -> Result<(), String> {
    if (s.total, s.cached, s.executed, s.complete) == want {
        Ok(())
    } else {
        Err(format!(
            "{phase}: total={} cached={} executed={} complete={}",
            s.total, s.cached, s.executed, s.complete
        ))
    }
}

/// One repetition on a fresh store, the spec's cells seeded `seed` and
/// `seed + 1`: each phase opens the store the way a new process would,
/// and each is one op.
fn repetition(ctx: &Ctx, spec: &SweepSpec, seed: u64, ops: &mut Ops) -> (Phases, f64) {
    let spec = &SweepSpec {
        seeds: vec![seed, seed.wrapping_add(1)],
        ..spec.clone()
    };
    let dir = ctx.scratch.join("store");
    let _ = std::fs::remove_dir_all(&dir);
    let mut ph = Phases::default();
    let opts = |max_cells| RunOptions {
        threads: ctx.threads,
        max_cells,
    };
    // Opens the store and runs the spec on it; returns the summary, the
    // store and the phase's seconds.
    let phase = |max_cells, open_s: &mut f64| {
        let started = Instant::now();
        let (store, s) = timed(|| ResultStore::open(&dir));
        *open_s += s;
        let mut store = store.map_err(|e| format!("store open: {e}"))?;
        let summary = run_sweep(spec, &mut store, &opts(max_cells)).map_err(|e| e.to_string())?;
        Ok::<_, String>((summary, store, started.elapsed().as_secs_f64()))
    };
    let started = Instant::now();

    let stopped = guarded_try(|| {
        let (s, _, t) = phase(Some(STOP_AFTER), &mut ph.open_s)?;
        (ph.stopped_s, ph.hits, ph.misses) = (t, s.frame_hits, s.frame_misses);
        expect("stopped run", &s, (CELLS, 0, STOP_AFTER, false))
    });
    ops.check(ctx, "stopped", stopped);

    let resumed = guarded_try(|| {
        let (s, store, t) = phase(None, &mut ph.open_s)?;
        ph.resume_s = t;
        ph.hits += s.frame_hits;
        ph.misses += s.frame_misses;
        ph.records = store.len();
        ph.search_frames = store
            .iter()
            .flat_map(|r| r.metrics.iter())
            .filter(|(name, _)| name == "frames")
            .map(|(_, v)| v)
            .sum();
        expect("resume", &s, (CELLS, STOP_AFTER, CELLS - STOP_AFTER, true))?;
        let folded = fold(spec, &store).map_err(|e| e.to_string())?;
        if folded.contains("pending") {
            return Err("resumed fold still has pending cells".to_string());
        }
        Ok(folded)
    });
    ops.check(
        ctx,
        "resume",
        resumed.as_ref().map(|_| ()).map_err(Clone::clone),
    );

    let warm = guarded_try(|| {
        let (s, store, t) = phase(None, &mut ph.open_s)?;
        let (folded, fold_s) = timed(|| fold(spec, &store));
        (ph.warm_s, ph.fold_s) = (t, fold_s);
        expect("warm rerun", &s, (CELLS, CELLS, 0, true))?;
        let folded = folded.map_err(|e| e.to_string())?;
        match &resumed {
            Ok(resumed) if *resumed == folded => Ok(folded),
            Ok(_) => Err("warm fold differs from the resumed fold".to_string()),
            Err(_) => Err("no resumed fold to compare against".to_string()),
        }
    });
    let wall = started.elapsed().as_secs_f64();
    ops.record(ctx, "warm_fold", seed, warm.clone());
    ph.fold = warm.ok();

    // Distinct frames on disk, per coding target, against the frames the
    // workers simulated: the difference is work two cells duplicated.
    if let (true, Ok(cells)) = (ctx.trace, spec.expand()) {
        let targets: BTreeSet<u64> = cells
            .iter()
            .map(|c| coding_target_hash(&c.config.coding))
            .collect();
        let stored: usize = targets
            .iter()
            .filter_map(|&h| StoreFrameCache::open(&dir, h).ok())
            .map(|c| c.len())
            .sum();
        ph.duplicate_frames = ph.misses.saturating_sub(stored as u64);
    }
    let _ = std::fs::remove_dir_all(&dir);
    (ph, wall)
}

pub fn run(ctx: &Ctx) -> Outcome {
    let mut ops = Ops::default();
    let mut metrics = BTreeMap::new();
    let text = spec_text(ctx.seed);
    let setup = || parse_spec(&text);
    let (spec, mut setup_s) = setup_samples(SETUP_SAMPLES, SETUPS_PER_SAMPLE, setup);
    let spec = match spec {
        Ok(spec) => spec,
        Err(e) => {
            metrics.insert("setup_s", median(&mut setup_s));
            ops.check(ctx, "spec", Err(e));
            return Outcome { ops, metrics };
        }
    };

    let start = Instant::now();
    let (mut walls, mut rates, mut traced_walls) = (Vec::new(), Vec::new(), Vec::new());
    let mut traced: Vec<Phases> = Vec::new();
    let mut expand_s = Vec::new();
    while ctx.another_rep(start, walls.len()) {
        let seed = ctx.rep_seed(walls.len());
        let (ph, wall) = repetition(ctx, &spec, seed, &mut ops);
        walls.push(wall);
        rates.push(ph.search_frames / wall);
        setup_s.extend(setup_samples(SETUP_SAMPLES, SETUPS_PER_SAMPLE, setup).1);
        if ctx.trace {
            let (traced_ph, wall) = repetition(ctx, &spec, seed, &mut ops);
            let same = match (&ph.fold, &traced_ph.fold) {
                (Some(a), Some(b)) if a == b => Ok(()),
                _ => Err("traced repetition folded differently".to_string()),
            };
            ops.check(ctx, "warm_fold.deterministic", same);
            traced_walls.push(wall);
            traced.push(traced_ph);
            expand_s.push(timed(|| spec.expand()).1);
        }
    }

    metrics.insert("setup_s", median(&mut setup_s));
    let wall_s = median(&mut walls.clone());
    metrics.insert("wall_s", wall_s);
    metrics.insert("throughput_per_s", median(&mut rates));
    metrics.insert("peak_rss_mb", peak_rss_mb());
    println!(
        "sweep_resume: {} repetitions, wall per repetition {walls:?} s",
        walls.len()
    );
    if ctx.trace {
        let pick = |f: fn(&Phases) -> f64| median(&mut traced.iter().map(f).collect::<Vec<_>>());
        metrics.insert("sweep.expand_s", median(&mut expand_s));
        metrics.insert("store.open_s", pick(|p| p.open_s));
        metrics.insert("exec.run_s.stopped", pick(|p| p.stopped_s));
        metrics.insert("exec.run_s.resume", pick(|p| p.resume_s));
        metrics.insert("exec.run_s.warm", pick(|p| p.warm_s));
        metrics.insert("exec.fold_s", pick(|p| p.fold_s));
        metrics.insert("store.records_written", pick(|p| p.records as f64));
        metrics.insert(
            "cache.hit_ratio",
            pick(|p| p.hits as f64 / (p.hits + p.misses).max(1) as f64),
        );
        metrics.insert(
            "cache.duplicate_frames",
            pick(|p| p.duplicate_frames as f64),
        );
        println!(
            "cache.hit_ratio and cache.duplicate_frames depend on how the {} workers \
             interleave: never gated, never used in a claim; the frame cache starts empty",
            ctx.threads
        );
        insert_overhead(&mut metrics, wall_s, median(&mut traced_walls));
    }
    Outcome { ops, metrics }
}
