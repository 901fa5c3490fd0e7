//! `noc_des`: Fig. 8a/8b DES rate sweeps, rates 0.05…0.80 with three
//! replications each, over five cases — three topologies under DOR and
//! uniform traffic, the 4×4×4 3D mesh under adaptive routing with
//! transpose traffic, and the 4×4×4 co-simulated fault case. All host
//! time is in `wi_noc::des::engine`; no LDPC or store work runs.

use crate::harness::{
    guarded, insert_overhead, peak_rss_mb, setup_samples, timed, Ctx, Ops, Outcome,
};
use crate::stats::{median, percentile, tail_percentile};
use std::collections::BTreeMap;
use std::time::Instant;
use wi_noc::des::traffic::TrafficKind;
use wi_noc::des::{
    sweep_engine_with_threads, ArqConfig, DesConfig, DesResult, Engine, FaultConfig,
    LinkErrorModel, RatePoint, SweepConfig, SweepResult,
};
use wi_noc::routing::RoutingKind;
use wi_noc::topology::Topology;
use wi_num::rng::derive_seed;
use wi_num::stats::Running;
use wi_sweep::exec::render_sweep_result;
use wi_system::config::SystemConfig;
use wi_system::cosim::{link_error_model, FerCurve};

/// `DesConfig::default().seed`, the seed the Fig. 8 bins use.
pub const DEFAULT_SEED: u64 = 0xDE5;

const REPLICATIONS: usize = 3;
const SETUP_SAMPLES: usize = 3;
/// Backed-off transmit power that walks the edge links into the FER
/// waterfall (one of `fig_cosim`'s reduced powers).
const FAULT_TX_DBM: f64 = -13.0;

/// One DES case: a topology, its sweep and the Fig. 8a knee the paper
/// reports for it, if any.
struct Case {
    name: &'static str,
    topo: Topology,
    sweep: SweepConfig,
    paper_knee: Option<(&'static str, f64)>,
}

/// What set-up builds: the cases and one routed engine per case.
struct Fixture {
    cases: Vec<(Case, Engine)>,
    route_build_s: f64,
    link_model_s: f64,
}

fn rates() -> Vec<f64> {
    (1..=16).map(|k| 0.05 * k as f64).collect()
}

/// A fixed FER curve of the paper's LDPC-CC (N=25, W=6), so the fault
/// case runs no Monte-Carlo.
fn fer_curve() -> FerCurve {
    FerCurve::from_points(vec![
        (0.0, 0.95),
        (1.0, 0.8),
        (2.0, 0.45),
        (3.0, 0.12),
        (4.0, 0.02),
        (5.0, 0.002),
        (6.0, 0.0),
    ])
}

/// The five cases; each repetition sets the DES seed.
fn cases(link_model_s: &mut f64) -> Vec<Case> {
    let des = |warmup: usize, measured: usize, max_events: u64| DesConfig {
        warmup_packets: warmup,
        measured_packets: measured,
        max_events,
        ..DesConfig::default()
    };
    let sweep = |base: DesConfig| SweepConfig::new(rates(), REPLICATIONS, base);
    let mut cosim = SystemConfig::paper_default();
    cosim.link.tx_power_dbm = FAULT_TX_DBM;
    let (model, s) = timed(|| link_error_model(&cosim, &fer_curve()));
    *link_model_s = s;
    vec![
        Case {
            name: "mesh2d_8x8",
            topo: Topology::mesh2d(8, 8),
            sweep: sweep(des(500, 4_000, 400_000)),
            paper_knee: Some(("2D", 0.41)),
        },
        Case {
            name: "star_4x4x4",
            topo: Topology::star_mesh(4, 4, 4),
            sweep: sweep(des(500, 4_000, 400_000)),
            paper_knee: Some(("star", 0.19)),
        },
        Case {
            name: "mesh3d_8x8x8",
            topo: Topology::mesh3d(8, 8, 8),
            sweep: sweep(des(2_048, 8_192, 800_000)),
            paper_knee: Some(("3D, 64 modules", 0.75)),
        },
        Case {
            name: "adaptive_transpose_4x4x4",
            topo: Topology::mesh3d(4, 4, 4),
            sweep: sweep(DesConfig {
                routing: RoutingKind::Adaptive,
                traffic: TrafficKind::Transpose,
                ..des(500, 4_000, 400_000)
            }),
            paper_knee: None,
        },
        Case {
            name: "cosim_fault_4x4x4",
            topo: Topology::mesh3d(4, 4, 4),
            sweep: sweep(DesConfig {
                fault: FaultConfig {
                    model,
                    arq: ArqConfig {
                        max_retries: 6,
                        timeout: 4.0,
                        backoff: 1.5,
                    },
                    ..FaultConfig::off()
                },
                ..des(500, 4_000, 400_000)
            }),
            paper_knee: None,
        },
    ]
}

fn build() -> Fixture {
    let mut link_model_s = 0.0;
    let mut route_build_s = 0.0;
    let cases = cases(&mut link_model_s)
        .into_iter()
        .map(|case| {
            let (engine, s) = timed(|| Engine::with_routing(&case.topo, case.sweep.base.routing));
            route_build_s += s;
            (case, engine)
        })
        .collect();
    Fixture {
        cases,
        route_build_s,
        link_model_s,
    }
}

/// Simulated packets of a sweep: warmup plus measured, over completed
/// replications.
fn packets(case: &Case, result: &SweepResult) -> u64 {
    let per_rep = (case.sweep.base.warmup_packets + case.sweep.base.measured_packets) as u64;
    result
        .points
        .iter()
        .map(|p| p.completed as u64 * per_rep)
        .sum()
}

/// One case's sweep result (or why it failed) and its wall.
type CaseRun = (Result<SweepResult, String>, f64);

/// A case's sweep with its replications seeded from `seed`.
fn seeded(case: &Case, seed: u64) -> SweepConfig {
    SweepConfig {
        base: DesConfig {
            seed,
            ..case.sweep.base
        },
        ..case.sweep.clone()
    }
}

/// One repetition at DES seed `seed`: every case swept once. Returns
/// each case's result and sweep wall, and the repetition's wall.
fn repetition(ctx: &Ctx, fx: &Fixture, seed: u64) -> (Vec<CaseRun>, f64) {
    timed(|| {
        fx.cases
            .iter()
            .map(|(case, proto)| {
                let cfg = seeded(case, seed);
                timed(|| guarded(|| sweep_engine_with_threads(proto, &cfg, ctx.threads)))
            })
            .collect()
    })
}

fn check(case: &Case, result: &SweepResult) -> Result<String, String> {
    let first = result.points[0];
    if first.completed != first.replications {
        return Err(format!("lowest rate did not drain: {first:?}"));
    }
    let retries: u64 = result.points.iter().map(|p| p.retries).sum();
    let faulty = case.sweep.base.fault.active();
    if faulty != (retries > 0) {
        return Err(format!(
            "fault model active = {faulty} but {retries} retries"
        ));
    }
    Ok(render_sweep_result(result))
}

/// A serial replay of one case at DES seed `seed`: every replication
/// through `Engine::run`, seeded exactly as the sweep seeds it, folded
/// the way the sweep folds. Returns the fold and each run's
/// `(rate index, s)`.
fn replay(case: &Case, proto: &Engine, seed: u64) -> (SweepResult, Vec<(usize, f64)>) {
    let cfg = &seeded(case, seed);
    let reps = cfg.replications;
    let mut engine = proto.clone();
    let mut runs: Vec<(usize, DesResult, f64)> = Vec::new();
    for (ri, &rate) in cfg.rates.iter().enumerate() {
        for rep in 0..reps {
            let run = DesConfig {
                injection_rate: rate,
                seed: derive_seed(cfg.base.seed, (ri * reps + rep) as u64),
                ..cfg.base
            };
            let (r, s) = timed(|| engine.run(&run));
            runs.push((ri, r, s));
        }
    }
    let points: Vec<RatePoint> = cfg
        .rates
        .iter()
        .enumerate()
        .map(|(ri, &rate)| {
            let mut acc = Running::new();
            let (mut completed, mut retries, mut dropped) = (0, 0, 0);
            for (_, r, _) in runs.iter().filter(|run| run.0 == ri) {
                if r.completed {
                    acc.push(r.mean_latency);
                    completed += 1;
                }
                retries += r.retries;
                dropped += r.dropped;
            }
            RatePoint {
                rate,
                mean_latency: acc.mean(),
                stderr: acc.stderr(),
                completed,
                replications: reps,
                retries,
                dropped,
            }
        })
        .collect();
    let baseline = points
        .iter()
        .find(|p| p.completed > 0)
        .map(|p| p.mean_latency);
    let saturation_knee = points
        .iter()
        .find(|p| {
            2 * p.completed < reps
                || baseline.is_some_and(|b| p.completed > 0 && p.mean_latency > cfg.knee_factor * b)
        })
        .map(|p| p.rate);
    let times = runs.iter().map(|&(ri, _, s)| (ri, s)).collect();
    (
        SweepResult {
            points,
            saturation_knee,
        },
        times,
    )
}

pub fn run(ctx: &Ctx) -> Outcome {
    let mut ops = Ops::default();
    let mut metrics = BTreeMap::new();
    let (fx, mut setup_s) = setup_samples(SETUP_SAMPLES, 1, build);

    let start = Instant::now();
    let (mut walls, mut rates, mut traced_walls) = (Vec::new(), Vec::new(), Vec::new());
    let mut case_walls: Vec<Vec<f64>> = vec![Vec::new(); fx.cases.len()];
    let mut last: Vec<Option<SweepResult>> = vec![None; fx.cases.len()];
    let mut last_seed = ctx.seed;
    while ctx.another_rep(start, walls.len()) {
        let seed = ctx.rep_seed(walls.len());
        let (results, wall) = repetition(ctx, &fx, seed);
        let mut simulated = 0;
        for ((case, _), (result, _)) in fx.cases.iter().zip(&results) {
            if let Ok(r) = result {
                simulated += packets(case, r);
            }
            let outcome = result
                .as_ref()
                .map_err(Clone::clone)
                .and_then(|r| check(case, r));
            ops.record(ctx, case.name, seed, outcome);
        }
        walls.push(wall);
        rates.push(simulated as f64 / wall);
        setup_s.extend(setup_samples(SETUP_SAMPLES, 1, build).1);
        for (slot, (result, _)) in last.iter_mut().zip(results) {
            *slot = result.ok();
        }
        last_seed = seed;
        if ctx.trace {
            // The DES spans are the per-case walls every repetition takes;
            // only the traced repetitions' are reported, so both sides of
            // the overhead comparison run identical calls.
            let (results, wall) = repetition(ctx, &fx, seed);
            traced_walls.push(wall);
            for ((case, _), (walls, ((result, s), want))) in fx
                .cases
                .iter()
                .zip(case_walls.iter_mut().zip(results.iter().zip(&last)))
            {
                walls.push(*s);
                let same = match (result, want) {
                    (Ok(got), Some(want))
                        if render_sweep_result(got) == render_sweep_result(want) =>
                    {
                        Ok(())
                    }
                    (Err(e), _) => Err(format!("traced sweep failed: {e}")),
                    _ => Err("traced sweep differs from the untraced one".to_string()),
                };
                ops.check(ctx, &format!("{}.deterministic", case.name), same);
            }
        }
    }

    metrics.insert("setup_s", median(&mut setup_s));
    let wall_s = median(&mut walls.clone());
    metrics.insert("wall_s", wall_s);
    metrics.insert("throughput_per_s", median(&mut rates));
    metrics.insert("peak_rss_mb", peak_rss_mb());
    println!(
        "noc_des: {} repetitions, wall per repetition {walls:?} s",
        walls.len()
    );
    println!(
        "DES saturation knees at seed {last_seed} (informational, not gated; flits/cycle/module):"
    );
    for ((case, _), result) in fx.cases.iter().zip(&last) {
        let knee = result
            .as_ref()
            .and_then(|r| r.saturation_knee)
            .map_or("none".to_string(), |k| format!("{k:.2}"));
        let anchor = case.paper_knee.map_or(String::new(), |(label, k)| {
            format!(" | Fig. 8a paper anchor {label} {k:.2}")
        });
        println!("  {:26} knee {knee}{anchor}", case.name);
        if let LinkErrorModel::EdgeCenter { edge_p, center_p } = case.sweep.base.fault.model {
            println!(
                "  {:26} at {FAULT_TX_DBM} dBm: edge link FER {edge_p:.4}, center {center_p:.4}",
                ""
            );
        }
    }

    if ctx.trace {
        trace_metrics(
            ctx,
            &fx,
            &last,
            last_seed,
            &case_walls,
            &mut ops,
            &mut metrics,
        );
        insert_overhead(&mut metrics, wall_s, median(&mut traced_walls));
    }
    Outcome { ops, metrics }
}

/// The per-layer numbers: route build, case spans, and the serial
/// replay (at `seed`, the seed `swept` ran at) with its run-time
/// distribution, parallel efficiency and knee share.
fn trace_metrics(
    ctx: &Ctx,
    fx: &Fixture,
    swept: &[Option<SweepResult>],
    seed: u64,
    case_walls: &[Vec<f64>],
    ops: &mut Ops,
    metrics: &mut BTreeMap<&'static str, f64>,
) {
    metrics.insert("noc.route_build_s", fx.route_build_s);
    metrics.insert("cosim.link_model_s", fx.link_model_s);
    let mut sweep_wall = 0.0;
    for ((case, _), walls) in fx.cases.iter().zip(case_walls) {
        let s = median(&mut walls.clone());
        sweep_wall += s;
        let name = crate::harness::PER_LAYER
            .iter()
            .map(|(n, _)| *n)
            .find(|n| n.strip_prefix("des.case_s.") == Some(case.name))
            .expect("every case has a per-layer metric");
        metrics.insert(name, s);
    }

    let (mut all_ms, mut past_knee_s, mut replay_s) = (Vec::new(), 0.0, 0.0);
    for ((case, proto), sweep) in fx.cases.iter().zip(swept) {
        let folded = guarded(|| replay(case, proto, seed));
        let same = match (&folded, sweep) {
            (Ok((r, _)), Some(s)) if render_sweep_result(r) == render_sweep_result(s) => Ok(()),
            (Ok(_), Some(_)) => Err("serial replay folds to different points".into()),
            (Ok(_), None) => Err("the sweep itself failed".into()),
            (Err(e), _) => Err(format!("replay failed: {e}")),
        };
        ops.check(ctx, &format!("{}.replay_folds", case.name), same);
        let Ok((result, times)) = folded else {
            continue;
        };
        let knee_index = result
            .saturation_knee
            .and_then(|k| case.sweep.rates.iter().position(|&r| r == k));
        for (ri, s) in times {
            all_ms.push(1e3 * s);
            replay_s += s;
            if knee_index.is_some_and(|k| ri >= k) {
                past_knee_s += s;
            }
        }
        if case.sweep.base.fault.active() {
            let retries: u64 = result.points.iter().map(|p| p.retries).sum();
            metrics.insert("des.retries", retries as f64);
        }
    }
    metrics.insert("des.replay_s", replay_s);
    metrics.insert("des.run_p50_ms", percentile(&all_ms, 50.0));
    let (p, tail) = tail_percentile(&all_ms).unwrap_or((0.0, 0.0));
    println!("des runs: {} replications, tail at p{p}", all_ms.len());
    metrics.insert("des.run_p95_ms", tail);
    metrics.insert(
        "des.parallel_eff",
        replay_s / (ctx.threads as f64 * sweep_wall).max(f64::MIN_POSITIVE),
    );
    metrics.insert(
        "des.past_knee_share",
        past_knee_s / replay_s.max(f64::MIN_POSITIVE),
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serial_replay_folds_to_the_sweep() {
        let topo = Topology::mesh2d(4, 4);
        let base = DesConfig {
            warmup_packets: 50,
            measured_packets: 300,
            max_events: 40_000,
            ..DesConfig::default()
        };
        let case = Case {
            name: "tiny",
            topo: topo.clone(),
            sweep: SweepConfig {
                knee_factor: 2.0,
                ..SweepConfig::new(vec![0.05, 0.6, 1.2], 2, base)
            },
            paper_knee: None,
        };
        let proto = Engine::with_routing(&topo, case.sweep.base.routing);
        let swept = sweep_engine_with_threads(&proto, &case.sweep, 2);
        let (replayed, times) = replay(&case, &proto, case.sweep.base.seed);
        assert_eq!(render_sweep_result(&replayed), render_sweep_result(&swept));
        assert_eq!(times.len(), 6);
        // The grid reaches past the (lowered) knee factor, so the knee
        // logic is exercised.
        assert!(swept.saturation_knee.is_some(), "{swept:?}");
    }
}
