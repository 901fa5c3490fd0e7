//! What every workload shares: the run context, op accounting with
//! panic containment, the committed output digests, the metric tables
//! `BENCHMARK.json` declares, and the result line.

use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::time::Instant;
use wi_num::rng::derive_seed;

/// End-to-end metrics, reported with tracing off: `(name, unit)`.
pub const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("throughput_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics, reported by the traced run: `(name, unit)`. A
/// workload reports 0 for a layer it does not time.
pub const PER_LAYER: [(&str, &str); 35] = [
    ("ldpc.decode_s", "s"),
    ("ldpc.us_per_frame.cc", "us"),
    ("ldpc.us_per_frame.bc", "us"),
    ("ldpc.frames_evaluated", "count"),
    ("ldpc.frames_used", "count"),
    ("ldpc.useful_frame_ratio", "ratio"),
    ("ldpc.worker_util", "ratio"),
    ("ldpc.search_self_s", "s"),
    ("ldpc.probes", "count"),
    ("ldpc.llr_s", "s"),
    ("noc.route_build_s", "s"),
    ("des.case_s.mesh2d_8x8", "s"),
    ("des.case_s.star_4x4x4", "s"),
    ("des.case_s.mesh3d_8x8x8", "s"),
    ("des.case_s.adaptive_transpose_4x4x4", "s"),
    ("des.case_s.cosim_fault_4x4x4", "s"),
    ("des.replay_s", "s"),
    ("des.run_p50_ms", "ms"),
    ("des.run_p95_ms", "ms"),
    ("des.parallel_eff", "ratio"),
    ("des.past_knee_share", "ratio"),
    ("des.retries", "count"),
    ("cosim.link_model_s", "s"),
    ("sweep.expand_s", "s"),
    ("store.open_s", "s"),
    ("exec.run_s.stopped", "s"),
    ("exec.run_s.resume", "s"),
    ("exec.run_s.warm", "s"),
    ("exec.fold_s", "s"),
    ("store.records_written", "count"),
    ("cache.hit_ratio", "ratio"),
    ("cache.duplicate_frames", "count"),
    ("trace.untraced_wall_s", "s"),
    ("trace.traced_wall_s", "s"),
    ("trace.overhead_pct", "%"),
];

/// Committed digests of the simulated outputs at each workload's
/// default seed: one `workload op fnv64-hex` line per op.
const DIGESTS: &str = include_str!("../digests.txt");

/// One benchmark invocation's settings.
pub struct Ctx {
    pub workload: &'static str,
    pub seed: u64,
    pub default_seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub threads: usize,
    /// Directory the workload may write to; removed when the run ends.
    pub scratch: PathBuf,
}

impl Ctx {
    /// True while the measured phase, begun at `start`, should run
    /// another repetition: at least once, then until `seconds` have passed.
    pub fn another_rep(&self, start: Instant, reps_done: usize) -> bool {
        reps_done == 0 || start.elapsed().as_secs_f64() < self.seconds
    }

    /// The input seed of repetition `rep`: the run's seed itself first,
    /// then seeds derived from it, so a run's median spans several inputs
    /// instead of hinging on one seed's early stops.
    pub fn rep_seed(&self, rep: usize) -> u64 {
        match rep {
            0 => self.seed,
            _ => derive_seed(self.seed, rep as u64),
        }
    }
}

/// Attempted and failed ops. An op is one search target, one DES case
/// or one sweep phase; a mismatch, a panic or an `Err` fails it.
#[derive(Default)]
pub struct Ops {
    pub attempted: u64,
    pub failed: u64,
}

impl Ops {
    /// Counts one op of the repetition run at `seed`; `outcome` carries
    /// its canonical output text, or why it failed. At the workload's
    /// default seed the text must match the committed digest.
    pub fn record(&mut self, ctx: &Ctx, op: &str, seed: u64, outcome: Result<String, String>) {
        let checked = outcome.and_then(|text| {
            let digest = fnv64(&text);
            if seed == ctx.seed {
                println!("digest {}/{op} {digest:016x}", ctx.workload);
            }
            if seed != ctx.default_seed {
                return Ok(());
            }
            match expected_digest(ctx.workload, op) {
                Some(want) if want == digest => Ok(()),
                Some(want) => Err(format!("digest {digest:016x}, committed {want:016x}")),
                None => Err("no committed digest".to_string()),
            }
        });
        self.check(ctx, op, checked);
    }

    /// Counts one op that has no output of its own to pin (a phase or a
    /// transparency check).
    pub fn check(&mut self, ctx: &Ctx, op: &str, ok: Result<(), String>) {
        self.attempted += 1;
        if let Err(p) = ok {
            self.failed += 1;
            println!("FAILED {}/{op}: {p}", ctx.workload);
        }
    }
}

fn expected_digest(workload: &str, op: &str) -> Option<u64> {
    DIGESTS.lines().find_map(|line| {
        let mut parts = line.split_whitespace();
        (parts.next()? == workload && parts.next()? == op)
            .then(|| u64::from_str_radix(parts.next()?, 16).ok())
            .flatten()
    })
}

/// FNV-1a, 64 bit: a digest that is stable across toolchains.
pub fn fnv64(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Runs `f`, turning a panic into an `Err` with its message.
pub fn guarded<T>(f: impl FnOnce() -> T) -> Result<T, String> {
    catch_unwind(AssertUnwindSafe(f)).map_err(|payload| {
        payload
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_else(|| "panic".to_string())
    })
}

/// [`guarded`] for a closure that can fail on its own.
pub fn guarded_try<T>(f: impl FnOnce() -> Result<T, String>) -> Result<T, String> {
    guarded(f).and_then(|r| r)
}

/// Seconds `f` takes, with its result.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t = Instant::now();
    let out = f();
    (out, t.elapsed().as_secs_f64())
}

/// Builds the fixture `per_sample` times in each of `samples` samples
/// and returns the last one with the time of one build per sample. A
/// sample is long enough to time steadily even when one build takes
/// microseconds. Workloads take as many samples again after every
/// repetition: the host's speed drifts over seconds, and the reported
/// median should span the whole run rather than its first moments.
pub fn setup_samples<T>(samples: usize, per_sample: usize, build: impl Fn() -> T) -> (T, Vec<f64>) {
    let mut times = Vec::with_capacity(samples);
    let mut last = None;
    for _ in 0..samples.max(1) {
        let (fixture, s) = timed(|| (0..per_sample.max(1)).map(|_| build()).last());
        times.push(s / per_sample.max(1) as f64);
        last = fixture;
    }
    (last.expect("at least one build"), times)
}

/// A workload's result: op counts plus the metrics it measured.
pub struct Outcome {
    pub ops: Ops,
    pub metrics: BTreeMap<&'static str, f64>,
}

/// Records the traced and untraced walls of one workload and the
/// tracing overhead between them.
pub fn insert_overhead(metrics: &mut BTreeMap<&'static str, f64>, untraced_s: f64, traced_s: f64) {
    metrics.insert("trace.untraced_wall_s", untraced_s);
    metrics.insert("trace.traced_wall_s", traced_s);
    let pct = if untraced_s > 0.0 {
        100.0 * (traced_s - untraced_s) / untraced_s
    } else {
        0.0
    };
    metrics.insert("trace.overhead_pct", pct);
}

/// Peak resident set of this process in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Prints every metric of the active table as `name = value unit`, then
/// the result line the benchmark contract asks for.
pub fn print_result(ctx: &Ctx, out: &Outcome) {
    let table: &[(&str, &str)] = if ctx.trace { &PER_LAYER } else { &END_TO_END };
    let mut members = Vec::with_capacity(table.len());
    for &(name, unit) in table {
        let value = out.metrics.get(name).copied().unwrap_or(0.0);
        let value = if value.is_finite() { value } else { 0.0 };
        println!("metric {name} = {value} {unit}");
        members.push(format!(
            "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        ));
    }
    let (attempted, failed) = (out.ops.attempted, out.ops.failed);
    let fail_ratio = failed as f64 / attempted as f64;
    println!("metric fail_ratio = {fail_ratio} ratio ({failed} of {attempted} ops failed)");
    println!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        failed == 0,
        members.join(", ")
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use wi_sweep::json::Json;

    fn names(doc: &Json, key: &str) -> Vec<(String, String)> {
        doc.get(key)
            .and_then(Json::as_arr)
            .expect("array")
            .iter()
            .map(|m| {
                let s = |k: &str| m.get(k).and_then(Json::as_str).expect(k).to_string();
                (s("name"), s("unit"))
            })
            .collect()
    }

    #[test]
    fn metric_tables_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = Json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json")).unwrap();
        let own = |t: &[(&str, &str)]| -> Vec<(String, String)> {
            t.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(names(&doc, "end_to_end"), own(&END_TO_END));
        assert_eq!(names(&doc, "per_layer"), own(&PER_LAYER));
    }

    #[test]
    fn digest_table_parses() {
        assert_eq!(fnv64(""), 0xcbf2_9ce4_8422_2325);
        for line in DIGESTS.lines() {
            let parts: Vec<&str> = line.split_whitespace().collect();
            assert_eq!(parts.len(), 3, "{line}");
            assert!(expected_digest(parts[0], parts[1]).is_some(), "{line}");
        }
    }
}
