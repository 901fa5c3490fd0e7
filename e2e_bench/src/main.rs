//! End-to-end and per-layer benchmark of the wireless-interconnect
//! workspace.
//!
//! ```text
//! e2e-bench --workload <ber_search|noc_des|sweep_resume> --seed <n>
//!           --seconds <s> --trace <0|1>
//! ```
//!
//! Each workload is a fixed batch of work run as a closed loop: one
//! caller, one process, `min(2, nproc)` worker threads. The batch repeats
//! until `--seconds` have passed and the medians are reported. With
//! `--trace 0` the last line of standard output is a JSON object with
//! the end-to-end metrics; with `--trace 1` each untraced repetition is
//! paired with one run through spans recorded around the calls into
//! each layer, and the JSON carries the per-layer metrics and the
//! tracing overhead. See `README.md` beside this crate.

mod ber_search;
mod fingerprint;
mod harness;
mod ldpc_trace;
mod noc_des;
mod stats;
mod sweep_resume;

use harness::{Ctx, Outcome};

const USAGE: &str = "usage: e2e-bench --workload <ber_search|noc_des|sweep_resume> \
                     [--seed <n>] [--seconds <s>] [--trace <0|1>]";

/// Worker threads every workload runs with.
const MAX_THREADS: usize = 2;

type Runner = fn(&Ctx) -> Outcome;

/// `(name, default seed, runner)` of each workload.
const WORKLOADS: [(&str, u64, Runner); 3] = [
    ("ber_search", ber_search::DEFAULT_SEED, ber_search::run),
    ("noc_des", noc_des::DEFAULT_SEED, noc_des::run),
    (
        "sweep_resume",
        sweep_resume::DEFAULT_SEED,
        sweep_resume::run,
    ),
];

fn parse_u64(s: &str) -> Option<u64> {
    match s.strip_prefix("0x") {
        Some(hex) => u64::from_str_radix(hex, 16).ok(),
        None => s.parse().ok(),
    }
}

fn parse_args() -> Result<(Ctx, Runner), String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut values = std::collections::BTreeMap::new();
    for pair in args.chunks(2) {
        match pair {
            [flag, value]
                if ["--workload", "--seed", "--seconds", "--trace"].contains(&flag.as_str()) =>
            {
                values.insert(flag.as_str(), value.as_str());
            }
            _ => return Err(format!("unexpected arguments {pair:?}")),
        }
    }
    let name = values.get("--workload").ok_or("--workload is required")?;
    let &(workload, default_seed, runner) = WORKLOADS
        .iter()
        .find(|w| w.0 == *name)
        .ok_or_else(|| format!("unknown workload {name:?}"))?;
    let seed = match values.get("--seed") {
        Some(s) => parse_u64(s).ok_or_else(|| format!("bad --seed {s:?}"))?,
        None => default_seed,
    };
    let seconds: f64 = match values.get("--seconds") {
        Some(s) => s
            .parse()
            .ok()
            .filter(|v: &f64| *v >= 0.0)
            .ok_or_else(|| format!("bad --seconds {s:?}"))?,
        None => 10.0,
    };
    let trace = match values.get("--trace").copied() {
        None | Some("0") => false,
        Some("1") => true,
        Some(other) => return Err(format!("bad --trace {other:?}")),
    };
    let scratch = std::env::current_dir()
        .map_err(|e| format!("no working directory: {e}"))?
        .join(".e2e_scratch")
        .join(format!("run-{}", std::process::id()));
    let ctx = Ctx {
        workload,
        seed,
        default_seed,
        seconds,
        trace,
        threads: fingerprint::nproc().min(MAX_THREADS),
        scratch,
    };
    Ok((ctx, runner))
}

fn main() {
    let (ctx, runner) = match parse_args() {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("e2e-bench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    println!(
        "fingerprint: {}",
        fingerprint::Fingerprint::take(ctx.threads).render()
    );
    println!(
        "workload {} | seed {} (default {}) | {} s | trace {} | closed loop, one caller",
        ctx.workload, ctx.seed, ctx.default_seed, ctx.seconds, ctx.trace as u8
    );
    if let Err(e) = std::fs::create_dir_all(&ctx.scratch) {
        eprintln!("e2e-bench: cannot create {}: {e}", ctx.scratch.display());
        std::process::exit(1);
    }
    let outcome = runner(&ctx);
    let _ = std::fs::remove_dir_all(&ctx.scratch);
    if let Some(parent) = ctx.scratch.parent() {
        // Succeeds only once no other run is using the directory.
        let _ = std::fs::remove_dir(parent);
    }
    harness::print_result(&ctx, &outcome);
}
