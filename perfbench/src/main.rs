//! The repository's end-to-end benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <chol-bcsstk15|irregular-50k|paper-sweep> --seed <n> \
//!     --seconds <s> --trace <0|1>
//! ```
//!
//! Generates the workload's inputs from the seed, drives the pipeline
//! through the crates' public APIs, checks every output, and prints each
//! metric with its samples, then one JSON line:
//! `{"correct", "attempted", "failed", "metrics"}`. `--trace 0` reports
//! the end-to-end metrics from untraced runs; `--trace 1` reports the
//! per-layer metrics of traced runs. See `README.md` next to this file.

mod check;
mod report;
mod spans;
mod stats;
mod sweep;
mod threaded;

use report::{Provenance, RunId};
use std::path::Path;
use threaded::Kind;

/// The workloads, as named in `BENCHMARK.json`.
const WORKLOADS: [&str; 3] = ["chol-bcsstk15", "irregular-50k", "paper-sweep"];

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed {value}: {e}"))?),
            "--seconds" => {
                seconds = Some(value.parse().map_err(|e| format!("--seconds {value}: {e}"))?)
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}; one of {WORKLOADS:?}"));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let (seed, seconds, trace) = (args.seed, args.seconds, args.trace);
    let result = match args.workload.as_str() {
        "chol-bcsstk15" => threaded::run(Kind::Chol, seed, seconds, trace),
        "irregular-50k" => threaded::run(Kind::Irregular, seed, seconds, trace),
        _ => sweep::run(seed, seconds, trace),
    };
    let res = match result {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench {}: {e}", args.workload);
            std::process::exit(1);
        }
    };
    let here = Path::new(env!("CARGO_MANIFEST_DIR"));
    let root = here.parent().unwrap_or(here);
    let prov = Provenance::gather(root);
    let id = RunId { workload: &args.workload, seed, seconds, trace };
    report::emit(&id, &prov, &res, &here.join("out"));
}
