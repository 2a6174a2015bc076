//! SPOT benchmark: three workloads against the default build, measured
//! from outside by timing calls into each layer's public functions.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload detect-steady --seed 1 --seconds 10 --trace 0
//! ```
//!
//! The last line of standard output is one JSON object: end-to-end
//! metrics with `--trace 0`, per-layer metrics with `--trace 1`. See
//! `perfbench/README.md` for the metrics and why each workload exists.

mod detect;
mod gen;
mod measure;
mod report;
mod served;
mod trace;

use detect::{Kind, Params};
use report::Report;
use std::path::PathBuf;

/// Scratch space for run state and span files, inside the benchmark's
/// own directory.
pub fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

const WORKLOADS: [&str; 3] = ["detect-steady", "drift-evolve", "served-durable"];

fn usage() -> ! {
    eprintln!(
        "usage: spot-perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
        WORKLOADS.join("|")
    );
    std::process::exit(2)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let value = |flag: &str| {
        args.iter()
            .position(|a| a == flag)
            .and_then(|i| args.get(i + 1))
            .cloned()
    };
    let workload = value("--workload").unwrap_or_else(|| usage());
    let parse = |flag: &str, default: &str| value(flag).unwrap_or_else(|| default.to_string());
    let (Ok(seed), Ok(seconds), Ok(trace)) = (
        parse("--seed", "1").parse::<u64>(),
        parse("--seconds", "10").parse::<f64>(),
        parse("--trace", "0").parse::<u8>(),
    ) else {
        usage()
    };
    if !WORKLOADS.contains(&workload.as_str()) || trace > 1 || seconds <= 0.0 {
        usage();
    }
    let params = Params {
        seed,
        seconds,
        trace: trace == 1,
    };

    let mut report = Report::default();
    report.meta("workload", &workload);
    report.meta("seed", seed);
    report.meta("seconds", seconds);
    report.meta("trace", trace);
    report.meta(
        "nproc",
        std::thread::available_parallelism().map_or(1, |n| n.get()),
    );
    report.meta(
        "build",
        if cfg!(debug_assertions) {
            "debug"
        } else {
            "release"
        },
    );
    report.meta("features", "none (serial executor)");

    let result = match workload.as_str() {
        "detect-steady" => detect::run(Kind::Steady, &params, &mut report),
        "drift-evolve" => detect::run(Kind::Drift, &params, &mut report),
        _ => served::run(&params, &mut report),
    };
    if let Err(e) = result {
        eprintln!("benchmark failed: {e}");
        std::process::exit(1);
    }
    report.print(params.trace);
}
