//! The repository benchmark. One process per run:
//!
//! ```text
//! perfbench --workload <steer_paper|browse|broadcast_routed> --seed <n> \
//!           --seconds <s> --trace <0|1>
//! ```
//!
//! Builds its inputs from the seed, measures a closed loop for `--seconds`,
//! checks a seeded sample of delivered frames against direct in-process
//! renders and the regime the workload claims, and prints one JSON result
//! as its last line. `--trace 1` runs the same inputs again layer by layer
//! and prints the reconciliation report. Any failed check exits non-zero
//! without a result. See README.md.

mod broadcast;
mod browse;
mod common;
mod steer;

use common::{Args, EnvRecord, Report, Scale};

fn main() {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let env = match EnvRecord::capture(args.trace) {
        Ok(env) => env,
        Err(e) => {
            eprintln!("perfbench: refusing to run: {e}");
            std::process::exit(3);
        }
    };
    println!("env {}", env.to_json());
    let (seed, secs) = (args.seed, args.seconds);
    let outcome: Result<Report, String> = match (args.workload.as_str(), args.trace) {
        ("steer_paper", false) => steer::run(Scale::Full, seed, secs),
        ("steer_paper", true) => steer::run_traced(Scale::Full, seed, secs),
        ("browse", false) => browse::run(Scale::Full, seed, secs),
        ("browse", true) => browse::run_traced(Scale::Full, seed, secs),
        ("broadcast_routed", false) => broadcast::run(Scale::Full, seed, secs),
        ("broadcast_routed", true) => broadcast::run_traced(Scale::Full, seed, secs),
        (other, _) => Err(format!("unknown workload {other:?}")),
    };
    let report = match outcome {
        Ok(report) => report,
        Err(e) => {
            eprintln!("perfbench: {} failed: {e}", args.workload);
            std::process::exit(1);
        }
    };
    for line in &report.lines {
        println!("{line}");
    }
    if args.trace {
        let idle = report.not_exercised();
        if !idle.is_empty() {
            println!("  not exercised (reported as 0): {}", idle.join(", "));
        }
    }
    match report.result_json(args.trace) {
        Ok(line) => println!("{line}"),
        Err(e) => {
            eprintln!("perfbench: {} failed: {e}", args.workload);
            std::process::exit(1);
        }
    }
}
