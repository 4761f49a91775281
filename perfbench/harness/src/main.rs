//! The SAIM perf ledger's harness.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! perfbench --list-metrics
//! ```
//!
//! Prints a report line (every metric, workload parameters, findings) and,
//! last, the result line: `{"correct", "attempted", "failed", "metrics"}`
//! with the end-to-end metrics (`--trace 0`) or the per-layer ones
//! (`--trace 1`). `perfbench/run.py` builds this package and runs it.

mod baselines;
mod common;
mod cpu;
mod report;
mod saim;
mod serve;
mod stats;
mod trace;

use common::Args;
use report::{obj, text, Value};

/// The workloads, in `BENCHMARK.json` order.
const WORKLOADS: &[&str] = &["saim-qkp", "saim-mkp", "baselines-qkp", "serve-routed"];

fn usage(problem: &str) -> ! {
    eprintln!("perfbench: {problem}");
    eprintln!(
        "usage: perfbench --workload <{}> --seed <u64> --seconds <s> --trace <0|1>",
        WORKLOADS.join("|")
    );
    std::process::exit(2);
}

fn parse(argv: &[String]) -> Args {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .unwrap_or_else(|| usage(&format!("{flag} needs a value")));
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = value.parse::<u64>().ok(),
            "--seconds" => {
                seconds = value
                    .parse::<f64>()
                    .ok()
                    .filter(|s| *s > 0.0 && s.is_finite())
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => Some(false),
                    "1" => Some(true),
                    _ => None,
                }
            }
            other => usage(&format!("unknown flag {other}")),
        }
    }
    let workload = workload.unwrap_or_else(|| usage("--workload is required"));
    if !WORKLOADS.contains(&workload.as_str()) {
        usage(&format!("unknown workload {workload}"));
    }
    Args {
        workload,
        seed: seed.unwrap_or_else(|| usage("--seed must be an unsigned integer")),
        seconds: seconds.unwrap_or_else(|| usage("--seconds must be a positive number")),
        trace: trace.unwrap_or_else(|| usage("--trace must be 0 or 1")),
    }
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("--list-metrics") {
        println!("{}", report::catalogue());
        return;
    }
    let args = parse(&argv);
    let report = match args.workload.as_str() {
        "saim-qkp" => saim::run_qkp(&args),
        "saim-mkp" => saim::run_mkp(&args),
        "baselines-qkp" => baselines::run(&args),
        _ => serve::run(&args),
    };
    let mut report = report;
    report.info(
        "run",
        obj(vec![
            ("workload", text(args.workload.as_str())),
            ("seed", Value::UInt(args.seed)),
            ("seconds", Value::Float(args.seconds)),
            ("trace", Value::Bool(args.trace)),
            (
                "nproc",
                Value::UInt(std::thread::available_parallelism().map_or(1, |n| n.get() as u64)),
            ),
        ]),
    );
    // the reasons of failed checks go to stderr too, where a failed run's
    // log is read first
    for failure in &report.failures {
        eprintln!("perfbench: check failed: {failure}");
    }
    println!("{}", report.report_line(args.trace));
    println!("{}", report.result_line(args.trace));
}
