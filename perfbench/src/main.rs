//! Benchmark command.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <theta_static|gossip_reliable|churn_byzantine> \
//!     --seed <n> --seconds <s> --trace <0|1> [--trace-dir <dir>]
//! ```
//!
//! Prints one `fingerprint {...}` line per harness call and thread count,
//! then, as the last line, the result object with `correct`,
//! `attempted`, `failed` and `metrics`. Traced runs also write their
//! spans to `<trace-dir>/<workload>-seed<n>.jsonl` (default
//! `perfbench/traces`). Exits 1 when any correctness check fails, 2 on
//! bad arguments.

use perfbench::bench::{self, Options};
use perfbench::inputs::{Sizes, Workload};
use perfbench::trace;
use std::process::ExitCode;

fn usage(msg: &str) -> ExitCode {
    eprintln!("error: {msg}");
    eprintln!(
        "usage: perfbench --workload <theta_static|gossip_reliable|churn_byzantine> \
         --seed <n> --seconds <s> --trace <0|1> [--trace-dir <dir>]"
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (mut workload, mut seed, mut seconds, mut traced) = (None, None, None, None);
    let mut trace_dir = "perfbench/traces".to_string();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let Some(value) = it.next() else {
            return usage(&format!("{flag} needs a value"));
        };
        match flag.as_str() {
            "--workload" => workload = Workload::parse(value),
            "--seed" => seed = value.parse::<u64>().ok(),
            "--seconds" => seconds = value.parse::<f64>().ok().filter(|s| *s > 0.0),
            "--trace" => {
                traced = match value.as_str() {
                    "0" => Some(false),
                    "1" => Some(true),
                    _ => None,
                }
            }
            "--trace-dir" => trace_dir = value.clone(),
            other => return usage(&format!("unknown flag {other}")),
        }
    }
    let (Some(workload), Some(seed), Some(seconds), Some(trace)) =
        (workload, seed, seconds, traced)
    else {
        return usage("--workload, --seed, --seconds and --trace are required and must be valid");
    };

    let report = bench::run(&Options {
        workload,
        seed,
        seconds,
        trace,
        sizes: Sizes::FULL,
    });
    for line in &report.fingerprints {
        println!("fingerprint {line}");
    }
    for failure in &report.failures {
        eprintln!("FAILED {failure}");
    }
    if trace {
        let path = format!("{trace_dir}/{}-seed{seed}.jsonl", workload.name());
        let written = std::fs::create_dir_all(&trace_dir)
            .and_then(|_| std::fs::write(&path, trace::to_json_lines(&report.spans)));
        match written {
            Ok(()) => eprintln!("wrote {} spans to {path}", report.spans.len()),
            Err(e) => eprintln!("warning: cannot write {path}: {e}"),
        }
    }
    println!("{}", report.to_json());
    if report.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
