//! Compare two result files written by `e2e --out`.
//!
//! ```text
//! report <baseline.jsonl> <candidate.jsonl> [BENCHMARK.json]
//! ```
//!
//! Prints, per workload × end-to-end metric, each side's quartiles, the
//! metric's bound and a verdict; a pairing whose run-to-run spread
//! exceeds its bound is `unresolved`, not unchanged. Exits 1 when any
//! pairing regressed.

use skyline_benchmark::compare::{bounds_of, compare, render, Verdict};
use std::process::ExitCode;

fn read(path: &str) -> Result<String, String> {
    std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (baseline, candidate, benchmark) = match args.as_slice() {
        [b, c] => (b, c, "BENCHMARK.json"),
        [b, c, j] => (b, c, j.as_str()),
        _ => {
            eprintln!("usage: report <baseline.jsonl> <candidate.jsonl> [BENCHMARK.json]");
            return ExitCode::from(2);
        }
    };
    let rows = read(benchmark)
        .and_then(|text| bounds_of(&text))
        .and_then(|bounds| compare(&read(baseline)?, &read(candidate)?, &bounds));
    match rows {
        Ok(rows) => {
            print!("{}", render(&rows));
            if rows.iter().any(|r| r.verdict == Verdict::Regressed) {
                ExitCode::from(1)
            } else {
                ExitCode::SUCCESS
            }
        }
        Err(e) => {
            eprintln!("report: {e}");
            ExitCode::from(2)
        }
    }
}
