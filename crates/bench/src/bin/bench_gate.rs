//! The counter gate: run the sections, check the laws on the fresh
//! numbers, then rewrite or check the golden file.
//!
//! ```text
//! bench_gate [--smoke] [--check]
//! ```
//!
//! Default runs every section — `full` and `smoke` (thread grid, record
//! and narrow formats), `shard-full` and `shard-smoke` (strategy × shard
//! matrix), `server` (the 60-query mix); `--smoke` leaves out `full` and
//! `shard-full` (CI). Without `--check` the committed `BENCH_gate.txt`
//! is rewritten for the sections that ran; with it the file is only
//! read, and any key that differs fails the gate by name. Timings go to
//! `target/bench_gate_report.txt` and stdout. Run from the workspace
//! root (`cargo xtask bench` does).

use skyline_bench::gate::{self, FULL, GOLDEN_FILE, REPORT_FILE, SMOKE};
use skyline_bench::server_gate::run_server_gate;
use skyline_bench::shard_gate::{run_shard_section, FULL_SHARD, SMOKE_SHARD};
use std::path::Path;
use std::process::ExitCode;

fn main() -> ExitCode {
    let (mut smoke, mut check) = (false, false);
    for arg in std::env::args().skip(1) {
        match arg.as_str() {
            "--smoke" => smoke = true,
            "--check" => check = true,
            other => {
                eprintln!("unknown argument {other} (use --smoke --check)");
                return ExitCode::FAILURE;
            }
        }
    }

    let mut runs = Vec::new();
    if !smoke {
        runs.extend(gate::run_section(&FULL));
        runs.extend(run_shard_section(&FULL_SHARD));
    }
    runs.extend(gate::run_section(&SMOKE));
    runs.extend(run_shard_section(&SMOKE_SHARD));
    runs.extend(run_server_gate());

    let cores = gate::cores();
    let report = gate::report(&runs, cores);
    print!("{report}");
    if let Err(e) = skyline_bench::save_text(REPORT_FILE, &report) {
        eprintln!("bench gate: cannot write {REPORT_FILE}: {e}");
        return ExitCode::FAILURE;
    }
    match gate::gate(&runs, Path::new(GOLDEN_FILE), check) {
        Ok(n) if check => println!("bench gate: ok — {n} counters equal {GOLDEN_FILE}"),
        Ok(n) => println!("bench gate: {n} counters written to {GOLDEN_FILE} — review the diff"),
        Err(e) => {
            eprintln!("bench gate FAILED: {e}");
            return ExitCode::FAILURE;
        }
    }
    ExitCode::SUCCESS
}
