//! `cargo xtask` — repo automation gate.
//!
//! Subcommands:
//! * `analyze [--sarif PATH] [--explain RULE-ID]` — the static pass
//!   clippy and the type system cannot do: the two dataflow lints of
//!   [`analyze`] over the parsed model of [`model`]. Any finding fails;
//!   `--sarif` additionally writes a SARIF 2.1.0 report for CI
//!   code-scanning annotations.
//! * `lint` — alias for `analyze` (the historical name).
//! * `audit` — run the crates under the `check-invariants` feature so
//!   the dominance auditors watch every operator test.
//! * `bench [--gate] [--smoke]` — run the counter gate (the
//!   `bench_gate` binary of `skyline-bench`, release build). Without
//!   `--gate` it rewrites the committed `BENCH_gate.txt`; with `--gate`
//!   it only reads it: every counter a fresh run reports must equal its
//!   committed value exactly, mismatches are listed by key. Timings go
//!   to `target/bench_gate_report.txt` and are never compared — wall
//!   regressions are `BENCHMARK.json`'s job. `--smoke` runs only the
//!   small sections — the CI configuration.
//! * `check` — clippy (`-D warnings`, where the hot-path, raw-I/O and
//!   doc-section contracts live) + analyze + audit; the CI entry
//!   point (the bench gate is a separate CI job: it needs a release
//!   build).

#![allow(
    clippy::disallowed_methods,
    reason = "the analyzer reads sources and writes reports, not pages"
)]

mod analyze;
mod model;
mod sarif;
mod scan;
#[cfg(test)]
mod seeded_tests;

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

fn workspace_root() -> PathBuf {
    // compiled into the binary: crates/xtask → ../../ is the workspace
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("crates/xtask has a workspace two levels up")
        .to_path_buf()
}

/// Every `.rs` file the lints look at, as workspace-relative paths.
fn source_files(root: &Path) -> Vec<String> {
    let mut out = Vec::new();
    let mut stack = vec![root.join("crates"), root.join("src"), root.join("tests")];
    while let Some(dir) = stack.pop() {
        let Ok(entries) = std::fs::read_dir(&dir) else {
            continue;
        };
        for entry in entries.flatten() {
            let path = entry.path();
            let name = entry.file_name();
            let name = name.to_string_lossy();
            if path.is_dir() {
                // `seeded-violations` holds deliberate lint violations
                // for the self-tests, not workspace code
                if name != "target" && name != "seeded-violations" && !name.starts_with('.') {
                    stack.push(path);
                }
            } else if name.ends_with(".rs") {
                if let Ok(rel) = path.strip_prefix(root) {
                    out.push(rel.to_string_lossy().replace('\\', "/"));
                }
            }
        }
    }
    out.sort();
    out
}

/// Every finding of both lint families over the workspace sources.
fn workspace_findings(root: &Path) -> Result<Vec<analyze::Finding>, String> {
    let mut cleaned = Vec::new();
    for rel in source_files(root) {
        let src =
            std::fs::read_to_string(root.join(&rel)).map_err(|e| format!("read {rel}: {e}"))?;
        cleaned.push((rel, scan::CleanSource::new(&src)));
    }
    Ok(analyze::analyze_files(&cleaned))
}

fn run_analysis(root: &Path, sarif_out: Option<&str>) -> Result<(), String> {
    let findings = workspace_findings(root)?;
    if let Some(path) = sarif_out {
        std::fs::write(root.join(path), sarif::render(&findings))
            .map_err(|e| format!("write {path}: {e}"))?;
        println!("analyze: SARIF report written to {path}");
    }
    if findings.is_empty() {
        println!("analyze: ok — no findings");
        return Ok(());
    }
    let mut msg = String::new();
    for f in &findings {
        msg.push_str(&format!(
            "{}:{}  {}: {}\n",
            f.file, f.line, f.lint, f.excerpt
        ));
    }
    msg.push_str(&format!(
        "analyze: {} finding(s) — there is no baseline to absorb them, fix each one",
        findings.len()
    ));
    Err(msg)
}

fn run_cargo(root: &Path, args: &[&str]) -> Result<(), String> {
    let cargo = std::env::var("CARGO").unwrap_or_else(|_| "cargo".to_string());
    println!("xtask: running `cargo {}`", args.join(" "));
    let status = Command::new(cargo)
        .args(args)
        .current_dir(root)
        .status()
        .map_err(|e| format!("spawn cargo: {e}"))?;
    if status.success() {
        Ok(())
    } else {
        Err(format!("`cargo {}` failed ({status})", args.join(" ")))
    }
}

/// The stock-lint leg: hot-path panics and discards, raw file I/O and
/// missing `# Errors`/`# Panics` sections all fail here.
fn run_clippy(root: &Path) -> Result<(), String> {
    run_cargo(
        root,
        &[
            "clippy",
            "--workspace",
            "--all-targets",
            "--",
            "-D",
            "warnings",
        ],
    )
}

fn run_audit(root: &Path) -> Result<(), String> {
    run_cargo(
        root,
        &[
            "test",
            "-q",
            "-p",
            "skyline-core",
            "--features",
            "check-invariants",
        ],
    )
}

/// Spawn the counter gate; it owns the golden file, the laws and the
/// comparison (`skyline_bench::gate`).
fn run_bench(root: &Path, gate: bool, smoke: bool) -> Result<(), String> {
    let mut args = vec![
        "run",
        "--release",
        "-q",
        "-p",
        "skyline-bench",
        "--bin",
        "bench_gate",
        "--",
    ];
    if smoke {
        args.push("--smoke");
    }
    if gate {
        args.push("--check");
    }
    run_cargo(root, &args)
}

fn usage() -> String {
    "usage: cargo xtask <check|analyze|lint|audit|bench> \
     [--sarif PATH] [--explain RULE-ID] [--gate] [--smoke]"
        .to_string()
}

/// `cargo xtask analyze --explain <rule-id>`: print the SARIF help text
/// for one rule, or list every rule id.
fn run_explain(rule: &str) -> Result<(), String> {
    if sarif::RULE_IDS.contains(&rule) {
        println!("{rule}: {}", sarif::rule_help(rule));
        return Ok(());
    }
    let mut msg = format!("unknown rule id `{rule}` — known rules:\n");
    for id in sarif::RULE_IDS {
        msg.push_str(&format!("  {id}: {}\n", sarif::rule_help(id)));
    }
    Err(msg)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let root = workspace_root();
    let sarif = args
        .iter()
        .position(|a| a == "--sarif")
        .and_then(|i| args.get(i + 1))
        .map(String::as_str);
    let gate = args.iter().any(|a| a == "--gate");
    let smoke = args.iter().any(|a| a == "--smoke");
    let explain = args
        .iter()
        .position(|a| a == "--explain")
        .and_then(|i| args.get(i + 1))
        .map(String::as_str);
    let result = match (args.first().map(String::as_str), explain) {
        (Some("analyze" | "lint"), Some(rule)) => run_explain(rule),
        (first, _) => match first {
            Some("analyze") | Some("lint") => run_analysis(&root, sarif),
            Some("audit") => run_audit(&root),
            Some("bench") => run_bench(&root, gate, smoke),
            Some("check") => run_clippy(&root)
                .and_then(|()| run_analysis(&root, sarif))
                .and_then(|()| run_audit(&root)),
            _ => Err(usage()),
        },
    };
    match result {
        Ok(()) => {
            println!("xtask: all good");
            ExitCode::SUCCESS
        }
        Err(msg) => {
            eprintln!("{msg}");
            ExitCode::FAILURE
        }
    }
}
