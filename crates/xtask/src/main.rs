//! `cargo xtask` — repo automation gate.
//!
//! Subcommands:
//! * `analyze [--update-baseline] [--sarif PATH]` — the full static
//!   pass: the token lints of [`lints`] plus the dataflow lints of
//!   [`analyze`] over the parsed model of [`model`], ratcheted against
//!   `lint-baseline.txt`; `--sarif` additionally writes a SARIF 2.1.0
//!   report for CI code-scanning annotations.
//! * `lint` — alias for `analyze` (the historical name).
//! * `audit` — run the crates under the `check-invariants` feature so
//!   the dominance auditors watch every operator test.
//! * `oracle` — the differential gate of [`oracle`]: every algorithm
//!   against the naive O(n²) oracle across the paper's workload grid.
//! * `bench [--gate] [--smoke]` — run the counter gate (the
//!   `bench_gate` binary of `skyline-bench`, release build). Without
//!   `--gate` it rewrites the committed `BENCH_gate.txt`; with `--gate`
//!   it only reads it: every counter a fresh run reports must equal its
//!   committed value exactly, mismatches are listed by key. Timings go
//!   to `target/bench_gate_report.txt` and are never compared — wall
//!   regressions are `BENCHMARK.json`'s job. `--smoke` runs only the
//!   small sections — the CI configuration.
//! * `ratchet --base PATH` — monotonicity check: the committed
//!   `lint-baseline.txt` must be ≤ the snapshot at PATH entry-wise (CI
//!   passes the PR base branch's copy), so allowances only ever shrink.
//! * `check` — analyze + audit + oracle; the CI entry point (the bench
//!   gate is a separate CI job: it needs a release build).

mod analyze;
mod baseline;
mod callgraph;
mod cfg;
mod lints;
mod model;
mod oracle;
mod sarif;
mod scan;
#[cfg(test)]
mod seeded_tests;

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

const BASELINE_FILE: &str = "lint-baseline.txt";

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
                // for the self-tests; scanning them would seed the
                // baseline with intentional findings
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

fn run_analysis(root: &Path, update_baseline: bool, sarif_out: Option<&str>) -> Result<(), String> {
    let mut cleaned = Vec::new();
    for rel in source_files(root) {
        let src =
            std::fs::read_to_string(root.join(&rel)).map_err(|e| format!("read {rel}: {e}"))?;
        cleaned.push((rel, scan::CleanSource::new(&src)));
    }
    let mut findings = Vec::new();
    for (rel, cs) in &cleaned {
        findings.extend(lints::lint_file(rel, cs));
    }
    findings.extend(analyze::analyze_files(&cleaned));
    if let Some(path) = sarif_out {
        std::fs::write(root.join(path), sarif::render(&findings))
            .map_err(|e| format!("write {path}: {e}"))?;
        println!("analyze: SARIF report written to {path}");
    }
    let current = baseline::counts_of(&findings);
    let baseline_path = root.join(BASELINE_FILE);

    if update_baseline {
        std::fs::write(&baseline_path, baseline::render(&current))
            .map_err(|e| format!("write {BASELINE_FILE}: {e}"))?;
        println!(
            "analyze: baseline rewritten with {} findings across {} (lint, file) pairs",
            findings.len(),
            current.len()
        );
        return Ok(());
    }

    let base_text = std::fs::read_to_string(&baseline_path).unwrap_or_default();
    let base = baseline::parse(&base_text)?;
    let (regressions, improvements) = baseline::compare(&current, &base);

    for d in &improvements {
        println!(
            "analyze: {}:{} improved {} → {} — ratchet down with `cargo xtask analyze --update-baseline`",
            d.lint, d.file, d.allowed, d.current
        );
    }
    if regressions.is_empty() {
        println!(
            "analyze: ok — {} findings, all within the ratchet ({} files scanned)",
            findings.len(),
            cleaned.len()
        );
        return Ok(());
    }
    let mut msg = String::new();
    for d in &regressions {
        msg.push_str(&format!(
            "analyze regression: {} in {} — {} findings, baseline allows {}\n",
            d.lint, d.file, d.current, d.allowed
        ));
        for f in findings
            .iter()
            .filter(|f| f.lint == d.lint && f.file == d.file)
        {
            msg.push_str(&format!("    {}:{}  {}\n", f.file, f.line, f.excerpt));
        }
    }
    msg.push_str(
        "fix the new findings (or, for accepted debt, run `cargo xtask analyze --update-baseline`)",
    );
    Err(msg)
}

/// Monotonicity check for the ratchet itself: the committed
/// `lint-baseline.txt` may only ever shrink. Compares it against an
/// older baseline snapshot (CI passes the merge-base's copy) and fails
/// if any `(lint, file)` count grew or a new pair appeared — catching
/// a `--update-baseline` run that laundered new findings into the
/// allowance.
fn run_ratchet(root: &Path, base_path: &str) -> Result<(), String> {
    let current_text = std::fs::read_to_string(root.join(BASELINE_FILE))
        .map_err(|e| format!("read {BASELINE_FILE}: {e}"))?;
    let base_text = std::fs::read_to_string(base_path)
        .map_err(|e| format!("read base baseline {base_path}: {e}"))?;
    let current = baseline::parse(&current_text)?;
    let base = baseline::parse(&base_text)?;
    let (regressions, improvements) = baseline::compare(&current, &base);
    if regressions.is_empty() {
        println!(
            "ratchet: ok — {} allowance(s) lowered, none raised",
            improvements.len()
        );
        return Ok(());
    }
    let mut msg = String::new();
    for d in &regressions {
        msg.push_str(&format!(
            "ratchet violation: {} in {} — allowance raised {} → {}\n",
            d.lint, d.file, d.allowed, d.current
        ));
    }
    msg.push_str("the lint baseline may only shrink; fix the findings instead of re-baselining");
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

fn run_oracle() -> Result<(), String> {
    match oracle::run(false) {
        Ok(cases) => {
            println!("oracle: ok — {cases} algorithm/workload cases agree with the naive oracle");
            Ok(())
        }
        Err(mismatches) => {
            let mut msg = String::new();
            for m in mismatches.iter().take(5) {
                msg.push_str(&format!(
                    "oracle mismatch: {} on {}\n  expected {:?}\n  got      {:?}\n",
                    m.algo, m.workload, m.expected, m.got
                ));
            }
            if mismatches.len() > 5 {
                msg.push_str(&format!("… and {} more\n", mismatches.len() - 5));
            }
            Err(msg)
        }
    }
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
    "usage: cargo xtask <check|analyze|lint|audit|oracle|bench|ratchet> \
     [--update-baseline] [--sarif PATH] [--explain RULE-ID] [--gate] [--smoke] [--base PATH]"
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
    let update = args.iter().any(|a| a == "--update-baseline");
    let sarif = args
        .iter()
        .position(|a| a == "--sarif")
        .and_then(|i| args.get(i + 1))
        .map(String::as_str);
    let gate = args.iter().any(|a| a == "--gate");
    let smoke = args.iter().any(|a| a == "--smoke");
    let base = args
        .iter()
        .position(|a| a == "--base")
        .and_then(|i| args.get(i + 1))
        .map(String::as_str);
    let explain = args
        .iter()
        .position(|a| a == "--explain")
        .and_then(|i| args.get(i + 1))
        .map(String::as_str);
    let result = match (args.first().map(String::as_str), explain) {
        (Some("analyze" | "lint"), Some(rule)) => run_explain(rule),
        (first, _) => match first {
            Some("analyze") | Some("lint") => run_analysis(&root, update, sarif),
            Some("ratchet") => match base {
                Some(b) => run_ratchet(&root, b),
                None => Err(
                    "ratchet needs --base PATH (the older baseline to compare against)".to_string(),
                ),
            },
            Some("audit") => run_audit(&root),
            Some("oracle") => run_oracle(),
            Some("bench") => run_bench(&root, gate, smoke),
            Some("check") => run_analysis(&root, false, sarif)
                .and_then(|()| run_audit(&root))
                .and_then(|()| run_oracle()),
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
