//! Self-tests for the analyzer's cancel-liveness checks, driven by the
//! fixtures in `seeded-violations/` (lock-across-io is seeded inline in
//! `analyze.rs`'s unit tests).
//!
//! Each fixture file plants exactly one violation next to a compliant
//! twin, and the tests assert both directions: the seeded bug is
//! caught at its line, and the twin stays clean. The fixtures live
//! outside `src/` (and [`crate::source_files`] skips the directory) so
//! the deliberate violations never reach the real analysis; here they
//! are mapped onto in-scope workspace paths so the path-scoped lint
//! sees them as production code. A final test runs the analyzer over
//! the real workspace and asserts it reports nothing — the floor
//! `cargo xtask analyze` holds is zero.

use crate::analyze::{analyze_files, Finding};
use crate::scan::CleanSource;

const STARVED_LOOP: &str = include_str!("../seeded-violations/starved_loop.rs");
const POLL_SKIPPING_CONTINUE: &str = include_str!("../seeded-violations/poll_skipping_continue.rs");

fn run(files: &[(&str, &str)]) -> Vec<Finding> {
    let cleaned: Vec<(String, CleanSource)> = files
        .iter()
        .map(|(p, s)| (p.to_string(), CleanSource::new(s)))
        .collect();
    analyze_files(&cleaned)
}

fn of<'a>(findings: &'a [Finding], lint: &str) -> Vec<&'a Finding> {
    findings.iter().filter(|f| f.lint == lint).collect()
}

#[test]
fn starved_loop_is_flagged_and_polled_twin_is_clean() {
    let findings = run(&[("crates/core/src/external/seeded_starved.rs", STARVED_LOOP)]);
    let hits = of(&findings, "cancel-liveness");
    assert_eq!(
        hits.len(),
        1,
        "expected exactly the seeded loop: {findings:?}"
    );
    assert!(
        hits[0].excerpt.contains("`drain`"),
        "finding should name the starved fn: {hits:?}"
    );
    assert_eq!(hits[0].line, 13, "span must point at the loop: {hits:?}");
    assert!(
        !hits.iter().any(|f| f.excerpt.contains("`drain_polled`")),
        "the polled twin must stay clean: {hits:?}"
    );
}

#[test]
fn poll_skipping_continue_is_flagged_and_poll_first_twin_is_clean() {
    let findings = run(&[(
        "crates/core/src/external/seeded_skip.rs",
        POLL_SKIPPING_CONTINUE,
    )]);
    let hits = of(&findings, "cancel-liveness");
    assert_eq!(
        hits.len(),
        1,
        "expected exactly the poll-skipping continue: {findings:?}"
    );
    assert!(
        hits[0].excerpt.contains("`drain_skipping`")
            && hits[0].excerpt.contains("skips every CancelToken poll"),
        "the continue-before-poll recheck owns this finding: {hits:?}"
    );
    assert_eq!(
        hits[0].line, 16,
        "span must point at the `continue` itself: {hits:?}"
    );
    assert!(
        !hits.iter().any(|f| f.excerpt.contains("`drain_polled`")),
        "poll-before-skip twin must stay clean: {hits:?}"
    );
}

#[test]
fn clean_workspace_has_zero_findings() {
    let findings = crate::workspace_findings(&crate::workspace_root()).expect("sources readable");
    assert!(
        findings.is_empty(),
        "the workspace must satisfy its own contracts: {findings:?}"
    );
}
