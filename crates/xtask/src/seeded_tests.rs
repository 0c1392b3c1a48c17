//! Self-tests for the analyzer's lint families, driven by the fixtures
//! in `seeded-violations/`.
//!
//! Each fixture file plants exactly one family of violation next to a
//! compliant twin, and the tests assert both directions: the seeded
//! bug is caught, and the twin stays clean. The fixtures live outside
//! `src/` (and [`crate::source_files`] skips the directory) so the
//! deliberate violations never reach the real analysis; here they are
//! mapped onto in-scope workspace paths so the path-scoped lint
//! (cancel-liveness) sees them as production code. A final
//! test runs the analyzer over the real workspace and asserts it
//! reports nothing — the floor `cargo xtask analyze` holds is zero.

use crate::analyze::{analyze_files, Finding};
use crate::scan::CleanSource;

const STARVED_LOOP: &str = include_str!("../seeded-violations/starved_loop.rs");
const GUARD_INTO_SPAWN: &str = include_str!("../seeded-violations/guard_into_spawn.rs");
const BLOCKING_PUSH: &str = include_str!("../seeded-violations/blocking_push_under_lock.rs");
const TIMEOUT_WAIT: &str = include_str!("../seeded-violations/timeout_wait_under_lock.rs");
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
    assert!(
        !hits.iter().any(|f| f.excerpt.contains("`drain_polled`")),
        "the polled twin must stay clean: {hits:?}"
    );
}

#[test]
fn guard_into_spawn_is_flagged_and_snapshot_twin_is_clean() {
    let findings = run(&[("crates/exec/src/seeded_spawn.rs", GUARD_INTO_SPAWN)]);
    let hits = of(&findings, "guard-into-spawn");
    assert_eq!(
        hits.len(),
        1,
        "expected exactly the seeded spawn: {findings:?}"
    );
    assert!(
        hits[0].excerpt.contains("`jobs`") && hits[0].excerpt.contains("`fan_out`"),
        "finding should name the guard and the spawning fn: {hits:?}"
    );
    assert!(
        !hits.iter().any(|f| f.excerpt.contains("`fan_out_clean`")),
        "snapshot-then-spawn twin must stay clean: {hits:?}"
    );
}

#[test]
fn blocking_push_under_lock_is_flagged_directly_and_through_a_callee() {
    let findings = run(&[("crates/exec/src/seeded_queue.rs", BLOCKING_PUSH)]);
    let hits = of(&findings, "blocking-under-lock");
    assert_eq!(
        hits.len(),
        2,
        "expected the direct and via-callee bugs: {findings:?}"
    );
    assert!(
        hits.iter()
            .any(|f| f.excerpt.contains("`enqueue_all`") && f.excerpt.contains("q.push")),
        "bounded-queue push under the stats guard: {hits:?}"
    );
    assert!(
        hits.iter()
            .any(|f| f.excerpt.contains("`throttle`") && f.excerpt.contains("`admit_one`")),
        "interprocedural: blocking callee under the ledger guard: {hits:?}"
    );
    // `admit_one` itself follows the condvar protocol — its wait names
    // and releases the only guard it holds
    assert!(
        !hits.iter().any(|f| f.excerpt.contains("in `admit_one`")),
        "condvar-protocol wait must stay clean: {hits:?}"
    );
    assert!(
        !hits
            .iter()
            .any(|f| f.excerpt.contains("`enqueue_all_clean`")),
        "push-then-lock twin must stay clean: {hits:?}"
    );
}

#[test]
fn timeout_wait_under_foreign_lock_is_flagged_and_protocol_twin_is_clean() {
    let findings = run(&[("crates/exec/src/seeded_timeout.rs", TIMEOUT_WAIT)]);
    let hits = of(&findings, "blocking-under-lock");
    assert_eq!(
        hits.len(),
        2,
        "expected the direct and via-callee timed waits: {findings:?}"
    );
    assert!(
        hits.iter()
            .any(|f| f.excerpt.contains("`ledger`") && f.excerpt.contains("`await_slot`")),
        "timed wait under the foreign ledger guard: {hits:?}"
    );
    assert!(
        hits.iter()
            .any(|f| f.excerpt.contains("`drain_with_grace`")
                && f.excerpt.contains("`park_for_grace`")),
        "interprocedural: timed-wait callee under the ledger guard: {hits:?}"
    );
    // the twin follows the condvar protocol — its timed wait names and
    // releases the only guard it holds
    assert!(
        !hits
            .iter()
            .any(|f| f.excerpt.contains("`await_slot_clean`")),
        "condvar-protocol timed wait must stay clean: {hits:?}"
    );
    assert!(
        !hits
            .iter()
            .any(|f| f.excerpt.contains("in `park_for_grace`")),
        "the helper itself holds only the guard it releases: {hits:?}"
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
