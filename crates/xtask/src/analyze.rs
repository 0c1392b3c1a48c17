//! Dataflow lints over the parsed workspace model of [`crate::model`].
//!
//! Two lint families that need statement order or scope. What a type or
//! a stock clippy lint can hold is held there instead (DESIGN.md §8.1
//! maps every contract to its mechanism, and keeps the yield table that
//! retired the others); these are the contracts neither can express.
//! Both walk the statement tree of [`crate::model`] and judge a
//! statement by the tokens written in it:
//!
//! 1. **lock-across-io** — a guard bound by `let g = lock(&…)` /
//!    `….lock()` is held until its scope ends or `drop(g)`; a `Disk` I/O
//!    call while it is held serializes the storage layer on that lock.
//!    Only a direct I/O token counts: an I/O call hidden behind a helper
//!    is not seen.
//! 2. **cancel-liveness** — every record-driven loop in a
//!    cancellation-aware function on the cancellable paths (external
//!    operators, the parallel filter, the exec crate) must poll
//!    `CancelToken` within a bounded stride, directly or via a callee
//!    whose own body polls (PR 2's "poll every 256 records" contract). A
//!    loop that fetches records but never reaches a poll starves
//!    cancellation — and so does a `continue` ahead of the loop body's
//!    first poll, in a loop that otherwise polls.
//!
//! Any finding fails `cargo xtask analyze`; `--sarif` renders them as
//! SARIF for CI code-scanning annotations (`cargo xtask analyze
//! --explain <rule-id>` prints the per-rule help).

use crate::model::{file_model, word_hits, Block, FileModel, FnModel, Stmt};
use crate::scan::{has_token, CleanSource};
use std::collections::BTreeSet;

/// One lint hit.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Lint identifier (`lock-across-io` or `cancel-liveness`).
    pub lint: &'static str,
    /// Workspace-relative path.
    pub file: String,
    /// 1-based line number.
    pub line: usize,
    /// What was matched, for the report.
    pub excerpt: String,
}

/// Disk/file I/O calls a lock guard must not be held across.
const IO_TOKENS: &[&str] = &[
    ".read_page(",
    ".write_page(",
    ".num_pages(",
    ".create(",
    ".write_all(",
    ".read_exact(",
    ".seek(",
    ".sync_all(",
    ".set_len(",
    ".metadata(",
];

/// Tokens that poll the cancellation token directly: the free/assoc
/// `poll(`/`poll_now(` helpers, `CancelToken::check(`, and the raw flag
/// read.
const POLL_TOKENS: &[&str] = &["poll(", "poll_now(", ".check(", "is_cancelled("];

/// Directories under the cancellation contract: operator `next()`
/// paths, external-pass drivers, and the parallel workers. A function
/// here that has access to a cancel token (its signature or body
/// mentions one) must poll it from every record-driven loop.
const CANCEL_SCOPE: &[&str] = &[
    "crates/core/src/external",
    "crates/core/src/par.rs",
    "crates/exec/src",
    "crates/server/src",
];

/// A loop is *record-driven* — expected to run once per input record,
/// i.e. unbounded in the input size — when it advances a stream or
/// probes the window. Matched with plain `contains` (`.probe` covers
/// `.probe(`/`.probe_prefix(`).
const RECORD_TOKENS: &[&str] = &[".next()", ".next_record(", ".pop()", ".probe"];

/// Paths whose functions are all test/bench scaffolding.
fn is_test_path(path: &str) -> bool {
    path.starts_with("tests/")
        || path.starts_with("crates/testkit")
        || path.contains("/tests/")
        || path.contains("/benches/")
        || path.contains("/examples/")
}

/// Every non-test function with a body, with its file's path.
fn production_fns(models: &[FileModel]) -> impl Iterator<Item = (&str, &FnModel, &Block)> {
    models
        .iter()
        .filter(|m| !is_test_path(&m.path))
        .flat_map(|m| m.fns.iter().map(move |f| (m.path.as_str(), f)))
        .filter(|(_, f)| !f.is_test)
        .filter_map(|(path, f)| Some((path, f, f.body.as_ref()?)))
}

/// Run both lints over the cleaned workspace files.
pub fn analyze_files(files: &[(String, CleanSource)]) -> Vec<Finding> {
    let models: Vec<FileModel> = files
        .iter()
        .filter(|(path, _)| !path.starts_with("crates/xtask"))
        .map(|(path, cs)| file_model(path, cs))
        .collect();
    let pollers = pollers(&models);

    let mut out = Vec::new();
    for (path, f, body) in production_fns(&models) {
        if CANCEL_SCOPE.iter().any(|d| path.starts_with(d)) && cancel_aware(f, body) {
            cancel_liveness(path, &f.name, body, &pollers, &mut out);
        }
        lock_scan(path, &f.name, body, &mut Vec::new(), &mut out);
    }
    out.sort_by(|a, b| (a.file.as_str(), a.line, a.lint).cmp(&(b.file.as_str(), b.line, b.lint)));
    out
}

/// Full body text of a block, nested blocks included.
fn block_text(block: &Block) -> String {
    let mut out = String::new();
    for s in &block.stmts {
        out.push_str(&s.text_all());
        out.push(' ');
    }
    out
}

/// Call names in `text`: every identifier directly followed by `(`.
fn calls_in(text: &str) -> Vec<String> {
    let chars: Vec<char> = text.chars().collect();
    let mut out = Vec::new();
    let mut i = 0;
    while i < chars.len() {
        if chars[i].is_alphabetic() || chars[i] == '_' {
            let start = i;
            while i < chars.len() && (chars[i].is_alphanumeric() || chars[i] == '_') {
                i += 1;
            }
            let mut j = i;
            while j < chars.len() && chars[j] == ' ' {
                j += 1;
            }
            if j < chars.len() && chars[j] == '(' {
                out.push(chars[start..i].iter().collect());
            }
        } else {
            i += 1;
        }
    }
    out
}

/// `let [mut] name = …` — the bound identifier, if the pattern is a
/// plain binding.
fn let_binding(head: &str) -> Option<String> {
    let t = head.trim_start();
    let rest = t.strip_prefix("let ")?;
    let rest = rest.trim_start();
    let rest = rest.strip_prefix("mut ").unwrap_or(rest).trim_start();
    let name: String = rest
        .chars()
        .take_while(|c| c.is_alphanumeric() || *c == '_')
        .collect();
    if name.is_empty() || name == "_" {
        None
    } else {
        Some(name)
    }
}

// ------------------------------------------------------- lock-across-io

struct Held {
    lock: String,
    guard: String,
}

/// Walk one block tracking held guards; flag the first statement of a
/// function that performs disk I/O while a guard is held (or in the
/// statement that acquires one).
fn lock_scan(
    path: &str,
    fn_name: &str,
    block: &Block,
    held: &mut Vec<Held>,
    out: &mut Vec<Finding>,
) {
    for stmt in &block.stmts {
        let acq = acquisition(&stmt.head);
        let text = stmt.text_all();
        let lock = held
            .first()
            .map(|h| &h.lock)
            .or(acq.as_ref().map(|(l, _)| l));
        if let Some(lock) = lock {
            let in_fn = format!("in `{fn_name}`");
            let dup = out.iter().any(|f| {
                f.lint == "lock-across-io" && f.file == path && f.excerpt.contains(&in_fn)
            });
            if !dup && IO_TOKENS.iter().any(|t| has_token(&text, t)) {
                out.push(Finding {
                    lint: "lock-across-io",
                    file: path.to_string(),
                    line: stmt.line,
                    excerpt: format!(
                        "guard of `{lock}` is held across disk I/O in `{fn_name}` — I/O serializes on the lock"
                    ),
                });
            }
        }
        // release explicitly dropped guards
        held.retain(|h| !text.contains(&format!("drop({})", h.guard)));
        // a let-bound acquisition holds until end of this block — but
        // only when the guard itself is bound (`let g = lock(&x);`,
        // possibly via `.unwrap()`); a longer chain (`let v =
        // lock(&x).values().collect();`) drops the temporary guard at
        // the end of the statement
        if let (Some(guard), Some((lock, after))) = (let_binding(&stmt.head), acq) {
            if guard_bound_directly(&stmt.head[after..]) {
                held.push(Held { lock, guard });
            }
        }
        for b in &stmt.blocks {
            let depth = held.len();
            lock_scan(path, fn_name, b, held, out);
            held.truncate(depth);
        }
    }
}

/// The first lock acquisition in a statement head — a `lock(&EXPR)`
/// helper call or an `EXPR.lock()` method call, whichever comes first —
/// as the lock's name (`self.`/`&` stripped) and the index just past
/// the call's closing paren.
fn acquisition(head: &str) -> Option<(String, usize)> {
    // a helper call: `lock(` not ending another identifier or a method
    let helper = head.match_indices("lock(").map(|(at, _)| at).find(|&at| {
        !head[..at]
            .chars()
            .next_back()
            .is_some_and(|c| c.is_alphanumeric() || c == '_' || c == '.')
    });
    let method = head.find(".lock(");
    let (expr, open): (String, usize) = match (helper, method) {
        (Some(at), m) if m.is_none_or(|m| at < m) => (
            head[at + 5..]
                .chars()
                .take_while(|c| *c != ')' && *c != ',')
                .collect(),
            at + 4,
        ),
        (_, Some(at)) => {
            let base: String = head[..at]
                .chars()
                .rev()
                .take_while(|c| c.is_alphanumeric() || *c == '_' || *c == '.' || *c == ':')
                .collect();
            (base.chars().rev().collect(), at + 5)
        }
        _ => return None,
    };
    let expr: String = expr.chars().filter(|c| !c.is_whitespace()).collect();
    let expr = expr.trim_start_matches('&');
    let name = expr.strip_prefix("self.").unwrap_or(expr).trim_matches('.');
    if name.is_empty() {
        return None;
    }
    let mut depth = 0usize;
    for (i, c) in head[open..].char_indices() {
        match c {
            '(' => depth += 1,
            ')' => {
                depth -= 1;
                if depth == 0 {
                    return Some((name.to_string(), open + i + 1));
                }
            }
            _ => {}
        }
    }
    None
}

/// After an acquisition expression, does the statement bind the guard
/// itself? True when nothing (or only `.unwrap()`/`.expect(…)`
/// wrappers) follows before the end of the head; any other method
/// chain consumes the temporary guard within the statement.
fn guard_bound_directly(rest: &str) -> bool {
    let mut s = rest.trim_start();
    loop {
        if let Some(r) = s.strip_prefix(".unwrap()") {
            s = r.trim_start();
        } else if let Some(r) = s.strip_prefix(".expect(") {
            let mut depth = 1usize;
            let mut cut = None;
            for (i, c) in r.char_indices() {
                match c {
                    '(' => depth += 1,
                    ')' => {
                        depth -= 1;
                        if depth == 0 {
                            cut = Some(i + 1);
                            break;
                        }
                    }
                    _ => {}
                }
            }
            match cut {
                Some(i) => s = r[i..].trim_start(),
                None => return false,
            }
        } else {
            break;
        }
    }
    s.is_empty() || s == ";"
}

// --------------------------------------------------- cancel-liveness

/// Names of the functions whose own body contains a poll token. A name
/// defined more than once counts if any of its definitions polls: a
/// wrongly silenced finding is the cheaper error for a gate that fails
/// on any finding. Nothing propagates — a poll two calls away is no
/// poll.
fn pollers(models: &[FileModel]) -> BTreeSet<&str> {
    production_fns(models)
        .filter(|(_, _, body)| {
            let text = block_text(body);
            POLL_TOKENS.iter().any(|t| has_token(&text, t))
        })
        .map(|(_, f, _)| f.name.as_str())
        .collect()
}

/// Does this function have a cancellation token in reach? Only such
/// functions are held to the polling contract — a helper with no token
/// cannot poll, and demanding it would force an API change the lint has
/// no business mandating (documented false-negative boundary).
fn cancel_aware(f: &FnModel, body: &Block) -> bool {
    let full = format!("{} {}", f.sig, block_text(body));
    full.contains("cancel") || full.contains("Cancel")
}

fn is_loop(stmt: &Stmt) -> bool {
    !stmt.blocks.is_empty()
        && ["loop", "while", "for"]
            .iter()
            .any(|k| !word_hits(&stmt.head, k).is_empty())
}

fn polls(text: &str, pollers: &BTreeSet<&str>) -> bool {
    POLL_TOKENS.iter().any(|t| has_token(text, t))
        || calls_in(text).iter().any(|c| pollers.contains(c.as_str()))
}

/// Every record-driven loop in a cancel-aware scope function must poll
/// the token — directly (`poll(`/`poll_now(`/`.check(`/`is_cancelled(`)
/// or through a callee whose own body polls. Stride boundedness comes
/// from the poll helpers themselves (`CANCEL_CHECK_INTERVAL` is a
/// compile-time constant), so presence is the static contract — with one
/// refinement: in a loop that does poll, a `continue` ahead of the
/// body's first poll starves cancellation on that path (records keep
/// flowing while every iteration short-circuits around the poll).
fn cancel_liveness(
    path: &str,
    fn_name: &str,
    block: &Block,
    pollers: &BTreeSet<&str>,
    out: &mut Vec<Finding>,
) {
    for stmt in &block.stmts {
        if is_loop(stmt) && !stmt.exempt {
            let text = stmt.text_all();
            let record_driven = RECORD_TOKENS.iter().any(|t| text.contains(t));
            if record_driven && !polls(&text, pollers) {
                out.push(Finding {
                    lint: "cancel-liveness",
                    file: path.to_string(),
                    line: stmt.line,
                    excerpt: format!(
                        "record-driven loop in `{fn_name}` never polls CancelToken (directly or via a callee) — cancellation can starve"
                    ),
                });
            } else if record_driven && !polls(&stmt.head, pollers) {
                let mut skips = Vec::new();
                for b in &stmt.blocks {
                    continues_before_poll(b, pollers, &mut skips);
                }
                for line in skips {
                    out.push(Finding {
                        lint: "cancel-liveness",
                        file: path.to_string(),
                        line,
                        excerpt: format!(
                            "`continue` in a record-driven loop in `{fn_name}` skips every CancelToken poll — cancellation starves on that path"
                        ),
                    });
                }
            }
        }
        for b in &stmt.blocks {
            cancel_liveness(path, fn_name, b, pollers, out);
        }
    }
}

/// Walk a loop body in statement order up to its first poll, pushing
/// the line of every `continue` met on the way; returns whether a poll
/// was reached. The nested blocks of one statement (`if`/`else` arms,
/// `match` arms) are alternatives: each is walked from the same
/// not-yet-polled state, and the statement counts as polling if any of
/// them does (erring toward silence, like labeled `continue`s, taken
/// as innermost). A nested loop is stepped over: its `continue`s are
/// its own, and it may run zero times, so a poll inside it is no poll.
fn continues_before_poll(block: &Block, pollers: &BTreeSet<&str>, skips: &mut Vec<usize>) -> bool {
    for stmt in &block.stmts {
        if is_loop(stmt) {
            continue;
        }
        if polls(&stmt.head, pollers) {
            return true;
        }
        if !stmt.exempt && !word_hits(&stmt.head, "continue").is_empty() {
            skips.push(stmt.line);
        }
        let mut polled = false;
        for b in &stmt.blocks {
            polled |= continues_before_poll(b, pollers, skips);
        }
        if polled {
            return true;
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(files: &[(&str, &str)]) -> Vec<Finding> {
        let cleaned: Vec<(String, CleanSource)> = files
            .iter()
            .map(|(p, s)| (p.to_string(), CleanSource::new(s)))
            .collect();
        analyze_files(&cleaned)
    }

    fn lints<'a>(findings: &'a [Finding], lint: &str) -> Vec<&'a Finding> {
        findings.iter().filter(|f| f.lint == lint).collect()
    }

    fn models(files: &[(&str, &str)]) -> Vec<FileModel> {
        files
            .iter()
            .map(|(p, s)| file_model(p, &CleanSource::new(s)))
            .collect()
    }

    // ------------------------------------------------------------ locks

    /// A guard held across a page write.
    const GUARD_ACROSS_IO: &str = "\
fn flush(&self) {
    let files = lock(&self.files);
    files.write_all(page);
}
";

    #[test]
    fn guard_held_across_disk_io_is_flagged() {
        let src = "\
fn write(&self, page: &Page) -> Result<(), StorageError> {
    let mut files = lock(&self.files);
    let f = files.get_mut(&id).unwrap();
    f.write_all(page)?;
    Ok(())
}
";
        let hits = run(&[("crates/storage/src/seeded.rs", src)]);
        let io = lints(&hits, "lock-across-io");
        assert_eq!(io.len(), 1, "{hits:?}");
        assert!(io[0].excerpt.contains("`files`"));
    }

    #[test]
    fn dropping_the_guard_before_io_is_clean() {
        let src = "\
fn write(&self, page: &Page) -> Result<(), StorageError> {
    let f = {
        let files = lock(&self.files);
        files.get(&id).cloned()
    };
    drop_placeholder();
    f.write_all(page)?;
    Ok(())
}
";
        let hits = run(&[("crates/storage/src/seeded.rs", src)]);
        assert!(lints(&hits, "lock-across-io").is_empty(), "{hits:?}");
    }

    #[test]
    fn collecting_through_a_lock_releases_the_guard() {
        // `let v = lock(&x).values().collect();` binds the vector, not
        // the guard — I/O on the next line is lock-free
        let src = "\
fn allocated_pages(&self) -> u64 {
    let handles: Vec<Arc<File>> = lock(&self.files).values().cloned().collect();
    handles.iter().map(|f| f.metadata().map_or(0, |m| m.len())).sum()
}
";
        let hits = run(&[("crates/storage/src/seeded.rs", src)]);
        assert!(lints(&hits, "lock-across-io").is_empty(), "{hits:?}");
    }

    #[test]
    fn method_lock_form_is_recognized() {
        let src = "\
fn sync(&self) {
    let g = self.ledger.lock().unwrap();
    g.file.sync_all();
}
fn sync_released(&self) {
    let g = self.ledger.lock().unwrap();
    drop(g);
    self.file.sync_all();
}
";
        let hits = run(&[("crates/core/src/par.rs", src)]);
        let io = lints(&hits, "lock-across-io");
        assert_eq!(io.len(), 1, "{hits:?}");
        assert!(io[0].excerpt.contains("`ledger`") && io[0].excerpt.contains("`sync`"));
    }

    #[test]
    fn lock_without_io_or_nesting_is_clean() {
        let src = "\
fn bump(&self) {
    let mut ledger = lock(&self.ledger);
    ledger.used += 1;
}
";
        let hits = run(&[("crates/storage/src/seeded.rs", src)]);
        assert!(hits.is_empty(), "{hits:?}");
    }

    // -------------------------------------------------- cancel-liveness

    #[test]
    fn a_continue_is_judged_against_its_own_loop_and_its_own_path() {
        // the inner loop's `continue` is the inner loop's (which polls
        // first); the outer `else` arm skips the poll its sibling arm
        // makes; the `continue` after the `if` runs behind a poll
        let src = "\
fn drain(src: &mut Stream, token: &CancelToken) -> Result<(), AlgoError> {
    while let Some(r) = src.next() {
        for part in r.parts() {
            poll(Some(token), 0)?;
            if part.is_empty() {
                continue;
            }
        }
        if r.is_live() {
            poll(Some(token), 1)?;
        } else {
            continue;
        }
        if r.is_small() {
            continue;
        }
        consume(r);
    }
    Ok(())
}
";
        let hits = run(&[("crates/core/src/external/seeded.rs", src)]);
        let lines: Vec<usize> = lints(&hits, "cancel-liveness")
            .iter()
            .map(|f| f.line)
            .collect();
        assert_eq!(lines, [12], "{hits:?}");
    }

    #[test]
    fn a_poll_two_calls_away_is_flagged() {
        // `relay` polls only through `raw`: a loop calling `raw` polls,
        // a loop calling `relay` does not
        let src = "\
fn raw(t: &CancelToken) -> bool { t.is_cancelled() }
fn relay(t: &CancelToken) -> bool { raw(t) }
fn near(src: &mut Stream, t: &CancelToken) {
    while let Some(r) = src.next() {
        raw(t);
        consume(r);
    }
}
fn far(src: &mut Stream, t: &CancelToken) {
    while let Some(r) = src.next() {
        relay(t);
        consume(r);
    }
}
";
        let hits = run(&[("crates/core/src/external/seeded.rs", src)]);
        let live = lints(&hits, "cancel-liveness");
        assert_eq!(live.len(), 1, "{hits:?}");
        assert_eq!(live[0].line, 10);
        assert!(live[0].excerpt.contains("`far`"));
    }

    #[test]
    fn poll_merges_or_wise_across_name_collisions() {
        // two `next` definitions; one polls — calls to `next` count as
        // polling (suppression is conservative)
        let m = models(&[
            (
                "crates/core/src/a.rs",
                "fn next(&mut self) { poll(self.cancel, self.n); }\n",
            ),
            ("crates/core/src/b.rs", "fn next(&mut self) { step(); }\n"),
        ]);
        assert!(pollers(&m).contains("next"));
    }

    #[test]
    fn test_functions_never_count_as_pollers() {
        let m = models(&[
            (
                "crates/exec/tests/t.rs",
                "fn helper(t: &CancelToken) { t.is_cancelled(); }\n",
            ),
            (
                "crates/exec/src/a.rs",
                "#[cfg(test)]\nmod tests {\n    fn gated(t: &CancelToken) { t.is_cancelled(); }\n}\n",
            ),
        ]);
        assert!(pollers(&m).is_empty());
    }

    // -------------------------------------------------------- plumbing

    #[test]
    fn xtask_and_test_files_are_skipped() {
        assert!(!run(&[("crates/storage/src/seeded.rs", GUARD_ACROSS_IO)]).is_empty());
        assert!(run(&[("crates/xtask/src/seeded.rs", GUARD_ACROSS_IO)]).is_empty());
        assert!(run(&[("tests/seeded.rs", GUARD_ACROSS_IO)]).is_empty());
        assert!(run(&[("crates/storage/tests/seeded.rs", GUARD_ACROSS_IO)]).is_empty());
    }

    #[test]
    fn acquisition_extraction_normalizes() {
        let name = |head: &str| acquisition(head).map(|(lock, _)| lock);
        assert_eq!(
            name("let a = lock(&self.files);"),
            Some("files".to_string())
        );
        assert_eq!(
            name("let g = self.ledger.lock().unwrap();"),
            Some("ledger".to_string())
        );
        assert_eq!(name("unlock(&x); relock(&y);"), None);
    }
}
