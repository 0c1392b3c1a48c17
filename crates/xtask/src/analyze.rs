//! Dataflow lints over the parsed workspace model of [`crate::model`].
//!
//! Three lint families that need statement order, scope, or the call
//! graph. What a type or a stock clippy lint can hold is held there
//! instead (DESIGN.md §8.1 maps every contract to its mechanism — a heap
//! file's pages, for one, are its handle's `Drop`); these are the
//! contracts neither can express. All three walk the statement tree of
//! [`crate::model`] and ride the workspace call graph of
//! [`crate::callgraph`] (DESIGN.md §13):
//!
//! 1. **lock-order** / **lock-across-io** — every `lock(&…)` /
//!    `.lock()` acquisition feeds a workspace-wide lock-order graph;
//!    cycles are deadlock candidates and are flagged at each
//!    participating edge. A guard held across a `Disk` I/O call
//!    serializes the storage layer on that lock and is flagged
//!    separately. Interprocedurally, a held guard extends the order
//!    graph through resolvable callees that acquire `self.`-field
//!    locks, and `lock-across-io` fires when a uniquely-resolved
//!    callee is guaranteed to hit disk.
//! 2. **guard-into-spawn** / **blocking-under-lock** — thread-capture
//!    and blocking discipline: a `MutexGuard` held at a `spawn(` site,
//!    a condvar `wait(` that does not name (and hence cannot release)
//!    a held guard, a bounded `WorkQueue`/`Backpressure` method on a
//!    typed receiver, or a call into a uniquely-resolved callee that
//!    must block — all while a guard is held — are stall/deadlock
//!    findings.
//! 3. **cancel-liveness** — every record-driven loop in a
//!    cancellation-aware function on the cancellable paths (external
//!    operators, the parallel filter, the exec crate) must poll
//!    `CancelToken` within a bounded stride, directly or via a callee
//!    that may poll (PR 2's "poll every 256 records" contract). A loop
//!    that fetches records but can never reach a poll starves
//!    cancellation — and so does a `continue` ahead of the loop body's
//!    first poll, in a loop that otherwise polls.
//!
//! Any finding fails `cargo xtask analyze`; `--sarif` renders them as
//! SARIF for CI code-scanning annotations (`cargo xtask analyze
//! --explain <rule-id>` prints the per-rule help).

use crate::callgraph::{self, resolvable_calls, CallGraph, POLL_TOKENS};
use crate::model::{file_model, word_hits, Block, FileModel, FnModel, Stmt};
use crate::scan::{has_token, CleanSource};
use std::collections::{BTreeMap, BTreeSet};

/// One lint hit.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Lint identifier (`lock-order`, `cancel-liveness`, …).
    pub lint: &'static str,
    /// Workspace-relative path.
    pub file: String,
    /// 1-based line number.
    pub line: usize,
    /// What was matched, for the report.
    pub excerpt: String,
}

/// Disk/file I/O calls a lock guard must not be held across.
pub(crate) const IO_TOKENS: &[&str] = &[
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

/// Method calls that block when the receiver is a bounded
/// [`WorkQueue`]/[`Backpressure`]-typed binding.
const BLOCKING_METHODS: &[&str] = &[".push(", ".pop(", ".acquire("];

/// Paths whose functions are all test/bench scaffolding.
pub(crate) fn is_test_path(path: &str) -> bool {
    path.starts_with("tests/")
        || path.starts_with("crates/testkit")
        || path.contains("/tests/")
        || path.contains("/benches/")
        || path.contains("/examples/")
}

fn under(path: &str, dirs: &[&str]) -> bool {
    dirs.iter().any(|d| path.starts_with(d))
}

/// Run every dataflow lint over the cleaned workspace files.
pub fn analyze_files(files: &[(String, CleanSource)]) -> Vec<Finding> {
    let models: Vec<FileModel> = files
        .iter()
        .filter(|(path, _)| !path.starts_with("crates/xtask"))
        .map(|(path, cs)| file_model(path, cs))
        .collect();

    let graph = callgraph::build(&models);

    let mut out = Vec::new();
    let mut edges: BTreeMap<(String, String), (String, usize)> = BTreeMap::new();
    for m in &models {
        let file_is_test = is_test_path(&m.path);
        for f in &m.fns {
            let Some(body) = &f.body else { continue };
            if f.is_test || file_is_test {
                continue;
            }
            if under(&m.path, CANCEL_SCOPE) && cancel_aware(f, body) {
                cancel_liveness(&m.path, &f.name, body, &graph, &mut out);
            }
            let recv = blocking_receivers(f, body);
            let mut held = Vec::new();
            lock_scan(
                &m.path, &f.name, body, &recv, &graph, &mut held, &mut edges, &mut out,
            );
        }
    }
    lock_cycles(&edges, &mut out);
    out.sort_by(|a, b| (a.file.as_str(), a.line, a.lint).cmp(&(b.file.as_str(), b.line, b.lint)));
    out
}

/// Call names in `text`: every identifier directly followed by `(`.
pub(crate) fn calls_in(text: &str) -> Vec<String> {
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

// ----------------------------------------------------------------- lock

struct Held {
    lock: String,
    guard: Option<String>,
}

/// Walk one block tracking held guards; record acquisition-order edges
/// (direct and through uniquely-resolved callees), guards held across
/// I/O or blocking calls, and guards held at thread-spawn sites.
#[allow(clippy::too_many_arguments)]
fn lock_scan(
    path: &str,
    fn_name: &str,
    block: &Block,
    recv: &BTreeSet<String>,
    graph: &CallGraph,
    held: &mut Vec<Held>,
    edges: &mut BTreeMap<(String, String), (String, usize)>,
    out: &mut Vec<Finding>,
) {
    for stmt in &block.stmts {
        let acqs = acquisitions(&stmt.head);
        for a in &acqs {
            for h in held.iter() {
                if h.lock != *a {
                    edges
                        .entry((h.lock.clone(), a.clone()))
                        .or_insert_with(|| (path.to_string(), stmt.line));
                }
            }
        }
        let text = stmt.text_all();
        if !held.is_empty() {
            // interprocedural lock-order: a resolvable callee that
            // acquires `self.`-field locks extends the order graph
            for c in resolvable_calls(&text) {
                if let Some(acq) = graph.acquires(&c) {
                    for l2 in acq {
                        for h in held.iter() {
                            if h.lock != *l2 {
                                edges
                                    .entry((h.lock.clone(), l2.clone()))
                                    .or_insert_with(|| (path.to_string(), stmt.line));
                            }
                        }
                    }
                }
            }
            if !stmt.exempt {
                blocking_checks(path, fn_name, stmt.line, &text, held, recv, graph, out);
            }
        }
        if (!held.is_empty() || !acqs.is_empty()) && IO_TOKENS.iter().any(|t| has_token(&text, t)) {
            let lock = held
                .first()
                .map(|h| h.lock.clone())
                .unwrap_or_else(|| acqs[0].clone());
            let dup = out.iter().any(|f| {
                f.lint == "lock-across-io" && f.file == path && f.excerpt.contains(fn_name)
            });
            if !dup {
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
        held.retain(|h| match &h.guard {
            Some(g) => !text.contains(&format!("drop({g})")),
            None => true,
        });
        // a let-bound acquisition holds until end of this block — but
        // only when the guard itself is bound (`let g = lock(&x);`,
        // possibly via `.unwrap()`); a longer chain (`let v =
        // lock(&x).values().collect();`) drops the temporary guard at
        // the end of the statement
        if let Some(guard) = let_binding(&stmt.head) {
            if let Some((lock, after)) = acqs.first().zip(acquisition_end(&stmt.head)) {
                if guard_bound_directly(&stmt.head[after..]) {
                    held.push(Held {
                        lock: lock.clone(),
                        guard: Some(guard),
                    });
                }
            }
        }
        for b in &stmt.blocks {
            let depth = held.len();
            lock_scan(path, fn_name, b, recv, graph, held, edges, out);
            held.truncate(depth);
        }
    }
}

/// One statement with guards held: is it a stall/deadlock hazard?
#[allow(clippy::too_many_arguments)]
fn blocking_checks(
    path: &str,
    fn_name: &str,
    line: usize,
    text: &str,
    held: &[Held],
    recv: &BTreeSet<String>,
    graph: &CallGraph,
    out: &mut Vec<Finding>,
) {
    // thread-capture discipline: a guard held at a spawn site either
    // moves into the closure (keeping the lock on another thread) or
    // stays held while workers contend on it — both are findings
    if has_token(text, "spawn(") {
        for h in held {
            out.push(Finding {
                lint: "guard-into-spawn",
                file: path.to_string(),
                line,
                excerpt: format!(
                    "guard of `{}` is held at a thread spawn in `{fn_name}` — workers contending on the lock stall or deadlock",
                    h.lock
                ),
            });
        }
        return; // the spawn finding subsumes blocking checks on this stmt
    }
    // condvar protocol: `st = wait(&cv, st)` (or its deadline-bounded
    // twin `st = wait_timeout(&cv, st, dur).0`) releases exactly the
    // guard it names; any *other* held guard stays locked through the
    // sleep
    let waits = has_token(text, "wait(") || has_token(text, "wait_timeout(");
    for h in held {
        let releases_this = waits
            && h.guard
                .as_ref()
                .is_some_and(|g| !word_hits(text, g).is_empty());
        if waits && !releases_this {
            push_blocking(
                out,
                path,
                line,
                fn_name,
                &h.lock,
                "a condvar wait that cannot release it",
            );
        }
    }
    if held.is_empty() {
        return;
    }
    let lock = &held[0].lock;
    for tok in &["::sleep(", ".join()", "park("] {
        if text.contains(*tok) {
            push_blocking(out, path, line, fn_name, lock, "a sleep/join/park");
            break;
        }
    }
    // bounded-queue / admission-gate methods on typed receivers
    'recv: for r in recv {
        for m in BLOCKING_METHODS {
            if has_token(text, &format!("{r}{m}")) {
                push_blocking(
                    out,
                    path,
                    line,
                    fn_name,
                    lock,
                    &format!("blocking `{r}{m}…)`"),
                );
                break 'recv;
            }
        }
    }
    // uniquely-resolved callees that are guaranteed to block or hit disk
    for c in resolvable_calls(text) {
        if matches!(
            c.as_str(),
            "wait" | "wait_timeout" | "lock" | "sleep" | "park" | "spawn"
        ) {
            continue; // direct tokens above already judged these
        }
        if graph.must_block(&c) {
            push_blocking(
                out,
                path,
                line,
                fn_name,
                lock,
                &format!("a call to blocking `{c}`"),
            );
        } else if graph.must_io(&c) {
            let dup = out.iter().any(|f| {
                f.lint == "lock-across-io" && f.file == path && f.excerpt.contains(fn_name)
            });
            if !dup {
                out.push(Finding {
                    lint: "lock-across-io",
                    file: path.to_string(),
                    line,
                    excerpt: format!(
                        "guard of `{lock}` is held across disk I/O in `{fn_name}` (via callee `{c}`) — I/O serializes on the lock"
                    ),
                });
            }
        }
    }
}

/// Emit a deduplicated blocking-under-lock finding.
fn push_blocking(
    out: &mut Vec<Finding>,
    path: &str,
    line: usize,
    fn_name: &str,
    lock: &str,
    what: &str,
) {
    let excerpt =
        format!("guard of `{lock}` is held across {what} in `{fn_name}` — stall/deadlock risk");
    if !out
        .iter()
        .any(|f| f.lint == "blocking-under-lock" && f.file == path && f.excerpt == excerpt)
    {
        out.push(Finding {
            lint: "blocking-under-lock",
            file: path.to_string(),
            line,
            excerpt,
        });
    }
}

/// Lock names acquired in a statement head: `lock(&EXPR)` helper calls
/// and `EXPR.lock()` method calls, normalized (`self.`/`&` stripped).
fn acquisitions(head: &str) -> Vec<String> {
    let mut out = Vec::new();
    // helper form: lock(&self.files)
    let mut from = 0;
    while let Some(p) = head[from..].find("lock(") {
        let at = from + p;
        from = at + 5;
        let before = head[..at].chars().next_back();
        if before.is_some_and(|c| c.is_alphanumeric() || c == '_' || c == '.') {
            continue; // method call or suffix of another identifier
        }
        let inner: String = head[at + 5..]
            .chars()
            .take_while(|c| *c != ')' && *c != ',')
            .collect();
        out.push(normalize_lock(&inner));
    }
    // method form: self.ledger.lock()
    let mut from = 0;
    while let Some(p) = head[from..].find(".lock(") {
        let at = from + p;
        from = at + 6;
        let base: String = head[..at]
            .chars()
            .rev()
            .take_while(|c| c.is_alphanumeric() || *c == '_' || *c == '.' || *c == ':')
            .collect();
        let base: String = base.chars().rev().collect();
        out.push(normalize_lock(&base));
    }
    out.retain(|s| !s.is_empty());
    out
}

fn normalize_lock(expr: &str) -> String {
    let e: String = expr.chars().filter(|c| !c.is_whitespace()).collect();
    let e = e.trim_start_matches('&');
    let e = e.strip_prefix("self.").unwrap_or(e);
    e.trim_matches('.').to_string()
}

/// Index just past the closing paren of the first lock-acquisition call
/// in `head` — `lock(…)` helper or `.lock(…)` method form, whichever
/// comes first.
fn acquisition_end(head: &str) -> Option<usize> {
    let helper = {
        let mut from = 0;
        let mut found = None;
        while let Some(p) = head[from..].find("lock(") {
            let at = from + p;
            from = at + 5;
            let before = head[..at].chars().next_back();
            if before.is_some_and(|c| c.is_alphanumeric() || c == '_' || c == '.') {
                continue; // method call or suffix of another identifier
            }
            found = Some(at + 4); // index of the '('
            break;
        }
        found
    };
    let method = head.find(".lock(").map(|p| p + 5);
    let open = match (helper, method) {
        (Some(a), Some(b)) => a.min(b),
        (a, b) => a.or(b)?,
    };
    let mut depth = 0usize;
    for (i, c) in head[open..].char_indices() {
        match c {
            '(' => depth += 1,
            ')' => {
                depth -= 1;
                if depth == 0 {
                    return Some(open + i + 1);
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

/// Does this function have a cancellation token in reach? Only such
/// functions are held to the polling contract — a helper with no token
/// cannot poll, and demanding it would force an API change the lint has
/// no business mandating (documented false-negative boundary).
fn cancel_aware(f: &FnModel, body: &Block) -> bool {
    let full = format!("{} {}", f.sig, callgraph::block_text(body));
    full.contains("cancel") || full.contains("Cancel")
}

fn is_loop(stmt: &Stmt) -> bool {
    !stmt.blocks.is_empty()
        && ["loop", "while", "for"]
            .iter()
            .any(|k| !word_hits(&stmt.head, k).is_empty())
}

fn polls(text: &str, graph: &CallGraph) -> bool {
    POLL_TOKENS.iter().any(|t| has_token(text, t))
        || calls_in(text).iter().any(|c| graph.may_poll(c))
}

/// Every record-driven loop in a cancel-aware scope function must poll
/// the token — directly (`poll(`/`.check(`/`is_cancelled(`) or through
/// a callee that may poll. Stride boundedness comes from the poll
/// helpers themselves (`CANCEL_CHECK_INTERVAL` is a compile-time
/// constant), so presence is the static contract — with one refinement:
/// in a loop that does poll, a `continue` ahead of the body's first
/// poll starves cancellation on that path (records keep flowing while
/// every iteration short-circuits around the poll).
fn cancel_liveness(
    path: &str,
    fn_name: &str,
    block: &Block,
    graph: &CallGraph,
    out: &mut Vec<Finding>,
) {
    for stmt in &block.stmts {
        if is_loop(stmt) && !stmt.exempt {
            let text = stmt.text_all();
            let record_driven = RECORD_TOKENS.iter().any(|t| text.contains(t));
            if record_driven && !polls(&text, graph) {
                out.push(Finding {
                    lint: "cancel-liveness",
                    file: path.to_string(),
                    line: stmt.line,
                    excerpt: format!(
                        "record-driven loop in `{fn_name}` never polls CancelToken (directly or via a callee) — cancellation can starve"
                    ),
                });
            } else if record_driven && !polls(&stmt.head, graph) {
                let mut skips = Vec::new();
                for b in &stmt.blocks {
                    continues_before_poll(b, graph, &mut skips);
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
            cancel_liveness(path, fn_name, b, graph, out);
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
fn continues_before_poll(block: &Block, graph: &CallGraph, skips: &mut Vec<usize>) -> bool {
    for stmt in &block.stmts {
        if is_loop(stmt) {
            continue;
        }
        if polls(&stmt.head, graph) {
            return true;
        }
        if !stmt.exempt && !word_hits(&stmt.head, "continue").is_empty() {
            skips.push(stmt.line);
        }
        let mut polled = false;
        for b in &stmt.blocks {
            polled |= continues_before_poll(b, graph, skips);
        }
        if polled {
            return true;
        }
    }
    false
}

/// Bindings in this function whose type is a bounded [`crate`]-side
/// blocking primitive (`WorkQueue`/`Backpressure`): parameters plus
/// `let` bindings whose head names the type. An alias (`let q2 =
/// Arc::clone(&q);`) escapes tracking — documented false negative.
fn blocking_receivers(f: &FnModel, body: &Block) -> BTreeSet<String> {
    let mut set = BTreeSet::new();
    for seg in f.sig.split(',') {
        if seg.contains("WorkQueue") || seg.contains("Backpressure") {
            if let Some((name_part, _)) = seg.split_once(':') {
                let name: String = name_part
                    .chars()
                    .rev()
                    .take_while(|c| c.is_alphanumeric() || *c == '_')
                    .collect();
                let name: String = name.chars().rev().collect();
                if !name.is_empty() {
                    set.insert(name);
                }
            }
        }
    }
    collect_blocking_lets(body, &mut set);
    set
}

fn collect_blocking_lets(block: &Block, set: &mut BTreeSet<String>) {
    for stmt in &block.stmts {
        if stmt.head.contains("WorkQueue") || stmt.head.contains("Backpressure") {
            if let Some(name) = let_binding(&stmt.head) {
                set.insert(name);
            }
        }
        for b in &stmt.blocks {
            collect_blocking_lets(b, set);
        }
    }
}

/// DFS cycle detection over the lock-order graph; every edge on a cycle
/// is a finding at its acquisition site.
fn lock_cycles(edges: &BTreeMap<(String, String), (String, usize)>, out: &mut Vec<Finding>) {
    let mut adj: BTreeMap<&str, Vec<&str>> = BTreeMap::new();
    for (from, to) in edges.keys() {
        adj.entry(from).or_default().push(to);
    }
    // an edge (a, b) is cyclic iff b can reach a
    for ((from, to), (file, line)) in edges {
        let mut seen = BTreeSet::new();
        let mut stack = vec![to.as_str()];
        let mut cyclic = false;
        while let Some(n) = stack.pop() {
            if n == from {
                cyclic = true;
                break;
            }
            if seen.insert(n) {
                if let Some(next) = adj.get(n) {
                    stack.extend(next.iter().copied());
                }
            }
        }
        if cyclic {
            out.push(Finding {
                lint: "lock-order",
                file: file.clone(),
                line: *line,
                excerpt: format!(
                    "`{to}` acquired while `{from}` is held, but the reverse order also exists — lock-order cycle (deadlock candidate)"
                ),
            });
        }
    }
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

    // ------------------------------------------------------------ locks

    /// AB in one function, BA in another.
    const LOCK_INVERSION: &str = "\
fn transfer(&self) {
    let a = lock(&self.accounts);
    let b = lock(&self.audit_log);
    a.push(b.len());
}
fn report(&self) {
    let b = lock(&self.audit_log);
    let a = lock(&self.accounts);
    b.push(a.len());
}
";

    #[test]
    fn seeded_lock_order_inversion_is_detected() {
        // the acceptance-criteria seed: AB in one function, BA in another
        let hits = run(&[("crates/storage/src/seeded.rs", LOCK_INVERSION)]);
        let cycles = lints(&hits, "lock-order");
        assert_eq!(cycles.len(), 2, "both edges of the cycle: {hits:?}");
        assert!(cycles.iter().any(|f| f.excerpt.contains("`audit_log`")));
        assert!(cycles.iter().any(|f| f.excerpt.contains("`accounts`")));
    }

    #[test]
    fn consistent_lock_order_is_clean() {
        let src = "\
fn one(&self) {
    let a = lock(&self.accounts);
    let b = lock(&self.audit_log);
    a.push(b.len());
}
fn two(&self) {
    let a = lock(&self.accounts);
    let b = lock(&self.audit_log);
    b.push(a.len());
}
";
        let hits = run(&[("crates/storage/src/seeded.rs", src)]);
        assert!(lints(&hits, "lock-order").is_empty(), "{hits:?}");
    }

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
fn nested(&self) {
    let g = self.ledger.lock().unwrap();
    let h = lock(&self.stats);
    g.push(h.len());
}
fn inverse(&self) {
    let h = lock(&self.stats);
    let g = self.ledger.lock().unwrap();
    h.push(g.len());
}
";
        let hits = run(&[("crates/core/src/par.rs", src)]);
        assert_eq!(lints(&hits, "lock-order").len(), 2, "{hits:?}");
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

    // -------------------------------------------------------- plumbing

    #[test]
    fn xtask_and_test_files_are_skipped() {
        assert!(run(&[("crates/xtask/src/seeded.rs", LOCK_INVERSION)]).is_empty());
        assert!(run(&[("tests/seeded.rs", LOCK_INVERSION)]).is_empty());
        assert!(run(&[("crates/storage/tests/seeded.rs", LOCK_INVERSION)]).is_empty());
    }

    #[test]
    fn acquisition_extraction_normalizes() {
        assert_eq!(
            acquisitions("let a = lock(&self.files);"),
            vec!["files".to_string()]
        );
        assert_eq!(
            acquisitions("let g = self.ledger.lock().unwrap();"),
            vec!["ledger".to_string()]
        );
        assert!(acquisitions("unlock(&x); relock(&y);").is_empty());
    }
}
