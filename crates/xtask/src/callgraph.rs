//! Workspace-wide call graph over the AST-lite model of [`crate::model`].
//!
//! Each non-test function with a body gets a [`FnFacts`] summary: the
//! call names it makes (via `calls_in`), whether it directly polls the
//! cancellation token, directly blocks (condvar wait / join / sleep /
//! park), directly performs disk I/O, and which `self.`-field locks it
//! acquires. Two fixpoints then lift the direct facts to transitive
//! capabilities, with deliberately asymmetric name resolution:
//!
//! * **`may_poll`** — used to *suppress* cancel-liveness findings — is
//!   an OR-merge over name collisions: if *any* workspace function named
//!   `next` polls, a call to `next(` counts as possibly polling. A
//!   wrongly-suppressed finding is the cost; a false finding on a loop
//!   that genuinely polls through its iterator would be worse for a
//!   gate that fails on any finding. Propagation between functions still only follows
//!   *resolvable* calls (free and `self.`-method); otherwise one
//!   polling `next` would transitively mark most of the workspace
//!   may-poll and the lint would be vacuous.
//! * **`must_block` / `must_io` / callee lock acquisitions** — used to
//!   *generate* blocking-under-lock findings — propagate only through
//!   *uniquely named* workspace functions: a call name with two or more
//!   definitions is treated as opaque. Both asymmetries err toward
//!   silence, so a finding is always a real change.
//!
//! The graph is name-based (no receiver types), which DESIGN.md §13
//! documents as the model's main approximation.

use crate::analyze::{is_test_path, IO_TOKENS};
use crate::model::{Block, FileModel};
use crate::scan::has_token;
use std::collections::{BTreeMap, BTreeSet};

/// Tokens that poll the cancellation token directly: the free/assoc
/// `poll(` helper, `CancelToken::check(`, and the raw flag read.
pub const POLL_TOKENS: &[&str] = &["poll(", ".check(", "is_cancelled("];

/// Tokens that block the calling thread: condvar waits (helper or
/// method form), thread joins, sleeps, parks.
pub const BLOCK_TOKENS: &[&str] = &["wait(", "wait_timeout(", ".join()", "::sleep(", "park("];

/// Call names that the interprocedural summaries may resolve: free
/// calls (`helper(…)`, `Type::assoc(…)`) and `self.`-method calls.
/// Method calls on any other receiver are opaque — the text model has
/// no receiver types, and names like `next`/`pop`/`push` collide with
/// std containers and every operator impl. Propagating capabilities
/// through those would poison the summaries (one polling `next` would
/// mark half the workspace may-poll).
pub fn resolvable_calls(text: &str) -> Vec<String> {
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
                let resolvable = if start > 0 && chars[start - 1] == '.' {
                    // `self.helper(…)` — same-impl dispatch
                    start >= 5
                        && chars[start - 5..start - 1].iter().collect::<String>() == "self"
                        && (start == 5
                            || !(chars[start - 6].is_alphanumeric() || chars[start - 6] == '_'))
                } else {
                    true
                };
                if resolvable {
                    out.push(chars[start..i].iter().collect());
                }
            }
        } else {
            i += 1;
        }
    }
    out
}

/// One function's direct facts.
struct FnFacts {
    name: String,
    calls: BTreeSet<String>,
    polls: bool,
    blocks: bool,
    does_io: bool,
    /// `self.`-field locks acquired anywhere in the body. Field names
    /// are stable across call sites of the same impl, unlike parameter
    /// locks, so only these propagate to callers.
    field_acquires: BTreeSet<String>,
}

/// The workspace call graph plus its transitive capability sets.
pub struct CallGraph {
    /// Call names that may (somewhere, under some collision) reach a
    /// cancellation poll.
    may_poll: BTreeSet<String>,
    /// Uniquely-defined call names guaranteed to block.
    must_block: BTreeSet<String>,
    /// Uniquely-defined call names guaranteed to perform disk I/O.
    must_io: BTreeSet<String>,
    /// Uniquely-defined call names → `self.`-field locks they (or their
    /// unique callees) acquire.
    call_acquires: BTreeMap<String, BTreeSet<String>>,
}

impl CallGraph {
    /// Does a call to `name` possibly poll the cancel token?
    pub fn may_poll(&self, name: &str) -> bool {
        self.may_poll.contains(name)
    }

    /// Is a call to `name` guaranteed to block (unique definition)?
    pub fn must_block(&self, name: &str) -> bool {
        self.must_block.contains(name)
    }

    /// Is a call to `name` guaranteed to hit disk (unique definition)?
    pub fn must_io(&self, name: &str) -> bool {
        self.must_io.contains(name)
    }

    /// Field locks a call to `name` acquires (unique definition only).
    pub fn acquires(&self, name: &str) -> Option<&BTreeSet<String>> {
        self.call_acquires.get(name)
    }
}

/// Build the call graph over every non-test function in the models.
pub fn build(models: &[FileModel]) -> CallGraph {
    let mut fns: Vec<FnFacts> = Vec::new();
    for m in models {
        let file_is_test = is_test_path(&m.path);
        for f in &m.fns {
            let Some(body) = &f.body else { continue };
            if f.is_test || file_is_test {
                continue;
            }
            let text = block_text(body);
            let mut field_acquires = BTreeSet::new();
            collect_field_acquires(body, &mut field_acquires);
            fns.push(FnFacts {
                name: f.name.clone(),
                calls: resolvable_calls(&text).into_iter().collect(),
                polls: POLL_TOKENS.iter().any(|t| has_token(&text, t)),
                blocks: BLOCK_TOKENS.iter().any(|t| has_token(&text, t)),
                does_io: IO_TOKENS.iter().any(|t| has_token(&text, t)),
                field_acquires,
            });
        }
    }

    let mut by_name: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
    for (i, f) in fns.iter().enumerate() {
        by_name.entry(&f.name).or_default().push(i);
    }
    let unique = |name: &str| -> Option<usize> {
        match by_name.get(name).map(Vec::as_slice) {
            Some([only]) => Some(*only),
            _ => None,
        }
    };

    // may_poll: OR over collisions, transitive through any call.
    let mut may_poll: BTreeSet<String> = fns
        .iter()
        .filter(|f| f.polls)
        .map(|f| f.name.clone())
        .collect();
    loop {
        let mut changed = false;
        for f in &fns {
            if !may_poll.contains(&f.name) && f.calls.iter().any(|c| may_poll.contains(c)) {
                may_poll.insert(f.name.clone());
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }

    // must_block / must_io / acquires: per-definition fixpoints that
    // look through uniquely named callees only. The direct block
    // tokens (`wait(` …) are excluded from propagation *sources* at the
    // lint site, not here: a function whose body waits is blocking from
    // its caller's perspective regardless of the condvar protocol.
    let mut blocks: Vec<bool> = fns.iter().map(|f| f.blocks).collect();
    let mut io: Vec<bool> = fns.iter().map(|f| f.does_io).collect();
    let mut acq: Vec<BTreeSet<String>> = fns.iter().map(|f| f.field_acquires.clone()).collect();
    loop {
        let mut changed = false;
        for i in 0..fns.len() {
            for c in &fns[i].calls {
                let Some(j) = unique(c) else { continue };
                if blocks[j] && !blocks[i] {
                    blocks[i] = true;
                    changed = true;
                }
                if io[j] && !io[i] {
                    io[i] = true;
                    changed = true;
                }
                if !acq[j].is_empty() && i != j {
                    let extra: Vec<String> = acq[j]
                        .iter()
                        .filter(|l| !acq[i].contains(*l))
                        .cloned()
                        .collect();
                    if !extra.is_empty() {
                        acq[i].extend(extra);
                        changed = true;
                    }
                }
            }
        }
        if !changed {
            break;
        }
    }

    let mut must_block = BTreeSet::new();
    let mut must_io = BTreeSet::new();
    let mut call_acquires = BTreeMap::new();
    for (name, defs) in &by_name {
        let [only] = defs.as_slice() else { continue };
        if blocks[*only] {
            must_block.insert((*name).to_string());
        }
        if io[*only] {
            must_io.insert((*name).to_string());
        }
        if !acq[*only].is_empty() {
            call_acquires.insert((*name).to_string(), acq[*only].clone());
        }
    }

    CallGraph {
        may_poll,
        must_block,
        must_io,
        call_acquires,
    }
}

/// Full body text of a block, nested blocks included.
pub fn block_text(block: &Block) -> String {
    let mut out = String::new();
    for s in &block.stmts {
        out.push_str(&s.text_all());
        out.push(' ');
    }
    out
}

/// `self.`-field lock acquisitions anywhere in the block:
/// `lock(&self.X)` helper form and `self.X.lock()` method form. Local
/// and parameter locks are deliberately excluded — their names mean
/// nothing outside the function.
fn collect_field_acquires(block: &Block, set: &mut BTreeSet<String>) {
    for stmt in &block.stmts {
        field_acquisitions(&stmt.head, set);
        for b in &stmt.blocks {
            collect_field_acquires(b, set);
        }
    }
}

fn field_acquisitions(head: &str, set: &mut BTreeSet<String>) {
    // helper form: lock(&self.files)
    let mut from = 0;
    while let Some(p) = head[from..].find("lock(&self.") {
        let at = from + p;
        from = at + 11;
        let before = head[..at].chars().next_back();
        if before.is_some_and(|c| c.is_alphanumeric() || c == '_' || c == '.') {
            continue; // method call or suffix of another identifier
        }
        let name: String = head[at + 11..]
            .chars()
            .take_while(|c| c.is_alphanumeric() || *c == '_')
            .collect();
        if !name.is_empty() {
            set.insert(name);
        }
    }
    // method form: self.ledger.lock()
    let mut from = 0;
    while let Some(p) = head[from..].find(".lock(") {
        let at = from + p;
        from = at + 6;
        let base: String = head[..at]
            .chars()
            .rev()
            .take_while(|c| c.is_alphanumeric() || *c == '_' || *c == '.')
            .collect();
        let base: String = base.chars().rev().collect();
        if let Some(field) = base.strip_prefix("self.") {
            let field = field.trim_matches('.');
            if !field.is_empty() && !field.contains('.') {
                set.insert(field.to_string());
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::file_model;
    use crate::scan::CleanSource;

    fn graph(files: &[(&str, &str)]) -> CallGraph {
        let models: Vec<FileModel> = files
            .iter()
            .map(|(p, s)| file_model(p, &CleanSource::new(s)))
            .collect();
        build(&models)
    }

    #[test]
    fn transitive_poll_through_helper_chain() {
        let g = graph(&[(
            "crates/core/src/a.rs",
            "fn raw(t: &CancelToken) -> bool { t.is_cancelled() }\n\
             fn relay(t: &CancelToken) { raw(t); }\n\
             fn driver(t: &CancelToken) { relay(t); }\n\
             fn bystander() { work(); }\n",
        )]);
        assert!(g.may_poll("raw"));
        assert!(g.may_poll("relay"));
        assert!(g.may_poll("driver"));
        assert!(!g.may_poll("bystander"));
    }

    #[test]
    fn poll_merges_or_wise_across_name_collisions() {
        // two `next` definitions; one polls — calls to `next` count as
        // possibly polling (suppression is conservative)
        let g = graph(&[
            (
                "crates/core/src/a.rs",
                "fn next(&mut self) { poll(self.cancel, self.n); }\n",
            ),
            ("crates/core/src/b.rs", "fn next(&mut self) { step(); }\n"),
        ]);
        assert!(g.may_poll("next"));
    }

    #[test]
    fn must_block_requires_a_unique_definition() {
        let g = graph(&[
            (
                "crates/exec/src/a.rs",
                "fn push(&self) { let st = lock(&self.state); wait(&self.cv, st); }\n",
            ),
            (
                "crates/exec/src/b.rs",
                "fn push(&mut self) { self.v.extend(x); }\n",
            ),
        ]);
        // collision: two `push` defs, one blocking — treated as opaque
        assert!(!g.must_block("push"));
        let g = graph(&[(
            "crates/exec/src/a.rs",
            "fn admit(&self) { let st = lock(&self.state); wait(&self.cv, st); }\n\
             fn outer(&self) { self.admit(); }\n",
        )]);
        assert!(g.must_block("admit"));
        assert!(
            g.must_block("outer"),
            "blocking propagates through unique callees"
        );
    }

    #[test]
    fn io_and_field_locks_propagate_through_unique_callees() {
        let g = graph(&[(
            "crates/storage/src/a.rs",
            "fn flush_raw(&self) { self.file.write_all(buf); }\n\
             fn flush(&self) { let g = lock(&self.ledger); drop(g); self.flush_raw(); }\n",
        )]);
        assert!(g.must_io("flush_raw"));
        assert!(g.must_io("flush"), "I/O propagates through unique callees");
        assert!(g.acquires("flush").is_some_and(|s| s.contains("ledger")));
        assert!(g.acquires("flush_raw").is_none());
    }

    #[test]
    fn parameter_locks_do_not_propagate() {
        // sync_util::lock's own `m.lock()` is parameter-relative; callers
        // must not inherit a phantom `m` lock
        let g = graph(&[(
            "crates/exec/src/sync_util.rs",
            "fn lock<T>(m: &Mutex<T>) -> MutexGuard<T> { m.lock().unwrap_or_else(|e| e.into_inner()) }\n",
        )]);
        assert!(g.acquires("lock").is_none());
    }

    #[test]
    fn test_functions_stay_out_of_the_graph() {
        let g = graph(&[(
            "crates/exec/tests/t.rs",
            "fn helper(t: &CancelToken) { t.is_cancelled(); }\n",
        )]);
        assert!(!g.may_poll("helper"));
    }
}
