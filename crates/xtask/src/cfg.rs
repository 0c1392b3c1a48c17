//! Per-function control-flow graphs over the AST-lite model of
//! [`crate::model`], plus the small dataflow engine the path-sensitive
//! lints in [`crate::analyze`] run on (DESIGN.md §15).
//!
//! A [`Cfg`] has one node per leaf statement (control statements
//! contribute their head as a node and their nested blocks as separate
//! nodes), three virtual nodes (entry and the ok/err exits), a
//! virtual join node per loop, and a scope-end node per lexical block.
//! Edges model branches (`if` arms are alternatives, with a fallthrough
//! edge when there are more `if`s than `else`s), `match` arm groups
//! (alternatives; merged expression arms get a fallthrough edge so the
//! success value keeps flowing), loops (back edges, conditional exit
//! for `while`/`for`), early `return` (routed to the ok or err exit by
//! its payload), `break`/`continue` (to the innermost loop's join or
//! header), and `?`-propagation (an [`EdgeKind::Err`] edge to the err
//! exit). Panic unwinds are not modelled: `Drop` carriers discharge
//! every RAII obligation on that path.
//!
//! One engine runs on top: [`reach`], a forward may-analysis with
//! gen/kill sets (union at joins). Its one path-sensitive refinement is
//! edge semantics: an `Err` edge out of a statement carries `IN \ kill`,
//! not `OUT` — the statement's kills (a consumed binding) happened
//! before the `?` propagated, while its gens (the value being bound)
//! never materialized if the statement errored.
//!
//! Known approximations, all erring toward silence: closures inside
//! call parentheses stay in the statement head (no nodes), struct
//! patterns in match arms split the arm at the pattern braces (the
//! pieces are chained sequentially, merging the arm alternatives), and
//! labeled `break`/`continue` bind to the innermost loop.

use crate::model::{Block, FnModel, Stmt};

/// Virtual node: function entry.
pub const ENTRY: usize = 0;
/// Virtual node: the normal-return exit.
pub const EXIT_OK: usize = 1;
/// Virtual node: the `?`/`return Err` exit.
pub const EXIT_ERR: usize = 2;

/// What a CFG node stands for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NodeKind {
    /// One of the three virtual entry/exit nodes.
    Virtual,
    /// A leaf statement, or a control statement's head.
    Stmt,
    /// End of a lexical block: bindings declared in the block drop here.
    ScopeEnd,
    /// The virtual join point after a loop (`break` target).
    Join,
}

/// Flow semantics of an edge, which decide what the dataflow carries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EdgeKind {
    /// Normal sequencing/branching: carries the source's `OUT` set.
    Seq,
    /// Loop back edge: carries `OUT`, and marks iteration boundaries.
    Back,
    /// `?`/error propagation: carries `IN \ kill` (kills happened, gens
    /// never materialized).
    Err,
}

/// One CFG node.
#[derive(Debug)]
pub struct Node {
    /// What the node stands for.
    pub kind: NodeKind,
    /// Source line (1-based) of the statement, 0 for virtual nodes.
    pub line: usize,
    /// The statement head text ("" for virtual/scope-end nodes).
    pub text: String,
    /// The statement carried a lint-exemption gate.
    pub exempt: bool,
    /// Innermost lexical block, by build order (function body = 0,
    /// `usize::MAX` for virtual nodes).
    pub block_id: usize,
}

/// One loop's structure, for loop-scoped checks.
#[derive(Debug)]
pub struct LoopInfo {
    /// The loop-head node (condition / iterator advance).
    pub header: usize,
    /// Node-index range `[start, end)` of the loop body.
    pub body: (usize, usize),
    /// The virtual join node `break` jumps to.
    pub join: usize,
    /// Statement nodes that `continue` this loop.
    pub continues: Vec<usize>,
}

/// A per-function control-flow graph.
pub struct Cfg {
    /// Nodes; indices 0..=2 are the virtual entry/exits.
    pub nodes: Vec<Node>,
    /// Successor adjacency: `succs[n]` = `(target, kind)` pairs.
    pub succs: Vec<Vec<(usize, EdgeKind)>>,
    /// Predecessor adjacency, mirror of `succs`.
    pub preds: Vec<Vec<(usize, EdgeKind)>>,
    /// Every loop in the function, outermost first.
    pub loops: Vec<LoopInfo>,
}

impl Cfg {
    /// Nodes reachable from `starts` along `Seq`/`Back` edges without
    /// expanding any node marked in `stop` (stop nodes are marked
    /// reached but their successors are not explored).
    pub fn reach_avoiding(&self, starts: &[usize], stop: &[bool]) -> Vec<bool> {
        let mut seen = vec![false; self.nodes.len()];
        let mut work: Vec<usize> = Vec::new();
        for &s in starts {
            if !seen[s] {
                seen[s] = true;
                work.push(s);
            }
        }
        while let Some(n) = work.pop() {
            if stop[n] {
                continue;
            }
            for &(t, k) in &self.succs[n] {
                if matches!(k, EdgeKind::Seq | EdgeKind::Back) && !seen[t] {
                    seen[t] = true;
                    work.push(t);
                }
            }
        }
        seen
    }
}

enum Ctl {
    If,
    Match,
    Loop { conditional: bool },
}

/// The earliest control keyword in a statement head, if any.
fn first_control(head: &str) -> Option<Ctl> {
    let mut best: Option<(usize, &str)> = None;
    for w in ["if", "match", "loop", "while", "for"] {
        if let Some(&at) = crate::model::word_hits(head, w).first() {
            if best.is_none_or(|(b, _)| at < b) {
                best = Some((at, w));
            }
        }
    }
    match best?.1 {
        "if" => Some(Ctl::If),
        "match" => Some(Ctl::Match),
        "loop" => Some(Ctl::Loop { conditional: false }),
        _ => Some(Ctl::Loop { conditional: true }),
    }
}

fn term_hits(head: &str, word: &str) -> usize {
    crate::model::word_hits(head, word).len()
}

/// Dangling out-edges waiting for their target: `(source, kind)`.
type Frontier = Vec<(usize, EdgeKind)>;

struct LoopCtx {
    header: usize,
    join: usize,
    continues: Vec<usize>,
}

struct Builder {
    nodes: Vec<Node>,
    succs: Vec<Vec<(usize, EdgeKind)>>,
    loops: Vec<LoopInfo>,
    stack: Vec<LoopCtx>,
    next_block: usize,
}

impl Builder {
    fn node(
        &mut self,
        kind: NodeKind,
        line: usize,
        text: String,
        exempt: bool,
        block: usize,
    ) -> usize {
        self.nodes.push(Node {
            kind,
            line,
            text,
            exempt,
            block_id: block,
        });
        self.succs.push(Vec::new());
        self.nodes.len() - 1
    }

    fn edge(&mut self, from: usize, to: usize, kind: EdgeKind) {
        if !self.succs[from].contains(&(to, kind)) {
            self.succs[from].push((to, kind));
        }
    }

    fn connect(&mut self, frontier: &Frontier, to: usize) {
        for &(n, k) in frontier {
            self.edge(n, to, k);
        }
    }

    /// Build a lexical block: chain its statements, then append a
    /// scope-end node where the block's bindings drop.
    fn block(&mut self, blk: &Block, mut frontier: Frontier) -> Frontier {
        let id = self.next_block;
        self.next_block += 1;
        let mut last_line = 0;
        for stmt in &blk.stmts {
            last_line = stmt.line;
            frontier = self.stmt(stmt, frontier, id).1;
        }
        let s = self.node(NodeKind::ScopeEnd, last_line, String::new(), false, id);
        self.connect(&frontier, s);
        vec![(s, EdgeKind::Seq)]
    }

    /// Build one statement; returns `(head node, out frontier)`.
    fn stmt(&mut self, stmt: &Stmt, frontier: Frontier, block: usize) -> (usize, Frontier) {
        let n = self.node(
            NodeKind::Stmt,
            stmt.line,
            stmt.head.clone(),
            stmt.exempt,
            block,
        );
        self.connect(&frontier, n);
        if stmt.head.contains('?') {
            self.edge(n, EXIT_ERR, EdgeKind::Err);
        }
        let ctl = if stmt.blocks.is_empty() {
            None
        } else {
            first_control(&stmt.head)
        };
        let out = match ctl {
            Some(Ctl::If) => {
                let mut out: Frontier = Vec::new();
                for b in &stmt.blocks {
                    out.extend(self.block(b, vec![(n, EdgeKind::Seq)]));
                }
                // more `if`s than `else`s: some condition can be false
                // with no alternative branch, so the head falls through
                if term_hits(&stmt.head, "if") > term_hits(&stmt.head, "else") {
                    out.push((n, EdgeKind::Seq));
                }
                self.returned(&stmt.head, out)
            }
            Some(Ctl::Match) => {
                let out = self.match_arms(stmt, n);
                self.returned(&stmt.head, out)
            }
            Some(Ctl::Loop { conditional }) => {
                let join = self.node(NodeKind::Join, stmt.line, String::new(), false, block);
                if conditional {
                    self.edge(n, join, EdgeKind::Seq); // condition false
                }
                self.stack.push(LoopCtx {
                    header: n,
                    join,
                    continues: Vec::new(),
                });
                let body_start = self.nodes.len();
                let mut f: Frontier = vec![(n, EdgeKind::Seq)];
                for b in &stmt.blocks {
                    f = self.block(b, f);
                }
                for &(m, _) in &f {
                    self.edge(m, n, EdgeKind::Back);
                }
                let ctx = self.stack.pop().expect("loop context pushed above");
                self.loops.push(LoopInfo {
                    header: n,
                    body: (body_start, self.nodes.len()),
                    join,
                    continues: ctx.continues,
                });
                vec![(join, EdgeKind::Seq)]
            }
            None => {
                // plain statement: inline any bare/binding blocks, then
                // judge terminators on the head
                let mut f: Frontier = vec![(n, EdgeKind::Seq)];
                for b in &stmt.blocks {
                    f = self.block(b, f);
                }
                if term_hits(&stmt.head, "continue") > 0 {
                    if let Some(ctx) = self.stack.last_mut() {
                        ctx.continues.push(n);
                        let header = ctx.header;
                        for &(m, _) in &f.clone() {
                            self.edge(m, header, EdgeKind::Back);
                        }
                        return (n, Vec::new());
                    }
                }
                if term_hits(&stmt.head, "break") > 0 {
                    let target = self.stack.last().map_or(EXIT_OK, |c| c.join);
                    for &(m, _) in &f {
                        self.edge(m, target, EdgeKind::Seq);
                    }
                    return (n, Vec::new());
                }
                if term_hits(&stmt.head, "return") > 0 {
                    let target = if stmt.head.contains("Err(") {
                        EXIT_ERR
                    } else {
                        EXIT_OK
                    };
                    for &(m, _) in &f {
                        self.edge(m, target, EdgeKind::Seq);
                    }
                    return (n, Vec::new());
                }
                f
            }
        };
        (n, out)
    }

    /// `match` arms: the first nested block's statements grouped into
    /// alternatives. Struct patterns split an arm at the pattern braces;
    /// the `=>`-led continuation pieces are chained sequentially behind
    /// the group head (merging alternatives — errs toward silence). A
    /// group whose arrows outnumber its blocks and terminators has at
    /// least one merged expression arm and falls through to the join.
    fn match_arms(&mut self, stmt: &Stmt, n: usize) -> Frontier {
        let arms = &stmt.blocks[0];
        let arm_block = self.next_block;
        self.next_block += 1;
        let mut out: Frontier = Vec::new();
        if arms.stmts.is_empty() {
            out.push((n, EdgeKind::Seq));
        } else {
            let mut groups: Vec<Vec<&Stmt>> = Vec::new();
            for s in &arms.stmts {
                if s.head.trim_start().starts_with("=>") && !groups.is_empty() {
                    groups.last_mut().expect("non-empty checked").push(s);
                } else {
                    groups.push(vec![s]);
                }
            }
            for g in groups {
                let mut f: Frontier = vec![(n, EdgeKind::Seq)];
                for s in g {
                    let (an, nf) = self.stmt(s, f, arm_block);
                    f = nf;
                    let arrows = s.head.matches("=>").count();
                    let terms = term_hits(&s.head, "return")
                        + term_hits(&s.head, "continue")
                        + term_hits(&s.head, "break");
                    if arrows > s.blocks.len() + terms {
                        f.push((an, EdgeKind::Seq)); // merged expression arm
                    }
                }
                out.extend(f);
            }
        }
        for b in &stmt.blocks[1..] {
            out = self.block(b, out);
        }
        out
    }

    /// `return <if/match expr>`: the composite's value leaves the
    /// function — redirect the would-be join frontier to the exit.
    fn returned(&mut self, head: &str, out: Frontier) -> Frontier {
        if term_hits(head, "return") == 0 {
            return out;
        }
        let target = if head.contains("Err(") {
            EXIT_ERR
        } else {
            EXIT_OK
        };
        for &(m, k) in &out {
            self.edge(m, target, k);
        }
        Vec::new()
    }
}

/// Build the CFG for one function, `None` when it has no body.
pub fn build(f: &FnModel) -> Option<Cfg> {
    let body = f.body.as_ref()?;
    let mut b = Builder {
        nodes: Vec::new(),
        succs: Vec::new(),
        loops: Vec::new(),
        stack: Vec::new(),
        next_block: 0,
    };
    for _ in 0..3 {
        b.node(NodeKind::Virtual, 0, String::new(), false, usize::MAX);
    }
    let f = b.block(body, vec![(ENTRY, EdgeKind::Seq)]);
    b.connect(&f, EXIT_OK);
    let mut preds: Vec<Vec<(usize, EdgeKind)>> = vec![Vec::new(); b.nodes.len()];
    for (from, outs) in b.succs.iter().enumerate() {
        for &(to, k) in outs {
            preds[to].push((from, k));
        }
    }
    Some(Cfg {
        nodes: b.nodes,
        succs: b.succs,
        preds,
        loops: b.loops,
    })
}

/// Fixpoint result of a forward may-analysis: per-node bit sets (bit
/// `i` = obligation `i` may be live), capped at 64 obligations per
/// function — beyond that, extra obligations are silently untracked
/// (erring toward silence; no real function comes close).
pub struct Reach {
    /// Facts live on entry to each node.
    pub ins: Vec<u64>,
    /// Facts live on exit from each node (`(IN \ kill) ∪ gen`).
    pub outs: Vec<u64>,
}

/// What an edge of `kind` out of node `p` carries, given the fixpoint.
pub fn edge_set(reach: &Reach, kill: &[u64], p: usize, kind: EdgeKind) -> u64 {
    match kind {
        EdgeKind::Err => reach.ins[p] & !kill[p],
        EdgeKind::Seq | EdgeKind::Back => reach.outs[p],
    }
}

/// Forward may-analysis over the CFG with per-node gen/kill bit sets.
pub fn reach(cfg: &Cfg, gen: &[u64], kill: &[u64]) -> Reach {
    let n = cfg.nodes.len();
    let mut r = Reach {
        ins: vec![0; n],
        outs: vec![0; n],
    };
    loop {
        let mut changed = false;
        for v in 0..n {
            let mut i = 0u64;
            for &(p, k) in &cfg.preds[v] {
                i |= edge_set(&r, kill, p, k);
            }
            let o = (i & !kill[v]) | gen[v];
            if i != r.ins[v] || o != r.outs[v] {
                r.ins[v] = i;
                r.outs[v] = o;
                changed = true;
            }
        }
        if !changed {
            return r;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::file_model;
    use crate::scan::CleanSource;

    fn cfg_of(src: &str) -> Cfg {
        let m = file_model("crates/exec/src/t.rs", &CleanSource::new(src));
        build(&m.fns[0]).expect("fn has a body")
    }

    /// Can control reach `target` from the entry without passing `node`?
    fn bypasses(cfg: &Cfg, node: usize, target: usize) -> bool {
        let mut stop = vec![false; cfg.nodes.len()];
        stop[node] = true;
        cfg.reach_avoiding(&[ENTRY], &stop)[target]
    }

    fn find(cfg: &Cfg, needle: &str) -> usize {
        cfg.nodes
            .iter()
            .position(|n| n.text.contains(needle))
            .unwrap_or_else(|| panic!("no node containing {needle:?}"))
    }

    #[test]
    fn straight_line_flows_entry_to_ok_exit() {
        let cfg = cfg_of("fn f() { a(); b(); }\n");
        let a = find(&cfg, "a()");
        let b = find(&cfg, "b()");
        assert!(cfg.succs[ENTRY].iter().any(|&(t, _)| t == a));
        assert!(cfg.succs[a].iter().any(|&(t, _)| t == b));
        // b -> scope end -> exit ok, and there is no way around either
        assert!(!bypasses(&cfg, a, EXIT_OK));
        assert!(!bypasses(&cfg, b, EXIT_OK));
    }

    #[test]
    fn question_mark_adds_an_err_edge_with_in_minus_kill_semantics() {
        let cfg = cfg_of("fn f() -> Result<(), E> { let x = mk()?; use_it(x)?; Ok(()) }\n");
        let mk = find(&cfg, "mk()");
        let use_it = find(&cfg, "use_it");
        assert!(cfg.succs[mk].contains(&(EXIT_ERR, EdgeKind::Err)));
        // gen x at mk, kill at use_it
        let mut gen = vec![0u64; cfg.nodes.len()];
        let mut kill = vec![0u64; cfg.nodes.len()];
        gen[mk] = 1;
        kill[use_it] = 1;
        let r = reach(&cfg, &gen, &kill);
        // mk's own err edge does not carry the obligation it gens
        assert_eq!(edge_set(&r, &kill, mk, EdgeKind::Err), 0);
        // use_it's err edge has already consumed it
        assert_eq!(edge_set(&r, &kill, use_it, EdgeKind::Err), 0);
        // but it IS live on entry to use_it
        assert_eq!(r.ins[use_it], 1);
    }

    #[test]
    fn if_without_else_falls_through_and_joins() {
        let cfg = cfg_of("fn f(c: bool) { if c { a(); } tail(); }\n");
        let iff = find(&cfg, "if c");
        let a = find(&cfg, "a()");
        let tail = find(&cfg, "tail()");
        assert!(!bypasses(&cfg, iff, tail), "head dominates the join");
        assert!(bypasses(&cfg, a, tail), "branch body does not");
    }

    #[test]
    fn exhaustive_if_else_has_no_fallthrough() {
        let cfg = cfg_of("fn f(c: bool) -> u32 { let v = if c { a() } else { b() }; v }\n");
        let iff = find(&cfg, "if c");
        // every successor of the head is a branch entry, not the join
        let branch_entries: Vec<usize> = cfg.succs[iff]
            .iter()
            .filter(|&&(t, _)| t != EXIT_ERR)
            .map(|&(t, _)| t)
            .collect();
        assert_eq!(branch_entries.len(), 2, "{branch_entries:?}");
        for t in branch_entries {
            assert!(cfg.nodes[t].text.contains("a()") || cfg.nodes[t].text.contains("b()"));
        }
    }

    #[test]
    fn match_arms_are_alternatives_and_merged_arms_fall_through() {
        // block-bodied arms: alternatives; `Ok(x) => x, Err(_) =>` keeps
        // a fallthrough for the merged expression arm
        let src = "\
fn f() -> u32 {
    let v = match mk() {
        Ok(x) => x,
        Err(_) => {
            return 0;
        }
    };
    use_it(v)
}
";
        let cfg = cfg_of(src);
        let arm = find(&cfg, "Ok(x)");
        let use_it = find(&cfg, "use_it");
        assert!(
            !bypasses(&cfg, arm, use_it),
            "the merged success arm is on every path to the tail"
        );
        // the return inside the Err block leaves via EXIT_OK
        let ret = find(&cfg, "return 0");
        assert!(cfg.succs[ret].iter().any(|&(t, _)| t == EXIT_OK));
    }

    #[test]
    fn loops_have_back_edges_and_breaks_reach_the_join() {
        let src = "\
fn f() {
    loop {
        if done() {
            break;
        }
        step();
    }
    after();
}
";
        let cfg = cfg_of(src);
        let brk = find(&cfg, "break");
        let after = find(&cfg, "after");
        assert_eq!(cfg.loops.len(), 1);
        let lp = &cfg.loops[0];
        // break flows to the loop join, which flows onward to after()
        let seen = cfg.reach_avoiding(&[brk], &vec![false; cfg.nodes.len()]);
        assert!(seen[lp.join] && seen[after]);
        // the body's scope end loops back to the header
        assert!(
            cfg.preds[lp.header]
                .iter()
                .any(|&(_, k)| k == EdgeKind::Back),
            "no back edge found"
        );
    }

    #[test]
    fn continue_binds_to_the_innermost_loop() {
        let src = "\
fn f() {
    while let Some(x) = src.next() {
        for y in x.parts() {
            if skip(y) {
                continue;
            }
            eat(y);
        }
        check();
    }
}
";
        let cfg = cfg_of(src);
        let inner = cfg
            .loops
            .iter()
            .find(|l| cfg.nodes[l.header].text.contains("for y"))
            .expect("inner loop");
        assert_eq!(inner.continues.len(), 1);
        let outer = cfg
            .loops
            .iter()
            .find(|l| cfg.nodes[l.header].text.contains("while let"))
            .expect("outer loop");
        assert!(outer.continues.is_empty());
    }

    #[test]
    fn reach_avoiding_stops_at_poll_nodes() {
        let src = "\
fn f(token: &CancelToken) {
    while let Some(r) = src.next() {
        if r.skip() {
            continue;
        }
        poll(Some(token), 1)?;
        eat(r);
    }
}
";
        let cfg = cfg_of(src);
        let lp = &cfg.loops[0];
        let poll = find(&cfg, "poll(Some(token)");
        let cont = find(&cfg, "continue");
        let mut stop = vec![false; cfg.nodes.len()];
        stop[poll] = true;
        let starts: Vec<usize> = cfg.succs[lp.header]
            .iter()
            .filter(|(_, k)| matches!(k, EdgeKind::Seq | EdgeKind::Back))
            .map(|&(t, _)| t)
            .collect();
        let seen = cfg.reach_avoiding(&starts, &stop);
        assert!(seen[cont], "the continue is reachable without the poll");
        let eat = find(&cfg, "eat(r)");
        assert!(!seen[eat], "past the poll is not");
    }

    #[test]
    fn return_err_routes_to_the_err_exit() {
        let cfg = cfg_of("fn f() -> Result<(), E> { if bad() { return Err(E::Bad); } Ok(()) }\n");
        let ret = find(&cfg, "return Err");
        assert!(cfg.succs[ret].iter().any(|&(t, _)| t == EXIT_ERR));
        assert!(!cfg.succs[ret].iter().any(|&(t, _)| t == EXIT_OK));
    }

    #[test]
    fn scope_end_kills_are_block_scoped() {
        // a binding made inside the if-block dies at that block's scope
        // end, not the function's
        let src = "\
fn f(c: bool) {
    if c {
        let x = mk();
        use_it();
    }
    tail();
}
";
        let cfg = cfg_of(src);
        let mk = find(&cfg, "mk()");
        let inner_block = cfg.nodes[mk].block_id;
        let scope_ends: Vec<usize> = cfg
            .nodes
            .iter()
            .enumerate()
            .filter(|(_, n)| n.kind == NodeKind::ScopeEnd && n.block_id == inner_block)
            .map(|(i, _)| i)
            .collect();
        assert_eq!(scope_ends.len(), 1);
        let mut gen = vec![0u64; cfg.nodes.len()];
        let mut kill = vec![0u64; cfg.nodes.len()];
        gen[mk] = 1;
        kill[scope_ends[0]] = 1;
        let r = reach(&cfg, &gen, &kill);
        assert_eq!(r.ins[scope_ends[0]], 1, "live at its scope end");
        let tail = find(&cfg, "tail()");
        assert_eq!(r.ins[tail], 0, "dead past the block");
    }
}
