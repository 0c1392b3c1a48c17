//! AST-lite workspace model for the dataflow lints of [`crate::analyze`].
//!
//! `syn` is not available offline, so this module parses the *cleaned*
//! source of [`crate::scan::CleanSource`] (comments and literal contents
//! already blanked) just deeply enough to recover the structure the
//! dataflow lints need: every function item (name, signature, whether it
//! is test-gated) with its body as a tree of
//! statements, where each statement records the text outside nested
//! braces (`head`) and the nested blocks themselves. That is enough to
//! do scoped, statement-ordered reasoning — track a binding from its
//! `let`, see which later statements mention or consume it, know when
//! its block scope ends.

use crate::scan::{gated_regions, CleanSource};

/// Attribute prefixes whose gated items the lints ignore: tests, and the
/// `check-invariants` auditor (whose *job* is to panic).
const EXEMPT_GATES: &[&str] = &[
    "#[cfg(test)]",
    "#[cfg(all(test",
    "#[test]",
    "#[cfg(feature = \"check-invariants\")]",
    "#[cfg(all(test, feature = \"check-invariants\"))]",
];

/// One parsed source file.
pub struct FileModel {
    /// Workspace-relative path.
    pub path: String,
    /// Every function item found, in source order (including methods in
    /// `impl`/`trait` blocks and functions in nested modules).
    pub fns: Vec<FnModel>,
}

/// One function item.
pub struct FnModel {
    /// Function name.
    pub name: String,
    /// 1-based line of the `fn` keyword. Part of the model surface for
    /// future lints; only tests read it today.
    #[allow(dead_code)]
    pub line: usize,
    /// Declaration text from `fn` up to the body `{` or the `;`.
    pub sig: String,
    /// Declared `pub` (any visibility qualifier). Model surface for
    /// future lints; only tests read it today.
    #[allow(dead_code)]
    pub is_pub: bool,
    /// Inside a `#[cfg(test)]`/`#[test]`-gated region.
    pub is_test: bool,
    /// The body; `None` for trait-method signatures.
    pub body: Option<Block>,
}

/// A `{ … }` block: an ordered list of statements.
#[derive(Default)]
pub struct Block {
    /// Statements in source order; a trailing tail expression is the
    /// last statement.
    pub stmts: Vec<Stmt>,
}

/// One statement (or tail expression).
pub struct Stmt {
    /// 1-based line of the statement's first token (for attributes
    /// attached to a statement, the attribute's line).
    pub line: usize,
    /// Statement text *outside* nested `{}` blocks. Text inside
    /// parentheses/brackets — call arguments, struct literals in
    /// argument position, inline closures — stays in the head.
    pub head: String,
    /// Nested blocks (`if`/`match`/`loop` bodies, block expressions), in
    /// order of appearance.
    pub blocks: Vec<Block>,
    /// Line-gated exemption (test/auditor attribute on this statement).
    pub exempt: bool,
}

impl Stmt {
    /// The statement's full text: head plus every nested block,
    /// recursively, space-joined.
    pub fn text_all(&self) -> String {
        let mut out = self.head.clone();
        for b in &self.blocks {
            for s in &b.stmts {
                out.push(' ');
                out.push_str(&s.text_all());
            }
        }
        out
    }
}

/// Parse one cleaned file into its function model.
pub fn file_model(path: &str, cs: &CleanSource) -> FileModel {
    let text: Vec<char> = cs.code.join("\n").chars().collect();
    let mut line_of = Vec::with_capacity(text.len() + 1);
    let mut line = 1usize;
    for &c in &text {
        line_of.push(line);
        if c == '\n' {
            line += 1;
        }
    }
    line_of.push(line);
    let exempt = gated_regions(cs, EXEMPT_GATES);
    let mut p = Parser {
        text,
        line_of,
        exempt,
        fns: Vec::new(),
    };
    let end = p.text.len();
    p.items(0, end, false);
    FileModel {
        path: to_owned_path(path),
        fns: p.fns,
    }
}

fn to_owned_path(path: &str) -> String {
    path.to_string()
}

struct Parser {
    text: Vec<char>,
    line_of: Vec<usize>,
    exempt: Vec<bool>,
    fns: Vec<FnModel>,
}

fn is_ident(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
}

impl Parser {
    fn line_at(&self, i: usize) -> usize {
        self.line_of[i.min(self.line_of.len() - 1)]
    }

    fn exempt_at(&self, i: usize) -> bool {
        let li = self.line_at(i) - 1;
        self.exempt.get(li).copied().unwrap_or(false)
    }

    /// Read the identifier starting at `i`, if any.
    fn word_at(&self, i: usize) -> Option<(String, usize)> {
        if i >= self.text.len() || !is_ident(self.text[i]) || self.text[i].is_numeric() {
            return None;
        }
        let mut j = i;
        while j < self.text.len() && is_ident(self.text[j]) {
            j += 1;
        }
        Some((self.text[i..j].iter().collect(), j))
    }

    /// Skip a balanced `{ … }` starting at the `{` at `i`; returns the
    /// index after the closing brace.
    fn skip_braces(&self, i: usize) -> usize {
        let mut depth = 0usize;
        let mut j = i;
        while j < self.text.len() {
            match self.text[j] {
                '{' => depth += 1,
                '}' => {
                    depth -= 1;
                    if depth == 0 {
                        return j + 1;
                    }
                }
                _ => {}
            }
            j += 1;
        }
        j
    }

    /// Item-level scan of `[i, end)`; `in_test` marks a file-wide test
    /// context.
    fn items(&mut self, mut i: usize, end: usize, in_test: bool) {
        let mut is_pub = false;
        while i < end {
            let c = self.text[i];
            if c == '#' {
                // attribute: skip its balanced brackets
                let mut j = i + 1;
                if j < end && self.text[j] == '!' {
                    j += 1;
                }
                if j < end && self.text[j] == '[' {
                    let mut depth = 0usize;
                    while j < end {
                        match self.text[j] {
                            '[' => depth += 1,
                            ']' => {
                                depth -= 1;
                                if depth == 0 {
                                    break;
                                }
                            }
                            _ => {}
                        }
                        j += 1;
                    }
                }
                i = j + 1;
                continue;
            }
            if let Some((w, after)) = self.word_at(i) {
                match w.as_str() {
                    "pub" => {
                        is_pub = true;
                        // visibility qualifier `pub(crate)` etc.
                        let mut j = after;
                        while j < end && self.text[j] == ' ' {
                            j += 1;
                        }
                        if j < end && self.text[j] == '(' {
                            let mut depth = 0usize;
                            while j < end {
                                match self.text[j] {
                                    '(' => depth += 1,
                                    ')' => {
                                        depth -= 1;
                                        if depth == 0 {
                                            break;
                                        }
                                    }
                                    _ => {}
                                }
                                j += 1;
                            }
                            i = j + 1;
                        } else {
                            i = after;
                        }
                        continue;
                    }
                    "fn" => {
                        i = self.parse_fn(i, end, is_pub, in_test);
                        is_pub = false;
                        continue;
                    }
                    "impl" | "mod" | "trait" => {
                        // header up to the `{` (or `;` for `mod x;`)
                        let mut j = after;
                        while j < end && self.text[j] != '{' && self.text[j] != ';' {
                            j += 1;
                        }
                        if j < end && self.text[j] == '{' {
                            let body_end = self.skip_braces(j);
                            let test = in_test || self.exempt_at(i);
                            self.items(j + 1, body_end - 1, test);
                            i = body_end;
                        } else {
                            i = j + 1;
                        }
                        is_pub = false;
                        continue;
                    }
                    "struct" | "enum" | "union" | "macro_rules" => {
                        // skip to the end of the item: first `{…}` or `;`
                        let mut j = after;
                        while j < end && self.text[j] != '{' && self.text[j] != ';' {
                            j += 1;
                        }
                        i = if j < end && self.text[j] == '{' {
                            self.skip_braces(j)
                        } else {
                            j + 1
                        };
                        is_pub = false;
                        continue;
                    }
                    _ => {
                        i = after;
                        continue;
                    }
                }
            }
            if c == '{' {
                // stray block at item level (e.g. `static X: T = T { .. };`
                // initializers) — skip balanced
                i = self.skip_braces(i);
                continue;
            }
            i += 1;
        }
    }

    /// Parse `fn …` starting at the `fn` keyword at `i`.
    fn parse_fn(&mut self, i: usize, end: usize, is_pub: bool, in_test: bool) -> usize {
        let decl_line = self.line_at(i);
        let mut j = i + 2;
        while j < end && !is_ident(self.text[j]) {
            j += 1;
        }
        let (name, after_name) = match self.word_at(j) {
            Some(x) => x,
            None => return j,
        };
        // signature: up to the body `{` or a `;`, skipping nested parens
        let mut sig = String::from("fn ");
        sig.push_str(&name);
        let mut k = after_name;
        let mut pd = 0usize;
        while k < end {
            match self.text[k] {
                '(' | '[' => pd += 1,
                ')' | ']' => pd = pd.saturating_sub(1),
                '{' if pd == 0 => break,
                ';' if pd == 0 => {
                    self.fns.push(FnModel {
                        name,
                        line: decl_line,
                        sig,
                        is_pub,
                        is_test: in_test || self.exempt_at(i),
                        body: None,
                    });
                    return k + 1;
                }
                _ => {}
            }
            sig.push(self.text[k]);
            k += 1;
        }
        if k >= end {
            return k;
        }
        let (body, next) = self.parse_block(k);
        self.fns.push(FnModel {
            name,
            line: decl_line,
            sig,
            is_pub,
            is_test: in_test || self.exempt_at(i),
            body: Some(body),
        });
        next
    }

    /// Parse the block whose `{` is at `i`; returns it and the index
    /// after its closing `}`.
    #[allow(unused_assignments)] // flush! resets state past the final flush
    fn parse_block(&mut self, i: usize) -> (Block, usize) {
        let mut block = Block::default();
        let mut head = String::new();
        let mut blocks = Vec::new();
        let mut stmt_line = 0usize;
        let mut stmt_exempt = false;
        let mut pd = 0usize; // paren/bracket depth — braces inside stay in head
        let mut ibd = 0usize; // brace depth while pd > 0
        let mut j = i + 1;

        macro_rules! flush {
            () => {
                if !head.trim().is_empty() || !blocks.is_empty() {
                    block.stmts.push(Stmt {
                        line: if stmt_line == 0 {
                            self.line_at(j)
                        } else {
                            stmt_line
                        },
                        head: std::mem::take(&mut head),
                        blocks: std::mem::take(&mut blocks),
                        exempt: stmt_exempt,
                    });
                } else {
                    head.clear();
                    blocks.clear();
                }
                stmt_line = 0;
                stmt_exempt = false;
            };
        }

        while j < self.text.len() {
            let c = self.text[j];
            if stmt_line == 0 && !c.is_whitespace() && c != '}' {
                stmt_line = self.line_at(j);
                stmt_exempt = self.exempt_at(j);
            }
            match c {
                '(' | '[' if ibd == 0 => {
                    pd += 1;
                    head.push(c);
                    j += 1;
                }
                ')' | ']' if ibd == 0 => {
                    pd = pd.saturating_sub(1);
                    head.push(c);
                    j += 1;
                }
                '{' if pd == 0 && ibd == 0 => {
                    let (inner, next) = self.parse_block(j);
                    blocks.push(inner);
                    j = next;
                    // does the statement continue past the block?
                    let mut k = j;
                    while k < self.text.len() && self.text[k].is_whitespace() {
                        k += 1;
                    }
                    match self.text.get(k) {
                        Some(';') => {
                            flush!();
                            j = k + 1;
                        }
                        Some('.') | Some('?') => {}
                        _ => {
                            if self.word_at(k).is_some_and(|(w, _)| w == "else") {
                                head.push_str(" else ");
                                j = k + 4;
                            } else {
                                flush!();
                            }
                        }
                    }
                }
                '{' => {
                    ibd += 1;
                    head.push(c);
                    j += 1;
                }
                '}' if ibd > 0 => {
                    ibd -= 1;
                    head.push(c);
                    j += 1;
                }
                '}' => {
                    flush!();
                    return (block, j + 1);
                }
                ';' if pd == 0 && ibd == 0 => {
                    head.push(';');
                    flush!();
                    j += 1;
                }
                _ => {
                    head.push(c);
                    j += 1;
                }
            }
        }
        flush!();
        (block, j)
    }
}

/// Whole-word occurrence search: `name` in `text` at identifier
/// boundaries, returning the byte offset of each hit.
pub fn word_hits(text: &str, name: &str) -> Vec<usize> {
    let bytes = text.as_bytes();
    let mut out = Vec::new();
    let mut from = 0;
    while let Some(p) = text[from..].find(name) {
        let at = from + p;
        let before_ok = at == 0 || !is_ident(bytes[at - 1] as char);
        let after = at + name.len();
        let after_ok = after >= bytes.len() || !is_ident(bytes[after] as char);
        if before_ok && after_ok {
            out.push(at);
        }
        from = at + name.len();
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model(src: &str) -> FileModel {
        file_model("crates/demo/src/lib.rs", &CleanSource::new(src))
    }

    #[test]
    fn functions_and_methods_are_found() {
        let src = "\
pub fn free() -> u8 { 1 }
mod inner {
    fn hidden(x: usize) { let y = x; }
}
struct S { field: u8 }
impl S {
    pub(crate) fn method(&self) -> Result<u8, String> { Ok(self.field) }
}
trait T {
    fn provided(&self) { }
    fn required(&self) -> u8;
}
";
        let m = model(src);
        let names: Vec<&str> = m.fns.iter().map(|f| f.name.as_str()).collect();
        assert_eq!(
            names,
            vec!["free", "hidden", "method", "provided", "required"]
        );
        assert!(m.fns[0].is_pub);
        assert!(!m.fns[1].is_pub);
        assert!(m.fns[2].is_pub, "pub(crate) counts as pub");
        assert!(m.fns[4].body.is_none(), "trait signature has no body");
        assert_eq!(m.fns[0].line, 1);
        assert_eq!(m.fns[1].line, 3);
    }

    #[test]
    fn statements_split_and_nest() {
        let src = "\
fn f(x: u8) -> u8 {
    let a = g(x, h(1));
    if a > 0 {
        let b = a;
        use_it(b);
    } else {
        other();
    }
    a
}
";
        let m = model(src);
        let body = m.fns[0].body.as_ref().unwrap();
        assert_eq!(body.stmts.len(), 3, "let / if-else / tail");
        assert!(body.stmts[0].head.contains("let a = g(x, h(1))"));
        assert_eq!(body.stmts[1].blocks.len(), 2, "then + else blocks");
        assert_eq!(body.stmts[1].blocks[0].stmts.len(), 2);
        assert_eq!(body.stmts[2].head.trim(), "a", "tail expression");
        assert!(body.stmts[1].text_all().contains("use_it(b)"));
        assert_eq!(body.stmts[0].line, 2);
        assert_eq!(body.stmts[1].line, 3);
    }

    #[test]
    fn struct_literals_in_args_stay_in_head() {
        let src = "fn f() -> S { mk(S { a: 1, b: 2 }, 3) }\n";
        let m = model(src);
        let body = m.fns[0].body.as_ref().unwrap();
        assert_eq!(body.stmts.len(), 1);
        assert!(body.stmts[0].head.contains("S { a: 1, b: 2 }"));
        assert!(body.stmts[0].blocks.is_empty());
    }

    #[test]
    fn block_expression_statements_continue_with_question_mark() {
        let src = "\
fn f() -> Result<u8, E> {
    let v = { inner()? };
    match v { 0 => a(), _ => b() }?;
    Ok(v)
}
";
        let m = model(src);
        let body = m.fns[0].body.as_ref().unwrap();
        assert_eq!(body.stmts.len(), 3);
        assert!(body.stmts[0].text_all().contains("inner()?"));
        assert!(body.stmts[1].head.contains('?'), "post-block ? kept");
    }

    #[test]
    fn test_gates_are_marked() {
        let src = "\
impl Drop for Guard {
    fn drop(&mut self) { let _ = cleanup(); }
}
#[cfg(test)]
mod tests {
    fn helper() { x.unwrap(); }
    #[test]
    fn case() { helper(); }
}
fn live() {}
";
        let m = model(src);
        assert!(!m.fns.iter().find(|f| f.name == "drop").unwrap().is_test);
        assert!(m.fns.iter().find(|f| f.name == "helper").unwrap().is_test);
        assert!(m.fns.iter().find(|f| f.name == "case").unwrap().is_test);
        assert!(!m.fns.iter().find(|f| f.name == "live").unwrap().is_test);
    }

    #[test]
    fn closures_inside_calls_stay_in_one_statement() {
        let src = "\
fn f() {
    let out = items.iter().map(|x| { let y = x + 1; y }).collect::<Vec<_>>();
    done(out);
}
";
        let m = model(src);
        let body = m.fns[0].body.as_ref().unwrap();
        assert_eq!(body.stmts.len(), 2);
        assert!(body.stmts[0].head.contains("let y = x + 1"));
    }

    #[test]
    fn word_hits_respects_boundaries() {
        assert_eq!(word_hits("out outer out2 (out)", "out"), vec![0, 16]);
        assert!(word_hits("shout", "out").is_empty());
    }

    #[test]
    fn exempt_statement_inside_live_fn() {
        let src = "\
fn hot() {
    work();
    #[cfg(feature = \"check-invariants\")]
    audit();
    more();
}
";
        let m = model(src);
        let body = m.fns[0].body.as_ref().unwrap();
        assert_eq!(body.stmts.len(), 3);
        assert!(!body.stmts[0].exempt);
        assert!(body.stmts[1].exempt, "gated statement is exempt");
        assert!(!body.stmts[2].exempt);
    }
}
