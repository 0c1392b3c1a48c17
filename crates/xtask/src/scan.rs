//! Comment- and string-aware source scanning.
//!
//! The lints in [`crate::analyze`] work on *cleaned* source: string/char
//! literal contents and comments are blanked out (newlines preserved) so
//! token searches cannot be fooled by text inside them. Rust is lexed
//! just deeply enough for that — nested block comments, raw strings with
//! hashes, byte strings, and the char-literal/lifetime ambiguity.

/// A source file after lexical cleaning, split into lines.
pub struct CleanSource {
    /// The original source lines (attribute matching needs the string
    /// literals that cleaning blanks out).
    pub raw: Vec<String>,
    /// Code text with comments and literal contents blanked.
    pub code: Vec<String>,
}

impl CleanSource {
    /// Clean `src`.
    pub fn new(src: &str) -> CleanSource {
        let chars: Vec<char> = src.chars().collect();
        let n = chars.len();
        let mut code = vec![' '; n];
        for (i, &c) in chars.iter().enumerate() {
            if c == '\n' {
                code[i] = '\n';
            }
        }
        let mut i = 0;
        while i < n {
            let c = chars[i];
            if c == '/' && i + 1 < n && chars[i + 1] == '/' {
                while i < n && chars[i] != '\n' {
                    i += 1;
                }
            } else if c == '/' && i + 1 < n && chars[i + 1] == '*' {
                // block comments nest in Rust
                let mut depth = 1;
                i += 2;
                while i < n && depth > 0 {
                    if chars[i] == '/' && i + 1 < n && chars[i + 1] == '*' {
                        depth += 1;
                        i += 2;
                    } else if chars[i] == '*' && i + 1 < n && chars[i + 1] == '/' {
                        depth -= 1;
                        i += 2;
                    } else {
                        i += 1;
                    }
                }
            } else if c == '"' {
                code[i] = '"';
                i = skip_plain_string(&chars, i + 1, &mut code);
            } else if (c == 'r' || c == 'b') && !prev_is_ident(&chars, i) {
                if let Some(next) = raw_or_byte_literal(&chars, i, &mut code) {
                    i = next;
                } else {
                    code[i] = c;
                    i += 1;
                }
            } else if c == '\'' {
                if i + 1 < n && chars[i + 1] == '\\' {
                    // escaped char literal: '\n', '\u{..}', ...
                    code[i] = '\'';
                    i += 2;
                    while i < n && chars[i] != '\'' {
                        i += 1;
                    }
                    if i < n {
                        code[i] = '\'';
                        i += 1;
                    }
                } else if i + 2 < n && chars[i + 2] == '\'' && chars[i + 1] != '\'' {
                    // plain char literal 'x'
                    code[i] = '\'';
                    code[i + 2] = '\'';
                    i += 3;
                } else {
                    // lifetime
                    code[i] = '\'';
                    i += 1;
                }
            } else {
                code[i] = c;
                i += 1;
            }
        }
        CleanSource {
            raw: src.split('\n').map(str::to_string).collect(),
            code: to_lines(&code),
        }
    }
}

fn prev_is_ident(chars: &[char], i: usize) -> bool {
    i > 0 && (chars[i - 1].is_alphanumeric() || chars[i - 1] == '_')
}

/// Consume a `"..."` body starting *inside* the quotes; blanks content,
/// writes the closing quote through, returns the index after it.
fn skip_plain_string(chars: &[char], mut i: usize, code: &mut [char]) -> usize {
    while i < chars.len() {
        match chars[i] {
            '\\' => i += 2,
            '"' => {
                code[i] = '"';
                return i + 1;
            }
            _ => i += 1,
        }
    }
    i
}

/// Try to consume `r"…"`, `r#"…"#`, `b"…"`, `br#"…"#` or `b'…'` at `i`.
/// Returns the index after the literal, or None if `i` is not one.
fn raw_or_byte_literal(chars: &[char], i: usize, code: &mut [char]) -> Option<usize> {
    let n = chars.len();
    let mut j = i + 1;
    let mut raw = chars[i] == 'r';
    if chars[i] == 'b' && j < n && chars[j] == 'r' {
        raw = true;
        j += 1;
    }
    if chars[i] == 'b' && j < n && chars[j] == '\'' {
        // byte char literal b'x' / b'\n'
        j += 1;
        if j < n && chars[j] == '\\' {
            j += 1;
        }
        while j < n && chars[j] != '\'' {
            j += 1;
        }
        return Some((j + 1).min(n));
    }
    if raw {
        let mut hashes = 0;
        while j < n && chars[j] == '#' {
            hashes += 1;
            j += 1;
        }
        if j >= n || chars[j] != '"' {
            return None;
        }
        j += 1;
        // end: `"` followed by `hashes` hashes
        while j < n {
            if chars[j] == '"'
                && chars[j + 1..]
                    .iter()
                    .take(hashes)
                    .filter(|&&c| c == '#')
                    .count()
                    == hashes
            {
                return Some(j + 1 + hashes);
            }
            j += 1;
        }
        return Some(n);
    }
    if chars[i] == 'b' && j < n && chars[j] == '"' {
        code[j] = '"';
        return Some(skip_plain_string(chars, j + 1, code));
    }
    None
}

fn to_lines(chars: &[char]) -> Vec<String> {
    let s: String = chars.iter().collect();
    s.split('\n').map(str::to_string).collect()
}

/// `haystack` contains `tok` at an identifier boundary — so
/// `File::create(` does not fire on `HeapFile::create(`.
pub fn has_token(haystack: &str, tok: &str) -> bool {
    let mut from = 0;
    while let Some(p) = haystack[from..].find(tok) {
        let at = from + p;
        let bounded = !tok.starts_with(|c: char| c.is_alphanumeric() || c == '_')
            || !haystack[..at]
                .chars()
                .next_back()
                .is_some_and(|c| c.is_alphanumeric() || c == '_');
        if bounded {
            return true;
        }
        from = at + tok.len();
    }
    false
}

/// Mark every line belonging to an item gated by an attribute whose
/// (whitespace-trimmed) text starts with one of `prefixes` — e.g.
/// `#[cfg(test)] mod tests { … }` marks the whole module body.
///
/// Attributes are matched against the **raw** lines (cleaning blanks the
/// string literals inside `#[cfg(feature = "…")]`); the item extent is
/// then found on the cleaned code by scanning forward for the first `{`
/// (then brace-matching) or a `;` at depth 0 (attribute on a braceless
/// item like a `use`, or a gated statement).
pub fn gated_regions(cs: &CleanSource, prefixes: &[&str]) -> Vec<bool> {
    let code = &cs.code;
    let mut gated = vec![false; code.len()];
    for (li, raw_line) in cs.raw.iter().enumerate() {
        let t = raw_line.trim_start();
        if !prefixes.iter().any(|p| t.starts_with(p)) {
            continue;
        }
        // scan forward from the end of this attribute line
        let mut depth = 0usize;
        let mut entered = false;
        'scan: for (lj, l) in code.iter().enumerate().skip(li) {
            let body = if lj == li {
                // skip past the attribute itself: start after its `]`
                match l.find(']') {
                    Some(p) => &l[p + 1..],
                    None => l.as_str(),
                }
            } else {
                l.as_str()
            };
            gated[lj] = true;
            for c in body.chars() {
                match c {
                    '{' => {
                        depth += 1;
                        entered = true;
                    }
                    '}' => {
                        depth = depth.saturating_sub(1);
                        if entered && depth == 0 {
                            break 'scan;
                        }
                    }
                    ';' if !entered && depth == 0 => break 'scan,
                    _ => {}
                }
            }
        }
    }
    gated
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strings_and_comments_are_blanked() {
        let cs = CleanSource::new(
            "let s = \"panic!(x) .unwrap()\"; // .unwrap() here too\nlet t = r#\"std::fs\"#;\n/* .expect( */ let u = 'x';",
        );
        let joined = cs.code.join("\n");
        assert!(!joined.contains("panic!"));
        assert!(!joined.contains("unwrap"));
        assert!(!joined.contains("std::fs"));
        assert!(!joined.contains("expect"));
        assert!(joined.contains("let s"));
        assert!(joined.contains("let u"));
    }

    #[test]
    fn lifetimes_do_not_eat_code() {
        let cs = CleanSource::new("fn f<'a>(x: &'a str) -> &'a str { x.unwrap() }");
        assert!(cs.code[0].contains(".unwrap()"));
    }

    #[test]
    fn cfg_test_region_is_marked() {
        let src = "\
fn hot() { x.unwrap(); }
#[cfg(test)]
mod tests {
    fn t() { y.unwrap(); }
}
fn hot2() {}
";
        let cs = CleanSource::new(src);
        let gated = gated_regions(&cs, &["#[cfg(test)]"]);
        assert_eq!(gated, vec![false, true, true, true, true, false, false]);
    }

    #[test]
    fn gated_statement_and_braceless_item() {
        let src = "\
#[cfg(feature = \"check-invariants\")]
if bad { panic!(\"boom\"); }
#[cfg(test)]
use foo::bar;
fn live() {}
";
        let cs = CleanSource::new(src);
        let gated = gated_regions(
            &cs,
            &["#[cfg(feature = \"check-invariants\")]", "#[cfg(test)]"],
        );
        assert_eq!(gated, vec![true, true, true, true, false, false]);
    }
}
