//! SARIF 2.1.0 rendering of lint findings, for GitHub code scanning.
//!
//! Hand-rolled JSON (the workspace is dependency-free): a single run
//! with one rule per distinct lint id and one result per finding.
//! Uploaded by CI via `github/codeql-action/upload-sarif`, which turns
//! each result into an inline PR annotation at `file:line`.

use crate::analyze::Finding;
use std::collections::BTreeMap;

/// Per-lint one-line help text, embedded as the rule description and
/// printed by `cargo xtask analyze --explain <rule-id>`.
pub fn rule_help(lint: &str) -> &'static str {
    match lint {
        "lock-across-io" => "Mutex guards must not be held across disk I/O calls.",
        "cancel-liveness" => {
            "Record-driven loops on cancellable paths must poll CancelToken, directly or via a callee whose own body polls."
        }
        _ => "Workspace lint.",
    }
}

/// Every rule id `--explain` accepts, in rendering order.
pub const RULE_IDS: &[&str] = &["lock-across-io", "cancel-liveness"];

/// Render `findings` as a SARIF 2.1.0 document.
pub fn render(findings: &[Finding]) -> String {
    let mut rules: BTreeMap<&str, usize> = findings.iter().map(|f| (f.lint, 0)).collect();
    for (i, (_, idx)) in rules.iter_mut().enumerate() {
        *idx = i;
    }
    let mut out = String::with_capacity(1024 + findings.len() * 256);
    out.push_str("{\n");
    out.push_str("  \"$schema\": \"https://json.schemastore.org/sarif-2.1.0.json\",\n");
    out.push_str("  \"version\": \"2.1.0\",\n");
    out.push_str("  \"runs\": [\n    {\n");
    out.push_str("      \"tool\": {\n        \"driver\": {\n");
    out.push_str("          \"name\": \"skyline-xtask-analyze\",\n");
    out.push_str("          \"informationUri\": \"https://github.com/\",\n");
    out.push_str("          \"rules\": [\n");
    for (i, (lint, _)) in rules.iter().enumerate() {
        out.push_str(&format!(
            "            {{\"id\": {}, \"shortDescription\": {{\"text\": {}}}}}{}\n",
            json_string(lint),
            json_string(rule_help(lint)),
            if i + 1 < rules.len() { "," } else { "" }
        ));
    }
    out.push_str("          ]\n        }\n      },\n");
    out.push_str("      \"results\": [\n");
    for (i, f) in findings.iter().enumerate() {
        out.push_str(&format!(
            "        {{\"ruleId\": {}, \"ruleIndex\": {}, \"level\": \"error\", \"message\": {{\"text\": {}}}, \"locations\": [{{\"physicalLocation\": {{\"artifactLocation\": {{\"uri\": {}}}, \"region\": {{\"startLine\": {}}}}}}}]}}{}\n",
            json_string(f.lint),
            rules[f.lint],
            json_string(&f.excerpt),
            json_string(&f.file),
            f.line,
            if i + 1 < findings.len() { "," } else { "" }
        ));
    }
    out.push_str("      ]\n    }\n  ]\n}\n");
    out
}

/// JSON string literal with the mandatory escapes.
fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Vec<Finding> {
        vec![
            Finding {
                lint: "cancel-liveness",
                file: "crates/exec/src/op.rs".to_string(),
                line: 42,
                excerpt: "loop in `drain` starves on the \"error\" path".to_string(),
            },
            Finding {
                lint: "lock-across-io",
                file: "crates/storage/src/buffer.rs".to_string(),
                line: 7,
                excerpt: "guard of `a \\ b` is held".to_string(),
            },
        ]
    }

    #[test]
    fn document_shape_and_counts() {
        let doc = render(&sample());
        assert!(doc.contains("\"version\": \"2.1.0\""));
        assert_eq!(doc.matches("\"ruleId\"").count(), 2);
        assert_eq!(doc.matches("\"shortDescription\"").count(), 2, "two rules");
        assert!(doc.contains("\"startLine\": 42"));
        assert!(doc.contains("crates/exec/src/op.rs"));
    }

    #[test]
    fn json_escaping_is_applied() {
        let doc = render(&sample());
        assert!(doc.contains("\\\"error\\\""), "quotes escaped");
        assert!(doc.contains("a \\\\ b"), "backslash escaped");
    }

    #[test]
    fn braces_and_brackets_balance() {
        let doc = render(&sample());
        let open = doc.matches('{').count() - doc.matches("\\u{").count();
        assert_eq!(open, doc.matches('}').count());
        assert_eq!(doc.matches('[').count(), doc.matches(']').count());
        // structural quote count is even (escaped quotes excluded)
        let quotes = doc.replace("\\\"", "").matches('"').count();
        assert_eq!(quotes % 2, 0);
    }

    #[test]
    fn every_registered_rule_id_has_real_help() {
        for id in RULE_IDS {
            assert_ne!(rule_help(id), "Workspace lint.", "{id} lacks help text");
        }
    }

    #[test]
    fn every_lint_has_a_distinct_rule() {
        let lints = RULE_IDS;
        let findings: Vec<Finding> = lints
            .iter()
            .map(|l| Finding {
                lint: l,
                file: "crates/core/src/lib.rs".to_string(),
                line: 1,
                excerpt: "x".to_string(),
            })
            .collect();
        let doc = render(&findings);
        for l in lints {
            assert!(doc.contains(&format!("\"id\": \"{l}\"")), "{l} rule id");
        }
        // each lint carries its own help text, not the fallback
        assert_eq!(doc.matches("Workspace lint.").count(), 0);
    }

    #[test]
    fn empty_findings_still_render_a_valid_run() {
        let doc = render(&[]);
        assert!(doc.contains("\"results\": [\n      ]"));
        assert!(doc.contains("skyline-xtask-analyze"));
    }
}
