//! Machine-readable findings output (`--json`) and the warn-tier baseline
//! ratchet (`lint-baseline.json`, `--bless-baseline`).
//!
//! The document shape (schema 1):
//!
//! ```json
//! {
//!   "schema": 1,
//!   "files_scanned": 123,
//!   "findings": [
//!     {"rule": "lock-order", "tier": "warn", "path": "crates/x/src/a.rs",
//!      "line": 10, "col": 5, "message": "…"}
//!   ]
//! }
//! ```
//!
//! Findings are sorted by (rule, path, line, col, message) — a stable order
//! so diffs of the baseline and of `--json` output are meaningful.
//!
//! The ratchet compares the *current* warn-tier findings against the
//! checked-in baseline by `(rule, path)` occurrence counts, deliberately
//! ignoring line numbers and message text: unrelated edits move lines and
//! witness paths around, and the ratchet should only trip when a new
//! violation appears (or an existing one multiplies). `--bless-baseline`
//! rewrites the file from the current findings.
//!
//! Documents are read back with the workspace's one JSON reader,
//! `egeria_obs::jsonl::parse` (egeria-obs is itself dependency-free, so
//! the lint still builds from nothing but this workspace).

use crate::rules::{Finding, Tier};
use egeria_obs::jsonl::{parse, Value};
use std::collections::BTreeMap;

/// Stable sort used for JSON output and the baseline: rule, file, line.
pub fn stable_sort(findings: &mut [Finding]) {
    findings.sort_by(|a, b| {
        (a.rule, a.path.as_str(), a.line, a.col, a.message.as_str())
            .cmp(&(b.rule, b.path.as_str(), b.line, b.col, b.message.as_str()))
    });
}

fn escape(s: &str, out: &mut String) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
}

/// Renders the findings document. `findings` is sorted in place first.
pub fn render(findings: &mut [Finding], files_scanned: usize) -> String {
    stable_sort(findings);
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str("  \"schema\": 1,\n");
    out.push_str(&format!("  \"files_scanned\": {files_scanned},\n"));
    out.push_str("  \"findings\": [");
    for (i, f) in findings.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("\n    {\"rule\": \"");
        escape(f.rule, &mut out);
        out.push_str("\", \"tier\": \"");
        out.push_str(f.tier.as_str());
        out.push_str("\", \"path\": \"");
        escape(&f.path, &mut out);
        out.push_str(&format!("\", \"line\": {}, \"col\": {}, \"message\": \"", f.line, f.col));
        escape(&f.message, &mut out);
        out.push_str("\"}");
    }
    if !findings.is_empty() {
        out.push_str("\n  ");
    }
    out.push_str("]\n}\n");
    out
}

/// Renders the warn-tier subset of `findings` as a baseline document.
/// `files_scanned` is omitted so the baseline only changes when the warn
/// findings themselves do — adding an unrelated file never dirties it.
pub fn render_baseline(findings: &[Finding]) -> String {
    let mut warn: Vec<Finding> = findings
        .iter()
        .filter(|f| f.tier == Tier::Warn)
        .cloned()
        .collect();
    stable_sort(&mut warn);
    let mut out = String::new();
    out.push_str("{\n  \"schema\": 1,\n  \"findings\": [");
    for (i, f) in warn.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("\n    {\"rule\": \"");
        escape(f.rule, &mut out);
        out.push_str("\", \"tier\": \"warn\", \"path\": \"");
        escape(&f.path, &mut out);
        out.push_str(&format!("\", \"line\": {}, \"col\": {}, \"message\": \"", f.line, f.col));
        escape(&f.message, &mut out);
        out.push_str("\"}");
    }
    if !warn.is_empty() {
        out.push_str("\n  ");
    }
    out.push_str("]\n}\n");
    out
}

/// One baseline entry, as parsed back from disk.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BaselineEntry {
    pub rule: String,
    pub path: String,
}

/// Parses a findings/baseline document, returning the `(rule, path)` of
/// every finding in it.
pub fn parse_baseline(src: &str) -> Result<Vec<BaselineEntry>, String> {
    let doc = parse(src)?;
    let findings = doc
        .get("findings")
        .ok_or("baseline: missing \"findings\" array")?
        .as_arr()
        .ok_or("baseline: \"findings\" must be an array")?;
    let mut out = Vec::new();
    for f in findings {
        let field = |k: &str| -> Result<String, String> {
            f.get(k)
                .and_then(Value::as_str)
                .map(str::to_string)
                .ok_or_else(|| format!("baseline: finding missing string field \"{k}\""))
        };
        out.push(BaselineEntry {
            rule: field("rule")?,
            path: field("path")?,
        });
    }
    Ok(out)
}

/// Warn-tier findings not covered by the baseline: every `(rule, path)`
/// occurrence beyond the baselined count is new.
pub fn new_warn_findings<'a>(
    findings: &'a [Finding],
    baseline: &[BaselineEntry],
) -> Vec<&'a Finding> {
    let mut budget: BTreeMap<(String, String), usize> = BTreeMap::new();
    for b in baseline {
        *budget.entry((b.rule.clone(), b.path.clone())).or_default() += 1;
    }
    let mut fresh = Vec::new();
    for f in findings {
        if f.tier != Tier::Warn {
            continue;
        }
        let key = (f.rule.to_string(), f.path.clone());
        match budget.get_mut(&key) {
            Some(n) if *n > 0 => *n -= 1,
            _ => fresh.push(f),
        }
    }
    fresh
}

#[cfg(test)]
mod tests {
    use super::*;

    fn finding(rule: &'static str, tier: Tier, path: &str, line: u32) -> Finding {
        Finding {
            rule,
            tier,
            path: path.to_string(),
            line,
            col: 1,
            message: format!("msg for {rule} at {path}:{line} \"quoted\""),
        }
    }

    #[test]
    fn render_then_parse_round_trips() {
        let mut findings = vec![
            finding("lock-order", Tier::Warn, "crates/b.rs", 9),
            finding("lock-order", Tier::Warn, "crates/a.rs", 3),
            finding("unjoined-spawn", Tier::Deny, "crates/a.rs", 1),
        ];
        let doc = render(&mut findings, 42);
        // Stable sort: rule, then path, then line.
        assert_eq!(findings[0].path, "crates/a.rs");
        assert_eq!(findings[1].path, "crates/b.rs");
        assert_eq!(findings[2].rule, "unjoined-spawn");
        let parsed = parse_baseline(&doc).unwrap();
        assert_eq!(parsed.len(), 3);
        assert_eq!(parsed[0].rule, "lock-order");
        assert_eq!(parsed[0].path, "crates/a.rs");
    }

    #[test]
    fn ratchet_matches_by_rule_path_counts() {
        let baseline = vec![BaselineEntry {
            rule: "lock-order".into(),
            path: "crates/a.rs".into(),
        }];
        // Same (rule, path), different line: covered by the baseline.
        let moved = vec![finding("lock-order", Tier::Warn, "crates/a.rs", 99)];
        assert!(new_warn_findings(&moved, &baseline).is_empty());
        // A second occurrence in the same file is new.
        let doubled = vec![
            finding("lock-order", Tier::Warn, "crates/a.rs", 1),
            finding("lock-order", Tier::Warn, "crates/a.rs", 2),
        ];
        assert_eq!(new_warn_findings(&doubled, &baseline).len(), 1);
        // A different file is new.
        let other = vec![finding("lock-order", Tier::Warn, "crates/b.rs", 1)];
        assert_eq!(new_warn_findings(&other, &baseline).len(), 1);
        // Deny findings never consult the baseline.
        let deny = vec![finding("unjoined-spawn", Tier::Deny, "crates/a.rs", 1)];
        assert!(new_warn_findings(&deny, &baseline).is_empty());
    }

    #[test]
    fn baseline_render_keeps_only_warn_tier() {
        let findings = vec![
            finding("unjoined-spawn", Tier::Deny, "crates/a.rs", 1),
            finding("lock-order", Tier::Warn, "crates/a.rs", 2),
        ];
        let doc = render_baseline(&findings);
        let parsed = parse_baseline(&doc).unwrap();
        assert_eq!(parsed.len(), 1);
        assert_eq!(parsed[0].rule, "lock-order");
        assert!(!doc.contains("files_scanned"));
    }

    #[test]
    fn empty_findings_render_as_empty_array() {
        let mut none = Vec::new();
        let doc = render(&mut none, 7);
        assert!(doc.contains("\"findings\": []"));
        assert!(parse_baseline(&doc).unwrap().is_empty());
    }
}
