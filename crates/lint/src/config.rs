//! `lint.toml` parsing: a minimal TOML subset, parsed by hand because the
//! lint is dependency-free.
//!
//! Supported grammar (which is all the checked-in config uses):
//!
//! ```toml
//! [section]            # also dotted: [rules.float-exact-eq]
//! key = "string"
//! key = ["a", "b"]     # string arrays, single- or multi-line
//! key = true           # booleans
//! # comments and blank lines
//! ```
//!
//! Path values are interpreted relative to the repo root and match by
//! prefix: `crates/tensor/src/` scopes a rule to that directory,
//! `crates/tensor/src/pool.rs` to one file.

use std::collections::BTreeMap;

/// Scoping and options for one rule, from its `[rules.<id>]` table.
#[derive(Debug, Clone, Default)]
pub struct RuleConfig {
    /// String keys → single values.
    pub strings: BTreeMap<String, String>,
    /// String keys → array values.
    pub lists: BTreeMap<String, Vec<String>>,
    /// String keys → booleans.
    pub bools: BTreeMap<String, bool>,
}

impl RuleConfig {
    /// The `paths` list, if present — `None` means "applies everywhere".
    pub fn paths(&self) -> Option<&[String]> {
        self.lists.get("paths").map(|v| v.as_slice())
    }

    pub fn list(&self, key: &str) -> &[String] {
        self.lists.get(key).map(|v| v.as_slice()).unwrap_or(&[])
    }

    pub fn bool(&self, key: &str, default: bool) -> bool {
        self.bools.get(key).copied().unwrap_or(default)
    }
}

/// The parsed `lint.toml`.
#[derive(Debug, Clone, Default)]
pub struct Config {
    /// Path prefixes excluded from scanning (from `[lint] exclude`).
    pub exclude: Vec<String>,
    /// Per-rule tables, keyed by rule id.
    pub rules: BTreeMap<String, RuleConfig>,
    /// The `[graph]` table: call-graph entry points (`kernel_entries`,
    /// `serialize_entries`) shared by the graph rules (§5h).
    pub graph: RuleConfig,
}

impl Config {
    /// Whether a repo-relative path is excluded from the walk.
    pub fn is_excluded(&self, rel: &str) -> bool {
        self.exclude.iter().any(|e| path_matches(rel, e))
    }

    /// The config table for `rule` (empty if the table is absent).
    pub fn rule(&self, rule: &str) -> RuleConfig {
        self.rules.get(rule).cloned().unwrap_or_default()
    }

    /// Whether a `[rules.<id>]` table is declared at all. Graph rules
    /// only run when declared, so pre-graph configs keep exact behavior.
    pub fn has_rule(&self, rule: &str) -> bool {
        self.rules.contains_key(rule)
    }

    /// Whether `rule` applies to `rel`: true when the rule table has no
    /// `paths` key, otherwise when one of the entries matches.
    pub fn rule_applies(&self, rule: &str, rel: &str) -> bool {
        match self.rule(rule).paths() {
            None => true,
            Some(paths) => paths.iter().any(|p| path_matches(rel, p)),
        }
    }
}

/// Prefix/exact path matching: `entry` ending in `/` (or naming a directory
/// prefix) matches everything under it; otherwise the path must equal the
/// entry exactly.
pub fn path_matches(rel: &str, entry: &str) -> bool {
    if entry.ends_with('/') {
        rel.starts_with(entry)
    } else {
        rel == entry
    }
}

/// A `lint.toml` syntax error with its line number.
#[derive(Debug)]
pub struct ConfigError {
    pub line: usize,
    pub message: String,
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "lint.toml:{}: {}", self.line, self.message)
    }
}

/// Parses the supported TOML subset.
pub fn parse(src: &str) -> Result<Config, ConfigError> {
    let mut cfg = Config::default();
    // Current section: None (top level), Some(("lint", None)) for `[lint]`,
    // Some(("rules", Some(id))) for `[rules.<id>]`.
    let mut section: Option<(String, Option<String>)> = None;

    let raw_lines: Vec<&str> = src.lines().collect();
    let mut idx = 0usize;
    while idx < raw_lines.len() {
        let lineno = idx + 1;
        let mut line = strip_comment(raw_lines[idx]).trim().to_string();
        idx += 1;
        if line.is_empty() {
            continue;
        }
        // Multi-line arrays: keep consuming lines until the bracket closes.
        if line.contains('[') && line.contains('=') && !line.trim_end().ends_with(']') {
            while idx < raw_lines.len() {
                let cont = strip_comment(raw_lines[idx]).trim().to_string();
                idx += 1;
                line.push(' ');
                line.push_str(&cont);
                if cont.ends_with(']') {
                    break;
                }
            }
        }
        if let Some(header) = line.strip_prefix('[').and_then(|s| s.strip_suffix(']')) {
            let header = header.trim();
            match header.split_once('.') {
                Some((a, b)) => {
                    let (a, b) = (a.trim().to_string(), b.trim().to_string());
                    // A bare `[rules.<id>]` header opts the rule in even
                    // with no keys — graph rules run iff their table exists.
                    if a == "rules" {
                        cfg.rules.entry(b.clone()).or_default();
                    }
                    section = Some((a, Some(b)));
                }
                None => section = Some((header.to_string(), None)),
            }
            continue;
        }
        let Some((key, value)) = line.split_once('=') else {
            return Err(ConfigError {
                line: lineno,
                message: format!("expected `key = value` or `[section]`, got `{line}`"),
            });
        };
        let key = key.trim().to_string();
        let value = value.trim();
        match &section {
            Some((s, None)) if s == "lint" => {
                if key == "exclude" {
                    cfg.exclude = parse_array(value, lineno)?;
                } else {
                    return Err(ConfigError {
                        line: lineno,
                        message: format!("unknown [lint] key `{key}`"),
                    });
                }
            }
            Some((s, Some(rule))) if s == "rules" => {
                let table = cfg.rules.entry(rule.clone()).or_default();
                if value.starts_with('[') {
                    table.lists.insert(key, parse_array(value, lineno)?);
                } else if value == "true" || value == "false" {
                    table.bools.insert(key, value == "true");
                } else {
                    table.strings.insert(key, parse_string(value, lineno)?);
                }
            }
            Some((s, None)) if s == "graph" => {
                if value.starts_with('[') {
                    cfg.graph.lists.insert(key, parse_array(value, lineno)?);
                } else if value == "true" || value == "false" {
                    cfg.graph.bools.insert(key, value == "true");
                } else {
                    cfg.graph.strings.insert(key, parse_string(value, lineno)?);
                }
            }
            _ => {
                return Err(ConfigError {
                    line: lineno,
                    message: format!("key `{key}` outside a [lint] or [rules.*] section"),
                });
            }
        }
    }
    Ok(cfg)
}

/// Drops a trailing `# comment` that is not inside a quoted string.
fn strip_comment(line: &str) -> &str {
    let mut in_str = false;
    for (i, c) in line.char_indices() {
        match c {
            '"' => in_str = !in_str,
            '#' if !in_str => return &line[..i],
            _ => {}
        }
    }
    line
}

fn parse_string(value: &str, line: usize) -> Result<String, ConfigError> {
    value
        .strip_prefix('"')
        .and_then(|s| s.strip_suffix('"'))
        .map(|s| s.to_string())
        .ok_or(ConfigError {
            line,
            message: format!("expected a quoted string, got `{value}`"),
        })
}

fn parse_array(value: &str, line: usize) -> Result<Vec<String>, ConfigError> {
    let inner = value
        .strip_prefix('[')
        .and_then(|s| s.strip_suffix(']'))
        .ok_or(ConfigError {
            line,
            message: format!("expected a single-line array, got `{value}`"),
        })?;
    let mut out = Vec::new();
    for part in inner.split(',') {
        let part = part.trim();
        if part.is_empty() {
            continue;
        }
        out.push(parse_string(part, line)?);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_supported_subset() {
        let src = r#"
# top comment
[lint]
exclude = ["vendor/", "target/"]

[rules.float-exact-eq]
skip_test_code = true

[rules.no-panic-in-kernels]
paths = ["crates/tensor/src/gemm.rs", "crates/tensor/src/"]

[rules.vendored-deps-only]
manifest = "Cargo.toml" # trailing comment
"#;
        let cfg = parse(src).unwrap();
        assert!(cfg.is_excluded("vendor/rand/src/lib.rs"));
        assert!(!cfg.is_excluded("crates/tensor/src/pool.rs"));
        assert!(cfg.rule("float-exact-eq").bool("skip_test_code", false));
        assert!(cfg.rule_applies("no-panic-in-kernels", "crates/tensor/src/gemm.rs"));
        assert!(cfg.rule_applies("no-panic-in-kernels", "crates/tensor/src/pool.rs"));
        assert!(!cfg.rule_applies("no-panic-in-kernels", "crates/nn/src/optim.rs"));
        // Absent table → applies everywhere.
        assert!(cfg.rule_applies("unsafe-needs-safety", "anything.rs"));
        assert_eq!(cfg.rule("vendored-deps-only").strings["manifest"], "Cargo.toml");
    }

    #[test]
    fn graph_section_parses() {
        let src = "
[graph]
kernel_entries = [\"egeria_tensor::gemm::*\"]
serialize_entries = [\"egeria_core::checkpoint::to_bytes\"]

[rules.lock-order]
skip_test_code = true
";
        let cfg = parse(src).unwrap();
        assert_eq!(cfg.graph.list("kernel_entries"), ["egeria_tensor::gemm::*"]);
        assert_eq!(
            cfg.graph.list("serialize_entries"),
            ["egeria_core::checkpoint::to_bytes"]
        );
        assert!(cfg.has_rule("lock-order"));
        assert!(!cfg.has_rule("unjoined-spawn"));
        assert!(cfg.rule("lock-order").bool("skip_test_code", false));
    }

    #[test]
    fn multi_line_arrays_parse() {
        let src = "[rules.r]\npaths = [\n    \"a/\", # comment\n    \"b.rs\",\n]\n";
        let cfg = parse(src).unwrap();
        assert_eq!(cfg.rule("r").list("paths"), ["a/", "b.rs"]);
    }

    #[test]
    fn rejects_stray_keys_and_bad_values() {
        assert!(parse("x = 1\n").is_err());
        assert!(parse("[lint]\nbogus = \"x\"\n").is_err());
        assert!(parse("[rules.r]\nk = [unquoted]\n").is_err());
    }
}
