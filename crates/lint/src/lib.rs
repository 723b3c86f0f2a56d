//! `egeria-lint`: the workspace static-analysis pass.
//!
//! The Egeria reproduction rests on invariants the compiler cannot check:
//! the pool's fixed-geometry determinism contract, bit-exact
//! checkpoint/resume replay, and the absence of the `== 0.0` multiply-skip
//! class that silently collapsed `0 · NaN`. This crate walks the workspace
//! sources with a comment/string/raw-string-aware token scanner (no `syn` —
//! the build environment is offline) and enforces those contracts as
//! machine-checked rules with `file:line:col` diagnostics.
//!
//! Rules, scoping (`lint.toml`), and the inline
//! `// egeria-lint: allow(<rule>): <reason>` pragma convention are
//! documented in DESIGN.md §5c and [`rules`].

#![forbid(unsafe_code)]

pub mod config;
pub mod graph;
pub mod lexer;
pub mod parser;
pub mod reach;
pub mod rules;
pub mod rules_graph;

pub use config::Config;
pub use rules::Finding;

use std::collections::{BTreeMap, BTreeSet};
use std::path::{Path, PathBuf};

/// Everything one lint run produces.
#[derive(Debug, Default)]
pub struct Report {
    pub findings: Vec<Finding>,
    /// Number of `.rs` files scanned.
    pub files_scanned: usize,
}

/// Lints a single source string under its repo-relative label. Used by the
/// fixture tests and by [`lint_tree`].
pub fn lint_source(rel: &str, src: &str, cfg: &Config) -> Vec<Finding> {
    let scan = lexer::scan(src);
    let mut findings = rules::lint_scan(rel, &scan, cfg);
    findings.extend(rules::unknown_pragma_rules(rel, &scan));
    findings
}

/// Walks the tree under `root`, lints every non-excluded `.rs` file, and
/// checks the root manifest's vendor-patch invariant. Findings are sorted
/// by path, then position.
///
/// Runs in two phases: the token-level rules see each file alone; the
/// graph rules ([`rules_graph`]) then run over the whole parsed
/// workspace at once, so their findings can cite cross-file witness call
/// paths. Graph findings honor the same `allow` pragma mechanism — a
/// pragma on the finding's anchor line in the anchor file suppresses it.
pub fn lint_tree(root: &Path, cfg: &Config) -> std::io::Result<Report> {
    let mut files = Vec::new();
    collect_rs_files(root, root, cfg, &mut files)?;
    files.sort();

    let mut report = Report::default();
    let mut parsed: Vec<parser::ParsedFile> = Vec::new();
    let mut suppressions: BTreeMap<String, BTreeMap<String, BTreeSet<u32>>> = BTreeMap::new();
    for rel in files {
        let src = std::fs::read_to_string(root.join(&rel))?;
        let rel_str = rel_to_string(&rel);
        let scan = lexer::scan(&src);
        let mut findings = rules::lint_scan(&rel_str, &scan, cfg);
        findings.extend(rules::unknown_pragma_rules(&rel_str, &scan));
        report.findings.extend(findings);
        suppressions.insert(rel_str.clone(), rules::pragma_suppressions(&scan));
        parsed.push(parser::parse(&rel_str, &scan));
        report.files_scanned += 1;
    }

    let deps = crate_deps(root);
    let mut graph_findings = rules_graph::run_graph_rules(&parsed, cfg, &deps);
    graph_findings.retain(|f| {
        !suppressions
            .get(&f.path)
            .and_then(|per_rule| per_rule.get(f.rule))
            .is_some_and(|lines| lines.contains(&f.line))
    });
    report.findings.extend(graph_findings);

    let manifest = root.join("Cargo.toml");
    if manifest.is_file() {
        let src = std::fs::read_to_string(&manifest)?;
        report.findings.extend(rules::check_manifest("Cargo.toml", &src));
    }

    report
        .findings
        .sort_by(|a, b| (a.path.as_str(), a.line, a.col).cmp(&(b.path.as_str(), b.line, b.col)));
    Ok(report)
}

/// Loads `lint.toml` from `root`.
pub fn load_config(root: &Path) -> Result<Config, String> {
    let path = root.join("lint.toml");
    let src = std::fs::read_to_string(&path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    config::parse(&src).map_err(|e| e.to_string())
}

/// The workspace crate dependency map, transitively closed, keyed by crate
/// label (`egeria_foo`). Read from `crates/*/Cargo.toml` with a
/// line-oriented scan (no TOML dependency): the package name comes from the
/// first `name = "…"` line, and every line whose key starts with `egeria-`
/// in any dependency section is an intra-workspace dependency.
/// Dev-dependencies are included — more edges means a *less* aggressive
/// prune, which is the conservative direction for reachability.
fn crate_deps(root: &Path) -> BTreeMap<String, BTreeSet<String>> {
    let mut direct: BTreeMap<String, BTreeSet<String>> = BTreeMap::new();
    if let Ok(entries) = std::fs::read_dir(root.join("crates")) {
        for entry in entries.flatten() {
            let Ok(src) = std::fs::read_to_string(entry.path().join("Cargo.toml")) else {
                continue;
            };
            let mut name = String::new();
            let mut deps: BTreeSet<String> = BTreeSet::new();
            for line in src.lines() {
                let line = line.trim();
                if name.is_empty() {
                    if let Some(rest) = line.strip_prefix("name") {
                        if let Some(val) = rest.trim_start().strip_prefix('=') {
                            if let Some(q) = val.trim().strip_prefix('"') {
                                if let Some(n) = q.split('"').next() {
                                    name = n.replace('-', "_");
                                }
                            }
                        }
                    }
                }
                if line.starts_with("egeria-") {
                    let key: String = line
                        .chars()
                        .take_while(|c| c.is_ascii_alphanumeric() || *c == '-' || *c == '_')
                        .collect();
                    deps.insert(key.replace('-', "_"));
                }
            }
            if !name.is_empty() {
                direct.entry(name).or_default().extend(deps);
            }
        }
    }
    // Transitive closure: A may call anything its dependencies re-export.
    let mut closed: BTreeMap<String, BTreeSet<String>> = BTreeMap::new();
    for (name, deps) in &direct {
        let mut seen: BTreeSet<String> = BTreeSet::new();
        let mut stack: Vec<String> = deps.iter().cloned().collect();
        while let Some(d) = stack.pop() {
            if seen.insert(d.clone()) {
                if let Some(dd) = direct.get(&d) {
                    stack.extend(dd.iter().cloned());
                }
            }
        }
        closed.insert(name.clone(), seen);
    }
    closed
}

fn rel_to_string(rel: &Path) -> String {
    // Forward slashes regardless of platform, so lint.toml scoping entries
    // are portable.
    rel.components()
        .map(|c| c.as_os_str().to_string_lossy())
        .collect::<Vec<_>>()
        .join("/")
}

fn collect_rs_files(
    root: &Path,
    dir: &Path,
    cfg: &Config,
    out: &mut Vec<PathBuf>,
) -> std::io::Result<()> {
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if name.starts_with('.') {
            continue;
        }
        let rel = path.strip_prefix(root).unwrap_or(&path).to_path_buf();
        let rel_str = rel_to_string(&rel);
        let ty = entry.file_type()?;
        if ty.is_dir() {
            // Directory exclusion entries end in '/'.
            if cfg.is_excluded(&format!("{rel_str}/")) {
                continue;
            }
            collect_rs_files(root, &path, cfg, out)?;
        } else if ty.is_file()
            && rel_str.ends_with(".rs")
            && !cfg.is_excluded(&rel_str)
        {
            out.push(rel);
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> Config {
        config::parse(
            r#"
[lint]
exclude = []

[rules.no-panic-in-kernels]
paths = ["kernels/"]

[rules.determinism]
kernel_paths = ["kernels/"]
serialize_paths = ["ser/"]
spawn_allowed = ["kernels/pool.rs"]
"#,
        )
        .unwrap()
    }

    #[test]
    fn end_to_end_over_a_source_string() {
        let src = "fn f(x: f32) -> bool { x == 0.0 }\n";
        let findings = lint_source("lib.rs", src, &cfg());
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].rule, rules::FLOAT_EXACT_EQ);
        assert_eq!((findings[0].line, findings[0].col), (1, 26));
    }

    #[test]
    fn pragma_suppresses_and_unknown_pragma_is_flagged() {
        let src = "\
// egeria-lint: allow(float-exact-eq): sentinel compare, audited
fn f(x: f32) -> bool { x == 0.0 }
// egeria-lint: allow(not-a-rule)
fn g() {}
";
        let findings = lint_source("lib.rs", src, &cfg());
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert_eq!(findings[0].rule, "unknown-pragma");
    }

    #[test]
    fn scoping_gates_rules_by_path() {
        let src = "fn f(o: Option<u8>) -> u8 { o.unwrap() }\n";
        assert_eq!(lint_source("kernels/gemm.rs", src, &cfg()).len(), 1);
        assert!(lint_source("app/main.rs", src, &cfg()).is_empty());
    }
}
