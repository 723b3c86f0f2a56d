//! The lint rules. Each rule works on the token stream / comments produced
//! by [`crate::lexer::scan`], so matches inside strings, raw strings, char
//! literals, and comments are structurally impossible.
//!
//! Rule ids (used in `lint.toml` tables and `allow` pragmas):
//!
//! - `unsafe-needs-safety` — every `unsafe` keyword (block, fn, impl, trait)
//!   needs a `// SAFETY:` comment on the same line or within the 3 lines
//!   above it.
//! - `no-panic-in-kernels` — `.unwrap()`, `.expect(…)` and `panic!` are
//!   banned in the configured hot-path modules.
//! - `float-exact-eq` — direct `==`/`!=` against a float literal (the
//!   `0 · NaN` multiply-skip bug class).
//! - `determinism` — no wall-clock/entropy calls in kernel or serialization
//!   modules, no hash collections in serialization modules, and
//!   `thread::spawn`/`thread::Builder` only in the sanctioned modules.
//! - `vendored-deps-only` — every external `[workspace.dependencies]` crate
//!   must have a `[patch.crates-io]` vendor entry, and every patch entry
//!   must be named by a workspace dependency (checked against the root
//!   manifest, not per source file).
//! - `no-wallclock-sleep-retry` — retry/backoff and supervision code must
//!   take time through the injected `Clock` trait; `thread::sleep`,
//!   `Instant::now` and `SystemTime` are banned in the configured modules
//!   (the `RealClock` implementation is the sanctioned carve-out).
//! - `arch-intrinsics-confined` — `std::arch`/`core::arch` may appear only
//!   under the path prefixes listed in the rule's `allowed` key (the SIMD
//!   dispatch layer), so ISA-specific intrinsics never leak into generic
//!   kernel or model code.

use crate::config::{path_matches, Config};
use crate::lexer::{Scan, TokKind};
use std::collections::{BTreeMap, BTreeSet};

pub const UNSAFE_NEEDS_SAFETY: &str = "unsafe-needs-safety";
pub const NO_PANIC_IN_KERNELS: &str = "no-panic-in-kernels";
pub const FLOAT_EXACT_EQ: &str = "float-exact-eq";
pub const DETERMINISM: &str = "determinism";
pub const VENDORED_DEPS_ONLY: &str = "vendored-deps-only";
pub const NO_WALLCLOCK_SLEEP_RETRY: &str = "no-wallclock-sleep-retry";
pub const ARCH_INTRINSICS_CONFINED: &str = "arch-intrinsics-confined";

/// All rule ids (token rules + graph rules), for pragma validation.
pub const ALL_RULES: &[&str] = &[
    UNSAFE_NEEDS_SAFETY,
    NO_PANIC_IN_KERNELS,
    FLOAT_EXACT_EQ,
    DETERMINISM,
    VENDORED_DEPS_ONLY,
    NO_WALLCLOCK_SLEEP_RETRY,
    ARCH_INTRINSICS_CONFINED,
    crate::rules_graph::PANIC_REACHABLE,
    crate::rules_graph::WALLCLOCK_REACHABLE,
    crate::rules_graph::ENTROPY_REACHABLE,
    crate::rules_graph::LOCK_ORDER,
    crate::rules_graph::UNJOINED_SPAWN,
];

/// One diagnostic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    pub rule: &'static str,
    pub path: String,
    pub line: u32,
    pub col: u32,
    pub message: String,
}

impl std::fmt::Display for Finding {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}:{}:{}: [{}] {}",
            self.path, self.line, self.col, self.rule, self.message
        )
    }
}

/// Lines suppressed per rule by `// egeria-lint: allow(<rules>)` pragmas. A
/// pragma suppresses findings on its own line (trailing form) and on the
/// next *code* line after the comment (standalone form) — so a pragma whose
/// justification wraps over several comment lines still covers the code it
/// annotates.
pub(crate) fn pragma_suppressions(scan: &Scan) -> BTreeMap<String, BTreeSet<u32>> {
    let mut out: BTreeMap<String, BTreeSet<u32>> = BTreeMap::new();
    for c in &scan.comments {
        // The pragma must lead the comment (after doc-comment markers), so
        // prose that merely *mentions* the syntax is not a pragma.
        let lead = c.text.trim_start_matches(['/', '!']).trim_start();
        let Some(rest) = lead.strip_prefix("egeria-lint:") else {
            continue;
        };
        let rest = rest.trim_start();
        let Some(list) = rest
            .strip_prefix("allow(")
            .and_then(|s| s.split(')').next())
        else {
            continue;
        };
        // Subsequent `//` lines are separate comments, so walk past every
        // comment that directly continues this one before locating the code
        // line the pragma annotates.
        let mut end = c.end_line;
        for follow in &scan.comments {
            if follow.line == end + 1 {
                end = follow.end_line;
            }
        }
        let next_code_line = scan.toks.iter().find(|t| t.line > end).map(|t| t.line);
        for rule in list.split(',') {
            let rule = rule.trim();
            if rule.is_empty() {
                continue;
            }
            let lines = out.entry(rule.to_string()).or_default();
            lines.insert(c.line);
            if let Some(l) = next_code_line {
                lines.insert(l);
            }
        }
    }
    out
}

/// Runs every token-level rule over one scanned file. `rel` is the
/// repo-relative path (forward slashes) used for rule scoping.
pub fn lint_scan(rel: &str, scan: &Scan, cfg: &Config) -> Vec<Finding> {
    let mut findings = Vec::new();
    // Files under a `tests/` or `benches/` directory are test code in their
    // entirety; `#[cfg(test)]` regions cover the rest.
    let file_is_test = rel
        .split('/')
        .any(|part| part == "tests" || part == "benches");
    let is_test_line = |line: u32| file_is_test || scan.is_test_line(line);

    if cfg.rule_applies(UNSAFE_NEEDS_SAFETY, rel) {
        unsafe_needs_safety(rel, scan, &mut findings);
    }
    if cfg.rule_applies(NO_PANIC_IN_KERNELS, rel) {
        let skip_tests = cfg.rule(NO_PANIC_IN_KERNELS).bool("skip_test_code", true);
        no_panic(rel, scan, &mut findings, |l| skip_tests && is_test_line(l));
    }
    if cfg.rule_applies(FLOAT_EXACT_EQ, rel) {
        let skip_tests = cfg.rule(FLOAT_EXACT_EQ).bool("skip_test_code", true);
        float_exact_eq(rel, scan, &mut findings, |l| skip_tests && is_test_line(l));
    }
    determinism(rel, scan, cfg, &mut findings);
    if cfg.rule_applies(NO_WALLCLOCK_SLEEP_RETRY, rel) {
        let skip_tests = cfg
            .rule(NO_WALLCLOCK_SLEEP_RETRY)
            .bool("skip_test_code", true);
        no_wallclock_sleep_retry(rel, scan, &mut findings, |l| skip_tests && is_test_line(l));
    }
    if cfg.rule_applies(ARCH_INTRINSICS_CONFINED, rel) {
        let sanctioned = cfg
            .rule(ARCH_INTRINSICS_CONFINED)
            .list("allowed")
            .iter()
            .any(|p| path_matches(rel, p));
        if !sanctioned {
            arch_intrinsics_confined(rel, scan, &mut findings);
        }
    }

    let suppressed = pragma_suppressions(scan);
    findings.retain(|f| {
        !suppressed
            .get(f.rule)
            .is_some_and(|lines| lines.contains(&f.line))
    });
    findings.sort_by(|a, b| (a.line, a.col, a.rule).cmp(&(b.line, b.col, b.rule)));
    findings
}

/// `unsafe-needs-safety`: every `unsafe` keyword must have a comment
/// containing `SAFETY:` trailing on the same line or ending within the 3
/// lines above it.
fn unsafe_needs_safety(rel: &str, scan: &Scan, findings: &mut Vec<Finding>) {
    for t in &scan.toks {
        if t.kind != TokKind::Ident || t.text != "unsafe" {
            continue;
        }
        let covered = scan.comments.iter().any(|c| {
            c.text.contains("SAFETY:") && c.end_line <= t.line && t.line - c.end_line <= 3
        });
        if !covered {
            findings.push(Finding {
                rule: UNSAFE_NEEDS_SAFETY,
                path: rel.to_string(),
                line: t.line,
                col: t.col,
                message: "`unsafe` without an adjacent `// SAFETY:` comment (same line or \
                          the 3 lines above)"
                    .to_string(),
            });
        }
    }
}

/// `no-panic-in-kernels`: `.unwrap()`, `.expect(` and `panic!` in hot-path
/// modules.
fn no_panic(rel: &str, scan: &Scan, findings: &mut Vec<Finding>, skip: impl Fn(u32) -> bool) {
    let toks = &scan.toks;
    for (i, t) in toks.iter().enumerate() {
        if t.kind != TokKind::Ident || skip(t.line) {
            continue;
        }
        let prev_is =
            |text: &str| i > 0 && toks[i - 1].kind == TokKind::Op && toks[i - 1].text == text;
        let next_is = |text: &str| {
            toks.get(i + 1)
                .is_some_and(|n| n.kind == TokKind::Op && n.text == text)
        };
        let flagged = match t.text.as_str() {
            "unwrap" | "expect" => prev_is(".") && next_is("("),
            "panic" => next_is("!"),
            _ => false,
        };
        if flagged {
            findings.push(Finding {
                rule: NO_PANIC_IN_KERNELS,
                path: rel.to_string(),
                line: t.line,
                col: t.col,
                message: format!(
                    "`{}` in a hot-path kernel module; return a Result or restructure \
                     so the failure is impossible",
                    if t.text == "panic" {
                        "panic!"
                    } else {
                        t.text.as_str()
                    }
                ),
            });
        }
    }
}

/// `float-exact-eq`: `==` / `!=` with a float literal on either side
/// (including a negated literal on the right).
fn float_exact_eq(rel: &str, scan: &Scan, findings: &mut Vec<Finding>, skip: impl Fn(u32) -> bool) {
    let toks = &scan.toks;
    for (i, t) in toks.iter().enumerate() {
        if t.kind != TokKind::Op || (t.text != "==" && t.text != "!=") || skip(t.line) {
            continue;
        }
        let lhs_float = i > 0 && toks[i - 1].kind == TokKind::Float;
        let rhs_float = match toks.get(i + 1) {
            Some(n) if n.kind == TokKind::Float => true,
            Some(n) if n.kind == TokKind::Op && n.text == "-" => {
                toks.get(i + 2).is_some_and(|m| m.kind == TokKind::Float)
            }
            _ => false,
        };
        if lhs_float || rhs_float {
            findings.push(Finding {
                rule: FLOAT_EXACT_EQ,
                path: rel.to_string(),
                line: t.line,
                col: t.col,
                message: format!(
                    "exact float comparison `{}` against a literal (the `0 \u{b7} NaN` \
                     multiply-skip bug class); compare with a tolerance, restructure, or \
                     pragma with a justification",
                    t.text
                ),
            });
        }
    }
}

/// `determinism`: three sub-checks scoped by the rule's config lists.
fn determinism(rel: &str, scan: &Scan, cfg: &Config, findings: &mut Vec<Finding>) {
    let rc = cfg.rule(DETERMINISM);
    let in_list = |key: &str| rc.list(key).iter().any(|p| path_matches(rel, p));
    let deterministic_module = in_list("kernel_paths") || in_list("serialize_paths");
    let serialize_module = in_list("serialize_paths");
    let spawn_sanctioned = in_list("spawn_allowed");
    let toks = &scan.toks;

    let seq = |i: usize, parts: &[&str]| -> bool {
        parts.iter().enumerate().all(|(k, p)| {
            toks.get(i + k)
                .is_some_and(|t| t.text == *p && matches!(t.kind, TokKind::Ident | TokKind::Op))
        })
    };

    for (i, t) in toks.iter().enumerate() {
        if t.kind != TokKind::Ident {
            continue;
        }
        if deterministic_module {
            let banned_time = (t.text == "Instant" && seq(i, &["Instant", "::", "now"]))
                || t.text == "SystemTime"
                || t.text == "thread_rng"
                || t.text == "from_entropy";
            if banned_time {
                findings.push(Finding {
                    rule: DETERMINISM,
                    path: rel.to_string(),
                    line: t.line,
                    col: t.col,
                    message: format!(
                        "`{}` in a determinism-critical module; kernels and \
                         checkpoint/serialize code must not read wall clocks or entropy",
                        t.text
                    ),
                });
            }
        }
        if serialize_module && (t.text == "HashMap" || t.text == "HashSet") {
            findings.push(Finding {
                rule: DETERMINISM,
                path: rel.to_string(),
                line: t.line,
                col: t.col,
                message: format!(
                    "`{}` in a serialization path; hash iteration order is \
                     nondeterministic — use BTreeMap/BTreeSet or a Vec",
                    t.text
                ),
            });
        }
        if !spawn_sanctioned
            && t.text == "thread"
            && (seq(i, &["thread", "::", "spawn"]) || seq(i, &["thread", "::", "Builder"]))
        {
            findings.push(Finding {
                rule: DETERMINISM,
                path: rel.to_string(),
                line: t.line,
                col: t.col,
                message: "thread spawn outside the sanctioned modules (see \
                          `[rules.determinism] spawn_allowed` in lint.toml)"
                    .to_string(),
            });
        }
    }
}

/// `no-wallclock-sleep-retry`: fault-plane and supervision modules must
/// route every wait and timestamp through the injected `Clock` trait so
/// timed schedules replay identically under `VirtualClock`. Flags
/// `thread::sleep`, `Instant::now`, and `SystemTime`.
fn no_wallclock_sleep_retry(
    rel: &str,
    scan: &Scan,
    findings: &mut Vec<Finding>,
    skip: impl Fn(u32) -> bool,
) {
    let toks = &scan.toks;
    let seq = |i: usize, parts: &[&str]| -> bool {
        parts.iter().enumerate().all(|(k, p)| {
            toks.get(i + k)
                .is_some_and(|t| t.text == *p && matches!(t.kind, TokKind::Ident | TokKind::Op))
        })
    };
    for (i, t) in toks.iter().enumerate() {
        if t.kind != TokKind::Ident || skip(t.line) {
            continue;
        }
        let flagged = (t.text == "thread" && seq(i, &["thread", "::", "sleep"]))
            || (t.text == "Instant" && seq(i, &["Instant", "::", "now"]))
            || t.text == "SystemTime";
        if flagged {
            findings.push(Finding {
                rule: NO_WALLCLOCK_SLEEP_RETRY,
                path: rel.to_string(),
                line: t.line,
                col: t.col,
                message: format!(
                    "`{}` in retry/backoff code; waits and timestamps must go through \
                     the injected `Clock` trait so schedules replay under VirtualClock",
                    t.text
                ),
            });
        }
    }
}

/// `arch-intrinsics-confined`: `std::arch` / `core::arch` outside the
/// sanctioned SIMD dispatch layer. The caller has already checked the
/// `allowed` path-prefix list, so every hit here is a finding — per-ISA
/// intrinsics must stay behind the portable vector traits.
fn arch_intrinsics_confined(rel: &str, scan: &Scan, findings: &mut Vec<Finding>) {
    let toks = &scan.toks;
    let seq = |i: usize, parts: &[&str]| -> bool {
        parts.iter().enumerate().all(|(k, p)| {
            toks.get(i + k)
                .is_some_and(|t| t.text == *p && matches!(t.kind, TokKind::Ident | TokKind::Op))
        })
    };
    for (i, t) in toks.iter().enumerate() {
        if t.kind != TokKind::Ident || (t.text != "std" && t.text != "core") {
            continue;
        }
        if seq(i, &[&t.text, "::", "arch"]) {
            findings.push(Finding {
                rule: ARCH_INTRINSICS_CONFINED,
                path: rel.to_string(),
                line: t.line,
                col: t.col,
                message: format!(
                    "`{}::arch` outside the sanctioned SIMD module; ISA intrinsics are \
                     confined to the `allowed` paths in \
                     `[rules.arch-intrinsics-confined]` (use the portable \
                     egeria_tensor::simd dispatch layer instead)",
                    t.text
                ),
            });
        }
    }
}

/// `vendored-deps-only`: parses the root manifest's
/// `[workspace.dependencies]` and `[patch.crates-io]` tables and reports
/// every external dependency (no `path =` in its value) that lacks a vendor
/// patch entry, and every patch entry no workspace dependency names — a
/// stale stand-in that still sits in the tree after its last user left.
pub fn check_manifest(manifest_rel: &str, manifest_src: &str) -> Vec<Finding> {
    let mut findings = Vec::new();
    let mut section = String::new();
    let mut deps: BTreeSet<String> = BTreeSet::new();
    let mut patched: Vec<(String, u32)> = Vec::new();
    let mut externals: Vec<(String, u32)> = Vec::new();

    for (idx, raw) in manifest_src.lines().enumerate() {
        let line = raw.trim();
        if line.starts_with('#') || line.is_empty() {
            continue;
        }
        if let Some(h) = line.strip_prefix('[').and_then(|s| s.split(']').next()) {
            section = h.trim().trim_matches('"').to_string();
            continue;
        }
        let Some((key, value)) = line.split_once('=') else {
            continue;
        };
        let key = key.trim().trim_matches('"').to_string();
        match section.as_str() {
            "workspace.dependencies" => {
                if !value.contains("path") {
                    externals.push((key.clone(), idx as u32 + 1));
                }
                deps.insert(key);
            }
            "patch.crates-io" => patched.push((key, idx as u32 + 1)),
            _ => {}
        }
    }

    for (dep, line) in externals {
        if !patched.iter().any(|(p, _)| *p == dep) {
            findings.push(Finding {
                rule: VENDORED_DEPS_ONLY,
                path: manifest_rel.to_string(),
                line,
                col: 1,
                message: format!(
                    "workspace dependency `{dep}` has no `[patch.crates-io]` vendor entry; \
                     the build environment is offline and every external crate must resolve \
                     to vendor/"
                ),
            });
        }
    }
    for (patch, line) in patched {
        if !deps.contains(&patch) {
            findings.push(Finding {
                rule: VENDORED_DEPS_ONLY,
                path: manifest_rel.to_string(),
                line,
                col: 1,
                message: format!(
                    "`[patch.crates-io]` entry `{patch}` is stale: no workspace dependency \
                     names it; delete the entry and its vendor/ stand-in"
                ),
            });
        }
    }
    findings
}

/// Validates the rules named by `allow` pragmas so a typo'd pragma is an
/// error instead of a silent no-op.
pub fn unknown_pragma_rules(rel: &str, scan: &Scan) -> Vec<Finding> {
    let mut findings = Vec::new();
    for (rule, lines) in pragma_suppressions(scan) {
        if !ALL_RULES.contains(&rule.as_str()) {
            let line = lines.iter().next().copied().unwrap_or(1);
            findings.push(Finding {
                rule: "unknown-pragma",
                path: rel.to_string(),
                line,
                col: 1,
                message: format!("`allow({rule})` names an unknown rule id"),
            });
        }
    }
    findings
}
