//! Integration tests for the graph rules: the seeded fixture mini-tree
//! under `tests/graph_fixtures/` (known call chains, exact findings, exact
//! witness-path text), the binary's exit status over that corpus, and the
//! workspace-wide gate mirroring `lint_tests::workspace_is_clean`.

use egeria_lint::{lint_tree, load_config, rules_graph};
use std::path::{Path, PathBuf};
use std::process::Command;

fn fixtures_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/graph_fixtures")
}

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .expect("repo root")
}

/// The graph corpus findings, down to (path, line, col, rule). The
/// pragma fixture's reachable `.expect()` must NOT appear (suppressed), and
/// the bound-and-joined spawn in `supervised` must not be flagged.
#[test]
fn graph_fixture_findings_are_exact() {
    let root = fixtures_root();
    let cfg = load_config(&root).expect("fixture lint.toml");
    let report = lint_tree(&root, &cfg).expect("lint graph fixtures");
    let got: Vec<(String, u32, u32, &str)> = report
        .findings
        .iter()
        .map(|f| (f.path.clone(), f.line, f.col, f.rule))
        .collect();
    let want: Vec<(String, u32, u32, &str)> = [
        ("crates/core/src/locks.rs", 13, 25, rules_graph::LOCK_ORDER),
        ("crates/core/src/rng.rs", 4, 19, rules_graph::ENTROPY_REACHABLE),
        ("crates/core/src/ser.rs", 8, 24, rules_graph::WALLCLOCK_REACHABLE),
        ("crates/core/src/ser.rs", 9, 16, rules_graph::WALLCLOCK_REACHABLE),
        ("crates/core/src/spawner.rs", 4, 18, rules_graph::UNJOINED_SPAWN),
        ("crates/core/src/spawner.rs", 13, 26, rules_graph::UNJOINED_SPAWN),
        ("crates/core/src/util.rs", 4, 16, rules_graph::PANIC_REACHABLE),
    ]
    .into_iter()
    .map(|(p, l, c, r)| (p.to_string(), l, c, r))
    .collect();
    assert_eq!(got, want);
}

/// The multi-hop witness call path renders hop-by-hop in file:line:col
/// form: entry definition site, then each callsite in its caller's file,
/// then the sink.
#[test]
fn panic_witness_path_text_is_exact() {
    let root = fixtures_root();
    let cfg = load_config(&root).expect("fixture lint.toml");
    let report = lint_tree(&root, &cfg).expect("lint graph fixtures");
    let f = report
        .findings
        .iter()
        .find(|f| f.rule == rules_graph::PANIC_REACHABLE)
        .expect("panic-reachable finding");
    assert_eq!(
        f.message,
        "`.unwrap()` reachable from a kernel entry point; a panic \
         mid-train-step breaks checkpoint/resume and freezing-timeline \
         replay; witness: \
         egeria_core::kernel::step (crates/core/src/kernel.rs:3:8) \
         \u{2192} egeria_core::helpers::prep (crates/core/src/kernel.rs:4:22) \
         \u{2192} egeria_core::util::deep (crates/core/src/helpers.rs:4:11) \
         \u{2192} .unwrap() (crates/core/src/util.rs:4:16)"
    );
}

/// The lock-order cycle names both locks and cites the held→acquired edge
/// in each direction.
#[test]
fn lock_order_cycle_cites_both_directions() {
    let root = fixtures_root();
    let cfg = load_config(&root).expect("fixture lint.toml");
    let report = lint_tree(&root, &cfg).expect("lint graph fixtures");
    let f = report
        .findings
        .iter()
        .find(|f| f.rule == rules_graph::LOCK_ORDER)
        .expect("lock-order finding");
    assert!(f.message.contains("cycle among `a`, `b`"), "{}", f.message);
    assert!(
        f.message
            .contains("`a` held in egeria_core::locks::Pair::ab (crates/core/src/locks.rs:13:25) then `b` acquired (crates/core/src/locks.rs:14:25)"),
        "{}",
        f.message
    );
    assert!(
        f.message
            .contains("`b` held in egeria_core::locks::Pair::ba (crates/core/src/locks.rs:19:25) then `a` acquired (crates/core/src/locks.rs:20:25)"),
        "{}",
        f.message
    );
}

/// The binary fails on the graph corpus and counts every finding, the
/// lock-order cycle included: each rule gates alike.
#[test]
fn binary_fails_on_every_graph_finding() {
    let out = Command::new(env!("CARGO_BIN_EXE_egeria-lint"))
        .args(["--workspace", "--root"])
        .arg(fixtures_root())
        .output()
        .expect("run egeria-lint");
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(stdout.lines().count(), 7, "stdout:\n{stdout}");
    assert!(
        stdout.contains("crates/core/src/locks.rs:13:25: [lock-order]"),
        "stdout:\n{stdout}"
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("7 finding(s)"), "stderr:\n{stderr}");
}

/// The workspace-wide graph gate, mirroring `lint_tests::workspace_is_clean`:
/// every graph rule runs on the repo's config, and the tree has no finding.
#[test]
fn workspace_graph_gate_holds() {
    let root = repo_root();
    let cfg = load_config(&root).expect("repo lint.toml");
    for rule in rules_graph::GRAPH_RULES {
        assert!(
            cfg.has_rule(rule),
            "repo lint.toml must declare [rules.{rule}] so the graph rules run"
        );
    }
    assert!(
        !cfg.graph.list("kernel_entries").is_empty(),
        "repo lint.toml must declare [graph] kernel_entries"
    );
    let report = lint_tree(&root, &cfg).expect("lint workspace");
    let findings: Vec<String> = report.findings.iter().map(|f| f.to_string()).collect();
    assert!(findings.is_empty(), "workspace has findings:\n{}", findings.join("\n"));
}
