//! Integration tests: the seeded-violation fixture corpus (every rule flags
//! the right lines, pragmas suppress, clean/tricky files pass), the
//! manifest vendor-patch rule, binary exit codes, and the workspace-clean
//! gate over the real source tree.

use egeria_lint::{lint_tree, load_config, rules};
use std::path::{Path, PathBuf};
use std::process::Command;

fn fixtures_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures")
}

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .expect("repo root")
}

/// The corpus findings, down to (path, line, rule): seeded violations are
/// flagged at the right lines, `allow` pragmas suppress theirs, and the
/// clean / tricky-strings fixtures contribute nothing.
#[test]
fn fixture_corpus_findings_are_exact() {
    let root = fixtures_root();
    let cfg = load_config(&root).expect("fixture lint.toml");
    let report = lint_tree(&root, &cfg).expect("lint fixtures");
    let got: Vec<(String, u32, &str)> = report
        .findings
        .iter()
        .map(|f| (f.path.clone(), f.line, f.rule))
        .collect();
    let want: Vec<(String, u32, &str)> = [
        ("bad_arch.rs", 4, rules::ARCH_INTRINSICS_CONFINED),
        ("bad_arch.rs", 7, rules::ARCH_INTRINSICS_CONFINED),
        ("bad_float_eq.rs", 4, rules::FLOAT_EXACT_EQ),
        ("bad_float_eq.rs", 5, rules::FLOAT_EXACT_EQ),
        ("bad_float_eq.rs", 6, rules::FLOAT_EXACT_EQ),
        ("bad_sleep_retry.rs", 4, rules::NO_WALLCLOCK_SLEEP_RETRY),
        ("bad_sleep_retry.rs", 5, rules::NO_WALLCLOCK_SLEEP_RETRY),
        ("bad_sleep_retry.rs", 6, rules::NO_WALLCLOCK_SLEEP_RETRY),
        ("bad_spawn.rs", 4, rules::DETERMINISM),
        ("bad_unsafe.rs", 9, rules::UNSAFE_NEEDS_SAFETY),
        ("bad_unsafe.rs", 13, rules::UNSAFE_NEEDS_SAFETY),
        ("kernels/bad_determinism_kernel.rs", 5, rules::DETERMINISM),
        ("kernels/bad_panics.rs", 5, rules::NO_PANIC_IN_KERNELS),
        ("kernels/bad_panics.rs", 6, rules::NO_PANIC_IN_KERNELS),
        ("kernels/bad_panics.rs", 8, rules::NO_PANIC_IN_KERNELS),
        ("ser/bad_serialize.rs", 2, rules::DETERMINISM),
        ("ser/bad_serialize.rs", 3, rules::DETERMINISM),
        ("ser/bad_serialize.rs", 5, rules::DETERMINISM),
        ("ser/bad_serialize.rs", 11, rules::DETERMINISM),
    ]
    .into_iter()
    .map(|(p, l, r)| (p.to_string(), l, r))
    .collect();
    assert_eq!(got, want);
}

/// The binary is the CI gate: nonzero on the seeded corpus, with
/// `file:line:col`-formatted diagnostics on stdout.
#[test]
fn binary_exits_nonzero_on_fixture_corpus() {
    let out = Command::new(env!("CARGO_BIN_EXE_egeria-lint"))
        .args(["--workspace", "--root"])
        .arg(fixtures_root())
        .output()
        .expect("run egeria-lint");
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("bad_unsafe.rs:9:5: [unsafe-needs-safety]"),
        "stdout:\n{stdout}"
    );
    assert!(stdout.contains("kernels/bad_panics.rs:8:9: [no-panic-in-kernels]"));
}

/// Single-file mode on a clean fixture exits 0.
#[test]
fn binary_exits_zero_on_clean_file() {
    let out = Command::new(env!("CARGO_BIN_EXE_egeria-lint"))
        .args(["--root"])
        .arg(fixtures_root())
        .arg("clean.rs")
        .output()
        .expect("run egeria-lint");
    assert_eq!(out.status.code(), Some(0), "{out:?}");
}

/// The real source tree is clean under the checked-in lint.toml — this is
/// the invariant ci.sh enforces: zero findings. Prints every finding on
/// failure so the assert message is actionable.
#[test]
fn workspace_is_clean() {
    let root = repo_root();
    let cfg = load_config(&root).expect("repo lint.toml");
    let report = lint_tree(&root, &cfg).expect("lint workspace");
    assert!(
        report.files_scanned > 100,
        "walker found only {} files — exclusions are eating the tree",
        report.files_scanned
    );
    let findings: Vec<String> = report.findings.iter().map(|f| f.to_string()).collect();
    assert!(
        findings.is_empty(),
        "workspace has lint findings:\n{}",
        findings.join("\n")
    );
}

#[test]
fn manifest_vendor_patch_rule() {
    let bad = r#"
[workspace.dependencies]
rand = "0.8"
serde = { version = "1", features = ["derive"] }
egeria-tensor = { path = "crates/tensor" }

[patch.crates-io]
rand = { path = "vendor/rand" }
"#;
    let findings = rules::check_manifest("Cargo.toml", bad);
    assert_eq!(findings.len(), 1, "{findings:?}");
    assert_eq!(findings[0].rule, rules::VENDORED_DEPS_ONLY);
    assert!(findings[0].message.contains("`serde`"));

    let good = r#"
[workspace.dependencies]
rand = "0.8"
egeria-tensor = { path = "crates/tensor" }

[patch.crates-io]
rand = { path = "vendor/rand" }
"#;
    assert!(rules::check_manifest("Cargo.toml", good).is_empty());
}

/// vendored-deps-only: a `[patch.crates-io]` entry that no workspace
/// dependency names is stale and flagged at its own line.
#[test]
fn manifest_stale_patch_rule() {
    let stale = r#"
[workspace.dependencies]
proptest = "1"
egeria-tensor = { path = "crates/tensor" }

[patch.crates-io]
proptest = { path = "vendor/proptest" }
bytes = { path = "vendor/bytes" }
"#;
    let findings = rules::check_manifest("Cargo.toml", stale);
    assert_eq!(findings.len(), 1, "{findings:?}");
    assert_eq!(findings[0].rule, rules::VENDORED_DEPS_ONLY);
    assert_eq!(findings[0].line, 8);
    let message = &findings[0].message;
    assert!(message.contains("`bytes` is stale"), "{message}");
}

/// The repo's real manifest satisfies the vendor-patch invariant.
#[test]
fn repo_manifest_is_fully_vendored() {
    let src = std::fs::read_to_string(repo_root().join("Cargo.toml")).expect("read Cargo.toml");
    let findings = rules::check_manifest("Cargo.toml", &src);
    assert!(findings.is_empty(), "{findings:?}");
}
