//! Policy A/B matrix runner (CI gate + golden-blessing tool).
//!
//! Default mode runs the full 5×5 (policy × model-family) matrix, verifies
//! every fingerprint against `tests/golden/policies/`, checks that the
//! policies produce *distinct* fingerprints per family, and writes the A/B
//! report into `results/`. Exits nonzero on any mismatch.
//!
//! Bless mode (`--bless` or `EGERIA_BLESS=1`) rewrites the golden files
//! from the current run instead of comparing.

use egeria_scenarios::registry::scenarios;
use egeria_scenarios::{golden_file_name, policy_label, policy_matrix, run_family, ScenarioResult};
use std::collections::HashMap;
use std::path::PathBuf;
use std::process::ExitCode;

fn repo_root() -> PathBuf {
    // crates/scenarios → repo root.
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("..")
        .join("..")
}

fn golden_dir() -> PathBuf {
    repo_root().join("tests").join("golden").join("policies")
}

fn main() -> ExitCode {
    let bless = std::env::args().any(|a| a == "--bless") || std::env::var("EGERIA_BLESS").is_ok();

    let families = scenarios();
    let names: Vec<&str> = families.iter().map(|r| r.name).collect();
    let mut results: Vec<ScenarioResult> = Vec::new();
    for family in &families {
        eprintln!(
            "running family {} ({} policies)",
            family.name,
            policy_matrix().len()
        );
        match run_family(family) {
            Ok(r) => results.extend(r),
            Err(e) => {
                eprintln!("FAIL: family {} errored: {e:?}", family.name);
                return ExitCode::FAILURE;
            }
        }
    }

    let mut failures = 0usize;

    // Per-family distinctness: every policy must leave a different
    // bit-exact trace, or the A/B comparison is measuring nothing. The
    // fingerprint header embeds the policy name, so compare the body
    // (everything after the first line) to catch real coincidences.
    for &family in &names {
        let mut bodies: HashMap<String, String> = HashMap::new();
        for r in results.iter().filter(|r| r.model == family) {
            let body: String = r.fingerprint.lines().skip(1).collect::<Vec<_>>().join("\n");
            if let Some(prev) = bodies.insert(body, r.policy.clone()) {
                eprintln!(
                    "FAIL: policies {} and {} are indistinguishable on {}",
                    prev, r.policy, family
                );
                failures += 1;
            }
        }
    }

    let dir = golden_dir();
    if bless {
        std::fs::create_dir_all(&dir).expect("create golden dir");
        for &family in &names {
            for policy in policy_matrix() {
                let r = results
                    .iter()
                    .find(|r| r.model == family && r.policy == policy_label(policy))
                    .expect("matrix is complete");
                let path = dir.join(golden_file_name(family, policy));
                std::fs::write(&path, &r.fingerprint).expect("write golden");
                eprintln!("blessed {}", path.display());
            }
        }
    } else {
        for &family in &names {
            for policy in policy_matrix() {
                let r = results
                    .iter()
                    .find(|r| r.model == family && r.policy == policy_label(policy))
                    .expect("matrix is complete");
                let path = dir.join(golden_file_name(family, policy));
                match std::fs::read_to_string(&path) {
                    Ok(expected) if expected == r.fingerprint => {}
                    Ok(_) => {
                        eprintln!(
                            "FAIL: fingerprint drift for ({}, {}) vs {}\n\
                             regenerate intentionally with: cargo run --release --bin scenario_ab -- --bless",
                            family,
                            r.policy,
                            path.display()
                        );
                        failures += 1;
                    }
                    Err(e) => {
                        eprintln!(
                            "FAIL: cannot read {}: {e}\nfirst run? bless with: cargo run --release --bin scenario_ab -- --bless",
                            path.display()
                        );
                        failures += 1;
                    }
                }
            }
        }
    }

    let results_dir = repo_root().join("results");
    if let Err(e) = egeria_scenarios::write_report(&results, &results_dir) {
        eprintln!("FAIL: cannot write report into {}: {e}", results_dir.display());
        failures += 1;
    } else {
        eprintln!(
            "wrote {} and .csv ({} cells)",
            results_dir.join("scenario_ab_report.json").display(),
            results.len()
        );
    }

    // Human-readable A/B summary.
    eprintln!("\n{:<12} {:<10} {:>10} {:>5} {:>8} {:>8}", "model", "policy", "final", "tta", "saved", "comm");
    for r in &results {
        eprintln!(
            "{:<12} {:<10} {:>10.6} {:>5} {:>7.1}% {:>7.1}%",
            r.model,
            r.policy,
            r.final_loss,
            r.tta_epochs.map(|t| t.to_string()).unwrap_or_else(|| "-".into()),
            r.compute_saved * 100.0,
            r.comm_skipped * 100.0
        );
    }

    if failures > 0 {
        eprintln!("\n{failures} failure(s)");
        return ExitCode::FAILURE;
    }
    eprintln!("\nscenario matrix OK");
    ExitCode::SUCCESS
}
