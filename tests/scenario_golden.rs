//! Per-policy golden fingerprints, debug-build slice.
//!
//! The full 5×5 (policy × model family) matrix is verified by the
//! release-built `scenario_ab` binary in `ci.sh` (debug builds would take
//! minutes per family). This test pins the ResNet column — the same
//! architecture as `tests/golden_run.rs` — under `cargo test`, so a policy
//! regression is caught even without the CI script:
//!
//! * every policy reproduces its checked-in fingerprint bit-for-bit, and
//! * the five policies leave five *distinct* decision traces (if two
//!   policies are indistinguishable the A/B harness measures nothing).
//!
//! Regenerate all goldens after an intentional change with:
//!
//! ```text
//! cargo run --release -p egeria-scenarios --bin scenario_ab -- --bless
//! ```

use egeria_scenarios::registry::recipe;
use egeria_scenarios::{golden_file_name, policy_matrix, run_scenario};
use std::collections::HashMap;
use std::path::PathBuf;

fn golden_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("golden")
        .join("policies")
}

#[test]
fn resnet_policy_fingerprints_match_goldens_and_are_distinct() {
    let resnet = recipe("resnet").expect("registry entry");
    let mut bodies: HashMap<String, String> = HashMap::new();
    for policy in policy_matrix() {
        let r = run_scenario(&resnet, policy).expect("scenario trains");
        let path = golden_dir().join(golden_file_name(resnet.name, policy));
        let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
            panic!(
                "cannot read {}: {e}\nbless with: cargo run --release -p egeria-scenarios --bin scenario_ab -- --bless",
                path.display()
            )
        });
        assert_eq!(
            expected, r.fingerprint,
            "fingerprint drift for (resnet, {})\nregenerate intentionally with: \
             cargo run --release -p egeria-scenarios --bin scenario_ab -- --bless",
            r.policy
        );

        // Compare fingerprint bodies (the header embeds the policy name,
        // so identical decision traces would still differ on line 1).
        let body: String = r.fingerprint.lines().skip(1).collect::<Vec<_>>().join("\n");
        if let Some(prev) = bodies.insert(body, r.policy.clone()) {
            panic!("policies {prev} and {} are indistinguishable on resnet", r.policy);
        }
    }
}
