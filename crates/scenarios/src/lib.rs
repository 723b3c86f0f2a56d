//! The workload registry and the policy A/B scenario harness (DESIGN §3,
//! §5i).
//!
//! [`registry`] holds the workloads behind the reproduced evidence — Table
//! 1's seven and the matrix's five families — as plain data, with the one
//! builder that turns an entry into a run. The harness drives every
//! [`PolicyKind`] across the five [`registry::scenarios`] families,
//! producing per-(policy, model) results: a bit-exact *fingerprint* (loss
//! bits + decision timeline, pinned under `tests/golden/policies/`) and A/B
//! metrics (time-to-accuracy vs the never-freeze baseline, compute saved,
//! communication skipped).
//!
//! ## Determinism contract
//!
//! Every scenario is a pure function of its registry entry and policy:
//! synthetic data, shuffling, and weight init all derive from fixed
//! seeds; the scalar ISA is forced (vector ISAs are toleranced, not
//! bit-identical, per DESIGN §5g); and the reference is probed inline on
//! the training thread, so no decision depends on thread scheduling.
//! Fingerprints are therefore bit-stable across machines and
//! `EGERIA_THREADS` settings — any drift is a behavioral change, and CI
//! treats it as such.

use egeria_core::{EgeriaConfig, PolicyKind};
use egeria_obs::jsonl::{to_string_pretty, Object};
use egeria_tensor::Result;
use registry::{build, Recipe};
use std::fmt::Write as _;
use std::path::Path;

pub mod registry;

/// Fraction of a training step spent in the backward pass (the 2/3 rule of
/// thumb the paper's compute accounting uses: backward ≈ 2× forward).
const BACKWARD_FRACTION: f64 = 2.0 / 3.0;

/// TTA tolerance: a policy "reaches accuracy" at the first epoch whose
/// training loss is within 2% of the never-freeze baseline's final loss.
const TTA_TOLERANCE: f64 = 1.02;

/// The policy axis of the matrix: the paper rule, the learned predictor,
/// the two baselines, and the regression-aware variant.
pub fn policy_matrix() -> [PolicyKind; 5] {
    [
        PolicyKind::Paper,
        PolicyKind::Learned,
        PolicyKind::Interval { every: 3 },
        PolicyKind::NeverFreeze,
        PolicyKind::RegressionAware,
    ]
}

/// One (policy, model) cell of the A/B matrix.
#[derive(Debug, Clone)]
pub struct ScenarioResult {
    /// Model family name.
    pub model: String,
    /// Policy name (plus period for interval).
    pub policy: String,
    /// Bit-exact fingerprint of the run (losses, timeline, counters; not
    /// in the report).
    pub fingerprint: String,
    /// Final-epoch training loss.
    pub final_loss: f32,
    /// First epoch (0-based) whose loss is within 2 % (`TTA_TOLERANCE`) of the
    /// never-freeze baseline's final loss; `None` if never reached.
    pub tta_epochs: Option<usize>,
    /// Mean fraction of training compute skipped across iterations
    /// (frozen-parameter share × backward fraction, full share when the
    /// cached-FP path also skipped the forward). A promoted step — an
    /// entry from an earlier boundary carried forward — counts as fully
    /// cached, though it ran the forward of the modules frozen since, so
    /// the column is an upper bound where the run promoted.
    pub compute_saved: f64,
    /// Mean fraction of gradient-synchronization traffic skipped (frozen
    /// parameter share per iteration).
    pub comm_skipped: f64,
    /// Activation-cache hit rate over cache lookups (promotions count as
    /// hits); `None` (an empty CSV cell) when the run made no lookup, so
    /// no rate was measured. Probe steps read the cache too, so the
    /// matrix's `n = 1` runs make lookups once a prefix is frozen.
    pub cache_hit_rate: Option<f64>,
    /// Frozen-prefix length at the end of training.
    pub frozen_final: usize,
    /// Freeze events over the run.
    pub freezes: usize,
    /// Unfreeze events over the run.
    pub unfreezes: usize,
    /// Per-epoch loss curve (kept for TTA evaluation, not in the report).
    pub curve: Vec<f32>,
}

/// One scenario: a family ([`registry::scenarios`] entry) trained once
/// under one policy.
pub fn run_scenario(family: &Recipe, policy: PolicyKind) -> Result<ScenarioResult> {
    // Pin the scalar-ISA numerics (DESIGN §5g): fingerprints must not
    // depend on the host's SIMD support.
    egeria_tensor::simd::set_isa(egeria_tensor::simd::Isa::Scalar);
    let built = build(&Recipe {
        egeria: family.egeria.map(|c| EgeriaConfig { policy, ..c }),
        ..family.clone()
    })?;
    let module_params: Vec<usize> = built
        .model
        .modules()
        .iter()
        .map(|m| m.param_count)
        .collect();
    let report = built.train()?;

    // Fingerprint: epoch losses bit-for-bit plus the decision timeline.
    let mut fp = String::new();
    let _ = writeln!(
        fp,
        "scenario fingerprint v1 model {} policy {}",
        family.name,
        policy_label(policy)
    );
    for e in &report.epochs {
        let _ = writeln!(
            fp,
            "epoch {} loss 0x{:08x} ({:.6}) frozen {}",
            e.epoch,
            e.train_loss.to_bits(),
            e.train_loss,
            e.frozen_prefix
        );
    }
    for ev in &report.events {
        let _ = writeln!(fp, "event iter {} {} prefix {}", ev.iteration, ev.kind, ev.prefix);
    }

    // Compute/communication accounting from the per-iteration records.
    let total_params: usize = module_params.iter().sum();
    let mut compute = 0.0f64;
    let mut comm = 0.0f64;
    for it in &report.iterations {
        let frozen: usize = module_params
            .iter()
            .take(it.frozen_prefix as usize)
            .sum();
        let share = frozen as f64 / total_params.max(1) as f64;
        comm += share;
        compute += if it.fp_cached {
            share // Cached FP skips the prefix's forward AND backward.
        } else {
            share * BACKWARD_FRACTION
        };
    }
    let iters = report.iterations.len().max(1) as f64;
    let lookups = report.cache_stats.hits + report.cache_stats.misses;

    let final_loss = report.epochs.last().map(|e| e.train_loss).unwrap_or(f32::NAN);
    Ok(ScenarioResult {
        model: family.name.to_string(),
        policy: policy_label(policy),
        fingerprint: fp,
        final_loss,
        tta_epochs: None, // Filled in by `run_family` against the baseline.
        compute_saved: compute / iters,
        comm_skipped: comm / iters,
        cache_hit_rate: (lookups > 0).then(|| report.cache_stats.hits as f64 / lookups as f64),
        frozen_final: report.epochs.last().map(|e| e.frozen_prefix).unwrap_or(0),
        freezes: report.events.iter().filter(|e| e.kind == "freeze").count(),
        unfreezes: report.events.iter().filter(|e| e.kind == "unfreeze").count(),
        curve: report.epochs.iter().map(|e| e.train_loss).collect(),
    })
}

/// Runs one family across the whole policy matrix; TTA is measured against
/// the never-freeze run of the same family.
pub fn run_family(family: &Recipe) -> Result<Vec<ScenarioResult>> {
    // The baseline must run first: its final loss defines the TTA target.
    let baseline = run_scenario(family, PolicyKind::NeverFreeze)?;
    let target = baseline.final_loss as f64 * TTA_TOLERANCE;
    let mut out = Vec::new();
    for policy in policy_matrix() {
        let mut r = if policy == PolicyKind::NeverFreeze {
            baseline.clone()
        } else {
            run_scenario(family, policy)?
        };
        r.tta_epochs = r
            .curve
            .iter()
            .position(|&l| (l as f64) <= target);
        out.push(r);
    }
    Ok(out)
}

/// Stable label for a policy cell (`interval` carries its period).
pub fn policy_label(policy: PolicyKind) -> String {
    match policy {
        PolicyKind::Interval { every } => format!("interval{every}"),
        other => other.name().to_string(),
    }
}

/// Fingerprint golden file name of a (family, policy) cell.
pub fn golden_file_name(family: &str, policy: PolicyKind) -> String {
    format!("{family}_{}.txt", policy_label(policy))
}

/// Writes the A/B report as JSON and CSV into `dir` (created if missing).
pub fn write_report(results: &[ScenarioResult], dir: &Path) -> std::io::Result<()> {
    std::fs::create_dir_all(dir)?;
    let rows: Vec<Object> = results
        .iter()
        .map(|r| {
            Object::new()
                .field("model", &r.model)
                .field("policy", &r.policy)
                .field("final_loss", r.final_loss)
                .field("tta_epochs", r.tta_epochs)
                .field("compute_saved", r.compute_saved)
                .field("comm_skipped", r.comm_skipped)
                .field("cache_hit_rate", r.cache_hit_rate)
                .field("frozen_final", r.frozen_final)
                .field("freezes", r.freezes)
                .field("unfreezes", r.unfreezes)
        })
        .collect();
    std::fs::write(dir.join("scenario_ab_report.json"), to_string_pretty(&rows))?;
    let mut csv = String::from(
        "model,policy,final_loss,tta_epochs,compute_saved,comm_skipped,\
         cache_hit_rate,frozen_final,freezes,unfreezes\n",
    );
    for r in results {
        let _ = writeln!(
            csv,
            "{},{},{:.6},{},{:.4},{:.4},{},{},{},{}",
            r.model,
            r.policy,
            r.final_loss,
            r.tta_epochs.map(|t| t.to_string()).unwrap_or_default(),
            r.compute_saved,
            r.comm_skipped,
            r.cache_hit_rate
                .map(|h| format!("{h:.4}"))
                .unwrap_or_default(),
            r.frozen_final,
            r.freezes,
            r.unfreezes
        );
    }
    std::fs::write(dir.join("scenario_ab_report.csv"), csv)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn policy_labels_are_unique() {
        let labels: Vec<String> = policy_matrix().iter().map(|p| policy_label(*p)).collect();
        let mut dedup = labels.clone();
        dedup.sort();
        dedup.dedup();
        assert_eq!(dedup.len(), labels.len(), "labels collide: {labels:?}");
    }

    /// The JSON report's bytes, recorded at bc01006 for a fixed two-row
    /// input that covers a `None` TTA, a `None` hit rate and a NaN loss.
    #[test]
    fn report_json_bytes_are_pinned() {
        let row = |model: &str, final_loss, tta_epochs, cache_hit_rate| ScenarioResult {
            model: model.to_string(),
            policy: "interval3".to_string(),
            fingerprint: "not serialized".to_string(),
            final_loss,
            tta_epochs,
            compute_saved: 0.1,
            comm_skipped: 1.0 / 3.0,
            cache_hit_rate,
            frozen_final: 2,
            freezes: 3,
            unfreezes: 0,
            curve: vec![1.0, 0.5],
        };
        let rows = [
            row("resnet", 0.317_972_72, Some(4), None),
            row("bert_\"tiny\"", f32::NAN, None, Some(0.25)),
        ];
        let dir = std::env::temp_dir().join(format!("egeria-report-pin-{}", std::process::id()));
        write_report(&rows, &dir).unwrap();
        let json = std::fs::read_to_string(dir.join("scenario_ab_report.json")).unwrap();
        let _ = std::fs::remove_dir_all(&dir);
        let expected = r#"[
  {
    "model": "resnet",
    "policy": "interval3",
    "final_loss": 0.31797272,
    "tta_epochs": 4,
    "compute_saved": 0.1,
    "comm_skipped": 0.3333333333333333,
    "cache_hit_rate": null,
    "frozen_final": 2,
    "freezes": 3,
    "unfreezes": 0
  },
  {
    "model": "bert_\"tiny\"",
    "policy": "interval3",
    "final_loss": null,
    "tta_epochs": null,
    "compute_saved": 0.1,
    "comm_skipped": 0.3333333333333333,
    "cache_hit_rate": 0.25,
    "frozen_final": 2,
    "freezes": 3,
    "unfreezes": 0
  }
]"#;
        assert_eq!(json, expected);
    }

    #[test]
    fn golden_file_names_follow_the_matrix_labels() {
        assert_eq!(
            golden_file_name("bert_tiny", PolicyKind::Interval { every: 3 }),
            "bert_tiny_interval3.txt"
        );
        assert_eq!(
            golden_file_name("resnet", PolicyKind::Paper),
            "resnet_paper.txt"
        );
    }
}
