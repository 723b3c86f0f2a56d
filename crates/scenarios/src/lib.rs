//! The policy A/B scenario harness (DESIGN §5i).
//!
//! Drives every [`PolicyKind`] across the five model families on fixed
//! seeds and tiny reproduction-scale configs, producing per-(policy, model)
//! results: a bit-exact *fingerprint* (loss bits + decision timeline,
//! pinned under `tests/golden/policies/`) and A/B metrics (time-to-accuracy
//! vs the never-freeze baseline, compute saved, communication skipped).
//!
//! ## Determinism contract
//!
//! Every scenario is a pure function of its hard-coded `(seed, config)`
//! pair: synthetic data, shuffling, and weight init all derive from fixed
//! seeds; the scalar ISA is forced (vector ISAs are toleranced, not
//! bit-identical, per DESIGN §5g); and only the sync controller is used, so
//! no decision depends on thread scheduling. Fingerprints are therefore
//! bit-stable across machines and `EGERIA_THREADS` settings — any drift is
//! a behavioral change, and CI treats it as such. Scenario runs must not
//! have `EGERIA_FREEZE_POLICY` set (it would override the matrix); the
//! `scenario_ab` binary clears it defensively.

use egeria_core::trainer::{EgeriaTrainer, Optimizer, TrainerOptions};
use egeria_core::{EgeriaConfig, PolicyKind};
use egeria_data::images::{ImageDataConfig, SyntheticImages};
use egeria_data::qa::{QaDataConfig, SyntheticQa};
use egeria_data::segmentation::{SegDataConfig, SyntheticSegmentation};
use egeria_data::translation::{SyntheticTranslation, TranslationConfig};
use egeria_data::{DataLoader, Dataset};
use egeria_models::bert::{BertConfig, BertQa};
use egeria_models::deeplab::{deeplab_v3, DeepLabConfig};
use egeria_models::mobilenet::{mobilenet_v2, MobileNetConfig};
use egeria_models::resnet::{resnet_cifar, ResNetCifarConfig};
use egeria_models::transformer::{Seq2SeqTransformer, TransformerConfig};
use egeria_nn::optim::{Adam, Sgd};
use egeria_nn::sched::{InverseSqrt, LinearDecay, LrSchedule, MultiStepDecay};
use egeria_tensor::Result;
use serde::Serialize;
use std::fmt::Write as _;
use std::path::Path;

/// Fraction of a training step spent in the backward pass (the 2/3 rule of
/// thumb the paper's compute accounting uses: backward ≈ 2× forward).
const BACKWARD_FRACTION: f64 = 2.0 / 3.0;

/// TTA tolerance: a policy "reaches accuracy" at the first epoch whose
/// training loss is within 2% of the never-freeze baseline's final loss.
const TTA_TOLERANCE: f64 = 1.02;

/// The model families in the scenario matrix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ModelFamily {
    /// ResNet-style CIFAR classifier (the golden run's architecture).
    ResNet,
    /// MobileNetV2-style classifier.
    MobileNet,
    /// DeepLabv3-style segmenter.
    DeepLab,
    /// Encoder–decoder Transformer on synthetic translation.
    Transformer,
    /// BERT-style QA fine-tuning.
    BertTiny,
}

impl ModelFamily {
    /// Every family, in matrix order.
    pub fn all() -> [ModelFamily; 5] {
        [
            ModelFamily::ResNet,
            ModelFamily::MobileNet,
            ModelFamily::DeepLab,
            ModelFamily::Transformer,
            ModelFamily::BertTiny,
        ]
    }

    /// Stable short name (fingerprint files, report keys).
    pub fn name(&self) -> &'static str {
        match self {
            ModelFamily::ResNet => "resnet",
            ModelFamily::MobileNet => "mobilenet",
            ModelFamily::DeepLab => "deeplab",
            ModelFamily::Transformer => "transformer",
            ModelFamily::BertTiny => "bert_tiny",
        }
    }
}

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
#[derive(Debug, Clone, Serialize)]
pub struct ScenarioResult {
    /// Model family name.
    pub model: String,
    /// Policy name (plus period for interval).
    pub policy: String,
    /// Bit-exact fingerprint of the run (losses, timeline, counters).
    #[serde(skip)]
    pub fingerprint: String,
    /// Final-epoch training loss.
    pub final_loss: f32,
    /// First epoch (0-based) whose loss is within [`TTA_TOLERANCE`] of the
    /// never-freeze baseline's final loss; `None` if never reached.
    pub tta_epochs: Option<usize>,
    /// Mean fraction of training compute skipped across iterations
    /// (frozen-parameter share × backward fraction, full share when the
    /// cached-FP path also skipped the forward).
    pub compute_saved: f64,
    /// Mean fraction of gradient-synchronization traffic skipped (frozen
    /// parameter share per iteration).
    pub comm_skipped: f64,
    /// Activation-cache hit rate over cache lookups; `None` (an empty CSV
    /// cell) when the run made no lookup, so no rate was measured — with
    /// `n = 1` every post-bootstrap step is a probe step and the cached
    /// path is unreachable.
    pub cache_hit_rate: Option<f64>,
    /// Frozen-prefix length at the end of training.
    pub frozen_final: usize,
    /// Freeze events over the run.
    pub freezes: usize,
    /// Unfreeze events over the run.
    pub unfreezes: usize,
    /// Per-epoch loss curve (kept for TTA evaluation, not serialized).
    #[serde(skip)]
    pub curve: Vec<f32>,
}

/// One scenario: a family trained once under one policy.
pub fn run_scenario(family: ModelFamily, policy: PolicyKind) -> Result<ScenarioResult> {
    // Pin the scalar-ISA numerics (DESIGN §5g): fingerprints must not
    // depend on the host's SIMD support.
    egeria_tensor::simd::set_isa(egeria_tensor::simd::Isa::Scalar);
    let (mut trainer, data, loader) = build(family, policy);
    let module_params: Vec<usize> = trainer
        .model()
        .modules()
        .iter()
        .map(|m| m.param_count)
        .collect();
    let report = trainer.train(data.as_ref(), &loader, None)?;

    // Fingerprint: epoch losses bit-for-bit plus the decision timeline.
    let mut fp = String::new();
    let _ = writeln!(
        fp,
        "scenario fingerprint v1 model {} policy {}",
        family.name(),
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
        model: family.name().to_string(),
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
pub fn run_family(family: ModelFamily) -> Result<Vec<ScenarioResult>> {
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
pub fn golden_file_name(family: ModelFamily, policy: PolicyKind) -> String {
    format!("{}_{}.txt", family.name(), policy_label(policy))
}

/// Writes the A/B report as JSON and CSV into `dir` (created if missing).
pub fn write_report(results: &[ScenarioResult], dir: &Path) -> std::io::Result<()> {
    std::fs::create_dir_all(dir)?;
    let json = serde_json::to_string_pretty(&results).expect("report serializes");
    std::fs::write(dir.join("scenario_ab_report.json"), json)?;
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

// ---------------------------------------------------------------------------
// Per-family scenario construction (fixed seeds, tiny configs)
// ---------------------------------------------------------------------------

type Scenario = (EgeriaTrainer, Box<dyn Dataset>, DataLoader);

fn egeria_cfg(policy: PolicyKind, n: usize, w: usize, s: usize, t: f32) -> EgeriaConfig {
    EgeriaConfig {
        n,
        w,
        s,
        t,
        bootstrap_rate: 0.9,
        reference_update_every: 4,
        policy,
        ..Default::default()
    }
}

fn build(family: ModelFamily, policy: PolicyKind) -> Scenario {
    match family {
        ModelFamily::ResNet => {
            let model = resnet_cifar(
                ResNetCifarConfig {
                    n: 2,
                    width: 4,
                    classes: 4,
                    ..Default::default()
                },
                7,
            );
            let data = SyntheticImages::new(
                ImageDataConfig {
                    samples: 64,
                    classes: 4,
                    size: 8,
                    noise: 0.3,
                    augment: true,
                },
                2,
            );
            let epochs = 8;
            let trainer = EgeriaTrainer::new(
                Box::new(model),
                Optimizer::Sgd(Sgd::new(0.05, 0.9, 0.0)),
                Box::new(MultiStepDecay::new(0.05, 0.1, vec![5])) as Box<dyn LrSchedule>,
                TrainerOptions {
                    epochs,
                    egeria: Some(egeria_cfg(policy, 1, 3, 2, 5.0)),
                    ..Default::default()
                },
            );
            (trainer, Box::new(data), DataLoader::new(64, 16, 3, true))
        }
        ModelFamily::MobileNet => {
            let model = mobilenet_v2(
                MobileNetConfig {
                    width_div: 16,
                    classes: 4,
                    ..Default::default()
                },
                5,
            );
            let data = SyntheticImages::new(
                ImageDataConfig {
                    samples: 64,
                    classes: 4,
                    size: 8,
                    noise: 0.3,
                    augment: true,
                },
                4,
            );
            let epochs = 8;
            let trainer = EgeriaTrainer::new(
                Box::new(model),
                Optimizer::Sgd(Sgd::new(0.05, 0.9, 0.0)),
                Box::new(MultiStepDecay::new(0.05, 0.1, vec![5])) as Box<dyn LrSchedule>,
                TrainerOptions {
                    epochs,
                    egeria: Some(egeria_cfg(policy, 1, 3, 2, 5.0)),
                    ..Default::default()
                },
            );
            (trainer, Box::new(data), DataLoader::new(64, 16, 5, true))
        }
        ModelFamily::DeepLab => {
            let model = deeplab_v3(
                DeepLabConfig {
                    stages: vec![1, 1, 1],
                    width: 4,
                    classes: 3,
                    ..Default::default()
                },
                6,
            );
            let data = SyntheticSegmentation::new(
                SegDataConfig {
                    samples: 48,
                    classes: 3,
                    size: 8,
                },
                7,
            );
            let epochs = 8;
            let trainer = EgeriaTrainer::new(
                Box::new(model),
                Optimizer::Sgd(Sgd::new(0.05, 0.9, 0.0)),
                Box::new(MultiStepDecay::new(0.05, 0.1, vec![5])) as Box<dyn LrSchedule>,
                TrainerOptions {
                    epochs,
                    egeria: Some(egeria_cfg(policy, 1, 3, 2, 5.0)),
                    ..Default::default()
                },
            );
            (trainer, Box::new(data), DataLoader::new(48, 16, 7, true))
        }
        ModelFamily::Transformer => {
            let model = Seq2SeqTransformer::new("t", TransformerConfig::tiny(16), 5)
                .expect("transformer builds");
            let data = SyntheticTranslation::new(
                TranslationConfig {
                    samples: 48,
                    vocab: 16,
                    len: 6,
                },
                6,
            );
            let epochs = 8;
            let trainer = EgeriaTrainer::new(
                Box::new(model),
                Optimizer::Adam(Adam::new(3e-3, 0.0)),
                Box::new(InverseSqrt::new(3e-3, 30)) as Box<dyn LrSchedule>,
                TrainerOptions {
                    epochs,
                    egeria: Some(egeria_cfg(policy, 1, 4, 3, 2.5)),
                    lr_per_iteration: true,
                    ..Default::default()
                },
            );
            (trainer, Box::new(data), DataLoader::new(48, 16, 7, true))
        }
        ModelFamily::BertTiny => {
            let model = BertQa::new(
                "bert",
                BertConfig {
                    vocab: 16,
                    d_model: 16,
                    heads: 2,
                    d_ff: 32,
                    layers: 4,
                },
                9,
            )
            .expect("bert builds");
            let data = SyntheticQa::new(
                QaDataConfig {
                    samples: 48,
                    vocab: 16,
                    len: 10,
                    answer_len: 2,
                },
                10,
            );
            let epochs = 8;
            let trainer = EgeriaTrainer::new(
                Box::new(model),
                Optimizer::Adam(Adam::new(1e-3, 0.0)),
                Box::new(LinearDecay::new(1e-3, 200)) as Box<dyn LrSchedule>,
                TrainerOptions {
                    epochs,
                    egeria: Some(egeria_cfg(policy, 1, 4, 3, 2.5)),
                    lr_per_iteration: true,
                    ..Default::default()
                },
            );
            (trainer, Box::new(data), DataLoader::new(48, 16, 11, true))
        }
    }
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

    #[test]
    fn golden_file_names_follow_the_matrix_labels() {
        assert_eq!(
            golden_file_name(ModelFamily::BertTiny, PolicyKind::Interval { every: 3 }),
            "bert_tiny_interval3.txt"
        );
        assert_eq!(
            golden_file_name(ModelFamily::ResNet, PolicyKind::Paper),
            "resnet_paper.txt"
        );
    }
}
