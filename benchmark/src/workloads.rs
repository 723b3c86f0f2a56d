//! The four benchmark workloads.
//!
//! Model, data, optimizer and schedule settings are copied from
//! `crates/bench/src/workloads.rs` and `experiments.rs` (ResNet-56,
//! Transformer-Base and BERT-QA rows) so that this package depends on
//! neither `egeria-bench` nor `egeria-scenarios`.
//!
//! The learning problem — initial weights, data, batch order — is part of a
//! workload's definition ([`TASK_SEED`]): time to accuracy and the quality
//! floors compare only along one trajectory, and on these small synthetic
//! tasks another initialisation or batch order moves the epoch that reaches
//! the target by up to 8x and the final metric from 0.2 to 1.0 (README,
//! "What the seed does"). The run's seed draws the keys the activation cache
//! sees instead, which leaves the arithmetic alone.

use egeria_core::checkpoint::CheckpointOptions;
use egeria_core::config::CacheStoreKind;
use egeria_core::trainer::{Optimizer, TrainerOptions};
use egeria_core::EgeriaConfig;
use egeria_data::images::{ImageDataConfig, SyntheticImages};
use egeria_data::qa::{QaDataConfig, SyntheticQa};
use egeria_data::translation::{SyntheticTranslation, TranslationConfig};
use egeria_data::{DataLoader, Dataset};
use egeria_models::bert::{BertConfig, BertQa};
use egeria_models::resnet::{resnet_cifar, ResNetCifarConfig};
use egeria_models::transformer::{Seq2SeqTransformer, TransformerConfig};
use egeria_models::{Batch, Model};
use egeria_nn::optim::{Adam, Sgd};
use egeria_nn::sched::{InverseSqrt, LinearDecay, LrSchedule, MultiStepDecay};
use egeria_tensor::{Result, Rng, TensorError};
use std::path::Path;

pub const BATCH_SIZE: usize = 16;

/// The seed of the learning problem: model initialisation, datasets,
/// batch order and, for `bert_probe`, the pre-training.
pub const TASK_SEED: u64 = 1;

/// What identifies a workload and what a correct run of it must reach.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    pub name: &'static str,
    /// One line for `BENCHMARK.json` and the report header.
    pub why: &'static str,
    pub epochs: usize,
    /// `tta_s` is the time to the end of the first epoch whose validation
    /// loss is at or below this.
    pub tta_target: f32,
    /// A run whose last-epoch validation metric is below this has failed.
    pub val_floor: f32,
    /// Whether the run must record a freeze.
    pub expect_freeze: bool,
    /// Whether the run must record a cached-FP hit.
    pub expect_cache_hits: bool,
    /// Checkpoints the run must save (`every: 5` over the epochs).
    pub checkpoint_every: Option<usize>,
}

pub const SPECS: [Spec; 4] = [
    Spec {
        name: "resnet56_nofreeze",
        why: "plain baseline and bypass: only data/tensor/nn/models run; freezer, reference, serve, cache, store and checkpoint changes must leave it unmoved",
        epochs: 60,
        tta_target: 0.01,
        val_floor: 0.90,
        expect_freeze: false,
        expect_cache_hits: false,
        checkpoint_every: None,
    },
    Spec {
        name: "resnet56_egeria",
        why: "the paper's headline case: freezing with two LR-decay unfreezes, so cache writes sit beside reads; with resnet56_nofreeze it gives the real Egeria-on/off ratio",
        epochs: 60,
        tta_target: 0.01,
        val_floor: 0.90,
        expect_freeze: true,
        expect_cache_hits: true,
        checkpoint_every: None,
    },
    Spec {
        name: "transformer_egeria",
        why: "attention/LayerNorm/Adam, monotone freezing, read-mostly cache tail through the chunked store, and the only workload that stalls on checkpoints",
        epochs: 50,
        tta_target: 2.67,
        val_floor: 0.10,
        expect_freeze: true,
        expect_cache_hits: true,
        checkpoint_every: Some(5),
    },
    Spec {
        name: "bert_probe",
        why: "probe-every-step fine-tuning of a pre-trained BERT: reference capture through serve and int8 regeneration dominate, the cache is never consulted, set-up is costly",
        epochs: 25,
        tta_target: 1.35,
        val_floor: 0.65,
        expect_freeze: true,
        expect_cache_hits: false,
        checkpoint_every: None,
    },
];

pub fn spec(name: &str) -> Option<&'static Spec> {
    SPECS.iter().find(|s| s.name == name)
}

/// Everything `EgeriaTrainer::new` and `train` take for one run.
pub struct Built {
    pub model: Box<dyn Model>,
    pub train: Box<dyn Dataset>,
    pub val: Box<dyn Dataset>,
    pub optimizer: Optimizer,
    pub schedule: Box<dyn LrSchedule>,
    pub loader: DataLoader,
    pub val_loader: DataLoader,
    pub options: TrainerOptions,
}

/// The Egeria settings shared by the experiment harness (`n: 5`,
/// `W = S = 12`, reference refreshed every 8 evaluations).
fn base_egeria() -> EgeriaConfig {
    EgeriaConfig {
        n: 5,
        w: 12,
        s: 12,
        t: 1.0,
        bootstrap_rate: 0.10,
        reference_update_every: 8,
        ..Default::default()
    }
}

/// A dataset whose batches carry seed-drawn sample ids. The ids are the
/// activation cache's keys and nothing else reads them, so the cache and
/// the chunked store see another key layout (file names, chunk and shard
/// placement) for every seed while the trained arithmetic stays the same.
struct Rekeyed {
    inner: Box<dyn Dataset>,
    /// A permutation of `0..inner.len()`.
    ids: Vec<u64>,
}

impl Rekeyed {
    fn new(inner: Box<dyn Dataset>, seed: u64) -> Self {
        let ids = Rng::new(seed).permutation(inner.len());
        Rekeyed {
            inner,
            ids: ids.into_iter().map(|i| i as u64).collect(),
        }
    }
}

impl Dataset for Rekeyed {
    fn len(&self) -> usize {
        self.inner.len()
    }

    fn is_empty(&self) -> bool {
        self.inner.is_empty()
    }

    fn materialize(&self, indices: &[usize]) -> Result<Batch> {
        let mut batch = self.inner.materialize(indices)?;
        batch.sample_ids = indices.iter().map(|&i| self.ids[i]).collect();
        Ok(batch)
    }
}

/// Builds `spec` for `seed`, training for `epochs` (the spec's own count
/// except in smoke mode). `scratch` must be an empty directory owned by
/// this run: the activation cache and the checkpoints go below it, and a
/// checkpoint left by another run would be resumed from.
pub fn build(spec: &Spec, seed: u64, epochs: usize, scratch: &Path) -> Result<Built> {
    let mut built = build_untrained(spec, epochs, scratch)?;
    built.train = Box::new(Rekeyed::new(built.train, seed));
    if spec.name == "bert_probe" {
        // The paper fine-tunes a pre-trained BERT: the stand-in for
        // loading that checkpoint is part of this workload's set-up.
        pretrain_bert(built.model.as_mut())?;
    }
    Ok(built)
}

/// [`build`] without `bert_probe`'s pre-training, for the isolated probes:
/// what a call costs depends on the shapes, not on the weights.
pub fn build_untrained(spec: &Spec, epochs: usize, scratch: &Path) -> Result<Built> {
    let io = |e: std::io::Error| TensorError::Io(e.to_string());
    let cache_dir = scratch.join("cache");
    std::fs::create_dir_all(&cache_dir).map_err(io)?;
    let mut options = TrainerOptions {
        epochs,
        cache_dir: Some(cache_dir),
        ..Default::default()
    };
    if let Some(every) = spec.checkpoint_every {
        options.checkpoint = Some(CheckpointOptions {
            dir: scratch.join("ckpt"),
            every,
            keep: 2,
        });
    }
    let seed = TASK_SEED;
    let loader_seed = seed.wrapping_add(1000);
    let built = match spec.name {
        "resnet56_nofreeze" | "resnet56_egeria" => {
            let model = resnet_cifar(
                ResNetCifarConfig {
                    n: 9,
                    width: 4,
                    classes: 8,
                    ..Default::default()
                },
                seed,
            );
            let data_cfg = ImageDataConfig {
                samples: 320,
                classes: 8,
                size: 10,
                noise: 0.5,
                augment: true,
            };
            let val_cfg = ImageDataConfig {
                samples: 128,
                augment: false,
                ..data_cfg
            };
            if spec.name == "resnet56_egeria" {
                options.egeria = Some(base_egeria());
            }
            Built {
                model: Box::new(model),
                train: Box::new(SyntheticImages::new(data_cfg, seed.wrapping_add(1))),
                val: Box::new(SyntheticImages::new(val_cfg, seed.wrapping_add(1))),
                optimizer: Optimizer::Sgd(Sgd::new(0.1, 0.9, 1e-4)),
                schedule: Box::new(MultiStepDecay::new(
                    0.1,
                    0.1,
                    vec![epochs / 2, epochs * 3 / 4],
                )),
                loader: DataLoader::new(data_cfg.samples, BATCH_SIZE, loader_seed, true),
                val_loader: DataLoader::new(val_cfg.samples, BATCH_SIZE, 0, false),
                options,
            }
        }
        "transformer_egeria" => {
            let model =
                Seq2SeqTransformer::new("transformer_base", TransformerConfig::base(16), seed)?;
            let data_cfg = TranslationConfig {
                samples: 256,
                vocab: 16,
                len: 8,
            };
            let val_cfg = TranslationConfig {
                samples: 96,
                ..data_cfg
            };
            options.lr_per_iteration = true;
            options.egeria = Some(EgeriaConfig {
                cache_store: CacheStoreKind::Chunked,
                ..base_egeria()
            });
            Built {
                model: Box::new(model),
                train: Box::new(SyntheticTranslation::new(data_cfg, seed.wrapping_add(5))),
                val: Box::new(SyntheticTranslation::new(val_cfg, seed.wrapping_add(5))),
                optimizer: Optimizer::Adam(Adam::new(4e-3, 0.0)),
                schedule: Box::new(InverseSqrt::new(4e-3, 40)),
                loader: DataLoader::new(data_cfg.samples, BATCH_SIZE, loader_seed, true),
                val_loader: DataLoader::new(val_cfg.samples, BATCH_SIZE, 0, false),
                options,
            }
        }
        "bert_probe" => {
            let model = BertQa::new(
                "bert_base",
                BertConfig {
                    vocab: 24,
                    d_model: 24,
                    heads: 4,
                    d_ff: 48,
                    layers: 12,
                },
                seed,
            )?;
            let data_cfg = QaDataConfig {
                samples: 256,
                vocab: 24,
                len: 16,
                answer_len: 3,
            };
            let val_cfg = QaDataConfig {
                samples: 96,
                ..data_cfg
            };
            options.lr_per_iteration = true;
            // The scenario matrix's probe-every-step regime.
            options.egeria = Some(EgeriaConfig {
                n: 1,
                w: 8,
                s: 8,
                ..base_egeria()
            });
            let iterations = epochs * (data_cfg.samples / BATCH_SIZE);
            Built {
                model: Box::new(model),
                train: Box::new(SyntheticQa::new(data_cfg, seed.wrapping_add(7))),
                val: Box::new(SyntheticQa::new(val_cfg, seed.wrapping_add(700))),
                optimizer: Optimizer::Adam(Adam::new(5e-4, 0.0)),
                schedule: Box::new(LinearDecay::new(5e-4, iterations)),
                loader: DataLoader::new(data_cfg.samples, BATCH_SIZE, loader_seed, true),
                val_loader: DataLoader::new(val_cfg.samples, BATCH_SIZE, 0, false),
                options,
            }
        }
        other => {
            return Err(TensorError::Numerical(format!(
                "unknown workload {other:?}"
            )));
        }
    };
    Ok(built)
}

/// Ten epochs on a synthetic QA set disjoint from the fine-tuning data.
fn pretrain_bert(model: &mut dyn Model) -> Result<()> {
    let seed = TASK_SEED;
    let samples = 192;
    let data = SyntheticQa::new(
        QaDataConfig {
            samples,
            vocab: 24,
            len: 16,
            answer_len: 3,
        },
        seed.wrapping_add(0xBE57),
    );
    let loader = DataLoader::new(samples, BATCH_SIZE, seed.wrapping_add(1), true);
    let mut opt = Adam::new(1e-3, 0.0);
    for epoch in 0..10 {
        for plan in loader.epoch_plan(epoch) {
            let batch = data.materialize(&plan.indices)?;
            model.train_step(&batch, None)?;
            opt.step(&mut model.params_mut())?;
            model.zero_grad();
        }
    }
    Ok(())
}
