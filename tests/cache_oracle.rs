//! Trainer-level cache oracle: serving the frozen prefix from the
//! activation cache must not change a run at all.
//!
//! Each of the five families trains twice from the same seeds, once with
//! `cache_fp` on and once with it off. The freeze/unfreeze events, every
//! plasticity value and the per-epoch train/validation loss and metric must
//! match bit for bit. `tests/cached_fp_equivalence.rs` pins the same
//! invariant one step at a time; this pins it through the trainer, where
//! hits, promotions across a prefix advance, probe steps that read the
//! cache and invalidations on unfreeze all interleave.
//!
//! The configs are chosen so the cache does real work: every cached run
//! must serve at least 30 % of its lookups and promote at least one batch
//! past a prefix advance, or the comparison would be vacuous. ResNet's
//! LR drop thaws a prefix that then refreezes at the same boundary, so a
//! missing invalidation on unfreeze would serve stale entries and fail it.

use egeria_core::trainer::{EgeriaTrainer, Optimizer, TrainReport, TrainerOptions};
use egeria_core::EgeriaConfig;
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
use egeria_models::Model;
use egeria_nn::optim::{Adam, Sgd};
use egeria_nn::sched::{InverseSqrt, LinearDecay, LrSchedule, MultiStepDecay};
use std::fmt::Write as _;

/// One family: what a run trains, on what, and how.
struct Family {
    name: &'static str,
    model: fn() -> Box<dyn Model>,
    data: fn() -> Box<dyn Dataset>,
    optimizer: fn() -> Optimizer,
    schedule: fn() -> Box<dyn LrSchedule>,
    lr_per_iteration: bool,
    cfg: EgeriaConfig,
}

/// Long enough past the last freeze for every family's hit ratio to clear
/// 0.3.
const EPOCHS: usize = 24;

fn cfg(w: usize, s: usize, t: f32) -> EgeriaConfig {
    EgeriaConfig {
        n: 2,
        w,
        s,
        t,
        bootstrap_rate: 0.9,
        reference_update_every: 4,
        ..Default::default()
    }
}

fn images(seed: u64) -> Box<dyn Dataset> {
    Box::new(SyntheticImages::new(
        ImageDataConfig {
            samples: 64,
            classes: 4,
            size: 8,
            noise: 0.3,
            augment: true,
        },
        seed,
    ))
}

fn families() -> Vec<Family> {
    vec![
        Family {
            name: "resnet",
            model: || {
                let cfg = ResNetCifarConfig {
                    n: 2,
                    width: 4,
                    classes: 4,
                    ..Default::default()
                };
                Box::new(resnet_cifar(cfg, 7))
            },
            data: || images(2),
            optimizer: || Optimizer::Sgd(Sgd::new(0.05, 0.9, 0.0)),
            schedule: || Box::new(MultiStepDecay::new(0.05, 0.1, vec![6])),
            lr_per_iteration: false,
            cfg: cfg(4, 4, 5.0),
        },
        Family {
            name: "mobilenet",
            model: || {
                let cfg = MobileNetConfig {
                    width_div: 16,
                    classes: 4,
                    ..Default::default()
                };
                Box::new(mobilenet_v2(cfg, 5))
            },
            data: || images(4),
            optimizer: || Optimizer::Sgd(Sgd::new(0.05, 0.9, 0.0)),
            schedule: || Box::new(MultiStepDecay::new(0.05, 0.1, vec![7])),
            lr_per_iteration: false,
            cfg: cfg(3, 2, 5.0),
        },
        Family {
            name: "deeplab",
            model: || {
                let cfg = DeepLabConfig {
                    stages: vec![1, 1, 1],
                    width: 4,
                    classes: 3,
                    ..Default::default()
                };
                Box::new(deeplab_v3(cfg, 6))
            },
            data: || {
                let cfg = SegDataConfig {
                    samples: 48,
                    classes: 3,
                    size: 8,
                };
                Box::new(SyntheticSegmentation::new(cfg, 7))
            },
            optimizer: || Optimizer::Sgd(Sgd::new(0.05, 0.9, 0.0)),
            schedule: || Box::new(MultiStepDecay::new(0.05, 0.1, vec![7])),
            lr_per_iteration: false,
            cfg: cfg(3, 2, 5.0),
        },
        Family {
            name: "transformer",
            model: || {
                Box::new(Seq2SeqTransformer::new("t", TransformerConfig::tiny(16), 5).unwrap())
            },
            data: || {
                let cfg = TranslationConfig {
                    samples: 48,
                    vocab: 16,
                    len: 6,
                };
                Box::new(SyntheticTranslation::new(cfg, 6))
            },
            optimizer: || Optimizer::Adam(Adam::new(3e-3, 0.0)),
            schedule: || Box::new(InverseSqrt::new(3e-3, 30)),
            lr_per_iteration: true,
            cfg: cfg(4, 3, 2.5),
        },
        Family {
            name: "bert_tiny",
            model: || {
                let cfg = BertConfig {
                    vocab: 16,
                    d_model: 16,
                    heads: 2,
                    d_ff: 32,
                    layers: 4,
                };
                Box::new(BertQa::new("bert", cfg, 9).unwrap())
            },
            data: || {
                let cfg = QaDataConfig {
                    samples: 48,
                    vocab: 16,
                    len: 10,
                    answer_len: 2,
                };
                Box::new(SyntheticQa::new(cfg, 10))
            },
            optimizer: || Optimizer::Adam(Adam::new(1e-3, 0.0)),
            schedule: || Box::new(LinearDecay::new(1e-3, 200)),
            lr_per_iteration: true,
            cfg: cfg(4, 3, 2.5),
        },
    ]
}

fn train(f: &Family, cache_fp: bool) -> TrainReport {
    // Bit-level comparison: pin the scalar ISA (DESIGN §5g).
    egeria_tensor::simd::set_isa(egeria_tensor::simd::Isa::Scalar);
    let mut trainer = EgeriaTrainer::new(
        (f.model)(),
        (f.optimizer)(),
        (f.schedule)(),
        TrainerOptions {
            epochs: EPOCHS,
            egeria: Some(EgeriaConfig { cache_fp, ..f.cfg }),
            lr_per_iteration: f.lr_per_iteration,
            ..Default::default()
        },
    );
    let data = (f.data)();
    let loader = DataLoader::new(data.len(), 16, 3, true);
    let val_loader = DataLoader::new(data.len(), 16, 0, false);
    trainer
        .train(data.as_ref(), &loader, Some((data.as_ref(), &val_loader)))
        .unwrap()
}

/// Everything the cache must leave alone, as comparable text.
fn trajectory(r: &TrainReport) -> String {
    let bits = |v: Option<f32>| v.map(f32::to_bits);
    let mut out = String::new();
    for e in &r.epochs {
        let _ = writeln!(
            out,
            "epoch {} train {:08x} val {:08x?} metric {:08x?} frozen {}",
            e.epoch,
            e.train_loss.to_bits(),
            bits(e.val_loss),
            bits(e.val_metric),
            e.frozen_prefix
        );
    }
    for ev in &r.events {
        let _ = writeln!(
            out,
            "event iter {} {} prefix {}",
            ev.iteration, ev.kind, ev.prefix
        );
    }
    for p in &r.plasticity {
        let _ = writeln!(
            out,
            "plasticity iter {} module {} raw {:08x} smoothed {:08x}",
            p.iteration,
            p.module,
            p.raw.to_bits(),
            p.smoothed.to_bits()
        );
    }
    out
}

#[test]
fn cache_on_and_off_train_bit_identically_on_every_family() {
    for f in families() {
        let off = train(&f, false);
        let on = train(&f, true);
        assert!(
            on.events.iter().any(|e| e.kind == "freeze"),
            "{}: nothing froze; the oracle would compare nothing",
            f.name
        );
        let s = on.cache_stats;
        let ratio = s.hits as f64 / (s.hits + s.misses).max(1) as f64;
        assert!(ratio >= 0.3, "{}: hit ratio {ratio:.2} ({s:?})", f.name);
        assert!(s.promotions >= 1, "{}: no promotion ({s:?})", f.name);
        assert_eq!(
            off.cache_stats.hits + off.cache_stats.misses,
            0,
            "{}",
            f.name
        );
        assert_eq!(
            trajectory(&off),
            trajectory(&on),
            "{}: cache on vs off",
            f.name
        );
    }
}
