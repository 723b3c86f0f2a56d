//! End-to-end integration: the full Egeria pipeline against the baseline.

use egeria_core::config::UnfreezePolicy;
use egeria_core::trainer::{EgeriaTrainer, Optimizer, TrainerOptions};
use egeria_core::EgeriaConfig;
use egeria_data::images::{ImageDataConfig, SyntheticImages};
use egeria_data::DataLoader;
use egeria_models::resnet::{resnet_cifar, ResNetCifarConfig};
use egeria_nn::optim::Sgd;
use egeria_nn::sched::MultiStepDecay;

fn setup(
    egeria: Option<EgeriaConfig>,
    epochs: usize,
    decay_at: Vec<usize>,
) -> (EgeriaTrainer, SyntheticImages, SyntheticImages, DataLoader, DataLoader) {
    let model = resnet_cifar(
        ResNetCifarConfig {
            n: 3,
            width: 4,
            classes: 6,
            ..Default::default()
        },
        21,
    );
    let data = SyntheticImages::new(
        ImageDataConfig {
            samples: 128,
            classes: 6,
            size: 8,
            noise: 0.4,
            augment: true,
        },
        31,
    );
    let val = SyntheticImages::new(
        ImageDataConfig {
            samples: 48,
            classes: 6,
            size: 8,
            noise: 0.4,
            augment: false,
        },
        31,
    );
    let loader = DataLoader::new(128, 16, 41, true);
    let val_loader = DataLoader::new(48, 16, 0, false);
    let trainer = EgeriaTrainer::new(
        Box::new(model),
        Optimizer::Sgd(Sgd::new(0.08, 0.9, 1e-4)),
        Box::new(MultiStepDecay::new(0.08, 0.1, decay_at)),
        TrainerOptions {
            epochs,
            egeria,
            ..Default::default()
        },
    );
    (trainer, data, val, loader, val_loader)
}

fn egeria_cfg() -> EgeriaConfig {
    EgeriaConfig {
        n: 3,
        w: 6,
        s: 6,
        t: 2.0,
        bootstrap_rate: 0.3,
        ..Default::default()
    }
}

#[test]
fn egeria_freezes_front_module_first_and_learns() {
    let (mut t, data, val, loader, val_loader) = setup(Some(egeria_cfg()), 25, vec![1000]);
    let report = t.train(&data, &loader, Some((&val, &val_loader))).unwrap();
    // Learning happened.
    let first = report.epochs.first().unwrap().train_loss;
    let last = report.epochs.last().unwrap().train_loss;
    assert!(last < first * 0.7, "loss {first} → {last}");
    // Something froze, and the first freeze was the front module.
    let first_freeze = report
        .events
        .iter()
        .find(|e| e.kind == "freeze")
        .expect("a module must freeze in 25 epochs");
    assert_eq!(first_freeze.prefix, 1);
    // The frozen prefix grew monotonically (no unfreeze was scheduled).
    let mut prev = 0u16;
    for i in &report.iterations {
        assert!(i.frozen_prefix >= prev);
        prev = i.frozen_prefix;
    }
}

#[test]
fn egeria_accuracy_stays_near_baseline() {
    let (mut bt, data, val, loader, val_loader) = setup(None, 25, vec![1000]);
    let base = bt.train(&data, &loader, Some((&val, &val_loader))).unwrap();
    let (mut et, data, val, loader, val_loader) = setup(Some(egeria_cfg()), 25, vec![1000]);
    let eg = et.train(&data, &loader, Some((&val, &val_loader))).unwrap();
    let best = |r: &egeria_core::TrainReport| {
        r.epochs
            .iter()
            .filter_map(|e| e.val_metric)
            .fold(0.0f32, f32::max)
    };
    let b = best(&base);
    let e = best(&eg);
    assert!(
        e >= b - 0.1,
        "egeria best acc {e} fell more than 10 points below baseline {b}"
    );
}

#[test]
fn lr_decay_unfreezes_then_refreezes() {
    let (mut t, data, val, loader, val_loader) = setup(Some(egeria_cfg()), 30, vec![15]);
    let report = t.train(&data, &loader, Some((&val, &val_loader))).unwrap();
    let unfreeze = report.events.iter().position(|e| e.kind == "unfreeze");
    if let Some(pos) = unfreeze {
        // After an unfreeze the prefix restarts from zero and may grow again.
        let after = &report.events[pos + 1..];
        if let Some(refreeze) = after.iter().find(|e| e.kind == "freeze") {
            assert_eq!(refreeze.prefix, 1, "refreezing must restart at the front");
        }
    } else {
        // The LR decay must at minimum have been scheduled; if nothing froze
        // before it, no unfreeze is expected — assert the premise instead.
        assert!(
            report.events.iter().all(|e| e.kind != "freeze")
                || report
                    .events
                    .iter()
                    .find(|e| e.kind == "freeze")
                    .map(|e| e.iteration > 15 * 8)
                    .unwrap_or(false),
            "a pre-decay freeze without a later unfreeze: events {:?}",
            report.events
        );
    }
}

#[test]
fn never_unfreeze_policy_keeps_prefix_after_decay() {
    let cfg = EgeriaConfig {
        unfreeze: UnfreezePolicy::Never,
        ..egeria_cfg()
    };
    let (mut t, data, val, loader, val_loader) = setup(Some(cfg), 30, vec![12]);
    let report = t.train(&data, &loader, Some((&val, &val_loader))).unwrap();
    assert!(report.events.iter().all(|e| e.kind != "unfreeze"));
}

#[test]
fn disabled_cache_still_trains_and_freezes() {
    let cfg = EgeriaConfig {
        cache_fp: false,
        ..egeria_cfg()
    };
    let (mut t, data, val, loader, val_loader) = setup(Some(cfg), 20, vec![1000]);
    let report = t.train(&data, &loader, Some((&val, &val_loader))).unwrap();
    assert!(report.iterations.iter().all(|i| !i.fp_cached));
    assert_eq!(report.cache_stats.hits, 0);
}
