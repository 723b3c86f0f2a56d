//! Unfreeze-path regression tests: force a plasticity rebound after a
//! freeze and verify the full thaw path — the engine reopens the front,
//! the thawed layers re-enter the backward pass (their parameters move
//! again), the activation cache stops serving entries captured under the
//! stale frozen weights, and a crash/resume replays the freeze/unfreeze
//! timeline exactly (the policy's mid-watch state rides the checkpoint).

use egeria_core::checkpoint::CheckpointOptions;
use egeria_core::freezer::{FreezeEvent, FreezingEngine};
use egeria_core::trainer::{EgeriaTrainer, Optimizer, TrainerOptions, TrainReport};
use egeria_core::{EgeriaConfig, PolicyKind};
use egeria_data::images::{ImageDataConfig, SyntheticImages};
use egeria_data::{DataLoader, Dataset};
use egeria_models::resnet::{resnet_cifar, ResNetCifarConfig};
use egeria_models::Model;
use egeria_nn::optim::Sgd;
use egeria_nn::sched::MultiStepDecay;
use std::path::PathBuf;

/// The scenario-harness ResNet cell under the regression-aware policy
/// (crates/scenarios): its golden timeline freezes and rebound-unfreezes
/// repeatedly, which is exactly the path under test.
fn regression_config() -> EgeriaConfig {
    regression_config_every(1)
}

/// Same, with a configurable evaluation interval: cached-FP steps only
/// happen on non-evaluation iterations, so the cache tests need `n > 1`.
fn regression_config_every(n: usize) -> EgeriaConfig {
    EgeriaConfig {
        n,
        w: 3,
        s: 2,
        t: 5.0,
        bootstrap_rate: 0.9,
        reference_update_every: 4,
        policy: PolicyKind::RegressionAware,
        ..Default::default()
    }
}

fn make_trainer(
    ckpt: Option<CheckpointOptions>,
    faults: Option<std::sync::Arc<egeria_resil::fault::FaultInjector>>,
    epochs: usize,
    cfg: EgeriaConfig,
) -> EgeriaTrainer {
    make_trainer_with_milestone(ckpt, faults, epochs, cfg, 5)
}

fn make_trainer_with_milestone(
    ckpt: Option<CheckpointOptions>,
    faults: Option<std::sync::Arc<egeria_resil::fault::FaultInjector>>,
    epochs: usize,
    cfg: EgeriaConfig,
    milestone: usize,
) -> EgeriaTrainer {
    let model = resnet_cifar(
        ResNetCifarConfig {
            n: 2,
            width: 4,
            classes: 4,
            ..Default::default()
        },
        7,
    );
    EgeriaTrainer::new(
        Box::new(model),
        Optimizer::Sgd(Sgd::new(0.05, 0.9, 0.0)),
        Box::new(MultiStepDecay::new(0.05, 0.1, vec![milestone])),
        TrainerOptions {
            epochs,
            egeria: Some(cfg),
            checkpoint: ckpt,
            faults,
            ..Default::default()
        },
    )
}

fn data_and_loader() -> (SyntheticImages, DataLoader) {
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
    (data, DataLoader::new(64, 16, 3, true))
}

fn scratch(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("egeria_unfreeze_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    d
}

fn timeline(r: &TrainReport) -> Vec<(usize, String, usize)> {
    r.events
        .iter()
        .map(|e| (e.iteration, e.kind.clone(), e.prefix))
        .collect()
}

/// Engine level: converge → freeze, then force a sustained rebound well
/// above the freeze-time plasticity level → the regression-aware policy
/// must reopen the front, and a later re-convergence must refreeze.
#[test]
fn forced_rebound_unfreezes_then_refreezes() {
    egeria_tensor::simd::set_isa(egeria_tensor::simd::Isa::Scalar);
    let cfg = regression_config();
    let mut engine = FreezingEngine::new(4, &cfg);

    // Flat plasticity: converges after w samples + s confirmations.
    let mut froze = false;
    for _ in 0..12 {
        let (_, ev) = engine.observe_value(1.0, 0.05).unwrap();
        if matches!(ev, FreezeEvent::Froze(_)) {
            froze = true;
            break;
        }
    }
    assert!(froze, "flat plasticity never froze");
    assert_eq!(engine.front(), 1);

    // Successor-module probes rebound far above the 1.0 baseline: the
    // policy must thaw everything within its watch window.
    let mut unfroze_at = None;
    for i in 0..6 {
        let (_, ev) = engine.observe_value(3.0, 0.05).unwrap();
        if ev == FreezeEvent::Unfroze {
            unfroze_at = Some(i);
            break;
        }
    }
    assert!(unfroze_at.is_some(), "sustained rebound never unfroze");
    assert_eq!(engine.front(), 0, "front must fully reopen on rebound");

    // The rebound was transient; re-converged plasticity refreezes (under
    // the relaxed criteria the engine applies after any unfreeze).
    let mut refroze = false;
    for _ in 0..12 {
        let (_, ev) = engine.observe_value(1.0, 0.05).unwrap();
        if matches!(ev, FreezeEvent::Froze(_)) {
            refroze = true;
            break;
        }
    }
    assert!(refroze, "engine never refroze after the rebound unfreeze");
}

/// Model + optimizer level: a frozen layer's parameters must not move, and
/// after `unfreeze_all` the same layer re-enters the backward pass — its
/// parameters move again under the very next optimizer step.
#[test]
fn thawed_layer_parameters_move_again() {
    egeria_tensor::simd::set_isa(egeria_tensor::simd::Isa::Scalar);
    let mut model = resnet_cifar(
        ResNetCifarConfig {
            n: 2,
            width: 4,
            classes: 4,
            ..Default::default()
        },
        7,
    );
    let (data, _) = data_and_loader();
    let batch = data.materialize(&[0, 1, 2, 3]).unwrap();
    let mut opt = Optimizer::Sgd(Sgd::new(0.05, 0.9, 0.0));
    opt.set_lr(0.05);

    let first_param = |m: &dyn Model| m.params()[0].value.clone();

    model.freeze_prefix(1).unwrap();
    let before = first_param(&model);
    model.zero_grad();
    model.train_step(&batch, None).unwrap();
    {
        let mut params = model.params_mut();
        opt.step(&mut params).unwrap();
    }
    assert_eq!(
        before,
        first_param(&model),
        "frozen layer's parameters moved"
    );

    model.unfreeze_all();
    let before = first_param(&model);
    model.zero_grad();
    model.train_step(&batch, None).unwrap();
    {
        let mut params = model.params_mut();
        opt.step(&mut params).unwrap();
    }
    assert_ne!(
        before,
        first_param(&model),
        "thawed layer's parameters did not move: it never re-entered the backward pass"
    );
}

/// Trainer level: every rebound unfreeze invalidates the activation cache,
/// so the first cached-FP-eligible iteration after a thaw must recompute
/// (a cache hit there would replay activations of the *pre-thaw* weights).
#[test]
fn cache_stops_serving_stale_activations_after_unfreeze() {
    egeria_tensor::simd::set_isa(egeria_tensor::simd::Isa::Scalar);
    let (data, loader) = data_and_loader();
    // Paper policy with a late LR drop: the long stable frozen prefix before
    // the drop is what lets cache hits accumulate (a hit needs every sample
    // id of a batch cached at the current prefix + generation, i.e. roughly
    // a full reshuffled epoch with no freeze events), and the LR-reboot
    // unfreeze at the milestone drives the same `apply_event(Unfroze)` →
    // `cache.invalidate()` path as a rebound thaw (which recurs too often
    // under the regression policy for any prefix to live that long — the
    // rebound-driven thaw itself is covered by the sibling tests above and
    // below).
    let mut cfg = regression_config_every(2);
    cfg.policy = PolicyKind::Paper;
    let mut trainer = make_trainer_with_milestone(None, None, 16, cfg, 12);
    let report = trainer.train(&data, &loader, None).unwrap();

    let unfreezes: Vec<usize> = report
        .events
        .iter()
        .filter(|e| e.kind == "unfreeze")
        .map(|e| e.iteration)
        .collect();
    assert!(
        !unfreezes.is_empty(),
        "run never unfroze; the stale-cache check would be vacuous"
    );
    assert!(
        report.cache_stats.hits > 0,
        "run never hit the cache; the stale-cache check would be vacuous"
    );
    for &u in &unfreezes {
        if let Some(it) = report.iterations.iter().skip(u + 1).find(|i| i.frozen_prefix > 0) {
            assert!(
                !it.fp_cached,
                "iteration after the unfreeze at {u} was served from the invalidated cache"
            );
        }
    }
}

/// Crash/resume: the freeze → rebound-unfreeze → refreeze timeline must
/// replay bit-for-bit across a mid-run crash. The regression-aware policy
/// carries live state (baseline, watch window, hot streak) between
/// evaluations, so this only holds if that state rides the checkpoint
/// (PolicyState, container format v2).
#[test]
fn rebound_timeline_replays_across_resume() {
    egeria_tensor::simd::set_isa(egeria_tensor::simd::Isa::Scalar);
    let (data, loader) = data_and_loader();

    let mut full = make_trainer(None, None, 8, regression_config());
    let full_report = full.train(&data, &loader, None).unwrap();
    assert!(
        full_report.events.iter().any(|e| e.kind == "unfreeze"),
        "reference run never unfroze; the replay check would be vacuous"
    );

    // Crash mid-run, inside a watch window (right after a freeze).
    let ckpt_dir = scratch("ckpt");
    let faults = egeria_resil::fault::FaultInjector::new();
    faults.arm(
        egeria_resil::fault::FaultSite::TrainStep,
        23,
        1,
        egeria_resil::fault::FaultAction::Fail,
    );
    let mut crashed_trainer = make_trainer(
        Some(CheckpointOptions::new(&ckpt_dir)),
        Some(faults.clone()),
        8,
        regression_config(),
    );
    crashed_trainer.train(&data, &loader, None).unwrap_err();
    drop(crashed_trainer);

    let mut resumed =
        make_trainer(Some(CheckpointOptions::new(&ckpt_dir)), None, 8, regression_config());
    let resumed_report = resumed.train(&data, &loader, None).unwrap();
    assert!(resumed_report.resumed_from_epoch.is_some());
    assert_eq!(
        timeline(&full_report),
        timeline(&resumed_report),
        "freeze/unfreeze timeline diverged after resume"
    );
}
