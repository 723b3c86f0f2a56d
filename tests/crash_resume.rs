//! Crash-consistency integration tests: kill training mid-epoch with an
//! injected fault, resume from the checkpoint directory, and compare
//! against an uninterrupted run. Also drives the graceful-degradation
//! paths (disk-full cache, corrupted cache entries, failed checkpoint
//! saves) through a full training run.

use egeria_core::checkpoint::CheckpointOptions;
use egeria_core::config::ControllerMode;
use egeria_resil::fault::{FaultAction, FaultInjector, FaultSite};
use egeria_core::trainer::{EgeriaTrainer, Optimizer, TrainerOptions, TrainReport};
use egeria_core::EgeriaConfig;
use egeria_data::images::{ImageDataConfig, SyntheticImages};
use egeria_data::DataLoader;
use egeria_models::resnet::{resnet_cifar, ResNetCifarConfig};
use egeria_nn::optim::Sgd;
use egeria_nn::sched::MultiStepDecay;
use std::path::PathBuf;
use std::sync::Arc;

const EPOCHS: usize = 10;

fn sync_config() -> EgeriaConfig {
    EgeriaConfig {
        n: 2,
        w: 3,
        s: 2,
        t: 5.0,
        bootstrap_rate: 0.9,
        ..Default::default()
    }
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
        11,
    );
    let loader = DataLoader::new(64, 16, 13, true);
    (data, loader)
}

fn make_trainer(
    cfg: EgeriaConfig,
    cache_dir: PathBuf,
    checkpoint: Option<CheckpointOptions>,
    faults: Option<Arc<FaultInjector>>,
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
        Optimizer::Sgd(Sgd::new(0.05, 0.9, 1e-4)),
        Box::new(MultiStepDecay::new(0.05, 0.1, vec![usize::MAX])),
        TrainerOptions {
            epochs: EPOCHS,
            egeria: Some(cfg),
            cache_dir: Some(cache_dir),
            checkpoint,
            faults,
            ..Default::default()
        },
    )
}

fn scratch(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("egeria_crash_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    d
}

fn freeze_timeline(r: &TrainReport) -> Vec<(usize, String, usize)> {
    r.events
        .iter()
        .map(|e| (e.iteration, e.kind.clone(), e.prefix))
        .collect()
}

#[test]
fn resume_matches_uninterrupted_run() {
    let (data, loader) = data_and_loader();

    // Reference: one uninterrupted run, no checkpointing.
    let mut full = make_trainer(sync_config(), scratch("full_cache"), None, None);
    let full_report = full.train(&data, &loader, None).unwrap();
    assert!(
        full_report.events.iter().any(|e| e.kind == "freeze"),
        "reference run never froze; the comparison would be vacuous"
    );

    // Crash run: same seeds, checkpoint every epoch, injected crash
    // mid-epoch well after the first freeze decisions.
    let ckpt_dir = scratch("ckpt");
    let faults = FaultInjector::new();
    faults.arm(FaultSite::TrainStep, 25, 1, FaultAction::Fail);
    let mut crashed = make_trainer(
        sync_config(),
        scratch("crash_cache"),
        Some(CheckpointOptions::new(&ckpt_dir)),
        Some(faults.clone()),
    );
    let err = crashed.train(&data, &loader, None).unwrap_err();
    assert!(err.to_string().contains("injected crash"), "got: {err}");
    assert_eq!(faults.injected(FaultSite::TrainStep), 1);
    drop(crashed); // The "process" is gone; only the checkpoint dir survives.

    // Resume: a fresh trainer pointed at the same checkpoint directory.
    let mut resumed = make_trainer(
        sync_config(),
        scratch("resume_cache"),
        Some(CheckpointOptions::new(&ckpt_dir)),
        None,
    );
    let resumed_report = resumed.train(&data, &loader, None).unwrap();
    let resume_epoch = resumed_report
        .resumed_from_epoch
        .expect("run must have resumed from a checkpoint");
    assert!(resume_epoch > 0 && resume_epoch < EPOCHS);

    // The freezing timeline (which modules froze/unfroze at which
    // iteration) must be identical to the uninterrupted run's.
    assert_eq!(
        freeze_timeline(&full_report),
        freeze_timeline(&resumed_report),
        "freezing timeline diverged after resume"
    );
    // Per-epoch frozen prefixes match across the whole run.
    let prefixes = |r: &TrainReport| r.epochs.iter().map(|e| e.frozen_prefix).collect::<Vec<_>>();
    assert_eq!(prefixes(&full_report), prefixes(&resumed_report));
    // The resumed report covers every epoch, not just the tail.
    assert_eq!(resumed_report.epochs.len(), EPOCHS);
    assert_eq!(resumed_report.iterations.len(), full_report.iterations.len());
    // Final loss matches the uninterrupted run within tolerance.
    let full_final = full_report.epochs.last().unwrap().train_loss;
    let resumed_final = resumed_report.epochs.last().unwrap().train_loss;
    assert!(
        (full_final - resumed_final).abs() < 1e-3,
        "final loss diverged: uninterrupted {full_final} vs resumed {resumed_final}"
    );
}

#[test]
fn resume_survives_corrupt_latest_checkpoint() {
    let (data, loader) = data_and_loader();
    let ckpt_dir = scratch("ckpt_corrupt");
    let faults = FaultInjector::new();
    faults.arm(FaultSite::TrainStep, 30, 1, FaultAction::Fail);
    let mut crashed = make_trainer(
        sync_config(),
        scratch("corrupt_cache_a"),
        Some(CheckpointOptions::new(&ckpt_dir)),
        Some(faults),
    );
    crashed.train(&data, &loader, None).unwrap_err();

    // Bit-flip the newest checkpoint file: the fall-back must pick the
    // previous epoch's file instead.
    let mut files: Vec<PathBuf> = std::fs::read_dir(&ckpt_dir)
        .unwrap()
        .flatten()
        .map(|e| e.path())
        .filter(|p| p.extension().map(|e| e == "egck").unwrap_or(false))
        .collect();
    files.sort();
    assert!(files.len() >= 2, "need at least two checkpoints, have {files:?}");
    let newest = files.last().unwrap();
    let mut bytes = std::fs::read(newest).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x40;
    std::fs::write(newest, &bytes).unwrap();

    let mut resumed = make_trainer(
        sync_config(),
        scratch("corrupt_cache_b"),
        Some(CheckpointOptions::new(&ckpt_dir)),
        None,
    );
    let report = resumed.train(&data, &loader, None).unwrap();
    let resume_epoch = report.resumed_from_epoch.expect("must resume");
    // The newest file covered epoch (crash at step 30 → 7 full epochs);
    // falling back one file means resuming one epoch earlier.
    assert!(resume_epoch < EPOCHS - 1, "resumed from {resume_epoch}");
    assert_eq!(report.epochs.len(), EPOCHS);
}

#[test]
fn disk_faults_degrade_without_stopping_training() {
    let (data, loader) = data_and_loader();
    let faults = FaultInjector::new();
    // The cache disk goes read-only for a stretch of writes, several
    // entries read back corrupted, and one checkpoint save hits a full
    // disk. Training must finish anyway, with the degradations visible.
    faults.arm(FaultSite::CacheWrite, 4, 24, FaultAction::Fail);
    faults.arm(FaultSite::CacheRead, 2, 6, FaultAction::CorruptBytes);
    faults.arm(FaultSite::CheckpointWrite, 2, 1, FaultAction::Fail);
    let mut t = make_trainer(
        sync_config(),
        scratch("degrade_cache"),
        Some(CheckpointOptions::new(scratch("degrade_ckpt"))),
        Some(faults.clone()),
    );
    let report = t.train(&data, &loader, None).unwrap();
    assert_eq!(report.epochs.len(), EPOCHS, "training must run to completion");
    assert!(
        faults.injected_total() > 0,
        "no fault ever fired; the test exercised nothing"
    );
    // Degradations are observable, not silent.
    if faults.injected(FaultSite::CacheWrite) > 0 {
        assert!(report.cache_stats.write_errors > 0);
    }
    if faults.injected(FaultSite::CacheRead) > 0 {
        assert!(report.cache_stats.corrupt_entries > 0);
    }
    if faults.injected(FaultSite::CheckpointWrite) > 0 {
        assert!(report.checkpoint_save_errors > 0);
    }
    // Loss still went down: the degraded run actually trained.
    let first = report.epochs.first().unwrap().train_loss;
    let last = report.epochs.last().unwrap().train_loss;
    assert!(last < first, "loss {first} → {last}");
}

#[test]
fn async_resume_completes_with_fresh_reference() {
    // Async mode cannot replay the controller's reference exactly (it
    // lives on the dead thread), but resume must still work: regenerate
    // the reference from the restored weights and respawn the controller.
    let (data, loader) = data_and_loader();
    let cfg = EgeriaConfig {
        controller: ControllerMode::Async,
        cpu_load_gate: 10.0, // never gate in tests
        ..sync_config()
    };
    let ckpt_dir = scratch("ckpt_async");
    let faults = FaultInjector::new();
    faults.arm(FaultSite::TrainStep, 25, 1, FaultAction::Fail);
    let mut crashed = make_trainer(
        cfg,
        scratch("async_cache_a"),
        Some(CheckpointOptions::new(&ckpt_dir)),
        Some(faults),
    );
    crashed.train(&data, &loader, None).unwrap_err();

    let mut resumed = make_trainer(
        cfg,
        scratch("async_cache_b"),
        Some(CheckpointOptions::new(&ckpt_dir)),
        None,
    );
    let report = resumed.train(&data, &loader, None).unwrap();
    assert!(report.resumed_from_epoch.is_some());
    assert_eq!(report.epochs.len(), EPOCHS);
}

#[test]
fn controller_watchdog_restarts_dead_thread() {
    let (data, loader) = data_and_loader();
    let cfg = EgeriaConfig {
        controller: ControllerMode::Async,
        cpu_load_gate: 10.0,
        ..sync_config()
    };
    let faults = FaultInjector::new();
    // The controller thread dies on its first evaluation; the trainer's
    // watchdog must respawn it and training must still freeze modules.
    faults.arm(FaultSite::ControllerEval, 0, 1, FaultAction::Fail);
    let mut t = make_trainer(cfg, scratch("watchdog_cache"), None, Some(faults.clone()));
    let report = t.train(&data, &loader, None).unwrap();
    assert_eq!(report.epochs.len(), EPOCHS);
    assert_eq!(faults.injected(FaultSite::ControllerEval), 1);
    assert!(
        report.controller_restarts >= 1,
        "watchdog never respawned the controller"
    );
}
