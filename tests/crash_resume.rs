//! Crash-consistency integration tests: kill training mid-epoch with an
//! injected fault, resume from the checkpoint directory, and compare
//! against an uninterrupted run. Also drives the graceful-degradation
//! paths (disk-full cache, corrupted cache entries, failed checkpoint
//! saves) through a full training run.

use egeria_core::cache::ActivationCache;
use egeria_core::checkpoint::{CheckpointOptions, CheckpointStore};
use egeria_resil::fault::{FaultAction, FaultInjector, FaultSite};
use egeria_core::trainer::{EgeriaTrainer, Optimizer, TrainerOptions, TrainReport};
use egeria_core::config::CacheStoreKind;
use egeria_core::EgeriaConfig;
use egeria_data::images::{ImageDataConfig, SyntheticImages};
use egeria_data::{DataLoader, Dataset};
use egeria_models::resnet::{resnet_cifar, ResNetCifarConfig};
use egeria_models::Model;
use egeria_nn::optim::Sgd;
use egeria_nn::sched::MultiStepDecay;
use egeria_store::{ChunkStore, StoreConfig};
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

fn images(seed: u64) -> SyntheticImages {
    SyntheticImages::new(
        ImageDataConfig {
            samples: 64,
            classes: 4,
            size: 8,
            noise: 0.3,
            augment: true,
        },
        seed,
    )
}

fn data_and_loader() -> (SyntheticImages, DataLoader) {
    let loader = DataLoader::new(64, 16, 13, true);
    (images(11), loader)
}

fn make_trainer(
    cfg: EgeriaConfig,
    cache_dir: PathBuf,
    checkpoint: Option<CheckpointOptions>,
    faults: Option<Arc<FaultInjector>>,
) -> EgeriaTrainer {
    trainer_for(EPOCHS, cfg, cache_dir, checkpoint, faults)
}

fn trainer_for(
    epochs: usize,
    cfg: EgeriaConfig,
    cache_dir: PathBuf,
    checkpoint: Option<CheckpointOptions>,
    faults: Option<Arc<FaultInjector>>,
) -> EgeriaTrainer {
    // The ISA is process-wide and the kernels' bits depend on it: every
    // test pins the same one before its first run, so no run of one test
    // sees another switch it.
    egeria_tensor::simd::set_isa(egeria_tensor::simd::Isa::Scalar);
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
            epochs,
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
fn resume_with_validation_matches_uninterrupted_run_bit_for_bit() {
    // Validation scores each batch from a stored prefix output that lives
    // in memory only, so a resumed run rebuilds it from nothing. Every
    // epoch's validation bits must still be the uninterrupted run's: the
    // ones the checkpoint carries over from before the crash, and the ones
    // the resumed run computes after it.
    let (data, loader) = data_and_loader();
    let val = SyntheticImages::new(
        ImageDataConfig {
            samples: 32,
            classes: 4,
            size: 8,
            noise: 0.3,
            augment: false,
        },
        17,
    );
    let val_loader = DataLoader::new(val.len(), 16, 0, false);
    let validated = Some((&val as &dyn Dataset, &val_loader));
    let mut full = make_trainer(sync_config(), scratch("val_full_cache"), None, None);
    let full_report = full.train(&data, &loader, validated).unwrap();

    let ckpt_dir = scratch("val_ckpt");
    let faults = FaultInjector::new();
    faults.arm(FaultSite::TrainStep, 25, 1, FaultAction::Fail);
    let mut crashed = make_trainer(
        sync_config(),
        scratch("val_crash_cache"),
        Some(CheckpointOptions::new(&ckpt_dir)),
        Some(faults),
    );
    crashed.train(&data, &loader, validated).unwrap_err();
    drop(crashed);
    let mut resumed = make_trainer(
        sync_config(),
        scratch("val_resume_cache"),
        Some(CheckpointOptions::new(&ckpt_dir)),
        None,
    );
    let resumed_report = resumed.train(&data, &loader, validated).unwrap();
    let resume_epoch = resumed_report.resumed_from_epoch.expect("run must resume");

    // The resumed epochs validate with a frozen prefix, so the boundaries
    // are rebuilt and served after the resume, not only before it.
    assert!(
        full_report.epochs[resume_epoch..]
            .iter()
            .any(|e| e.frozen_prefix > 0),
        "nothing was frozen after the resume; the comparison would be vacuous"
    );
    let val_bits = |r: &TrainReport| -> Vec<(usize, Option<u32>, Option<u32>)> {
        r.epochs
            .iter()
            .map(|e| {
                (
                    e.epoch,
                    e.val_loss.map(f32::to_bits),
                    e.val_metric.map(f32::to_bits),
                )
            })
            .collect()
    };
    assert_eq!(val_bits(&resumed_report).len(), EPOCHS);
    assert!(val_bits(&full_report).iter().all(|(_, l, m)| l.is_some() && m.is_some()));
    assert_eq!(val_bits(&full_report), val_bits(&resumed_report));
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
fn resume_without_checkpointed_reference_regenerates_it() {
    // A checkpoint past bootstrap that carries no reference model must
    // degrade, never abort. The bootstrap transition that generates one is
    // latched in the restored monitor and never fires again, so resume
    // must regenerate the reference from the restored weights — otherwise
    // no plasticity evaluation could run for the rest of the run.
    let (data, loader) = data_and_loader();
    let ckpt_dir = scratch("ckpt_noref");
    let faults = FaultInjector::new();
    faults.arm(FaultSite::TrainStep, 25, 1, FaultAction::Fail);
    let mut crashed = make_trainer(
        sync_config(),
        scratch("noref_cache_a"),
        Some(CheckpointOptions::new(&ckpt_dir)),
        Some(faults),
    );
    crashed.train(&data, &loader, None).unwrap_err();
    drop(crashed);

    // Rewrite the newest checkpoint without its reference.
    let opts = CheckpointOptions::new(&ckpt_dir);
    let mut store = CheckpointStore::open(&opts.dir, opts.keep).unwrap();
    let mut ckpt = store
        .load_latest()
        .expect("the crashed run left a checkpoint");
    assert!(
        ckpt.reference.is_some(),
        "the newest checkpoint predates bootstrap; there is no reference to drop"
    );
    ckpt.reference = None;
    store.save(&ckpt).unwrap();
    let resume_step = ckpt.global_step as usize;

    let mut resumed = make_trainer(
        sync_config(),
        scratch("noref_cache_b"),
        Some(CheckpointOptions::new(&ckpt_dir)),
        None,
    );
    let report = resumed.train(&data, &loader, None).unwrap();
    assert_eq!(report.resumed_from_epoch, Some(ckpt.next_epoch as usize));
    assert_eq!(report.epochs.len(), EPOCHS);
    assert!(
        report.reference_stats.generations >= 1,
        "resume never regenerated the missing reference"
    );
    assert!(
        report.plasticity.iter().any(|p| p.iteration >= resume_step),
        "no plasticity evaluation ran after the resume"
    );
}

/// Everything a stale cache entry would disturb: per-epoch loss bits, the
/// events and every plasticity value.
fn trajectory(r: &TrainReport) -> String {
    let mut out = String::new();
    for e in &r.epochs {
        out += &format!(
            "epoch {} loss {:08x} frozen {}\n",
            e.epoch,
            e.train_loss.to_bits(),
            e.frozen_prefix
        );
    }
    for (iteration, kind, prefix) in freeze_timeline(r) {
        out += &format!("event iter {iteration} {kind} prefix {prefix}\n");
    }
    for p in &r.plasticity {
        out += &format!(
            "plasticity iter {} {:08x} {:08x}\n",
            p.iteration,
            p.raw.to_bits(),
            p.smoothed.to_bits()
        );
    }
    out
}

#[test]
fn resume_on_the_same_chunked_store_reads_no_stale_boundary() {
    // The cache keeps entries across a prefix advance and carries them
    // forward batch by batch, so an epoch that advanced k → k' ends with
    // entries at both boundaries. A store carries one boundary tag, so the
    // checkpoint's persist must drop the older entries: a resumed run that
    // reopened them would take activations computed at k for ones at k'.
    let cfg = EgeriaConfig {
        cache_store: CacheStoreKind::Chunked,
        ..sync_config()
    };
    let (data, loader) = data_and_loader();
    let steps_per_epoch = loader.epoch_plan(0).len();
    let full = make_trainer(cfg, scratch("stale_full"), None, None)
        .train(&data, &loader, None)
        .unwrap();
    // The first advance from a cached prefix that leaves steps of its
    // epoch to run at the new one.
    let advance = full
        .events
        .windows(2)
        .find(|w| {
            w[0].kind == "freeze"
                && w[0].prefix >= 1
                && w[1].kind == "freeze"
                && w[1].iteration % steps_per_epoch + 1 < steps_per_epoch
        })
        .map(|w| w[1].iteration)
        .expect("no mid-epoch advance from a cached prefix; the check would be vacuous");
    let epoch = advance / steps_per_epoch;
    assert!(epoch + 1 < EPOCHS);

    // Crash early in the next epoch: the newest checkpoint is the one
    // written at the end of the advancing epoch.
    let (ckpt_dir, cache_dir) = (scratch("stale_ckpt"), scratch("stale_cache"));
    let faults = FaultInjector::new();
    faults.arm(
        FaultSite::TrainStep,
        (epoch + 1) * steps_per_epoch + 2,
        1,
        FaultAction::Fail,
    );
    let mut crashed = make_trainer(
        cfg,
        cache_dir.clone(),
        Some(CheckpointOptions::new(&ckpt_dir)),
        Some(faults),
    );
    crashed.train(&data, &loader, None).unwrap_err();
    drop(crashed);
    let mut store = ChunkStore::open(&cache_dir, StoreConfig::default()).unwrap();
    let after = full.events.iter().rfind(|e| e.iteration <= advance).unwrap();
    assert_eq!(store.valid_prefix(), Some(after.prefix as u64));
    let kept = (0..data.len() as u64)
        .filter(|&id| store.get(id).is_some())
        .count();
    assert!(
        kept > 0 && kept < data.len(),
        "the persisted store holds {kept} of {} samples: no entry at the old boundary was dropped",
        data.len()
    );
    drop(store);

    let resumed = make_trainer(
        cfg,
        cache_dir.clone(),
        Some(CheckpointOptions::new(&ckpt_dir)),
        None,
    )
    .train(&data, &loader, None)
    .unwrap();
    assert_eq!(resumed.resumed_from_epoch, Some(epoch + 1));
    assert_eq!(trajectory(&resumed), trajectory(&full));
    for dir in [scratch("stale_full"), ckpt_dir, cache_dir] {
        let _ = std::fs::remove_dir_all(dir);
    }
}

#[test]
fn a_fresh_run_reads_nothing_an_earlier_run_left_in_its_cache_dir() {
    // A caller-named cache dir outlives its run, and the run's end leaves
    // the store tagged with its final prefix. A later run on that dir that
    // does not resume must not serve those entries: they came from other
    // weights, and here from other images under the same sample ids.
    let cfg = EgeriaConfig {
        cache_store: CacheStoreKind::Chunked,
        ..sync_config()
    };
    let (data, loader) = data_and_loader();
    let other = images(12);
    let fresh = make_trainer(cfg, scratch("unused_cache"), None, None)
        .train(&other, &loader, None)
        .unwrap();
    let first_freeze = fresh
        .events
        .iter()
        .find(|e| e.kind == "freeze")
        .expect("the run never froze; the check would be vacuous")
        .prefix;
    // An earlier run that stops at that prefix, so its entries sit where
    // the later run first reads the cache.
    let earlier = make_trainer(cfg, scratch("earlier_cache"), None, None)
        .train(&data, &loader, None)
        .unwrap();
    let epochs = 1 + earlier
        .epochs
        .iter()
        .position(|e| e.frozen_prefix == first_freeze)
        .expect("the earlier run never stopped at the first freeze's prefix");
    let cache_dir = scratch("reused_cache");
    trainer_for(epochs, cfg, cache_dir.clone(), None, None)
        .train(&data, &loader, None)
        .unwrap();
    let tag = ChunkStore::open(&cache_dir, StoreConfig::default())
        .unwrap()
        .valid_prefix();
    assert_eq!(tag, Some(first_freeze as u64));

    let reused = make_trainer(cfg, cache_dir.clone(), None, None)
        .train(&other, &loader, None)
        .unwrap();
    assert_eq!(trajectory(&reused), trajectory(&fresh));
    for tag in ["unused_cache", "earlier_cache", "reused_cache"] {
        let _ = std::fs::remove_dir_all(scratch(tag));
    }
}

#[test]
fn a_resume_over_another_models_store_degrades_to_a_miss() {
    // A caller-named cache dir another model filled: its store is tagged
    // with the prefix the resumed checkpoint froze, on the trainer's grid,
    // but its activations have another geometry. The resume must drop them
    // as one corrupt entry and recompute, not abort the first cached step.
    let cfg = EgeriaConfig {
        cache_store: CacheStoreKind::Chunked,
        ..sync_config()
    };
    let (data, loader) = data_and_loader();
    let full = make_trainer(cfg, scratch("geometry_full"), None, None)
        .train(&data, &loader, None)
        .unwrap();

    let ckpt_dir = scratch("geometry_ckpt");
    let faults = FaultInjector::new();
    faults.arm(FaultSite::TrainStep, 25, 1, FaultAction::Fail);
    make_trainer(
        cfg,
        scratch("geometry_crash_cache"),
        Some(CheckpointOptions::new(&ckpt_dir)),
        Some(faults),
    )
    .train(&data, &loader, None)
    .unwrap_err();
    let opts = CheckpointOptions::new(&ckpt_dir);
    let prefix = CheckpointStore::open(&opts.dir, opts.keep)
        .unwrap()
        .load_latest()
        .expect("the crashed run left a checkpoint")
        .freezer
        .map_or(0, |f| f.front);
    assert!(prefix > 0, "the checkpoint froze nothing; the check would be vacuous");

    // The other model: the same family at twice the width.
    let mut other = resnet_cifar(
        ResNetCifarConfig {
            n: 2,
            width: 8,
            classes: 4,
            ..Default::default()
        },
        7,
    );
    let cache_dir = scratch("geometry_cache");
    let mut cache =
        ActivationCache::with_store(&cache_dir, cfg.cache_mem_batches, StoreConfig::default())
            .unwrap();
    for plan in loader.epoch_plan(0) {
        let batch = data.materialize(&plan.indices).unwrap();
        let act = other.capture_activation(&batch, prefix - 1).unwrap();
        cache.put_batch(&batch.sample_ids, &act, prefix).unwrap();
    }
    cache.persist().unwrap();
    drop(cache);

    let resumed = make_trainer(cfg, cache_dir.clone(), Some(opts), None)
        .train(&data, &loader, None)
        .unwrap();
    assert!(resumed.resumed_from_epoch.is_some());
    assert_eq!(resumed.cache_stats.corrupt_entries, 1);
    assert_eq!(trajectory(&resumed), trajectory(&full));
    for dir in [
        scratch("geometry_full"),
        scratch("geometry_crash_cache"),
        ckpt_dir,
        cache_dir,
    ] {
        let _ = std::fs::remove_dir_all(dir);
    }
}
