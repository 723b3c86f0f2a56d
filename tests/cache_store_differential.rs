//! Flat-vs-chunked differential: the cache v2 backend must be invisible
//! to training.
//!
//! Two fixed-seed training runs that differ **only** in
//! `EgeriaConfig::cache_store` (flat files vs the chunked/compressed
//! egeria-store layout, lossless codec) must produce bit-identical loss
//! curves, identical freeze-decision timelines, and identical cache
//! hit/miss/corrupt counters. This is the lossless-is-bit-exact rule of
//! DESIGN §5j exercised through the whole trainer rather than the codec
//! unit tests: compression may change how bytes rest on disk, never which
//! f32 bits come back out of the frozen-prefix cache.

use egeria_core::config::CacheStoreKind;
use egeria_core::trainer::{EgeriaTrainer, Optimizer, TrainReport, TrainerOptions};
use egeria_core::{EgeriaConfig, Telemetry};
use egeria_data::images::{ImageDataConfig, SyntheticImages};
use egeria_data::DataLoader;
use egeria_models::resnet::{resnet_cifar, ResNetCifarConfig};
use egeria_nn::optim::Sgd;
use egeria_nn::sched::MultiStepDecay;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};

fn cache_dir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!(
        "egeria_store_diff_{tag}_{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&d);
    d
}

fn run(store: CacheStoreKind, dir: &Path) -> (TrainReport, String) {
    // Same model/data/schedule as the golden run, pinned to scalar ISA so
    // the comparison is bit-level, not tolerance-level.
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
    let telemetry = Telemetry::enabled();
    let mut trainer = EgeriaTrainer::new(
        Box::new(model),
        Optimizer::Sgd(Sgd::new(0.05, 0.9, 0.0)),
        Box::new(MultiStepDecay::new(0.05, 0.1, vec![5])),
        TrainerOptions {
            // Longer than the golden run: the frozen prefix must stabilise
            // for a few epochs so the cache serves *hits*, not just fills —
            // a hit-free differential would compare nothing.
            epochs: 14,
            egeria: Some(EgeriaConfig {
                n: 2,
                w: 3,
                s: 2,
                t: 5.0,
                bootstrap_rate: 0.9,
                reference_update_every: 4,
                cache_store: store,
                ..Default::default()
            }),
            cache_dir: Some(dir.to_path_buf()),
            telemetry: telemetry.clone(),
            ..Default::default()
        },
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
    let loader = DataLoader::new(64, 16, 3, true);
    let report = trainer.train(&data, &loader, None).expect("run trains");

    // The comparable slice of the run: exact loss bits, the freeze/unfreeze
    // timeline, and the backend-independent cache counters.
    let mut fp = String::new();
    for e in &report.epochs {
        let _ = writeln!(
            fp,
            "epoch {} loss 0x{:08x} frozen {}",
            e.epoch,
            e.train_loss.to_bits(),
            e.frozen_prefix
        );
    }
    for ev in &report.events {
        let _ = writeln!(fp, "event iter {} {} prefix {}", ev.iteration, ev.kind, ev.prefix);
    }
    let snap = telemetry.metrics_snapshot();
    for (name, value) in &snap.counters {
        if name.starts_with("cache.hits")
            || name.starts_with("cache.misses")
            || name.starts_with("cache.promotions")
            || name.starts_with("cache.corrupt")
            || name.starts_with("cache.write")
        {
            let _ = writeln!(fp, "counter {name} {value}");
        }
    }
    (report, fp)
}

#[test]
fn chunked_lossless_run_is_bit_identical_to_flat() {
    let flat_dir = cache_dir("flat");
    let chunked_dir = cache_dir("chunked");
    let (flat_report, flat_fp) = run(CacheStoreKind::Flat, &flat_dir);
    let (chunked_report, chunked_fp) = run(CacheStoreKind::Chunked, &chunked_dir);

    // The run must actually exercise the cached-FP path, or this test
    // compares nothing.
    assert!(
        flat_report.cache_stats.hits > 0,
        "flat run served no cache hits; differential is vacuous"
    );
    assert!(
        flat_fp.contains("event iter"),
        "no freeze events; differential is vacuous:\n{flat_fp}"
    );

    // The chunked run must have gone through the store: cumulative write
    // accounting moved and the directory holds shard files, not one file
    // per sample.
    assert!(chunked_report.cache_stats.disk_bytes_written > 0);
    let shards = std::fs::read_dir(&chunked_dir)
        .map(|rd| {
            rd.flatten()
                .filter(|e| {
                    e.path()
                        .extension()
                        .is_some_and(|x| x == "egs")
                })
                .count()
        })
        .unwrap_or(0);
    assert!(
        shards > 0,
        "chunked run left no shard files in {}",
        chunked_dir.display()
    );

    assert_eq!(
        flat_fp, chunked_fp,
        "chunked (lossless) training diverged from flat:\nflat:\n{flat_fp}\nchunked:\n{chunked_fp}"
    );

    let _ = std::fs::remove_dir_all(&flat_dir);
    let _ = std::fs::remove_dir_all(&chunked_dir);
}
