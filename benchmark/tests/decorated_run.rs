//! The decorators and the telemetry handle must not change what is
//! trained: a decorated run reproduces the plain run's trajectory bit for
//! bit, which is what lets the traced run stand in for the timed ones.

use egeria_benchmark::child::fingerprint;
use egeria_benchmark::clocked::{
    ClockedDataset, ClockedModel, DataLog, ModelClock, Split, StepClock,
};
use egeria_core::trainer::{EgeriaTrainer, Optimizer, TrainReport, TrainerOptions};
use egeria_core::EgeriaConfig;
use egeria_data::images::{ImageDataConfig, SyntheticImages};
use egeria_data::{DataLoader, Dataset};
use egeria_models::resnet::{resnet_cifar, ResNetCifarConfig};
use egeria_models::Model;
use egeria_nn::optim::Sgd;
use egeria_nn::sched::MultiStepDecay;
use egeria_obs::Telemetry;
use std::sync::Arc;

const EPOCHS: usize = 2;
const BATCHES: usize = 4;

/// What the decorated run keeps besides its report.
struct Clocks {
    log: Arc<DataLog>,
    model: Arc<ModelClock>,
    telemetry: Telemetry,
    end_ns: u64,
}

/// A small ResNet with settings permissive enough to freeze and to hit
/// the cache within two epochs.
fn run(decorated: bool, tag: &str) -> (TrainReport, Option<Clocks>) {
    let model = resnet_cifar(
        ResNetCifarConfig {
            n: 2,
            width: 4,
            classes: 4,
            ..Default::default()
        },
        7,
    );
    let data_cfg = ImageDataConfig {
        samples: 16 * BATCHES,
        classes: 4,
        size: 8,
        noise: 0.3,
        augment: true,
    };
    let train: Box<dyn Dataset> = Box::new(SyntheticImages::new(data_cfg, 11));
    let val: Box<dyn Dataset> = Box::new(SyntheticImages::new(data_cfg, 12));
    let loader = DataLoader::new(data_cfg.samples, 16, 13, true);
    let val_loader = DataLoader::new(data_cfg.samples, 16, 0, false);
    let cache_dir = std::env::temp_dir().join(format!(
        "egeria_benchmark_test_{}_{tag}",
        std::process::id()
    ));
    let mut options = TrainerOptions {
        epochs: EPOCHS,
        egeria: Some(EgeriaConfig {
            n: 1,
            w: 2,
            s: 1,
            t: 50.0,
            bootstrap_rate: 0.9,
            ..Default::default()
        }),
        cache_dir: Some(cache_dir.clone()),
        ..Default::default()
    };
    let optimizer = Optimizer::Sgd(Sgd::new(0.05, 0.9, 1e-4));
    let schedule = Box::new(MultiStepDecay::new(0.05, 0.1, vec![usize::MAX]));
    let (report, extras) = if decorated {
        let log = DataLog::new(64);
        let clock = Arc::new(ModelClock::default());
        let telemetry = Telemetry::enabled();
        options.telemetry = telemetry.clone();
        let model: Box<dyn Model> =
            Box::new(ClockedModel::new(Box::new(model), Arc::clone(&clock)));
        let train = ClockedDataset::new(train, Split::Train, Arc::clone(&log));
        let val = ClockedDataset::new(val, Split::Val, Arc::clone(&log));
        let mut trainer = EgeriaTrainer::new(model, optimizer, schedule, options);
        let report = trainer
            .train(&train, &loader, Some((&val, &val_loader)))
            .unwrap();
        let end_ns = log.now_ns();
        let clocks = Clocks {
            log,
            model: clock,
            telemetry,
            end_ns,
        };
        (report, Some(clocks))
    } else {
        let mut trainer = EgeriaTrainer::new(Box::new(model), optimizer, schedule, options);
        let report = trainer
            .train(train.as_ref(), &loader, Some((val.as_ref(), &val_loader)))
            .unwrap();
        (report, None)
    };
    let _ = std::fs::remove_dir_all(cache_dir);
    (report, extras)
}

#[test]
fn decorated_run_matches_the_plain_run() {
    let (plain, _) = run(false, "plain");
    let (decorated, extras) = run(true, "decorated");
    let Clocks {
        log,
        model: clock,
        telemetry,
        end_ns,
    } = extras.unwrap();

    assert_eq!(fingerprint(&plain), fingerprint(&decorated));
    assert!(
        plain.events.iter().any(|e| e.kind == "freeze"),
        "the test run must freeze, or the fingerprint covers no event: {:?}",
        plain.events
    );
    let kinds = |r: &TrainReport| -> Vec<(u16, bool)> {
        r.iterations
            .iter()
            .map(|i| (i.frozen_prefix, i.fp_cached))
            .collect()
    };
    assert_eq!(kinds(&plain), kinds(&decorated));

    // The clocks saw the run the report describes.
    let steps = StepClock::from_stamps(&log.stamps(), end_ns);
    assert_eq!(steps.step_ns.len(), EPOCHS * BATCHES);
    assert_eq!(steps.epoch_end_ns.len(), EPOCHS);
    let cached = decorated.iterations.iter().filter(|i| i.fp_cached).count() as u64;
    assert_eq!(clock.train_step_from.calls(), cached);
    assert_eq!(clock.train_step.calls() + cached, (EPOCHS * BATCHES) as u64);
    assert_eq!(clock.eval_batch.calls(), (EPOCHS * BATCHES) as u64);
    assert!(clock.reference_capture.calls() > 0 && clock.clone.calls() > 0);
    let (events, dropped) = telemetry.trace_events();
    assert_eq!(dropped, 0);
    assert_eq!(
        events.iter().filter(|e| e.kind == "opt_step").count(),
        EPOCHS * BATCHES
    );
}

#[test]
fn fingerprint_tells_trajectories_apart() {
    let (mut report, _) = run(false, "fp");
    let before = fingerprint(&report);
    report.epochs[0].train_loss = f32::from_bits(report.epochs[0].train_loss.to_bits() ^ 1);
    let loss_changed = fingerprint(&report);
    assert_ne!(before, loss_changed);
    report.events[0].iteration += 1;
    assert_ne!(loss_changed, fingerprint(&report));
}
