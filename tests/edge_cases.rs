//! Edge-case integration tests across crates: degenerate configurations
//! that the main suites never hit but a downstream user will.

use egeria_core::trainer::{EgeriaTrainer, Optimizer, TrainerOptions};
use egeria_core::EgeriaConfig;
use egeria_data::images::{ImageDataConfig, SyntheticImages};
use egeria_data::{DataLoader, Dataset};
use egeria_models::resnet::{resnet_cifar, ResNetCifarConfig};
use egeria_models::Model;
use egeria_nn::optim::Sgd;
use egeria_nn::sched::{CosineAnnealing, MultiStepDecay};
use egeria_simsys::arch::{ArchSpec, FlopsModel, PaperScale};
use egeria_simsys::device::ClusterSpec;
use egeria_simsys::iteration::CommPolicy;
use egeria_simsys::tta::{epoch_times, throughput, time_to_target};

fn tiny_model() -> impl Model {
    resnet_cifar(
        ResNetCifarConfig {
            n: 2,
            width: 4,
            classes: 4,
            ..Default::default()
        },
        1,
    )
}

#[test]
fn single_batch_dataset_trains() {
    // Dataset exactly one batch long, drop_last on.
    let data = SyntheticImages::new(
        ImageDataConfig {
            samples: 16,
            classes: 4,
            size: 8,
            noise: 0.3,
            augment: false,
        },
        2,
    );
    let loader = DataLoader::new(16, 16, 3, true);
    assert_eq!(loader.batches_per_epoch(), 1);
    let mut t = EgeriaTrainer::new(
        Box::new(tiny_model()),
        Optimizer::Sgd(Sgd::new(0.05, 0.9, 0.0)),
        Box::new(MultiStepDecay::new(0.05, 0.1, vec![100])),
        TrainerOptions {
            epochs: 3,
            ..Default::default()
        },
    );
    let report = t.train(&data, &loader, None).unwrap();
    assert_eq!(report.iterations.len(), 3);
}

#[test]
fn validation_set_is_evaluated_every_epoch() {
    let data = SyntheticImages::new(
        ImageDataConfig {
            samples: 32,
            classes: 4,
            size: 8,
            noise: 0.3,
            augment: false,
        },
        4,
    );
    let loader = DataLoader::new(32, 16, 5, true);
    let val_loader = DataLoader::new(32, 16, 0, false);
    let mut t = EgeriaTrainer::new(
        Box::new(tiny_model()),
        Optimizer::Sgd(Sgd::new(0.05, 0.9, 0.0)),
        Box::new(MultiStepDecay::new(0.05, 0.1, vec![100])),
        TrainerOptions {
            epochs: 4,
            ..Default::default()
        },
    );
    let report = t.train(&data, &loader, Some((&data, &val_loader))).unwrap();
    let evaluated: Vec<bool> = report.epochs.iter().map(|e| e.val_metric.is_some()).collect();
    assert_eq!(evaluated, vec![true; 4]);
}

/// Unfreeze hook for periodic LR schedules (§4.2.2's `customizedUnfreeze`):
/// fires at each cycle restart, and refreezing proceeds with relaxed
/// criteria inside the new cycle.
struct CyclicalUnfreezer {
    period: usize,
    last_cycle: usize,
}

impl CyclicalUnfreezer {
    /// An unfreezer for a schedule with the given restart period (in the
    /// same step units the schedule is indexed by).
    fn new(period: usize) -> Self {
        CyclicalUnfreezer {
            period: period.max(1),
            last_cycle: 0,
        }
    }

    /// `true` exactly once per cycle restart; the caller unfreezes
    /// (Algorithm 1 line 24).
    fn should_unfreeze(&mut self, step: usize) -> bool {
        let cycle = step / self.period;
        if cycle > self.last_cycle {
            self.last_cycle = cycle;
            true
        } else {
            false
        }
    }
}

#[test]
fn cyclical_unfreezer_fires_once_per_cycle() {
    let mut u = CyclicalUnfreezer::new(10);
    let fires: Vec<usize> = (0..35).filter(|&s| u.should_unfreeze(s)).collect();
    assert_eq!(fires, vec![10, 20, 30]);
}

#[test]
fn cyclical_unfreezer_composes_with_cosine_schedule() {
    // Egeria with a cosine schedule and the customized unfreeze hook: at
    // each restart, unfreeze; the run must stay healthy.
    use egeria_core::config::UnfreezePolicy;
    use egeria_nn::sched::LrSchedule;
    let data = SyntheticImages::new(
        ImageDataConfig {
            samples: 64,
            classes: 4,
            size: 8,
            noise: 0.4,
            augment: true,
        },
        6,
    );
    let loader = DataLoader::new(64, 16, 7, true);
    let sched = CosineAnnealing::new(0.05, 1e-4, 8);
    assert!(sched.lr(0) > sched.lr(4));
    let mut model = tiny_model();
    let mut opt = Sgd::new(0.05, 0.9, 0.0);
    let cfg = EgeriaConfig {
        n: 2,
        w: 4,
        s: 3,
        t: 5.0,
        bootstrap_rate: 0.9,
        unfreeze: UnfreezePolicy::Custom,
        ..Default::default()
    };
    let mut freezer = egeria_core::freezer::FreezingEngine::new(model.modules().len(), &cfg);
    let mut unfreezer = CyclicalUnfreezer::new(8);
    let mut unfroze = 0;
    for epoch in 0..24 {
        opt.set_lr(sched.lr(epoch));
        if unfreezer.should_unfreeze(epoch) && freezer.front() > 0 {
            freezer.unfreeze_now();
            model.unfreeze_all();
            unfroze += 1;
        }
        for plan in loader.epoch_plan(epoch) {
            let batch = data.materialize(&plan.indices).unwrap();
            let front = freezer.front();
            let r = model.train_step(&batch, Some(front)).unwrap();
            let act = r.captured.unwrap();
            // Self-comparison keeps plasticity at zero → freezes steadily,
            // exercising the freeze/cyclical-unfreeze interplay.
            let (_, ev) = freezer.observe(&act, &act, sched.lr(epoch)).unwrap();
            if let egeria_core::freezer::FreezeEvent::Froze(k) = ev {
                model.freeze_prefix(k).unwrap();
            }
            opt.step(&mut model.params_mut()).unwrap();
            model.zero_grad();
        }
    }
    assert!(unfroze >= 1, "cyclical unfreeze never fired");
    assert!(model.frozen_prefix() < model.modules().len());
}

#[test]
fn tta_helpers_handle_empty_traces() {
    let spec = ArchSpec::scaled(
        "m",
        &[10, 20],
        None,
        FlopsModel::ProportionalToParams,
        PaperScale::resnet56_cifar(),
    );
    let cluster = ClusterSpec::v100_cluster(1);
    assert!(epoch_times(&spec, &cluster, &[], 16, CommPolicy::Vanilla).is_empty());
    assert_eq!(throughput(&spec, &cluster, &[], 16, CommPolicy::Vanilla), 0.0);
    assert_eq!(time_to_target(&[], &[], 0.5, true), None);
    // Metric series longer than the time series must not panic.
    assert_eq!(
        time_to_target(&[1.0], &[None, Some(0.9)], 0.5, true),
        None
    );
}

#[test]
fn freezing_the_whole_arch_is_clamped_in_the_cost_model() {
    // IterationSetting with an out-of-range prefix must clamp, not panic.
    use egeria_simsys::iteration::{iteration_time, IterationSetting};
    let spec = ArchSpec::scaled(
        "m",
        &[10, 20, 30],
        None,
        FlopsModel::ProportionalToParams,
        PaperScale::resnet56_cifar(),
    );
    let t = iteration_time(
        &spec,
        &ClusterSpec::v100_cluster(1),
        IterationSetting {
            frozen_prefix: 99,
            fp_cached: true,
            batch_size: 8,
        },
        CommPolicy::Vanilla,
    );
    assert!(t.total.is_finite() && t.total > 0.0);
}
