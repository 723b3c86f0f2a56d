//! Crash-consistent checkpoint/resume: kill training mid-run, then resume
//! from the newest valid checkpoint and finish with the same freezing
//! timeline an uninterrupted run would have produced.
//!
//! ```text
//! cargo run --release --example checkpoint_resume
//! ```
//!
//! The "crash" is injected with the deterministic fault harness
//! (`egeria_resil::fault`) — the same mechanism the robustness tests use —
//! so the example is reproducible end to end.

use egeria_core::checkpoint::CheckpointOptions;
use egeria_resil::fault::{FaultAction, FaultInjector, FaultSite};
use egeria_core::trainer::{EgeriaTrainer, Optimizer, TrainerOptions};
use egeria_core::EgeriaConfig;
use egeria_data::images::{ImageDataConfig, SyntheticImages};
use egeria_data::DataLoader;
use egeria_models::resnet::{resnet_cifar, ResNetCifarConfig};
use egeria_nn::optim::Sgd;
use egeria_nn::sched::MultiStepDecay;
use std::path::PathBuf;
use std::sync::Arc;

const EPOCHS: usize = 10;

fn make_trainer(
    ckpt_dir: PathBuf,
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
    let cfg = EgeriaConfig {
        n: 2,
        w: 3,
        s: 2,
        t: 5.0,
        bootstrap_rate: 0.9,
        ..Default::default()
    };
    EgeriaTrainer::new(
        Box::new(model),
        Optimizer::Sgd(Sgd::new(0.05, 0.9, 1e-4)),
        Box::new(MultiStepDecay::new(0.05, 0.1, vec![usize::MAX])),
        TrainerOptions {
            epochs: EPOCHS,
            egeria: Some(cfg),
            // Checkpoint every epoch, keep the 3 newest files. On startup
            // the trainer auto-resumes from the newest valid one.
            checkpoint: Some(CheckpointOptions {
                dir: ckpt_dir,
                every: 1,
                keep: 3,
            }),
            faults,
            ..Default::default()
        },
    )
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let ckpt_dir = std::env::temp_dir().join(format!(
        "egeria_example_ckpt_{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&ckpt_dir);
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

    // ---- Run 1: crashes mid-epoch -------------------------------------
    // The injector kills training at its 25th step (epoch 6), after the
    // first freeze decisions have landed and been checkpointed.
    let faults = FaultInjector::new();
    faults.arm(FaultSite::TrainStep, 25, 1, FaultAction::Fail);
    let mut run1 = make_trainer(ckpt_dir.clone(), Some(faults));
    println!("run 1: training until the injected crash ...");
    match run1.train(&data, &loader, None) {
        Ok(_) => println!("  unexpectedly completed"),
        Err(e) => println!("  crashed as planned: {e}"),
    }
    drop(run1); // The process is gone; only the checkpoint files survive.

    // ---- Run 2: a fresh trainer, same checkpoint directory ------------
    let mut run2 = make_trainer(ckpt_dir.clone(), None);
    println!("run 2: resuming from {} ...", ckpt_dir.display());
    let report = run2.train(&data, &loader, None)?;
    println!(
        "  resumed from epoch {} and finished all {} epochs",
        report.resumed_from_epoch.unwrap_or(0),
        report.epochs.len()
    );
    println!("  freezing timeline (iteration, event, prefix):");
    for e in &report.events {
        println!("    iter {:>3}  {:9}  prefix {}", e.iteration, e.kind, e.prefix);
    }
    println!(
        "  final train loss {:.4}, final frozen prefix {}",
        report.epochs.last().map(|e| e.train_loss).unwrap_or(f32::NAN),
        report.epochs.last().map(|e| e.frozen_prefix).unwrap_or(0)
    );
    let _ = std::fs::remove_dir_all(&ckpt_dir);
    Ok(())
}
