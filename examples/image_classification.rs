//! ResNet-56 image classification with the full Egeria pipeline, including
//! the asynchronous controller and activation caching.
//!
//! ```text
//! cargo run --release --example image_classification
//! ```
//!
//! This is the paper's headline CV scenario: the controller evaluates
//! plasticity against an int8 reference on a separate thread (IQ/ROQ/TOQ
//! queues), converged front modules freeze, their activations get cached to
//! disk, and later epochs skip the frozen forward pass by looking them up.

use egeria_core::trainer::{EgeriaTrainer, Optimizer, TrainerOptions};
use egeria_core::{config::ControllerMode, EgeriaConfig};
use egeria_data::images::{ImageDataConfig, SyntheticImages};
use egeria_data::DataLoader;
use egeria_models::resnet::{resnet_cifar, ResNetCifarConfig};
use egeria_nn::optim::Sgd;
use egeria_nn::sched::MultiStepDecay;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let model = resnet_cifar(
        ResNetCifarConfig {
            n: 9, // 6·9+2 = 56 layers, the paper's CIFAR model
            width: 4,
            classes: 8,
            ..Default::default()
        },
        42,
    );
    println!("{} layer modules:", model.network().num_blocks());
    for m in egeria_models::Model::modules(&model) {
        println!("  {:28} {:>8} params", m.name, m.param_count);
    }
    let data = SyntheticImages::new(
        ImageDataConfig {
            samples: 320,
            classes: 8,
            size: 10,
            noise: 0.5,
            augment: true,
        },
        11,
    );
    let val = SyntheticImages::new(
        ImageDataConfig {
            samples: 96,
            classes: 8,
            size: 10,
            noise: 0.5,
            augment: false,
        },
        11,
    );
    let loader = DataLoader::new(320, 16, 13, true);
    let val_loader = DataLoader::new(96, 16, 0, false);
    let epochs = 40;
    let mut trainer = EgeriaTrainer::new(
        Box::new(model),
        Optimizer::Sgd(Sgd::new(0.1, 0.9, 1e-4)),
        Box::new(MultiStepDecay::new(0.1, 0.1, vec![epochs / 2, epochs * 3 / 4])),
        TrainerOptions {
            epochs,
            egeria: Some(EgeriaConfig {
                n: 5,
                w: 12,
                s: 12,
                t: 1e-4,
                controller: ControllerMode::Async,
                cpu_load_gate: 4.0, // Single-core demo box: don't gate.
                ..Default::default()
            }),
            ..Default::default()
        },
    );
    let report = trainer.train(&data, &loader, Some((&val, &val_loader)))?;
    println!("\nepoch  loss    val_acc  frozen  cached_iters");
    for e in &report.epochs {
        let cached = report
            .iterations
            .iter()
            .filter(|i| i.epoch as usize == e.epoch && i.fp_cached)
            .count();
        println!(
            "{:5}  {:.4}  {:>7.3}  {:>6}  {:>6}",
            e.epoch,
            e.train_loss,
            e.val_metric.unwrap_or(f32::NAN),
            e.frozen_prefix,
            cached
        );
    }
    println!("\nevents: {:?}", report.events);
    println!(
        "cache: {} hits / {} misses, {:.1} KiB live on disk",
        report.cache_stats.hits,
        report.cache_stats.misses,
        report.cache_stats.disk_bytes_live as f64 / 1024.0
    );
    Ok(())
}
