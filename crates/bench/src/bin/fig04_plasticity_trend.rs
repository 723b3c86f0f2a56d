//! Figure 4: plasticity (SP loss against a partially-trained reference)
//! validates the training-progress metric.
//!
//! As in the paper, the reference is the model snapshot after ~25% of
//! training (ResNet-56 pre-trained 50 of 200 epochs), int8-quantized. We
//! then train from scratch again on the same seed and record each module's
//! plasticity per epoch, plus validation accuracy — front modules must
//! stabilize at a low level within the first third while the deep module
//! stays high/unstable longer. Normalized values (per-module min-max) are
//! emitted alongside, matching Figure 4b.

use egeria_analysis::sp_loss;
use egeria_bench::experiments::{train_epoch, train_with_snapshots, val_metric};
use egeria_bench::runner::{write_csv, ResultsDir};
use egeria_quant::{quantize_reference, Precision};
use egeria_scenarios::registry::{build, recipe, Recipe};

fn main() {
    let results = ResultsDir::resolve().expect("results dir");
    let epochs = 36;
    let ref_epoch = epochs / 4;
    // Both passes shuffle with the same loader seed.
    let resnet56 = Recipe {
        epochs,
        loader_seed: 119,
        ..recipe("resnet56").expect("registry entry")
    };
    // First pass: obtain the partially-trained reference snapshot.
    eprintln!("pass 1: training to epoch {ref_epoch} for the reference snapshot");
    let first_pass = Recipe {
        epochs: ref_epoch,
        ..resnet56.clone()
    };
    let (snaps, _, probe) =
        train_with_snapshots(&first_pass, &[ref_epoch - 1], 64).expect("reference training");
    let (_, ref_snapshot) = snaps.into_iter().last().expect("snapshot");
    let mut reference =
        quantize_reference(ref_snapshot.as_ref(), Precision::Int8).expect("quantize");

    // Second pass: fresh training, recording plasticity per module per epoch.
    eprintln!("pass 2: fresh training with plasticity tracing");
    let mut w = build(&resnet56).expect("build");
    let n_modules = w.model.modules().len();
    let ref_acts: Vec<_> = (0..n_modules)
        .map(|m| reference.capture_activation(&probe, m).expect("ref capture"))
        .collect();
    let mut series: Vec<Vec<f32>> = vec![Vec::new(); n_modules];
    let mut accs = Vec::new();
    for epoch in 0..epochs {
        train_epoch(&mut w, epoch).expect("epoch");
        for m in 0..n_modules {
            let act = w.model.capture_activation(&probe, m).expect("capture");
            series[m].push(sp_loss(&act, &ref_acts[m]).expect("sp"));
        }
        let acc = val_metric(&mut w).expect("eval");
        accs.push(acc);
        eprintln!("epoch {epoch}: acc {acc:.3}");
    }
    // Per-module min-max normalization (Figure 4b).
    let norm: Vec<Vec<f32>> = series
        .iter()
        .map(|s| {
            let lo = s.iter().copied().fold(f32::INFINITY, f32::min);
            let hi = s.iter().copied().fold(f32::NEG_INFINITY, f32::max);
            let span = (hi - lo).max(1e-12);
            s.iter().map(|&v| (v - lo) / span).collect()
        })
        .collect();
    let mut rows = Vec::new();
    for epoch in 0..epochs {
        for m in 0..n_modules {
            rows.push(format!(
                "{epoch},{m},{:.6},{:.4},{:.4}",
                series[m][epoch], norm[m][epoch], accs[epoch]
            ));
        }
    }
    write_csv(
        &results.path("fig04_plasticity_trend.csv"),
        "epoch,module,plasticity,plasticity_normalized,val_acc",
        &rows,
    )
    .expect("write fig 4");
}
