//! Figure 1: post hoc PWCCA layer-convergence analysis of ResNet-56.
//!
//! Trains ResNet-56 (no Egeria) with the step-decay schedule, snapshotting
//! every few epochs, then compares every snapshot's per-module activations
//! with the fully-trained model's via PWCCA distance. The expected shape:
//! front modules flatten out early (freezable regions), every curve drops
//! again after each LR decay, and deep modules converge last.

use egeria_analysis::pwcca::{activation_matrix, pwcca_distance};
use egeria_bench::experiments::train_with_snapshots;
use egeria_bench::runner::{write_csv, ResultsDir};
use egeria_scenarios::registry::{recipe, Recipe};

fn main() {
    let results = ResultsDir::resolve().expect("results dir");
    let epochs = 48;
    let resnet56 = Recipe {
        epochs,
        loader_seed: 119,
        ..recipe("resnet56").expect("registry entry")
    };
    let snap_epochs: Vec<usize> = (0..epochs).step_by(4).collect();
    eprintln!("training with {} snapshots...", snap_epochs.len());
    let (snaps, mut final_model, probe) =
        train_with_snapshots(&resnet56, &snap_epochs, 64).expect("training");
    let n_modules = final_model.modules().len();
    // Final-model activations per module.
    let final_acts: Vec<_> = (0..n_modules)
        .map(|m| {
            activation_matrix(&final_model.capture_activation(&probe, m).expect("capture"))
                .expect("matrix")
        })
        .collect();
    let mut rows = Vec::new();
    for (epoch, snap) in snaps {
        let mut snap = snap;
        for (m, final_act) in final_acts.iter().enumerate() {
            let act = activation_matrix(&snap.capture_activation(&probe, m).expect("capture"))
                .expect("matrix");
            let d = pwcca_distance(&act, final_act).expect("pwcca");
            rows.push(format!("{epoch},{m},{d:.5}"));
        }
        eprintln!("epoch {epoch} done");
    }
    write_csv(
        &results.path("fig01_pwcca_convergence.csv"),
        "epoch,module,pwcca_distance",
        &rows,
    )
    .expect("write fig 1");
}
