//! Figures 15 & 16: PWCCA and SP-loss heatmaps of intermediate activations
//! across layer modules and training stages.
//!
//! For snapshots at 25/50/75/100% of training, computes the module×module
//! similarity between the snapshot's activations and the fully-trained
//! model's. Diagonal cells show layer-by-layer convergence order (front
//! converges first); SP values above 1.0 are cut off as in the paper's
//! Figure 16.

use egeria_analysis::pwcca::{activation_matrix, pwcca_distance};
use egeria_analysis::sp_loss;
use egeria_bench::experiments::train_with_snapshots;
use egeria_bench::runner::{write_csv, ResultsDir};
use egeria_scenarios::registry::{recipe, Recipe};

fn main() {
    let results = ResultsDir::resolve().expect("results dir");
    let epochs = 32;
    let resnet56 = Recipe {
        epochs,
        loader_seed: 119,
        ..recipe("resnet56").expect("registry entry")
    };
    let snap_epochs = [epochs / 4, epochs / 2, 3 * epochs / 4, epochs - 1];
    let (snaps, mut final_model, probe) =
        train_with_snapshots(&resnet56, &snap_epochs, 64).expect("training");
    let n = final_model.modules().len();
    let final_acts: Vec<_> = (0..n)
        .map(|m| final_model.capture_activation(&probe, m).expect("capture"))
        .collect();
    let final_mats: Vec<_> = final_acts
        .iter()
        .map(|a| activation_matrix(a).expect("matrix"))
        .collect();
    let mut rows = Vec::new();
    for (epoch, mut snap) in snaps {
        for i in 0..n {
            let act = snap.capture_activation(&probe, i).expect("capture");
            let mat = activation_matrix(&act).expect("matrix");
            for j in 0..n {
                let d = pwcca_distance(&mat, &final_mats[j]).expect("pwcca");
                // The paper cuts SP off at 1.0 to keep half-trained layers
                // readable (Appendix D).
                let sp = sp_loss(&act, &final_acts[j]).expect("sp").min(1.0);
                rows.push(format!("{epoch},{i},{j},{d:.5},{sp:.5}"));
            }
        }
        eprintln!("snapshot at epoch {epoch} done");
    }
    write_csv(
        &results.path("fig15_16_heatmaps.csv"),
        "snapshot_epoch,snapshot_module,final_module,pwcca_distance,sp_loss_capped",
        &rows,
    )
    .expect("write figs 15/16");
}
