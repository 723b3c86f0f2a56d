//! Figure 2: prematurely freezing layers hurts the final accuracy.
//!
//! Statically freezes each layer module at an early (~10%) and a later
//! (~25%) point of training — the paper's epoch 20 and 50 of 200 — and
//! compares converged validation accuracy against the unfrozen baseline.
//! Deep modules frozen early must lose the most accuracy.

use egeria_bench::experiments::{train_epoch, val_metric};
use egeria_bench::runner::{write_csv, ResultsDir};
use egeria_scenarios::registry::{build, recipe, Recipe};
use egeria_tensor::Result;

fn resnet56() -> Recipe {
    Recipe {
        loader_seed: 7,
        ..recipe("resnet56").expect("registry entry")
    }
}

/// Trains ResNet-56 with a static freeze of modules `0..=module` applied at
/// `freeze_epoch` (`None` = baseline), returning the converged accuracy.
fn run(module: Option<usize>, freeze_epoch: usize, epochs: usize) -> Result<f32> {
    let mut w = build(&resnet56())?;
    for epoch in 0..epochs {
        if let Some(m) = module {
            if epoch == freeze_epoch {
                w.model.freeze_prefix(m + 1)?;
            }
        }
        train_epoch(&mut w, epoch)?;
    }
    val_metric(&mut w)
}

fn main() {
    let results = ResultsDir::resolve().expect("results dir");
    let epochs = 40;
    // Scale the paper's 20/50-of-200 to 4/10-of-40.
    let early = 4;
    let later = 10;
    let baseline = run(None, 0, epochs).expect("baseline");
    let mut rows = vec![format!("baseline,-,{baseline:.4},0.0")];
    let n_freezable = build(&resnet56()).expect("build").model.modules().len() - 1;
    for module in 0..n_freezable {
        for (label, at) in [("early", early), ("later", later)] {
            let acc = run(Some(module), at, epochs).expect("static freeze run");
            rows.push(format!(
                "module{},{label},{acc:.4},{:.2}",
                module,
                (baseline - acc) * 100.0
            ));
            eprintln!("module {module} @ {label}: acc {acc:.4} (baseline {baseline:.4})");
        }
    }
    write_csv(
        &results.path("fig02_premature_freezing.csv"),
        "frozen_through,when,final_acc,acc_drop_pct",
        &rows,
    )
    .expect("write fig 2");
}
