//! Figure 13: sensitivity of the linear-fitting window `W`.
//!
//! Egeria runs of ResNet-56 across `W ∈ {3, 6, 12, 20, 30}` (scaled from
//! the paper's 5–50 range to our shorter schedules), reporting the final
//! accuracy and how much got frozen. Expected shape: accuracy is flat for
//! moderate-to-large `W`; only very small `W` freezes eagerly and can dent
//! accuracy.

use egeria_bench::experiments::{converged_metric, run_workload};
use egeria_bench::runner::{write_csv, ResultsDir};
use egeria_scenarios::registry::{recipe, Recipe};

fn main() {
    let results = ResultsDir::resolve().expect("results dir");
    let resnet56 = recipe("resnet56").expect("registry entry");
    let mut rows = Vec::new();
    for w in [3usize, 6, 12, 24] {
        eprintln!("== W = {w}");
        let run = Recipe {
            egeria: resnet56.egeria.map(|c| c.with_window(w)),
            ..resnet56.clone()
        };
        let out = run_workload(&run).expect("run");
        let acc = converged_metric(&out.report);
        let max_prefix = out
            .report
            .iterations
            .iter()
            .map(|i| i.frozen_prefix)
            .max()
            .unwrap_or(0);
        let first_freeze = out
            .report
            .events
            .iter()
            .find(|e| e.kind == "freeze")
            .map(|e| e.iteration as i64)
            .unwrap_or(-1);
        rows.push(format!("{w},{acc:.4},{max_prefix},{first_freeze}"));
    }
    write_csv(
        &results.path("fig13_w_sensitivity.csv"),
        "window_w,final_accuracy,max_frozen_prefix,first_freeze_iteration",
        &rows,
    )
    .expect("write fig 13");
}
