//! Figure 12: freezing/unfreezing decision timeline for ResNet-56.
//!
//! Trains ResNet-56 with Egeria for the full schedule (LR ÷10 at 50% and
//! 75% of training, scaled from the paper's 100/150-of-200) and emits the
//! percentage of active parameters per epoch plus the event log. The LR
//! decays must trigger the unfreeze mechanism, and refreezing afterwards
//! must be faster than the initial freeze (relaxed criteria, §4.2.2).

use egeria_bench::experiments::run_workload;
use egeria_bench::runner::{write_csv, write_json, ResultsDir};
use egeria_core::trainer::EventRecord;
use egeria_obs::jsonl::Object;
use egeria_scenarios::registry::recipe;

fn main() {
    let results = ResultsDir::resolve().expect("results dir");
    let out = run_workload(&recipe("resnet56").expect("registry entry")).expect("egeria run");
    let mut rows = Vec::new();
    for e in &out.report.epochs {
        rows.push(format!(
            "{},{:.4},{},{:.4},{:.5}",
            e.epoch,
            e.active_param_fraction * 100.0,
            e.frozen_prefix,
            e.val_metric.unwrap_or(f32::NAN),
            e.lr
        ));
    }
    write_csv(
        &results.path("fig12_freeze_timeline.csv"),
        "epoch,active_params_pct,frozen_prefix,val_acc,lr",
        &rows,
    )
    .expect("write fig 12");
    let event = |e: &EventRecord| {
        Object::new()
            .field("iteration", e.iteration)
            .field("kind", &e.kind)
            .field("prefix", e.prefix)
    };
    let events: Vec<Object> = out.report.events.iter().map(event).collect();
    write_json(&results.path("fig12_events.json"), &events).expect("write events");

    // Refreeze-speed check: evaluations between an unfreeze and the next
    // freeze should be fewer than before the first freeze.
    let events = &out.report.events;
    if let (Some(first_freeze), Some(unfreeze)) = (
        events.iter().find(|e| e.kind == "freeze"),
        events.iter().find(|e| e.kind == "unfreeze"),
    ) {
        if let Some(refreeze) = events
            .iter()
            .find(|e| e.kind == "freeze" && e.iteration > unfreeze.iteration)
        {
            println!(
                "first freeze after {} iters; refreeze after {} iters (relaxed criteria)",
                first_freeze.iteration,
                refreeze.iteration - unfreeze.iteration
            );
        }
    }
}
