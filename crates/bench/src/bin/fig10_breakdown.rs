//! Figure 10: performance breakdown of backward-freezing vs FP caching.
//!
//! For each single-node workload we take the Egeria freezing trace and cost
//! it three ways on the paper testbed: (a) baseline (no freezing), (b)
//! freezing only (cached-FP disabled), (c) freezing + cached FP. The gap
//! (a)−(b) is the BP/communication saving, (b)−(c) the FP-caching saving.
//! CNNs should gain more from FP caching than language models, and the
//! caching slice should stay under ~10% (the paper's observation).

use egeria_bench::experiments::{run_workload, trace_of};
use egeria_bench::runner::{write_csv, ResultsDir};
use egeria_scenarios::registry::recipe;
use egeria_simsys::device::ClusterSpec;
use egeria_simsys::iteration::CommPolicy;
use egeria_simsys::tta::epoch_times;

fn main() {
    let results = ResultsDir::resolve().expect("results dir");
    let cluster = ClusterSpec::v100_cluster(1);
    let mut rows = Vec::new();
    // Representative subset: two CNNs (front-heavy FLOPs → FP caching
    // matters) and two language models (balanced blocks → BP dominates).
    // Rows keep the CSV's CamelCase model labels.
    for (name, label) in [
        ("resnet50", "ResNet50"),
        ("resnet56", "ResNet56"),
        ("transformer_base", "TransformerBase"),
        ("bert_qa", "BertQa"),
    ] {
        eprintln!("== {label}");
        let out = run_workload(&recipe(name).expect("registry entry")).expect("egeria run");
        let trace = trace_of(&out.report);
        // (a) Baseline: same epoch count, never frozen.
        let base_trace: Vec<_> = trace
            .iter()
            .map(|t| egeria_simsys::tta::IterTrace {
                epoch: t.epoch,
                frozen_prefix: 0,
                fp_cached: false,
            })
            .collect();
        // (b) Freezing only: drop the cached-FP flag.
        let freeze_trace: Vec<_> = trace
            .iter()
            .map(|t| egeria_simsys::tta::IterTrace {
                fp_cached: false,
                ..*t
            })
            .collect();
        let total = |tr: &[egeria_simsys::tta::IterTrace]| {
            *epoch_times(&out.arch, &cluster, tr, out.batch_size, CommPolicy::Vanilla)
                .last()
                .unwrap()
        };
        let t_base = total(&base_trace);
        let t_freeze = total(&freeze_trace);
        let t_full = total(&trace);
        let bp_saving = (t_base - t_freeze) / t_base * 100.0;
        let fp_saving = (t_freeze - t_full) / t_base * 100.0;
        rows.push(format!(
            "{label},{t_base:.1},{t_freeze:.1},{t_full:.1},{bp_saving:.2},{fp_saving:.2}"
        ));
    }
    write_csv(
        &results.path("fig10_breakdown.csv"),
        "model,baseline_s,freeze_only_s,freeze_plus_cache_s,bp_saving_pct,fp_caching_saving_pct",
        &rows,
    )
    .expect("write fig 10");
}
