//! Figure 11: distributed training throughput across cluster sizes.
//!
//! Costs the ResNet-50-style and Transformer-Base traces on 2×2 → 5×2 V100
//! clusters under four systems: vanilla baseline, ByteScheduler, Egeria
//! (frozen trace, vanilla transport), and Egeria + ByteScheduler. Expected
//! shape: ByteScheduler alone helps little on these computation-intensive
//! models (may even dip slightly), Egeria's freezing raises throughput, and
//! the two compose.

use egeria_bench::experiments::{run_workload, trace_of};
use egeria_bench::runner::{write_csv, ResultsDir};
use egeria_scenarios::registry::recipe;
use egeria_simsys::device::ClusterSpec;
use egeria_simsys::iteration::CommPolicy;
use egeria_simsys::tta::{throughput, IterTrace};

fn main() {
    let results = ResultsDir::resolve().expect("results dir");
    let mut rows = Vec::new();
    // Rows keep the CSV's CamelCase model labels.
    for (name, label) in [
        ("resnet50", "ResNet50"),
        ("transformer_base", "TransformerBase"),
    ] {
        eprintln!("== {label}");
        let eg = run_workload(&recipe(name).expect("registry entry")).expect("egeria");
        let eg_trace = trace_of(&eg.report);
        let base_trace: Vec<IterTrace> = eg_trace
            .iter()
            .map(|t| IterTrace {
                epoch: t.epoch,
                frozen_prefix: 0,
                fp_cached: false,
            })
            .collect();
        for nodes in 2..=5 {
            let cluster = ClusterSpec::v100_cluster(nodes);
            let tp = |trace: &[IterTrace], policy| {
                throughput(&eg.arch, &cluster, trace, eg.batch_size, policy)
            };
            let baseline = tp(&base_trace, CommPolicy::Vanilla);
            let bytescheduler = tp(&base_trace, CommPolicy::ByteScheduler);
            let egeria = tp(&eg_trace, CommPolicy::Vanilla);
            let egeria_bs = tp(&eg_trace, CommPolicy::ByteScheduler);
            rows.push(format!(
                "{label},{nodes}x2,{baseline:.0},{bytescheduler:.0},{egeria:.0},{egeria_bs:.0}"
            ));
        }
    }
    write_csv(
        &results.path("fig11_distributed.csv"),
        "model,cluster,baseline_sps,bytescheduler_sps,egeria_sps,egeria_plus_bs_sps",
        &rows,
    )
    .expect("write fig 11");
}
