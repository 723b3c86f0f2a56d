//! Table 1: time-to-accuracy speedups for all seven workloads.
//!
//! For each model we train a vanilla baseline and an Egeria run on the same
//! seed, define the accuracy target as the baseline's converged metric (the
//! paper does the same), cost both iteration traces on the paper's testbed
//! via the performance simulator, and report the TTA speedup. Multi-node
//! rows rerun the cost model on larger clusters (the trace is per-worker;
//! data-parallel scaling enters through the all-reduce term). An arm that
//! never reaches the target prints `not reached` in its TTA cell and leaves
//! the row's speedup empty.

use egeria_bench::experiments::{
    converged_metric, metric_series, run_workload, running_best, trace_of,
};
use egeria_bench::runner::{write_csv, ResultsDir};
use egeria_scenarios::registry::{table1, Recipe};
use egeria_simsys::device::ClusterSpec;
use egeria_simsys::iteration::CommPolicy;
use egeria_simsys::tta::{epoch_times, time_to_target, tta_speedup};

fn clusters_for(name: &str) -> Vec<(&'static str, ClusterSpec)> {
    match name {
        "resnet50" => vec![
            ("1x2", ClusterSpec::v100_cluster(1)),
            ("2x2", ClusterSpec::v100_cluster(2)),
            ("3x2", ClusterSpec::v100_cluster(3)),
            ("4x2", ClusterSpec::v100_cluster(4)),
            ("5x2", ClusterSpec::v100_cluster(5)),
        ],
        "transformer_base" => vec![
            ("4x2", ClusterSpec::v100_cluster(4)),
            ("2x2", ClusterSpec::v100_cluster(2)),
            ("3x2", ClusterSpec::v100_cluster(3)),
            ("5x2", ClusterSpec::v100_cluster(5)),
        ],
        "transformer_tiny" => vec![("1x8", ClusterSpec::rtx_single_node())],
        _ => vec![("1x2", ClusterSpec::v100_cluster(1))],
    }
}

fn main() {
    let results = ResultsDir::resolve().expect("results dir");
    let mut rows = Vec::new();
    for entry in table1() {
        eprintln!("== {}: baseline run", entry.name);
        let baseline = Recipe {
            egeria: None,
            ..entry.clone()
        };
        let base = run_workload(&baseline).expect("baseline run");
        eprintln!("== {}: egeria run", entry.name);
        let eg = run_workload(&entry).expect("egeria run");
        let base_metric = converged_metric(&base.report);
        let eg_metric = converged_metric(&eg.report);
        // Target: slightly relaxed baseline-converged metric (the paper's
        // targets are the baseline's converged accuracy; the relaxation
        // absorbs small-validation-set noise at reproduction scale).
        let target = base_metric * 0.97;
        let base_trace = trace_of(&base.report);
        let eg_trace = trace_of(&eg.report);
        let base_metrics = running_best(&metric_series(&base.report));
        let eg_metrics = running_best(&metric_series(&eg.report));
        for (label, cluster) in clusters_for(entry.name) {
            let bt = epoch_times(
                &base.arch,
                &cluster,
                &base_trace,
                base.batch_size,
                CommPolicy::Vanilla,
            );
            let et = epoch_times(
                &eg.arch,
                &cluster,
                &eg_trace,
                eg.batch_size,
                CommPolicy::Vanilla,
            );
            let b_tta = time_to_target(&bt, &base_metrics, target, true);
            let e_tta = time_to_target(&et, &eg_metrics, target, true);
            // An arm that never reaches the target has no TTA, and the row
            // no speedup.
            let cell = |tta: Option<f64>| tta.map_or("not reached".into(), |t| format!("{t:.1}"));
            let speedup = match (b_tta, e_tta) {
                (Some(b), Some(e)) => format!("{:.1}", tta_speedup(b, e) * 100.0),
                _ => String::new(),
            };
            rows.push(format!(
                "{},{},{:.4},{:.4},{:.4},{},{},{}",
                entry.name,
                label,
                base_metric,
                eg_metric,
                target,
                cell(b_tta),
                cell(e_tta),
                speedup
            ));
        }
    }
    write_csv(
        &results.path("table1_tta_summary.csv"),
        "model,cluster,baseline_metric,egeria_metric,target,baseline_tta_s,egeria_tta_s,speedup_pct",
        &rows,
    )
    .expect("write table 1");
}
