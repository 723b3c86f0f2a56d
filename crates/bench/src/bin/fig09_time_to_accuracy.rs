//! Figure 9 (and Appendix E Figures 17–20): validation-metric-vs-time
//! curves, Egeria against the vanilla baseline, for the four headline
//! tasks: ResNet-50-style classification, DeepLabv3-style segmentation,
//! Transformer-Base translation (perplexity), and BERT-style QA (F1).

use egeria_bench::experiments::{metric_series, run_workload, trace_of};
use egeria_bench::runner::{write_csv, ResultsDir};
use egeria_nn::loss::perplexity;
use egeria_scenarios::registry::{recipe, Recipe};
use egeria_simsys::device::ClusterSpec;
use egeria_simsys::iteration::CommPolicy;
use egeria_simsys::tta::epoch_times;

fn main() {
    let results = ResultsDir::resolve().expect("results dir");
    let tasks = [
        ("resnet50", ClusterSpec::v100_cluster(1)),
        ("deeplabv3", ClusterSpec::v100_cluster(1)),
        ("transformer_base", ClusterSpec::v100_cluster(4)),
        ("bert_qa", ClusterSpec::v100_cluster(1)),
    ];
    let mut rows = Vec::new();
    for (name, cluster) in tasks {
        let entry = recipe(name).expect("registry entry");
        for egeria in [false, true] {
            eprintln!("== {name} egeria={egeria}");
            let run = Recipe {
                egeria: entry.egeria.filter(|_| egeria),
                ..entry.clone()
            };
            let out = run_workload(&run).expect("run");
            let times = epoch_times(
                &out.arch,
                &cluster,
                &trace_of(&out.report),
                out.batch_size,
                CommPolicy::Vanilla,
            );
            let metrics = metric_series(&out.report);
            for (e, (t, m)) in times.iter().zip(metrics.iter()).enumerate() {
                if let Some(metric) = m {
                    // Translation additionally reports perplexity derived
                    // from the validation loss (the paper's Figure 9c axis).
                    let extra = if name == "transformer_base" {
                        out.report.epochs[e]
                            .val_loss
                            .map(perplexity)
                            .unwrap_or(f32::NAN)
                    } else {
                        f32::NAN
                    };
                    rows.push(format!(
                        "{name},{},{e},{t:.1},{metric:.4},{extra:.3}",
                        if egeria { "egeria" } else { "baseline" }
                    ));
                }
            }
        }
    }
    write_csv(
        &results.path("fig09_time_to_accuracy.csv"),
        "task,system,epoch,sim_time_s,metric,perplexity",
        &rows,
    )
    .expect("write fig 9");
}
