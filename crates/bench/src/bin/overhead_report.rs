//! §6.5 system-overhead report.
//!
//! Measures, on real components: reference generation/update latency (the
//! paper: 0.5–1.5 s at paper scale — ours is smaller, same plumbing),
//! the cost of one inline plasticity probe on the training thread (a
//! reference capture plus the SP loss) amortised over the evaluation
//! interval `n`, and the activation cache's storage-to-input ratio (the
//! paper: 1.5×–5.3× for ResNet-50).

use egeria_analysis::sp_loss;

use egeria_bench::experiments::run_workload;
use egeria_bench::runner::{write_csv, ResultsDir};
use egeria_core::reference::ReferenceManager;
use egeria_core::EgeriaConfig;
use egeria_quant::{quantize_reference, Precision};
use egeria_scenarios::registry::{build, recipe, Recipe};
use std::time::Instant;

fn main() {
    let results = ResultsDir::resolve().expect("results dir");
    let mut rows = Vec::new();
    let resnet56 = recipe("resnet56").expect("registry entry");

    // 1. Reference generation latency (static int8 quantization of a
    //    ResNet snapshot + dynamic-style for the Transformer).
    for name in ["resnet56", "transformer_base"] {
        let model = build(&recipe(name).expect("registry entry"))
            .expect("build")
            .model;
        let t0 = Instant::now();
        let reps = 5;
        for _ in 0..reps {
            let _ = quantize_reference(model.as_ref(), Precision::Int8).expect("quantize");
        }
        let per = t0.elapsed().as_secs_f64() / reps as f64;
        rows.push(format!("reference_generation_s,{name},{per:.4}"));
    }

    // 2. Inline probe cost on the training thread: what the trainer adds
    //    at every `n`-th step (ResNet's front module, 16 samples).
    {
        let w = build(&resnet56).expect("build");
        let mut model = w.model;
        let probe = w
            .train
            .materialize(&(0..16).collect::<Vec<_>>())
            .expect("probe");
        let mut refmgr = ReferenceManager::new(&EgeriaConfig::default());
        refmgr.generate(model.as_ref()).expect("generate");
        let act = model.capture_activation(&probe, 0).expect("capture");
        let t0 = Instant::now();
        let reps = 50;
        for _ in 0..reps {
            let a_ref = refmgr.capture(&probe, 0).expect("reference capture");
            std::hint::black_box(sp_loss(&act, &a_ref).expect("sp loss"));
        }
        let probe_s = t0.elapsed().as_secs_f64() / reps as f64;
        // One full training iteration for comparison.
        let t1 = Instant::now();
        let _ = model.train_step(&probe, None).expect("step");
        let iter_s = t1.elapsed().as_secs_f64();
        let n = resnet56.egeria.expect("Table 1 entries run Egeria").n;
        rows.push(format!("probe_s,resnet56,{probe_s:.6}"));
        rows.push(format!("train_iteration_s,resnet56,{iter_s:.4}"));
        rows.push(format!(
            "probe_overhead_pct,resnet56,{:.3}",
            probe_s / (n as f64 * iter_s) * 100.0
        ));
    }

    // 3. Cache storage ratio from a real Egeria run.
    {
        // 30 of the entry's 60 epochs; the LR milestones stay at 30 and 45.
        let run = Recipe {
            epochs: 30,
            ..resnet56
        };
        let out = run_workload(&run).expect("egeria run");
        let ratio = out.report.cache_stats.disk_bytes_written as f64
            / out.report.input_bytes.max(1) as f64
            // Normalize per epoch: disk stores one copy per sample, input
            // bytes accumulate over all epochs.
            * out.report.epochs.len() as f64;
        rows.push(format!(
            "cache_bytes,resnet56,{}",
            out.report.cache_stats.disk_bytes_written
        ));
        rows.push(format!("cache_to_input_ratio,resnet56,{ratio:.2}"));
        rows.push(format!(
            "reference_generations,resnet56,{}",
            out.report.reference_stats.generations
        ));
        rows.push(format!(
            "reference_generation_total_s,resnet56,{:.4}",
            out.report.reference_stats.total_generation_time.as_secs_f64()
        ));
    }

    write_csv(
        &results.path("overhead_report.csv"),
        "quantity,model,value",
        &rows,
    )
    .expect("write overhead report");
}
