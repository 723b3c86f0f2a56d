//! §6.5 system-overhead report.
//!
//! Measures, on real components: reference generation/update latency (the
//! paper: 0.5–1.5 s at paper scale — ours is smaller, same plumbing),
//! the training-thread cost of submitting an async plasticity evaluation
//! (must be far under an iteration), and the activation cache's
//! storage-to-input ratio (the paper: 1.5×–5.3× for ResNet-50).

use egeria_bench::experiments::{default_egeria, run_workload};
use egeria_bench::runner::{write_csv, ResultsDir};
use egeria_bench::workloads::{Kind, Workload};
use egeria_core::controller::AsyncController;
use egeria_core::reference::ReferenceManager;
use egeria_core::EgeriaConfig;
use egeria_quant::{quantize_reference, Precision};
use std::sync::Arc;
use std::time::Instant;

fn main() {
    let results = ResultsDir::resolve().expect("results dir");
    let mut rows = Vec::new();

    // 1. Reference generation latency (static int8 quantization of a
    //    ResNet snapshot + dynamic-style for the Transformer).
    for kind in [Kind::ResNet56, Kind::TransformerBase] {
        let w = Workload::make(kind, 42);
        let t0 = Instant::now();
        let reps = 5;
        for _ in 0..reps {
            let _ = quantize_reference(w.model.as_ref(), Precision::Int8).expect("quantize");
        }
        let per = t0.elapsed().as_secs_f64() / reps as f64;
        rows.push(format!("reference_generation_s,{},{per:.4}", w.name));
    }

    // 2. Async submission overhead on the training thread.
    {
        let w = Workload::make(Kind::ResNet56, 42);
        let mut model = w.model;
        let probe = w
            .train
            .materialize(&(0..16).collect::<Vec<_>>())
            .expect("probe");
        let mut refmgr = ReferenceManager::new(&EgeriaConfig::default());
        refmgr.generate(model.as_ref()).expect("generate");
        let mut ctrl = AsyncController::spawn(
            refmgr,
            10.0,
            Arc::new(|| 0.0),
            None,
            egeria_obs::Telemetry::disabled(),
        );
        let act = model.capture_activation(&probe, 0).expect("capture");
        let t0 = Instant::now();
        let reps = 50;
        let mut last = 0;
        for _ in 0..reps {
            if let Some(id) = ctrl.submit(probe.clone(), 0, act.clone()) {
                last = id;
            }
        }
        let submit_per = t0.elapsed().as_secs_f64() / reps as f64;
        let _ = ctrl.wait_for(last);
        // One full training iteration for comparison.
        let t1 = Instant::now();
        let _ = model.train_step(&probe, None).expect("step");
        let iter_s = t1.elapsed().as_secs_f64();
        rows.push(format!("async_submit_s,resnet56,{submit_per:.6}"));
        rows.push(format!("train_iteration_s,resnet56,{iter_s:.4}"));
        rows.push(format!(
            "submit_overhead_pct,resnet56,{:.3}",
            submit_per / iter_s * 100.0
        ));
    }

    // 3. Cache storage ratio from a real Egeria run.
    {
        let out = run_workload(Kind::ResNet56, 42, Some(default_egeria(Kind::ResNet56)), Some(30))
            .expect("egeria run");
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
