//! Table 2: reference-model precision sweep (int8 / f16 / f32).
//!
//! Three Egeria runs of ResNet-56 differing only in reference precision,
//! reporting (1) the final accuracy — the precision must not change it
//! materially, (2) the CPU inference speed ratio measured on real kernels
//! (int8 `qmatmul` vs f32 `matmul` over reference-sized matrices; f16 is
//! modeled per the paper's measurement since CPUs lack native f16 GEMM),
//! and (3) the reference accuracy gap — the quantized snapshot's own
//! validation accuracy versus the f32 snapshot's.

use egeria_bench::experiments::{converged_metric, run_workload, train_epoch};
use egeria_bench::runner::{write_csv, ResultsDir};
use egeria_core::trainer::evaluate;
use egeria_core::EgeriaConfig;
use egeria_quant::qtensor::{qmatmul, Granularity, QTensor};
use egeria_quant::{quantize_reference, Precision};
use egeria_scenarios::registry::{build, recipe, Recipe};
use egeria_tensor::{Rng, Tensor};
use std::time::Instant;

/// Measures the int8-vs-f32 matmul speed ratio on reference-sized GEMMs.
fn measure_int8_speedup() -> f64 {
    let mut rng = Rng::new(7);
    let a = Tensor::randn(&[64, 256], &mut rng);
    let b = Tensor::randn(&[256, 256], &mut rng);
    let qa = QTensor::quantize(&a, Granularity::PerTensor).unwrap();
    let qb = QTensor::quantize(&b, Granularity::PerTensor).unwrap();
    let reps = 200;
    let t0 = Instant::now();
    for _ in 0..reps {
        let _ = a.matmul(&b).unwrap();
    }
    let t_f32 = t0.elapsed();
    let t1 = Instant::now();
    for _ in 0..reps {
        let _ = qmatmul(&qa, &qb).unwrap();
    }
    let t_int8 = t1.elapsed();
    t_f32.as_secs_f64() / t_int8.as_secs_f64()
}

fn main() {
    let results = ResultsDir::resolve().expect("results dir");
    let int8_speed = measure_int8_speedup();
    eprintln!("measured int8 matmul speedup: {int8_speed:.2}x");

    // Reference accuracy gap: quantize a trained model and evaluate it.
    let resnet56 = recipe("resnet56").expect("registry entry");
    let mut w = build(&Recipe {
        loader_seed: 5,
        ..resnet56.clone()
    })
    .expect("build");
    // Quick pre-training to a sensible accuracy for the gap measurement.
    for epoch in 0..24 {
        train_epoch(&mut w, epoch).expect("epoch");
    }
    let (val, val_loader) = w
        .val
        .as_ref()
        .expect("Table 1 entries hold out a validation set");
    let gap_of = |precision: Precision| -> f32 {
        let mut q = quantize_reference(w.model.as_ref(), precision).expect("quantize");
        let (_, acc) = evaluate(q.as_mut(), val.as_ref(), val_loader).expect("eval");
        acc
    };
    let acc_f32 = gap_of(Precision::F32);
    let acc_f16 = gap_of(Precision::F16);
    let acc_int8 = gap_of(Precision::Int8);

    // Final-accuracy rows: full Egeria runs per reference precision.
    let mut rows = Vec::new();
    for (name, precision, speed) in [
        ("int8", Precision::Int8, int8_speed),
        ("float16", Precision::F16, Precision::F16.cpu_speedup() as f64),
        ("float32", Precision::F32, 1.0),
    ] {
        eprintln!("== egeria run with {name} reference");
        let run = Recipe {
            egeria: resnet56.egeria.map(|c| EgeriaConfig {
                reference_precision: precision,
                ..c
            }),
            ..resnet56.clone()
        };
        let out = run_workload(&run).expect("run");
        let final_acc = converged_metric(&out.report);
        let ref_gap = match precision {
            Precision::Int8 => acc_int8 - acc_f32,
            Precision::F16 => acc_f16 - acc_f32,
            Precision::F32 => 0.0,
        };
        rows.push(format!(
            "{name},{final_acc:.4},{speed:.2},{:.4}",
            ref_gap
        ));
    }
    write_csv(
        &results.path("table2_reference_precision.csv"),
        "precision,final_accuracy,cpu_inference_speedup_x,reference_acc_gap",
        &rows,
    )
    .expect("write table 2");
}
