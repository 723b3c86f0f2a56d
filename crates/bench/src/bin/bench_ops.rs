//! Machine-readable kernel perf report: `BENCH_ops.json`.
//!
//! Times the tensor hot paths — a 512³ matmul, a conv2d forward+backward
//! (one mid-sized layer, and the benchmark's ResNet-56 layers), an int8
//! qmatmul, a batched softmax, attention's head split (a
//! `permute`), a `Linear` bias add (a broadcast `add`), a fused Adam update,
//! and a full ResNet train step — under up to three variants:
//!
//! - `serial`: the seed repo's naive serial kernels, called directly
//!   (`gemm::gemm_reference`, `conv::reference::*`) — only for the ops
//!   the reference oracle implements (matmul and the two conv rows),
//! - `parallel`: the blocked, register-tiled backend on the worker pool
//!   with the SIMD layer pinned to `Isa::Scalar`, and
//! - `simd`: the same blocked backend on this machine's best vector ISA
//!   (reported in the top-level `simd_isa` field; equal to `parallel`
//!   when the CPU has no vector unit).
//!
//! `matmul` and the two conv rows also carry `pool1_ns_per_iter`: the `parallel`
//! variant on an explicit `ThreadPool::new(1)`, interleaved with the others;
//! `parallel / pool1` is what the worker pool buys (or costs) an op.
//! `train_step` only runs on the global pool, whose size is fixed per
//! process, so instead of a timing the report carries
//! `train_step_pool_jobs`: the worker dispatches the whole op made. At 0
//! (what `tests/dispatch_budget.rs` gates on) the step executes the same
//! code on any pool size. The `dispatch` table is the evidence behind `pool::GRAIN` (DESIGN §5b
//! "Dispatch rule"): an empty job, four GEMM sizes and two `axpy` lengths on
//! a 1-thread pool, on a zero-grain pool that hands every job to the
//! workers, and on a production pool that decides by the grain.
//!
//! Variants are interleaved round-robin and each keeps its per-round
//! minimum, so clock/thermal drift on a loaded box cancels instead of
//! masquerading as speedup. The telemetry section interleaves the same way
//! but gates on the median of per-round paired ratios (see
//! `bench_telemetry_overhead`).
//! Also asserts the determinism contract (blocked output at the default
//! thread count is bit-identical to a 1-thread pool) and records the
//! verdict in the report. Pass `--smoke` for a fast low-iteration run with
//! the same report shape (it reports, but does not gate on, the
//! disabled-telemetry overhead — too few rounds to resolve 2 %).

use egeria_bench::write_json;
use egeria_models::resnet::{resnet_cifar, ResNetCifarConfig};
use egeria_models::{Batch, Input, Model, Targets};
use egeria_nn::activation::softmax_last;
use egeria_obs::jsonl::Object;
use egeria_obs::Telemetry;
use egeria_quant::qtensor::{qmatmul, Granularity, QTensor};
use egeria_tensor::gemm::{gemm, gemm_reference, Layout};
use egeria_tensor::simd::{self, Isa};
use egeria_tensor::{pool, Rng, Tensor, ThreadPool};
use std::time::Instant;

/// Telemetry cost on the train-step hot path: the same step loop run
/// bare (no instrumentation), with a disabled `Telemetry` handle driving
/// the trainer's per-iteration probe sequence, and with an enabled one.
struct TelemetryOverheadReport {
    /// Median per-round step times of the three variants.
    bare_ns_per_iter: u64,
    disabled_ns_per_iter: u64,
    enabled_ns_per_iter: u64,
    /// Median over rounds of `disabled / bare − 1`, clamped at 0 — the
    /// zero-cost-when-off contract (DESIGN §5d caps this at 2%).
    disabled_overhead_pct: f64,
    /// Median over rounds of `enabled / bare − 1`, clamped at 0.
    enabled_overhead_pct: f64,
}

impl TelemetryOverheadReport {
    fn json(&self) -> Object {
        Object::new()
            .field("bare_ns_per_iter", self.bare_ns_per_iter)
            .field("disabled_ns_per_iter", self.disabled_ns_per_iter)
            .field("enabled_ns_per_iter", self.enabled_ns_per_iter)
            .field("disabled_overhead_pct", self.disabled_overhead_pct)
            .field("enabled_overhead_pct", self.enabled_overhead_pct)
    }
}

fn once(f: &mut dyn FnMut()) -> u64 {
    let t0 = Instant::now();
    f();
    t0.elapsed().as_nanos() as u64
}

/// The median of a non-empty `v` (the mean of the middle two for an even
/// count).
fn median(mut v: Vec<f64>) -> f64 {
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Times one op under its variants, interleaved per round with round 0 as
/// warmup, keeping each variant's minimum round. `serial_f` is the same op
/// on the reference oracle, where one exists; `pool1_ns` times one call of
/// it on a 1-thread pool, for the ops that take that column.
///
/// The report row's `serial_ns_per_iter` is `null` for the ops the seed's
/// serial kernels do not implement (qmatmul/softmax/permute_heads/bias_add/
/// adam_update) or cannot be routed through (a whole train step), and
/// `pool1_ns_per_iter` for the
/// ops that column is not taken for. `parallel` is the blocked backend
/// with the SIMD layer pinned to `Isa::Scalar`, `simd` the same backend on
/// the detected vector ISA; `speedup` is `serial / parallel` (the PR-2
/// blocked-backend win) and `simd_speedup` is `parallel / simd`.
fn bench_op(
    op: &str,
    iters: u32,
    mut serial_f: Option<&mut dyn FnMut()>,
    mut f: impl FnMut(),
    mut pool1_ns: Option<&mut dyn FnMut() -> u64>,
) -> Object {
    let vector = simd::detect();
    let with_serial = serial_f.is_some();
    let (mut serial, mut parallel, mut simd_t) = (u64::MAX, u64::MAX, u64::MAX);
    let mut pool1 = pool1_ns.is_some().then_some(u64::MAX);
    for round in 0..=iters {
        simd::set_isa(Isa::Scalar);
        let s = serial_f.as_mut().map_or(0, |sf| once(sf));
        let p = once(&mut f);
        let q = pool1_ns.as_mut().map(|t| t());
        simd::set_isa(vector);
        let v = once(&mut f);
        if round > 0 {
            serial = serial.min(s);
            parallel = parallel.min(p);
            pool1 = pool1.min(q);
            simd_t = simd_t.min(v);
        }
    }
    simd::set_isa(vector);
    let serial = with_serial.then_some(serial);
    let speedup = serial.map(|s| s as f64 / parallel.max(1) as f64);
    let simd_speedup = parallel as f64 / simd_t.max(1) as f64;
    let or_dash = |v: Option<u64>| v.map_or_else(|| "-".into(), |v| v.to_string());
    println!(
        "{:<12} serial {:>12} ns/iter   parallel {:>12} ns/iter   pool1 {:>12} ns/iter   simd {:>12} ns/iter   blocked {}   simd {:.2}x",
        op,
        or_dash(serial),
        parallel,
        or_dash(pool1),
        simd_t,
        speedup.map_or_else(|| "    -".into(), |v| format!("{v:.2}x")),
        simd_speedup
    );
    Object::new()
        .field("op", op)
        .field("iters", iters)
        .field("serial_ns_per_iter", serial)
        .field("parallel_ns_per_iter", parallel)
        .field("pool1_ns_per_iter", pool1)
        .field("simd_ns_per_iter", simd_t)
        .field("speedup", speedup)
        .field("simd_speedup", simd_speedup)
}

/// Blocked GEMM at the default thread count vs a 1-thread pool must agree
/// bit-for-bit — the determinism contract the report certifies. The shape
/// is under the dispatch grain, so the multi-thread side is a zero-grain
/// pool: its three row stripes really are shared with the workers.
fn check_bit_identical(threads: usize) -> bool {
    let mut rng = Rng::new(9);
    let (m, n, k) = (130, 67, 129);
    let a = Tensor::randn(&[m, k], &mut rng);
    let b = Tensor::randn(&[k, n], &mut rng);
    let mut c1 = vec![0.0f32; m * n];
    let p1 = ThreadPool::new(1);
    gemm(
        &p1,
        a.data(),
        Layout::RowMajor,
        b.data(),
        Layout::RowMajor,
        m,
        n,
        k,
        &mut c1,
    );
    let mut cd = vec![0.0f32; m * n];
    let pd = ThreadPool::with_zero_grain(threads);
    gemm(
        &pd,
        a.data(),
        Layout::RowMajor,
        b.data(),
        Layout::RowMajor,
        m,
        n,
        k,
        &mut cd,
    );
    assert_eq!(pd.stats().jobs, usize::from(threads > 1));
    c1.iter()
        .zip(cd.iter())
        .all(|(x, y)| x.to_bits() == y.to_bits())
}

/// Mean time of one call over `reps` back-to-back calls.
fn per_call_ns(reps: u32, mut f: impl FnMut()) -> u64 {
    once(&mut || {
        for _ in 0..reps {
            f();
        }
    }) / u64::from(reps)
}

/// The dispatch break-even table: the same job (detected ISA) on three
/// explicit pools. A row's `cost` is `tasks × cost` as the kernel states it
/// to `ThreadPool::run`; `pool1_ns` is the job's inline time on a 1-thread
/// pool, `forced_ns` a zero-grain pool at the report's thread count (always
/// handed off), `default_ns` a production pool there (the grain decides),
/// and `default_dispatched` whether that pool handed the job to its workers.
fn bench_dispatch(smoke: bool, threads: usize) -> Vec<Object> {
    let rounds = if smoke { 3 } else { 9 };
    let p1 = ThreadPool::new(1);
    let forced = ThreadPool::with_zero_grain(threads);
    let default = ThreadPool::new(threads);
    let mut rows = Vec::new();
    let mut push = |job: String, cost: u64, reps: u32, f: &mut dyn FnMut(&ThreadPool)| {
        let before = default.stats().jobs;
        // Interleaved per round, like `bench_op`, so drift hits all three.
        let (mut a, mut b, mut c) = (u64::MAX, u64::MAX, u64::MAX);
        for _ in 0..rounds {
            a = a.min(per_call_ns(reps, || f(&p1)));
            b = b.min(per_call_ns(reps, || f(&forced)));
            c = c.min(per_call_ns(reps, || f(&default)));
        }
        let dispatched = default.stats().jobs > before;
        println!(
            "dispatch {:<18} cost {:>11}   pool1 {:>9} ns   forced {:>9} ns   default {:>9} ns ({})",
            job,
            cost,
            a,
            b,
            c,
            if dispatched { "dispatched" } else { "inline" }
        );
        rows.push(
            Object::new()
                .field("job", job)
                .field("cost", cost)
                .field("pool1_ns", a)
                .field("forced_ns", b)
                .field("default_ns", c)
                .field("default_dispatched", dispatched),
        );
    };
    push("empty_2_tasks".into(), 0, 2000, &mut |p| {
        p.run(2, 0, &|i| {
            std::hint::black_box(i);
        })
    });
    let mut rng = Rng::new(8);
    for (m, n, k) in [(128, 64, 32), (128, 128, 128), (256, 256, 256), (512, 512, 512)] {
        let a = Tensor::randn(&[m, k], &mut rng);
        let b = Tensor::randn(&[k, n], &mut rng);
        let mut c = vec![0.0f32; m * n];
        let cost = 2 * (m * n * k) as u64;
        let reps = (100_000_000 / cost).clamp(2, 400) as u32;
        push(format!("gemm_{m}x{n}x{k}"), cost, reps, &mut |p| {
            c.fill(0.0);
            let rm = Layout::RowMajor;
            gemm(p, a.data(), rm, b.data(), rm, m, n, k, &mut c);
            std::hint::black_box(c[0]);
        });
    }
    // The streaming side of the rule: `axpy` through the chunk helper.
    for len in [1usize << 18, 1 << 20] {
        let mut x = vec![1.0f32; len];
        let y = vec![0.5f32; len];
        let reps = ((1 << 24) / len) as u32;
        push(format!("axpy_{}k", len >> 10), 16 * len as u64, reps, &mut |p| {
            pool::for_each_chunk_mut_zip(p, &mut x, &y, |d, s| simd::axpy(d, s, 1e-3));
            std::hint::black_box(x[0]);
        });
    }
    rows
}

/// 512³ matmul (the acceptance benchmark's canonical GEMM shape).
fn matmul_op(smoke: bool, iters: u32, p1: &ThreadPool) -> Object {
    let dim = if smoke { 192 } else { 512 };
    let mut rng = Rng::new(1);
    let a = Tensor::randn(&[dim, dim], &mut rng);
    let b = Tensor::randn(&[dim, dim], &mut rng);
    let mut serial = || {
        let mut c = vec![0.0f32; dim * dim];
        gemm_reference(
            a.data(),
            Layout::RowMajor,
            b.data(),
            Layout::RowMajor,
            dim,
            dim,
            dim,
            &mut c,
        );
        std::hint::black_box(c[0]);
    };
    let mut pool1 = || {
        once(&mut || {
            let mut c = vec![0.0f32; dim * dim];
            let rm = Layout::RowMajor;
            gemm(p1, a.data(), rm, b.data(), rm, dim, dim, dim, &mut c);
            std::hint::black_box(c[0]);
        })
    };
    bench_op(
        &format!("matmul_{dim}"),
        iters,
        Some(&mut serial),
        || {
            let c = a.matmul(&b).unwrap();
            std::hint::black_box(c.data()[0]);
        },
        Some(&mut pool1),
    )
}

/// conv2d forward + both gradients (the CNN layer hot path).
fn conv2d_op(smoke: bool, iters: u32, p1: &ThreadPool) -> Object {
    use egeria_tensor::conv::{
        conv2d, conv2d_grad_input, conv2d_grad_input_with_pool, conv2d_grad_weight,
        conv2d_grad_weight_with_pool, conv2d_with_pool, reference, Conv2dSpec,
    };
    let (n, ci, co, hw) = if smoke {
        (2, 8, 8, 12)
    } else {
        (4, 16, 32, 16)
    };
    let spec = Conv2dSpec::new(1, 1).unwrap();
    let mut rng = Rng::new(2);
    let x = Tensor::randn(&[n, ci, hw, hw], &mut rng);
    let w = Tensor::randn(&[co, ci, 3, 3], &mut rng);
    let g = Tensor::randn(&[n, co, hw, hw], &mut rng);
    let mut serial = || {
        let y = reference::conv2d(&x, &w, None, spec).unwrap();
        let gx = reference::conv2d_grad_input(&g, &w, x.dims(), spec).unwrap();
        let gw = reference::conv2d_grad_weight(&g, &x, w.dims(), spec).unwrap();
        std::hint::black_box((y.data()[0], gx.data()[0], gw.data()[0]));
    };
    let mut pool1 = || {
        once(&mut || {
            let y = conv2d_with_pool(p1, &x, &w, None, spec).unwrap();
            let gx = conv2d_grad_input_with_pool(p1, &g, &w, x.dims(), spec).unwrap();
            let gw = conv2d_grad_weight_with_pool(p1, &g, &x, w.dims(), spec).unwrap();
            std::hint::black_box((y.data()[0], gx.data()[0], gw.data()[0]));
        })
    };
    let blocked = || {
        let y = conv2d(&x, &w, None, spec).unwrap();
        let gx = conv2d_grad_input(&g, &w, x.dims(), spec).unwrap();
        let gw = conv2d_grad_weight(&g, &x, w.dims(), spec).unwrap();
        std::hint::black_box((y.data()[0], gx.data()[0], gw.data()[0]));
    };
    bench_op("conv2d", iters, Some(&mut serial), blocked, Some(&mut pool1))
}

/// conv2d forward + both gradients over the benchmark's ResNet-56 layers
/// (width 4, batch 16, 10×10 input): the three stages at 4 ch 10×10, 8 ch
/// 5×5 and 16 ch 3×3, plus both stride-2 transitions with their 1×1
/// projections. One iteration is one pass over the seven layers. The shape
/// is the same in smoke and full mode: it is already small.
fn conv2d_resnet56_op(iters: u32, p1: &ThreadPool) -> Object {
    use egeria_tensor::conv::{
        conv2d, conv2d_grad_input, conv2d_grad_input_with_pool, conv2d_grad_weight,
        conv2d_grad_weight_with_pool, conv2d_with_pool, reference, Conv2dSpec,
    };
    const N: usize = 16;
    // (c_in, c_out, extent, kernel, stride, padding)
    const LAYERS: [(usize, usize, usize, usize, usize, usize); 7] = [
        (4, 4, 10, 3, 1, 1),
        (4, 8, 10, 3, 2, 1),
        (4, 8, 10, 1, 2, 0),
        (8, 8, 5, 3, 1, 1),
        (8, 16, 5, 3, 2, 1),
        (8, 16, 5, 1, 2, 0),
        (16, 16, 3, 3, 1, 1),
    ];
    let mut rng = Rng::new(10);
    let layers: Vec<_> = LAYERS
        .iter()
        .map(|&(ci, co, hw, k, stride, pad)| {
            let spec = Conv2dSpec::new(stride, pad).unwrap();
            let out = spec.out_extent(hw, k).unwrap();
            (
                Tensor::randn(&[N, ci, hw, hw], &mut rng),
                Tensor::randn(&[co, ci, k, k], &mut rng),
                Tensor::randn(&[N, co, out, out], &mut rng),
                spec,
            )
        })
        .collect();
    let mut serial = || {
        for (x, w, g, spec) in &layers {
            let y = reference::conv2d(x, w, None, *spec).unwrap();
            let gx = reference::conv2d_grad_input(g, w, x.dims(), *spec).unwrap();
            let gw = reference::conv2d_grad_weight(g, x, w.dims(), *spec).unwrap();
            std::hint::black_box((y.data()[0], gx.data()[0], gw.data()[0]));
        }
    };
    let mut pool1 = || {
        once(&mut || {
            for (x, w, g, spec) in &layers {
                let y = conv2d_with_pool(p1, x, w, None, *spec).unwrap();
                let gx = conv2d_grad_input_with_pool(p1, g, w, x.dims(), *spec).unwrap();
                let gw = conv2d_grad_weight_with_pool(p1, g, x, w.dims(), *spec).unwrap();
                std::hint::black_box((y.data()[0], gx.data()[0], gw.data()[0]));
            }
        })
    };
    let blocked = || {
        for (x, w, g, spec) in &layers {
            let y = conv2d(x, w, None, *spec).unwrap();
            let gx = conv2d_grad_input(g, w, x.dims(), *spec).unwrap();
            let gw = conv2d_grad_weight(g, x, w.dims(), *spec).unwrap();
            std::hint::black_box((y.data()[0], gx.data()[0], gw.data()[0]));
        }
    };
    bench_op("conv2d_resnet56", iters, Some(&mut serial), blocked, Some(&mut pool1))
}

/// Full ResNet train step (forward + backward through every layer; no
/// serial variant — the oracle kernels are not a dispatch target).
fn train_step_op(smoke: bool, iters: u32) -> Object {
    let n = if smoke { 2 } else { 3 };
    let mut model = resnet_cifar(
        ResNetCifarConfig {
            n,
            width: 4,
            classes: 8,
            ..Default::default()
        },
        1,
    );
    let mut rng = Rng::new(3);
    let batch = Batch {
        input: Input::Image(Tensor::randn(&[16, 3, 10, 10], &mut rng)),
        targets: Targets::Classes((0..16).map(|i| i % 8).collect()),
        sample_ids: (0..16).collect(),
    };
    let step = || {
        let r = model.train_step(&batch, None).unwrap();
        model.zero_grad();
        std::hint::black_box(r.loss);
    };
    bench_op("train_step", iters, None, step, None)
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let iters: u32 = if smoke { 3 } else { 7 };
    let threads = ThreadPool::global().threads().max(pool::default_threads());
    let simd_isa = simd::detect();
    println!(
        "bench_ops: {} threads, {} iters/op, simd isa {}{}",
        threads,
        iters,
        simd_isa.name(),
        if smoke { " (smoke)" } else { "" }
    );

    let p1 = ThreadPool::new(1);
    let mut ops = vec![
        matmul_op(smoke, iters, &p1),
        conv2d_op(smoke, iters, &p1),
        conv2d_resnet56_op(iters, &p1),
    ];

    // Int8 qmatmul (the reference-model inference kernel; no serial
    // reference — the seed kernels have no int8 path).
    {
        let dim = if smoke { 128 } else { 256 };
        let mut rng = Rng::new(4);
        let a = Tensor::randn(&[dim, dim], &mut rng);
        let b = Tensor::randn(&[dim, dim], &mut rng);
        let qa = QTensor::quantize(&a, Granularity::PerTensor).unwrap();
        let qb = QTensor::quantize(&b, Granularity::PerTensor).unwrap();
        ops.push(bench_op("qmatmul", iters, None, || {
            let c = qmatmul(&qa, &qb).unwrap();
            std::hint::black_box(c.data()[0]);
        }, None));
    }

    // Batched softmax over the class axis (loss layer / attention shape).
    {
        let (rows, k) = if smoke { (128, 512) } else { (512, 1024) };
        let mut rng = Rng::new(5);
        let x = Tensor::randn(&[rows, k], &mut rng);
        ops.push(bench_op("softmax", iters, None, || {
            let p = softmax_last(&x).unwrap();
            std::hint::black_box(p.data()[0]);
        }, None));
    }

    // Attention's head split: `(batch, seq, heads, head_dim)` to
    // `(batch, heads, seq, head_dim)`, one row-walker copy per row.
    {
        let mut rng = Rng::new(8);
        let x = Tensor::randn(&[16, 8, 4, 8], &mut rng);
        ops.push(bench_op("permute_heads", iters, None, || {
            let y = x.permute(&[0, 2, 1, 3]).unwrap();
            std::hint::black_box(y.data()[0]);
        }, None));
    }

    // A `Linear` bias add: `(rows, out) + (out)` through broadcasting.
    {
        let mut rng = Rng::new(9);
        let x = Tensor::randn(&[128, 64], &mut rng);
        let bias = Tensor::randn(&[64], &mut rng);
        ops.push(bench_op("bias_add", iters, None, || {
            let y = x.add(&bias).unwrap();
            std::hint::black_box(y.data()[0]);
        }, None));
    }

    // Fused Adam parameter update (the optimizer hot loop).
    {
        let len = if smoke { 1 << 18 } else { 1 << 20 };
        let mut rng = Rng::new(7);
        let p0 = Tensor::randn(&[len], &mut rng);
        let g = Tensor::randn(&[len], &mut rng);
        let m = Tensor::randn(&[len], &mut rng);
        let v = g.map(|x| x * x + 1e-3);
        let mut p = p0.clone();
        ops.push(bench_op("adam_update", iters, None, || {
            p.adam_update_inplace(1e-3, 1e-8, 0.9, 0.99, &m, &v)
                .unwrap();
            std::hint::black_box(p.data()[0]);
        }, None));
    }

    let jobs_before = ThreadPool::global().stats().jobs;
    ops.push(train_step_op(smoke, iters));
    let train_step_pool_jobs = ThreadPool::global().stats().jobs - jobs_before;
    println!("train_step   pool jobs {train_step_pool_jobs}");
    simd::set_isa(simd_isa);
    let dispatch = bench_dispatch(smoke, threads);

    simd::set_isa(simd_isa);
    let telemetry = bench_telemetry_overhead(if smoke { 5 } else { 40 });
    let bit_identical = check_bit_identical(threads);
    assert!(
        bit_identical,
        "determinism contract violated: blocked GEMM differs across thread counts"
    );
    // Five smoke rounds of a ~3 ms step cannot resolve 2 % on a busy host:
    // the smoke run reports the figure, only the full run gates on it.
    assert!(
        smoke || telemetry.disabled_overhead_pct < 2.0,
        "disabled telemetry costs {:.3}% on the train step (contract: < 2%)",
        telemetry.disabled_overhead_pct
    );
    // `simd_isa` is `"scalar"` when the CPU has no supported vector unit;
    // `train_step_pool_jobs` counts the whole op (all rounds, both ISAs).
    let report = Object::new()
        .field("threads", threads)
        .field("simd_isa", simd_isa.name())
        .field("bit_identical_to_serial", bit_identical)
        .field("ops", ops)
        .field("train_step_pool_jobs", train_step_pool_jobs)
        .field("dispatch", dispatch)
        .field("telemetry", telemetry.json());
    write_json(std::path::Path::new("BENCH_ops.json"), &report).expect("write BENCH_ops.json");
}

/// Times the ResNet train step bare and under the trainer's per-iteration
/// telemetry probe sequence with a disabled and an enabled handle.
fn bench_telemetry_overhead(iters: u32) -> TelemetryOverheadReport {
    const STEPS_PER_SAMPLE: u64 = 4;
    let mut model = resnet_cifar(
        ResNetCifarConfig {
            n: 2,
            width: 4,
            classes: 8,
            ..Default::default()
        },
        5,
    );
    let mut rng = Rng::new(6);
    let batch = Batch {
        input: Input::Image(Tensor::randn(&[16, 3, 10, 10], &mut rng)),
        targets: Targets::Classes((0..16).map(|i| i % 8).collect()),
        sample_ids: (0..16).collect(),
    };
    // Mirror EgeriaTrainer's per-iteration instrumentation.
    fn probed_steps(model: &mut dyn Model, batch: &Batch, tel: &Telemetry, steps: u64) {
        for i in 0..steps {
            let step = tel.span("train_step");
            let r = model.train_step(batch, None).unwrap();
            {
                let _opt = tel.span("opt_step").iteration(i);
                model.zero_grad();
            }
            drop(
                step.iteration(i)
                    .arg("frozen_prefix", 0u64)
                    .arg("fp_cached", false),
            );
            tel.counter("freezer.evaluations").inc();
            std::hint::black_box(r.loss);
        }
    }
    // Interleave the three variants round-robin, rotating the order each
    // round so no variant always runs in the same slot, and judge each
    // instrumented variant by the median over rounds of its time divided
    // by the same round's bare time. Pairing within a round cancels drift
    // shared by the round (clock, thermal, a neighbour's load); the median
    // ignores the rounds a preemption hit, which a per-variant minimum
    // does not — one lucky bare round there reads as overhead.
    let off = Telemetry::disabled();
    let on = Telemetry::enabled();
    let run_bare = |m: &mut dyn Model| {
        for i in 0..STEPS_PER_SAMPLE {
            let r = m.train_step(&batch, None).unwrap();
            m.zero_grad();
            std::hint::black_box((i, r.loss));
        }
    };
    // Per round, per variant: bare, disabled, enabled.
    let mut rounds: Vec<[u64; 3]> = Vec::with_capacity(iters as usize);
    for round in 0..=iters {
        let mut times = [0u64; 3];
        for slot in 0..3 {
            let variant = (round as usize + slot) % 3;
            times[variant] = match variant {
                0 => once(&mut || run_bare(&mut model)),
                1 => once(&mut || probed_steps(&mut model, &batch, &off, STEPS_PER_SAMPLE)),
                _ => once(&mut || probed_steps(&mut model, &batch, &on, STEPS_PER_SAMPLE)),
            };
        }
        // Round 0 is warmup.
        if round > 0 {
            rounds.push(times);
        }
    }
    let per_step =
        |v: usize| median(rounds.iter().map(|t| t[v] as f64).collect()) as u64 / STEPS_PER_SAMPLE;
    let (bare, disabled, enabled) = (per_step(0), per_step(1), per_step(2));
    let pct = |v: usize| {
        let ratio = median(rounds.iter().map(|t| t[v] as f64 / t[0].max(1) as f64).collect());
        ((ratio - 1.0) * 100.0).max(0.0)
    };
    let r = TelemetryOverheadReport {
        bare_ns_per_iter: bare,
        disabled_ns_per_iter: disabled,
        enabled_ns_per_iter: enabled,
        disabled_overhead_pct: pct(1),
        enabled_overhead_pct: pct(2),
    };
    println!(
        "telemetry     bare {:>12} ns/step   disabled {:>12} ns/step ({:+.3}%)   enabled {:>12} ns/step ({:+.3}%)",
        r.bare_ns_per_iter,
        r.disabled_ns_per_iter,
        r.disabled_overhead_pct,
        r.enabled_ns_per_iter,
        r.enabled_overhead_pct
    );
    r
}
