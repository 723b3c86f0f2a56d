//! Criterion bench: the tensor hot paths on the blocked+parallel kernels
//! and on the seed's serial reference oracle. The
//! machine-readable counterpart is `cargo run --release -p egeria-bench
//! --bin bench_ops` (emits BENCH_ops.json).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use egeria_tensor::conv::{conv2d, reference, Conv2dSpec};
use egeria_tensor::gemm::{gemm_reference, Layout};
use egeria_tensor::{Rng, Tensor};
use std::time::Duration;

fn bench_matmul(c: &mut Criterion) {
    let mut group = c.benchmark_group("matmul");
    group.warm_up_time(Duration::from_millis(200));
    group.measurement_time(Duration::from_secs(1));
    group.sample_size(10);
    let mut rng = Rng::new(1);
    for &dim in &[64usize, 192] {
        let a = Tensor::randn(&[dim, dim], &mut rng);
        let b = Tensor::randn(&[dim, dim], &mut rng);
        group.bench_with_input(BenchmarkId::new("blocked", dim), &dim, |bch, _| {
            bch.iter(|| a.matmul(&b).unwrap().data()[0])
        });
        group.bench_with_input(BenchmarkId::new("reference", dim), &dim, |bch, _| {
            bch.iter(|| {
                let mut c = vec![0.0f32; dim * dim];
                let (ad, bd) = (a.data(), b.data());
                gemm_reference(
                    ad,
                    Layout::RowMajor,
                    bd,
                    Layout::RowMajor,
                    dim,
                    dim,
                    dim,
                    &mut c,
                );
                c[0]
            })
        });
    }
    group.finish();
}

fn bench_conv(c: &mut Criterion) {
    let mut group = c.benchmark_group("conv2d");
    group.warm_up_time(Duration::from_millis(200));
    group.measurement_time(Duration::from_secs(1));
    group.sample_size(10);
    let mut rng = Rng::new(2);
    let x = Tensor::randn(&[2, 8, 12, 12], &mut rng);
    let w = Tensor::randn(&[8, 8, 3, 3], &mut rng);
    let spec = Conv2dSpec::new(1, 1).unwrap();
    group.bench_function("blocked", |bch| {
        bch.iter(|| conv2d(&x, &w, None, spec).unwrap().data()[0])
    });
    group.bench_function("reference", |bch| {
        bch.iter(|| reference::conv2d(&x, &w, None, spec).unwrap().data()[0])
    });
    group.finish();
}

fn bench_bmm(c: &mut Criterion) {
    let mut group = c.benchmark_group("bmm");
    group.warm_up_time(Duration::from_millis(200));
    group.measurement_time(Duration::from_secs(1));
    group.sample_size(10);
    let mut rng = Rng::new(3);
    let a = Tensor::randn(&[8, 32, 48], &mut rng);
    let b = Tensor::randn(&[8, 48, 32], &mut rng);
    group.bench_function("batched_8x32x48", |bch| {
        bch.iter(|| a.bmm(&b).unwrap().data()[0])
    });
    group.finish();
}

criterion_group!(benches, bench_matmul, bench_conv, bench_bmm);
criterion_main!(benches);
