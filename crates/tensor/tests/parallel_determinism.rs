//! Determinism contract of the parallel compute backend.
//!
//! The pool partitions work by fixed geometry (chunk/block constants), never
//! by thread count, and every cross-task reduction folds partials in task
//! order — so any kernel must produce **bit-identical** output on a 1-thread
//! pool and on pools of 2, 7, and 8 threads (counts chosen to straddle and
//! misalign with typical block boundaries). These tests pin that contract:
//! PR-1's checkpoint resume-exactness depends on it.
//!
//! Every shape here is far under the pool's dispatch grain, so a production
//! pool would run them all on the caller and the comparison would be of a
//! kernel with itself. The multi-thread pools are therefore built with
//! `ThreadPool::with_zero_grain`, and each test asserts from `stats().jobs`
//! that its work really crossed threads. The converse is pinned too: the
//! same shapes on default-grain pools dispatch nothing and give the same
//! bits — who runs the tasks is not part of the geometry.

use egeria_tensor::conv::{
    conv2d_grad_input_with_pool, conv2d_grad_weight_with_pool, conv2d_with_pool, reference,
    Conv2dSpec,
};
use egeria_tensor::gemm::{gemm, gemm_reference, Layout, MC};
use egeria_tensor::simd::{self, Isa};
use egeria_tensor::{Rng, Tensor, ThreadPool};
use proptest::prelude::*;
use std::sync::Mutex;

const THREADS: [usize; 4] = [1, 2, 7, 8];

/// Bit-level equality, treating NaN as equal to itself (the kernels must
/// not manufacture or destroy NaNs depending on thread count either).
fn bits_eq(a: &[f32], b: &[f32]) -> bool {
    a.len() == b.len()
        && a.iter()
            .zip(b.iter())
            .all(|(x, y)| x.to_bits() == y.to_bits())
}

/// Zero-grain pools at the multi-thread counts: every multi-task job on
/// them is handed to the workers.
fn crossing_pools() -> Vec<ThreadPool> {
    THREADS[1..]
        .iter()
        .map(|&t| ThreadPool::with_zero_grain(t))
        .collect()
}

/// Production (default-grain) pools at the same counts: these suites'
/// shapes must all stay on the caller.
fn inline_pools() -> Vec<ThreadPool> {
    THREADS[1..].iter().map(|&t| ThreadPool::new(t)).collect()
}

fn run_gemm(pool: &ThreadPool, a: &[f32], b: &[f32], m: usize, n: usize, k: usize) -> Vec<f32> {
    let mut c = vec![0.0f32; m * n];
    gemm(
        pool,
        a,
        Layout::RowMajor,
        b,
        Layout::RowMajor,
        m,
        n,
        k,
        &mut c,
    );
    c
}

/// Odd shapes: deliberately not multiples of the MR/NR/MC/KC block sizes.
#[test]
fn gemm_bit_identical_across_thread_counts_on_odd_shapes() {
    let mut rng = Rng::new(77);
    let p1 = ThreadPool::new(1);
    let (crossing, inline) = (crossing_pools(), inline_pools());
    for &(m, n, k) in &[
        (1usize, 1usize, 1usize),
        (3, 5, 7),
        (65, 9, 257),
        (130, 67, 31),
    ] {
        let a = Tensor::randn(&[m, k], &mut rng);
        let b = Tensor::randn(&[k, n], &mut rng);
        let serial = run_gemm(&p1, a.data(), b.data(), m, n, k);
        for pool in crossing.iter().chain(&inline) {
            let par = run_gemm(pool, a.data(), b.data(), m, n, k);
            assert!(
                bits_eq(&serial, &par),
                "gemm ({m},{n},{k}) differs at {} threads",
                pool.threads()
            );
        }
        // And the blocked kernel agrees with the naive reference numerically.
        let mut naive = vec![0.0f32; m * n];
        gemm_reference(
            a.data(),
            Layout::RowMajor,
            b.data(),
            Layout::RowMajor,
            m,
            n,
            k,
            &mut naive,
        );
        for (s, r) in serial.iter().zip(naive.iter()) {
            assert!(
                (s - r).abs() <= 1e-3 * r.abs().max(1.0),
                "blocked vs naive: {s} vs {r}"
            );
        }
    }
    // The two shapes taller than one MC stripe are one dispatch each.
    for pool in &crossing {
        assert_eq!(pool.stats().jobs, 2, "{} threads", pool.threads());
    }
    for pool in &inline {
        assert_eq!(pool.stats().jobs, 0, "{} threads", pool.threads());
    }
}

#[test]
fn conv2d_bit_identical_across_thread_counts() {
    let mut rng = Rng::new(78);
    let p1 = ThreadPool::new(1);
    let (crossing, inline) = (crossing_pools(), inline_pools());
    // (n, c_in, c_out, h, w, kh, kw, stride, pad) — strides > 1 and
    // padding > 0 included deliberately.
    for &(n, c_in, c_out, h, w, kh, kw, stride, pad) in &[
        (
            2usize, 3usize, 4usize, 9usize, 7usize, 3usize, 3usize, 1usize, 1usize,
        ),
        (3, 2, 5, 11, 8, 3, 2, 2, 1),
        (1, 4, 3, 13, 9, 5, 3, 3, 2),
    ] {
        let spec = Conv2dSpec::new(stride, pad).unwrap();
        let x = Tensor::randn(&[n, c_in, h, w], &mut rng);
        let wt = Tensor::randn(&[c_out, c_in, kh, kw], &mut rng);
        let b = Tensor::randn(&[c_out], &mut rng);
        let y1 = conv2d_with_pool(&p1, &x, &wt, Some(&b), spec).unwrap();
        let g = Tensor::randn(y1.dims(), &mut rng);
        let gx1 = conv2d_grad_input_with_pool(&p1, &g, &wt, x.dims(), spec).unwrap();
        let gw1 = conv2d_grad_weight_with_pool(&p1, &g, &x, wt.dims(), spec).unwrap();
        for pt in crossing.iter().chain(&inline) {
            let t = pt.threads();
            let yt = conv2d_with_pool(pt, &x, &wt, Some(&b), spec).unwrap();
            assert!(
                bits_eq(y1.data(), yt.data()),
                "forward differs at {t} threads"
            );
            let gxt = conv2d_grad_input_with_pool(pt, &g, &wt, x.dims(), spec).unwrap();
            assert!(
                bits_eq(gx1.data(), gxt.data()),
                "grad_input differs at {t} threads"
            );
            let gwt = conv2d_grad_weight_with_pool(pt, &g, &x, wt.dims(), spec).unwrap();
            assert!(
                bits_eq(gw1.data(), gwt.data()),
                "grad_weight differs at {t} threads"
            );
        }
        // The blocked lowering agrees with the seed's direct loops.
        let y_ref = reference::conv2d(&x, &wt, Some(&b), spec).unwrap();
        assert!(y1.allclose(&y_ref, 1e-4));
    }
    // Three kernels on each of the two multi-image shapes; the single-image
    // shape is one task and stays on the caller at any grain.
    for pool in &crossing {
        assert_eq!(pool.stats().jobs, 6, "{} threads", pool.threads());
    }
    for pool in &inline {
        assert_eq!(pool.stats().jobs, 0, "{} threads", pool.threads());
    }
}

/// The thread-count contract must hold at *every* ISA, not just the
/// default: the SIMD microkernel partitions by the same fixed geometry as
/// the scalar one (DESIGN §5g), so each ISA's 1-thread output is the
/// reference for its 2/7/8-thread runs. (GEMM is additionally bit-identical
/// *across* ISAs — pinned by backend_differential.rs — so flipping the
/// process-global ISA here cannot disturb the other tests in this binary;
/// the mutex only serializes this test against itself under `--test-threads`.)
#[test]
fn gemm_bit_identical_across_thread_counts_at_every_isa() {
    static ISA_LOCK: Mutex<()> = Mutex::new(());
    let _guard = ISA_LOCK.lock().unwrap();
    let mut rng = Rng::new(79);
    let mut isas = vec![Isa::Scalar];
    if simd::detect() != Isa::Scalar {
        isas.push(simd::detect());
    }
    let p1 = ThreadPool::new(1);
    let crossing = crossing_pools();
    // Two of the three shapes span several MC stripes, so they dispatch.
    let shapes = [(69usize, 21usize, 300usize), (2 * MC, 48, 256), (33, 17, 31)];
    for &isa in &isas {
        simd::set_isa(isa);
        for &(m, n, k) in &shapes {
            let a = Tensor::randn(&[m, k], &mut rng);
            let b = Tensor::randn(&[k, n], &mut rng);
            let serial = run_gemm(&p1, a.data(), b.data(), m, n, k);
            for pool in &crossing {
                let par = run_gemm(pool, a.data(), b.data(), m, n, k);
                assert!(
                    bits_eq(&serial, &par),
                    "gemm ({m},{n},{k}) differs at {} threads under {}",
                    pool.threads(),
                    isa.name()
                );
            }
        }
    }
    simd::set_isa(simd::detect());
    for pool in &crossing {
        assert_eq!(pool.stats().jobs, 2 * isas.len(), "{} threads", pool.threads());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random shapes (including degenerate 1-extents, and heights on both
    /// sides of the MC stripe so some cases are one task and some several):
    /// the parallel GEMM must match its own 1-thread execution bit-for-bit,
    /// and must have crossed threads exactly when it had stripes to share.
    #[test]
    fn gemm_parallel_equals_serial(
        seed in any::<u64>(),
        m in 1usize..3 * MC,
        n in 1usize..40,
        k in 1usize..60,
        threads_idx in 0usize..4,
    ) {
        let mut rng = Rng::new(seed);
        let a = Tensor::randn(&[m, k], &mut rng);
        let b = Tensor::randn(&[k, n], &mut rng);
        let serial = run_gemm(&ThreadPool::new(1), a.data(), b.data(), m, n, k);
        let pool = ThreadPool::with_zero_grain(THREADS[threads_idx]);
        let par = run_gemm(&pool, a.data(), b.data(), m, n, k);
        prop_assert!(bits_eq(&serial, &par));
        prop_assert_eq!(pool.stats().jobs, usize::from(pool.threads() > 1 && m > MC));
    }

    /// Random conv geometry (stride 1–3, padding 0–2): blocked path at any
    /// thread count is bit-identical to its 1-thread execution and allclose
    /// to the serial reference loops.
    #[test]
    fn conv_parallel_equals_serial(
        seed in any::<u64>(),
        n in 1usize..4,
        c_in in 1usize..4,
        c_out in 1usize..5,
        hw in 5usize..12,
        kk in 1usize..4,
        stride in 1usize..4,
        pad in 0usize..3,
        threads_idx in 0usize..4,
    ) {
        prop_assume!(hw + 2 * pad >= kk);
        let spec = Conv2dSpec::new(stride, pad).unwrap();
        let mut rng = Rng::new(seed);
        let x = Tensor::randn(&[n, c_in, hw, hw], &mut rng);
        let wt = Tensor::randn(&[c_out, c_in, kk, kk], &mut rng);
        let p1 = ThreadPool::new(1);
        let pt = ThreadPool::with_zero_grain(THREADS[threads_idx]);
        let y1 = conv2d_with_pool(&p1, &x, &wt, None, spec).unwrap();
        let yt = conv2d_with_pool(&pt, &x, &wt, None, spec).unwrap();
        prop_assert!(bits_eq(y1.data(), yt.data()));
        let y_ref = reference::conv2d(&x, &wt, None, spec).unwrap();
        prop_assert!(y1.allclose(&y_ref, 1e-3));
        let g = Tensor::randn(y1.dims(), &mut rng);
        let gx1 = conv2d_grad_input_with_pool(&p1, &g, &wt, x.dims(), spec).unwrap();
        let gxt = conv2d_grad_input_with_pool(&pt, &g, &wt, x.dims(), spec).unwrap();
        prop_assert!(bits_eq(gx1.data(), gxt.data()));
        let gw1 = conv2d_grad_weight_with_pool(&p1, &g, &x, wt.dims(), spec).unwrap();
        let gwt = conv2d_grad_weight_with_pool(&pt, &g, &x, wt.dims(), spec).unwrap();
        prop_assert!(bits_eq(gw1.data(), gwt.data()));
        // One dispatch per kernel whenever there are images to share.
        prop_assert_eq!(pt.stats().jobs, if pt.threads() > 1 && n > 1 { 3 } else { 0 });
    }
}
