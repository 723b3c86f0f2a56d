//! Differential test of the blocked kernels against the reference oracle.
//!
//! `parallel_determinism.rs` pins the *thread-count* contract (blocked
//! output is bit-identical at any pool size). This suite pins the
//! *kernel* contract: an op computed by the seed's serial loops
//! (`gemm::gemm_reference`, `conv::reference::*`) and by the production
//! blocked path must agree — **bit-identically** while the reduction fits
//! one `KC = 256` k-block, because both kernels then fold the same
//! products in the same order, and within float tolerance beyond that (the
//! blocked kernel re-associates across k-blocks).
//!
//! The public ops run on the global pool, whose dispatch grain keeps every
//! shape in this suite on the calling thread; `blocked_gemm_across_threads_*`
//! holds the oracle against a zero-grain pool so the handed-off path is
//! compared with the reference too.

use egeria_tensor::conv::{conv2d, conv2d_grad_input, conv2d_grad_weight, reference, Conv2dSpec};
use egeria_tensor::gemm::{gemm, gemm_reference, Layout};
use egeria_tensor::simd::{self, Isa};
use egeria_tensor::{Rng, Tensor, ThreadPool};
use proptest::prelude::*;
use std::sync::Mutex;

/// One k-block of the blocked GEMM (crate::gemm::KC). A reduction this
/// short is accumulated in identical order by both kernels.
const KC: usize = 256;

static ISA_LOCK: Mutex<()> = Mutex::new(());

/// The logical `(rows, cols)` of a matrix stored as `dims` under `layout`.
fn logical(dims: &[usize], layout: Layout) -> (usize, usize) {
    match layout {
        Layout::RowMajor => (dims[0], dims[1]),
        Layout::Transposed => (dims[1], dims[0]),
    }
}

/// The oracle's 2-D product of `a` and `b` as stored under the given
/// layouts (`RowMajor`/`RowMajor` is `matmul`, `Transposed` on the right is
/// `matmul_tb`, on the left `matmul_ta`).
fn ref_matmul(a: &Tensor, a_layout: Layout, b: &Tensor, b_layout: Layout) -> Tensor {
    let (m, k) = logical(a.dims(), a_layout);
    let (_, n) = logical(b.dims(), b_layout);
    let mut out = vec![0.0f32; m * n];
    gemm_reference(a.data(), a_layout, b.data(), b_layout, m, n, k, &mut out);
    Tensor::from_vec(out, &[m, n]).unwrap()
}

/// The oracle's batched product: one [`ref_matmul`] per leading index.
fn ref_bmm(a: &Tensor, a_layout: Layout, b: &Tensor, b_layout: Layout) -> Tensor {
    let (m, k) = logical(&a.dims()[1..], a_layout);
    let (_, n) = logical(&b.dims()[1..], b_layout);
    let bsz = a.dims()[0];
    let mut out = vec![0.0f32; bsz * m * n];
    for (bi, o) in out.chunks_mut(m * n).enumerate() {
        let a_slice = &a.data()[bi * m * k..(bi + 1) * m * k];
        let b_slice = &b.data()[bi * k * n..(bi + 1) * k * n];
        gemm_reference(a_slice, a_layout, b_slice, b_layout, m, n, k, o);
    }
    Tensor::from_vec(out, &[bsz, m, n]).unwrap()
}

/// Runs `f` under `Isa::Scalar` and under this machine's vector unit,
/// returning `None` when there is no vector unit (the ISA contract is then
/// trivially satisfied). `set_isa` is process-global, so every caller
/// serializes behind one mutex; the lock is released with the ISA back at
/// the auto-detected default.
fn isa_differential<T>(f: impl Fn() -> T) -> Option<(T, T)> {
    let vector = simd::detect();
    if vector == Isa::Scalar {
        return None;
    }
    let _guard = ISA_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    simd::set_isa(Isa::Scalar);
    let s = f();
    simd::set_isa(vector);
    let v = f();
    Some((s, v))
}

fn bits_eq(a: &Tensor, b: &Tensor) -> bool {
    a.dims() == b.dims()
        && a.data()
            .iter()
            .zip(b.data().iter())
            .all(|(x, y)| x.to_bits() == y.to_bits())
}

fn max_abs_diff(a: &Tensor, b: &Tensor) -> f32 {
    a.data()
        .iter()
        .zip(b.data().iter())
        .map(|(x, y)| (x - y).abs())
        .fold(0.0, f32::max)
}

#[test]
fn matmul_bit_identical_to_reference_within_one_k_block() {
    let mut rng = Rng::new(101);
    for &(m, n, k) in &[
        (1usize, 1usize, 1usize),
        (7, 5, 3),
        (33, 17, 255),
        (64, 48, KC),
    ] {
        let a = Tensor::randn(&[m, k], &mut rng);
        let b = Tensor::randn(&[k, n], &mut rng);
        let (r, p) = (
            ref_matmul(&a, Layout::RowMajor, &b, Layout::RowMajor),
            a.matmul(&b).unwrap(),
        );
        assert!(
            bits_eq(&r, &p),
            "matmul ({m},{n},{k}) differs from the reference oracle"
        );
    }
}

#[test]
fn blocked_gemm_across_threads_bit_identical_to_reference() {
    let mut rng = Rng::new(105);
    // Three row stripes, a ragged last panel, one k-block.
    let (m, n, k) = (130, 67, 255);
    let pool = ThreadPool::with_zero_grain(2);
    let layouts = [Layout::RowMajor, Layout::Transposed];
    for a_layout in layouts {
        for b_layout in layouts {
            let a = Tensor::randn(&[m * k], &mut rng);
            let b = Tensor::randn(&[k * n], &mut rng);
            let mut r = vec![0.0f32; m * n];
            gemm_reference(a.data(), a_layout, b.data(), b_layout, m, n, k, &mut r);
            let mut p = vec![0.0f32; m * n];
            gemm(&pool, a.data(), a_layout, b.data(), b_layout, m, n, k, &mut p);
            assert!(
                r.iter().zip(&p).all(|(x, y)| x.to_bits() == y.to_bits()),
                "dispatched gemm {a_layout:?}/{b_layout:?} differs from the reference oracle"
            );
        }
    }
    assert_eq!(pool.stats().jobs, 4, "every product must have crossed threads");
}

#[test]
fn matmul_agrees_with_reference_numerically_across_k_blocks() {
    // Beyond KC the blocked kernel finishes one k-block before the next, so
    // the association differs from the reference's single left-to-right
    // fold; the results stay within tight float tolerance.
    let mut rng = Rng::new(102);
    let (m, n, k) = (16, 16, KC * 2 + 7);
    let a = Tensor::randn(&[m, k], &mut rng);
    let b = Tensor::randn(&[k, n], &mut rng);
    let (r, p) = (
        ref_matmul(&a, Layout::RowMajor, &b, Layout::RowMajor),
        a.matmul(&b).unwrap(),
    );
    let d = max_abs_diff(&r, &p);
    assert!(d <= 1e-3, "matmul across k-blocks drifted {d}");
}

#[test]
fn transposed_matmul_variants_bit_identical() {
    let mut rng = Rng::new(103);
    let (m, n, k) = (19, 11, 37);
    let a = Tensor::randn(&[m, k], &mut rng);
    let bt = Tensor::randn(&[n, k], &mut rng);
    let (r, p) = (
        ref_matmul(&a, Layout::RowMajor, &bt, Layout::Transposed),
        a.matmul_tb(&bt).unwrap(),
    );
    assert!(
        bits_eq(&r, &p),
        "matmul_tb differs from the reference oracle"
    );
    let at = Tensor::randn(&[k, m], &mut rng);
    let b = Tensor::randn(&[k, n], &mut rng);
    let (r, p) = (
        ref_matmul(&at, Layout::Transposed, &b, Layout::RowMajor),
        at.matmul_ta(&b).unwrap(),
    );
    assert!(
        bits_eq(&r, &p),
        "matmul_ta differs from the reference oracle"
    );
}

#[test]
fn bmm_variants_bit_identical() {
    let mut rng = Rng::new(104);
    let (bsz, m, n, k) = (3, 9, 7, 31);
    let a = Tensor::randn(&[bsz, m, k], &mut rng);
    let b = Tensor::randn(&[bsz, k, n], &mut rng);
    let (r, p) = (
        ref_bmm(&a, Layout::RowMajor, &b, Layout::RowMajor),
        a.bmm(&b).unwrap(),
    );
    assert!(bits_eq(&r, &p), "bmm differs from the reference oracle");
    let bt = Tensor::randn(&[bsz, n, k], &mut rng);
    let (r, p) = (
        ref_bmm(&a, Layout::RowMajor, &bt, Layout::Transposed),
        a.bmm_tb(&bt).unwrap(),
    );
    assert!(bits_eq(&r, &p), "bmm_tb differs from the reference oracle");
    let at = Tensor::randn(&[bsz, k, m], &mut rng);
    let (r, p) = (
        ref_bmm(&at, Layout::Transposed, &b, Layout::RowMajor),
        at.bmm_ta(&b).unwrap(),
    );
    assert!(bits_eq(&r, &p), "bmm_ta differs from the reference oracle");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random shapes with the reduction inside one k-block: the kernels
    /// must agree bit-for-bit on matmul.
    #[test]
    fn prop_matmul_bit_identical(
        seed in any::<u64>(),
        m in 1usize..40,
        n in 1usize..40,
        k in 1usize..KC + 1,
    ) {
        let mut rng = Rng::new(seed);
        let a = Tensor::randn(&[m, k], &mut rng);
        let b = Tensor::randn(&[k, n], &mut rng);
        let (r, p) = (ref_matmul(&a, Layout::RowMajor, &b, Layout::RowMajor), a.matmul(&b).unwrap());
        prop_assert!(bits_eq(&r, &p), "matmul ({m},{n},{k}) differs");
    }

    /// Random batched shapes: bmm and its transposed variants agree
    /// bit-for-bit within one k-block.
    #[test]
    fn prop_bmm_bit_identical(
        seed in any::<u64>(),
        bsz in 1usize..4,
        m in 1usize..16,
        n in 1usize..16,
        k in 1usize..64,
        variant in 0usize..3,
    ) {
        let mut rng = Rng::new(seed);
        let (r, p) = match variant {
            0 => {
                let a = Tensor::randn(&[bsz, m, k], &mut rng);
                let b = Tensor::randn(&[bsz, k, n], &mut rng);
                (ref_bmm(&a, Layout::RowMajor, &b, Layout::RowMajor), a.bmm(&b).unwrap())
            }
            1 => {
                let a = Tensor::randn(&[bsz, m, k], &mut rng);
                let b = Tensor::randn(&[bsz, n, k], &mut rng);
                (ref_bmm(&a, Layout::RowMajor, &b, Layout::Transposed), a.bmm_tb(&b).unwrap())
            }
            _ => {
                let a = Tensor::randn(&[bsz, k, m], &mut rng);
                let b = Tensor::randn(&[bsz, k, n], &mut rng);
                (ref_bmm(&a, Layout::Transposed, &b, Layout::RowMajor), a.bmm_ta(&b).unwrap())
            }
        };
        prop_assert!(bits_eq(&r, &p), "bmm variant {variant} differs");
    }

    /// Random conv geometry: forward and both gradients agree between the
    /// direct reference loops and the im2col+GEMM lowering. The im2col
    /// reduction order matches the direct loops' (c_in, kh, kw) order, so
    /// agreement is bit-exact while c_in*kh*kw fits one k-block.
    #[test]
    fn prop_conv2d_differential(
        seed in any::<u64>(),
        n in 1usize..3,
        c_in in 1usize..4,
        c_out in 1usize..4,
        hw in 5usize..10,
        kk in 1usize..4,
        stride in 1usize..3,
        pad in 0usize..2,
        bias in any::<bool>(),
    ) {
        prop_assume!(hw + 2 * pad >= kk);
        let spec = Conv2dSpec::new(stride, pad).unwrap();
        let mut rng = Rng::new(seed);
        let x = Tensor::randn(&[n, c_in, hw, hw], &mut rng);
        let w = Tensor::randn(&[c_out, c_in, kk, kk], &mut rng);
        let b = Tensor::randn(&[c_out], &mut rng);
        let b_opt = if bias { Some(&b) } else { None };
        let yr = reference::conv2d(&x, &w, b_opt, spec).unwrap();
        let yp = conv2d(&x, &w, b_opt, spec).unwrap();
        let dy = max_abs_diff(&yr, &yp);
        prop_assert!(dy <= 1e-4, "conv2d forward drifted {dy}");
        let g = Tensor::randn(yr.dims(), &mut rng);
        let gxr = reference::conv2d_grad_input(&g, &w, x.dims(), spec).unwrap();
        let gxp = conv2d_grad_input(&g, &w, x.dims(), spec).unwrap();
        let dgx = max_abs_diff(&gxr, &gxp);
        prop_assert!(dgx <= 1e-4, "conv2d grad_input drifted {dgx}");
        let gwr = reference::conv2d_grad_weight(&g, &x, w.dims(), spec).unwrap();
        let gwp = conv2d_grad_weight(&g, &x, w.dims(), spec).unwrap();
        let dgw = max_abs_diff(&gwr, &gwp);
        prop_assert!(dgw <= 1e-3, "conv2d grad_weight drifted {dgw}");
    }
}

// ---------------------------------------------------------------------------
// ISA differential: `Isa::Scalar` vs the machine's vector unit.
//
// DESIGN §5g splits the kernels in two classes. Everything built from
// single-rounded IEEE lane ops in a fixed order — GEMM, the int8 qmatmul
// dot, and the fused optimizer kernels — must be **bit-identical** between
// the scalar fallback and every vector ISA (the vector bodies deliberately
// use unfused mul+add, never FMA). The transcendentals (exp/tanh/softmax)
// swap libm for a polynomial under a vector ISA and are only promised to
// agree within tolerance.
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random shapes, including reductions spanning several k-blocks: the
    /// blocked GEMM is bit-identical between scalar and vector ISAs.
    #[test]
    fn prop_matmul_scalar_vs_simd_bit_identical(
        seed in any::<u64>(),
        m in 1usize..40,
        n in 1usize..40,
        k in 1usize..300,
    ) {
        let mut rng = Rng::new(seed);
        let a = Tensor::randn(&[m, k], &mut rng);
        let b = Tensor::randn(&[k, n], &mut rng);
        if let Some((s, v)) = isa_differential(|| a.matmul(&b).unwrap()) {
            prop_assert!(bits_eq(&s, &v), "matmul ({m},{n},{k}) differs between ISAs");
        }
    }

    /// The int8 row-dot kernel under qmatmul accumulates in exact i32
    /// arithmetic: scalar and vector ISAs must agree to the last bit.
    #[test]
    fn prop_qmatmul_row_scalar_vs_simd_exact(
        seed in any::<u64>(),
        k in 1usize..128,
        n in 1usize..48,
    ) {
        let mut rng = Rng::new(seed);
        let to_i8 = |t: &Tensor| -> Vec<i8> {
            t.data().iter().map(|&x| (x * 40.0).clamp(-127.0, 127.0) as i8).collect()
        };
        let arow = to_i8(&Tensor::randn(&[k], &mut rng));
        let b = to_i8(&Tensor::randn(&[k, n], &mut rng));
        let run = || {
            let mut acc = vec![0i32; n];
            simd::qmatmul_row(&arow, &b, n, &mut acc);
            acc
        };
        if let Some((s, v)) = isa_differential(run) {
            prop_assert_eq!(s, v, "qmatmul_row ({}, {}) differs between ISAs", k, n);
        }
    }

    /// The fused optimizer kernels (axpy / decay_axpy / ema_sq / adam) are
    /// pure lane arithmetic: bit-identical between ISAs.
    #[test]
    fn prop_fused_optimizer_scalar_vs_simd_bit_identical(
        seed in any::<u64>(),
        len in 1usize..200,
        which in 0usize..4,
    ) {
        let mut rng = Rng::new(seed);
        let p0 = Tensor::randn(&[len], &mut rng);
        let g = Tensor::randn(&[len], &mut rng);
        let m = Tensor::randn(&[len], &mut rng);
        let v = g.map(|x| x * x + 1e-3);
        let run = || {
            let mut p = p0.clone();
            match which {
                0 => p.axpy_inplace(-0.05, &g).unwrap(),
                1 => p.decay_axpy_inplace(0.9, -0.05, &g).unwrap(),
                2 => p.ema_sq_inplace(0.99, &g).unwrap(),
                _ => p.adam_update_inplace(1e-3, 1e-8, 0.9, 0.99, &m, &v).unwrap(),
            }
            p
        };
        if let Some((s, r)) = isa_differential(run) {
            prop_assert!(bits_eq(&s, &r), "optimizer kernel {which} differs between ISAs");
        }
    }

    /// exp/tanh: the vector polynomial tracks libm within tight tolerance
    /// over the clamped domain (bit-identity deliberately not promised).
    #[test]
    fn prop_exp_tanh_scalar_vs_simd_toleranced(
        seed in any::<u64>(),
        len in 1usize..300,
        tanh in any::<bool>(),
    ) {
        let mut rng = Rng::new(seed);
        let x = Tensor::randn(&[len], &mut rng).map(|v| v * 5.0);
        let run = || {
            let mut y = x.clone();
            if tanh {
                simd::tanh_inplace(y.data_mut());
            } else {
                simd::exp_inplace(y.data_mut());
            }
            y
        };
        if let Some((s, v)) = isa_differential(run) {
            for (a, b) in s.data().iter().zip(v.data().iter()) {
                if tanh {
                    prop_assert!((a - b).abs() <= 1e-5, "tanh drifted: {a} vs {b}");
                } else {
                    prop_assert!((a - b).abs() <= 1e-5 * a.abs().max(1e-30),
                        "exp drifted: {a} vs {b}");
                }
            }
        }
    }

    /// softmax rows: scalar and vector ISAs agree within tolerance and the
    /// vector result still normalizes.
    #[test]
    fn prop_softmax_scalar_vs_simd_toleranced(
        seed in any::<u64>(),
        rows in 1usize..4,
        k in 1usize..40,
    ) {
        let mut rng = Rng::new(seed);
        let x = Tensor::randn(&[rows, k], &mut rng).map(|v| v * 3.0);
        let run = || {
            let mut y = x.clone();
            for r in 0..rows {
                simd::softmax_row(&mut y.data_mut()[r * k..(r + 1) * k]);
            }
            y
        };
        if let Some((s, v)) = isa_differential(run) {
            let d = max_abs_diff(&s, &v);
            prop_assert!(d <= 1e-5, "softmax drifted {d} between ISAs");
            for r in 0..rows {
                let sum: f32 = v.data()[r * k..(r + 1) * k].iter().sum();
                prop_assert!((sum - 1.0).abs() <= 1e-5, "vector softmax row sums to {sum}");
            }
        }
    }
}
