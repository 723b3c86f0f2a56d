//! Property-based tests for the tensor substrate.

use egeria_tensor::conv::{conv2d, conv2d_grad_input, conv2d_grad_weight, Conv2dSpec};
use egeria_tensor::gemm::{gemm, Layout, KC, MC, MR, NR};
use egeria_tensor::linalg::{linear_fit, qr, svd};
use egeria_tensor::{serialize, Rng, Tensor, ThreadPool};
use proptest::prelude::*;

/// Row-major strides of `dims`, the last axis innermost.
fn strides(dims: &[usize]) -> Vec<usize> {
    let mut out = vec![1usize; dims.len()];
    for k in (0..dims.len().saturating_sub(1)).rev() {
        out[k] = out[k + 1] * dims[k + 1];
    }
    out
}

/// Visits every row-major index of `dims` in order; the caller derives each
/// element's offsets from its full index. This is the per-element walk
/// `permute` and broadcasting arithmetic ran before the row walker, kept
/// here as their oracle.
fn for_each_index(dims: &[usize], mut visit: impl FnMut(&[usize])) {
    let numel: usize = dims.iter().product();
    let mut index = vec![0usize; dims.len()];
    for _ in 0..numel {
        visit(&index);
        for k in (0..dims.len()).rev() {
            index[k] += 1;
            if index[k] < dims[k] {
                break;
            }
            index[k] = 0;
        }
    }
}

fn offset(index: &[usize], strides: &[usize]) -> usize {
    index.iter().zip(strides).map(|(i, s)| i * s).sum()
}

fn permute_oracle(x: &Tensor, perm: &[usize]) -> (Vec<usize>, Vec<f32>) {
    let own = strides(x.dims());
    let src: Vec<usize> = perm.iter().map(|&p| own[p]).collect();
    let dims: Vec<usize> = perm.iter().map(|&p| x.dims()[p]).collect();
    let mut out = Vec::new();
    for_each_index(&dims, |i| out.push(x.data()[offset(i, &src)]));
    (dims, out)
}

/// Strides of `dims` read as broadcast to `target`: 0 on a dropped leading
/// axis and on a size-1 axis.
fn broadcast_strides(dims: &[usize], target: &[usize]) -> Vec<usize> {
    let lead = target.len() - dims.len();
    let own = strides(dims);
    (0..target.len())
        .map(|k| {
            if k < lead || dims[k - lead] != target[k] {
                0
            } else {
                own[k - lead]
            }
        })
        .collect()
}

fn broadcast_oracle(a: &Tensor, b: &Tensor, f: ElemOp) -> (Vec<usize>, Vec<f32>) {
    let rank = a.rank().max(b.rank());
    let pad = |d: &[usize]| [vec![1; rank - d.len()], d.to_vec()].concat();
    let dims: Vec<usize> = pad(a.dims())
        .iter()
        .zip(pad(b.dims()))
        .map(|(&x, y)| if x == 1 { y } else { x })
        .collect();
    let (sa, sb) = (
        broadcast_strides(a.dims(), &dims),
        broadcast_strides(b.dims(), &dims),
    );
    let mut out = Vec::new();
    for_each_index(&dims, |i| {
        out.push(f(a.data()[offset(i, &sa)], b.data()[offset(i, &sb)]))
    });
    (dims, out)
}

/// A broadcasting method of `Tensor`, such as `Tensor::add`.
type TensorOp = fn(&Tensor, &Tensor) -> egeria_tensor::Result<Tensor>;

/// The per-element function a `TensorOp` applies.
type ElemOp = fn(f32, f32) -> f32;

fn bits(data: &[f32]) -> Vec<u32> {
    data.iter().map(|x| x.to_bits()).collect()
}

fn small_tensor(max: usize) -> impl Strategy<Value = Tensor> {
    (1..max, 1..max, any::<u64>()).prop_map(|(r, c, seed)| {
        let mut rng = Rng::new(seed);
        Tensor::randn(&[r, c], &mut rng)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn matmul_identity_is_neutral(t in small_tensor(8)) {
        let n = t.dims()[1];
        let i = Tensor::eye(n);
        let p = t.matmul(&i).unwrap();
        prop_assert!(p.allclose(&t, 1e-5));
    }

    #[test]
    fn matmul_distributes_over_addition(seed in any::<u64>(), m in 1usize..6, k in 1usize..6, n in 1usize..6) {
        let mut rng = Rng::new(seed);
        let a = Tensor::randn(&[m, k], &mut rng);
        let b = Tensor::randn(&[k, n], &mut rng);
        let c = Tensor::randn(&[k, n], &mut rng);
        let lhs = a.matmul(&b.add(&c).unwrap()).unwrap();
        let rhs = a.matmul(&b).unwrap().add(&a.matmul(&c).unwrap()).unwrap();
        prop_assert!(lhs.allclose(&rhs, 1e-4));
    }

    #[test]
    fn transpose_is_involution(t in small_tensor(8)) {
        let tt = t.transpose2d().unwrap().transpose2d().unwrap();
        prop_assert_eq!(tt, t);
    }

    #[test]
    fn serialization_round_trips(t in small_tensor(10)) {
        let bytes = serialize::to_bytes(&t);
        let back = serialize::from_bytes(&bytes).unwrap();
        prop_assert_eq!(back, t);
    }

    #[test]
    fn sum_axis_preserves_total(t in small_tensor(8)) {
        let total = t.sum();
        let by0 = t.sum_axis(0).unwrap().sum();
        let by1 = t.sum_axis(1).unwrap().sum();
        prop_assert!((total - by0).abs() < 1e-3 * total.abs().max(1.0));
        prop_assert!((total - by1).abs() < 1e-3 * total.abs().max(1.0));
    }

    #[test]
    fn conv_output_shape_law(
        seed in any::<u64>(),
        h in 4usize..10,
        k in 1usize..4,
        stride in 1usize..3,
        pad in 0usize..2,
    ) {
        prop_assume!(h + 2 * pad >= k);
        let mut rng = Rng::new(seed);
        let x = Tensor::randn(&[1, 2, h, h], &mut rng);
        let w = Tensor::randn(&[3, 2, k, k], &mut rng);
        let spec = Conv2dSpec::new(stride, pad).unwrap();
        let y = conv2d(&x, &w, None, spec).unwrap();
        let expected = (h + 2 * pad - k) / stride + 1;
        prop_assert_eq!(y.dims(), &[1, 3, expected, expected]);
    }

    #[test]
    fn conv_grad_input_is_adjoint(seed in any::<u64>(), h in 4usize..8) {
        // <conv(x), g> == <x, conv_grad_input(g)> for all x, g.
        let mut rng = Rng::new(seed);
        let x = Tensor::randn(&[1, 2, h, h], &mut rng);
        let w = Tensor::randn(&[2, 2, 3, 3], &mut rng);
        let spec = Conv2dSpec::new(1, 1).unwrap();
        let y = conv2d(&x, &w, None, spec).unwrap();
        let g = Tensor::randn(y.dims(), &mut rng);
        let lhs = y.dot(&g).unwrap();
        let gx = conv2d_grad_input(&g, &w, x.dims(), spec).unwrap();
        let rhs = x.dot(&gx).unwrap();
        let scale = lhs.abs().max(1.0);
        prop_assert!((lhs - rhs).abs() < 1e-3 * scale, "{} vs {}", lhs, rhs);
    }

    #[test]
    fn qr_reconstructs(seed in any::<u64>(), n in 2usize..6, extra in 0usize..4) {
        let mut rng = Rng::new(seed);
        let a = Tensor::randn(&[n + extra, n], &mut rng);
        let (q, r) = qr(&a).unwrap();
        let recon = q.matmul(&r).unwrap();
        prop_assert!(recon.allclose(&a, 1e-3));
    }

    #[test]
    fn svd_values_bound_matrix_norm(seed in any::<u64>(), n in 2usize..6) {
        let mut rng = Rng::new(seed);
        let a = Tensor::randn(&[n + 2, n], &mut rng);
        let (_, s, _) = svd(&a).unwrap();
        // Frobenius² equals the sum of squared singular values.
        let fro2: f32 = a.sq_norm();
        let ssum: f32 = s.iter().map(|&x| x * x).sum();
        prop_assert!((fro2 - ssum).abs() < 1e-2 * fro2.max(1.0));
    }

    #[test]
    fn linear_fit_recovers_affine(slope in -5.0f32..5.0, intercept in -5.0f32..5.0, n in 3usize..20) {
        let xs: Vec<f32> = (0..n).map(|i| i as f32).collect();
        let ys: Vec<f32> = xs.iter().map(|&x| slope * x + intercept).collect();
        let (s, b) = linear_fit(&xs, &ys).unwrap();
        prop_assert!((s - slope).abs() < 1e-3);
        prop_assert!((b - intercept).abs() < 1e-2);
    }

    #[test]
    fn broadcast_add_then_sub_is_identity(t in small_tensor(8), bias_seed in any::<u64>()) {
        let c = t.dims()[1];
        let mut rng = Rng::new(bias_seed);
        let bias = Tensor::randn(&[c], &mut rng);
        let back = t.add(&bias).unwrap().sub(&bias).unwrap();
        prop_assert!(back.allclose(&t, 1e-4));
    }
}

// The layout kernels against their per-element oracle, bit for bit: small
// shapes are cheap, so these run more cases than the block above.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn permute_matches_the_per_element_oracle(seed in any::<u64>(), rank in 0usize..6) {
        let mut rng = Rng::new(seed);
        let dims: Vec<usize> = (0..rank).map(|_| rng.below(4)).collect();
        let perm = rng.permutation(rank);
        let x = Tensor::randn(&dims, &mut rng);
        let y = x.permute(&perm).unwrap();
        let (want_dims, want) = permute_oracle(&x, &perm);
        prop_assert_eq!(y.dims(), &want_dims[..]);
        prop_assert_eq!(bits(y.data()), bits(&want), "dims {:?} perm {:?}", dims, perm);
    }

    #[test]
    fn broadcast_arithmetic_matches_the_per_element_oracle(seed in any::<u64>(), rank in 1usize..6) {
        let mut rng = Rng::new(seed);
        let full: Vec<usize> = (0..rank).map(|_| rng.below(4)).collect();
        // Each operand drops some leading axes and squeezes others (the
        // innermost included) to 1.
        let operand = |rng: &mut Rng| {
            let dims: Vec<usize> = full[rng.below(rank + 1)..]
                .iter()
                .map(|&d| if rng.below(3) == 0 { 1 } else { d })
                .collect();
            Tensor::randn(&dims, rng)
        };
        let a = operand(&mut rng);
        let b = operand(&mut rng);
        let ops: [(&str, TensorOp, ElemOp); 4] = [
            ("add", Tensor::add, |x, y| x + y),
            ("sub", Tensor::sub, |x, y| x - y),
            ("mul", Tensor::mul, |x, y| x * y),
            ("div", Tensor::div, |x, y| x / y),
        ];
        for (name, op, f) in ops {
            for (l, r) in [(&a, &b), (&b, &a)] {
                let got = op(l, r).unwrap();
                let (want_dims, want) = broadcast_oracle(l, r, f);
                prop_assert_eq!(got.dims(), &want_dims[..]);
                prop_assert_eq!(bits(got.data()), bits(&want), "{} {:?} {:?}", name, l.dims(), r.dims());
            }
        }
    }
}

/// Element `(r, c)` of a logical `rows × cols` matrix stored in `layout`.
fn at(m: &[f32], layout: Layout, rows: usize, cols: usize, r: usize, c: usize) -> f32 {
    match layout {
        Layout::RowMajor => m[r * cols + c],
        Layout::Transposed => m[c * rows + r],
    }
}

/// `c += a · b` in the blocked GEMM's summation order, one C element at a
/// time: the products of each `KC`-deep block summed in k order from
/// `0.0`, then that block's sum added to the element. This is the order the
/// register tile keeps, so the blocked kernel must match it bit for bit.
#[allow(clippy::too_many_arguments)]
fn gemm_oracle(
    a: &[f32],
    a_layout: Layout,
    b: &[f32],
    b_layout: Layout,
    m: usize,
    n: usize,
    k: usize,
    c: &mut [f32],
) {
    for i in 0..m {
        for j in 0..n {
            for kb in (0..k).step_by(KC) {
                let mut t = 0.0f32;
                for p in kb..k.min(kb + KC) {
                    t += at(a, a_layout, m, k, i, p) * at(b, b_layout, k, n, p, j);
                }
                c[i * n + j] += t;
            }
        }
    }
}

/// One image's convolution geometry, for the test's own lowering.
#[derive(Clone, Copy, Debug)]
struct Geom {
    c_in: usize,
    h: usize,
    w: usize,
    k: usize,
    stride: usize,
    pad: usize,
    oh: usize,
    ow: usize,
}

impl Geom {
    fn new(c_in: usize, h: usize, w: usize, k: usize, stride: usize, pad: usize) -> Self {
        let out = |e: usize| (e + 2 * pad - k) / stride + 1;
        Geom {
            c_in,
            h,
            w,
            k,
            stride,
            pad,
            oh: out(h),
            ow: out(w),
        }
    }

    /// Rows of the patch matrix: `c_in · k · k`.
    fn rows(&self) -> usize {
        self.c_in * self.k * self.k
    }

    /// Columns of the patch matrix: `oh · ow`.
    fn cols(&self) -> usize {
        self.oh * self.ow
    }

    /// Visits every patch-matrix entry that reads the image, in row-major
    /// patch order, as `(patch index, image index)`.
    fn for_each_tap(&self, mut visit: impl FnMut(usize, usize)) {
        for ci in 0..self.c_in {
            for ki in 0..self.k {
                for kj in 0..self.k {
                    let row = (ci * self.k + ki) * self.k + kj;
                    for oi in 0..self.oh {
                        for oj in 0..self.ow {
                            let ii = (oi * self.stride + ki) as isize - self.pad as isize;
                            let jj = (oj * self.stride + kj) as isize - self.pad as isize;
                            if (0..self.h as isize).contains(&ii)
                                && (0..self.w as isize).contains(&jj)
                            {
                                let pix = (ci * self.h + ii as usize) * self.w + jj as usize;
                                visit(row * self.cols() + oi * self.ow + oj, pix);
                            }
                        }
                    }
                }
            }
        }
    }

    fn im2col(&self, x_img: &[f32]) -> Vec<f32> {
        let mut col = vec![0.0f32; self.rows() * self.cols()];
        self.for_each_tap(|at, pix| col[at] = x_img[pix]);
        col
    }

    fn col2im_add(&self, colg: &[f32], gx_img: &mut [f32]) {
        self.for_each_tap(|at, pix| gx_img[pix] += colg[at]);
    }
}

/// `conv2d` and both gradients against the GEMM oracle over the test's own
/// im2col / col2im, bit for bit.
#[allow(clippy::too_many_arguments)]
fn check_conv_bits(
    n: usize,
    c_in: usize,
    c_out: usize,
    h: usize,
    w: usize,
    k: usize,
    stride: usize,
    pad: usize,
    seed: u64,
) {
    let g = Geom::new(c_in, h, w, k, stride, pad);
    let case = format!("n{n} {c_in}->{c_out} {h}x{w} k{k} s{stride} p{pad}");
    let spec = Conv2dSpec::new(stride, pad).unwrap();
    let mut rng = Rng::new(seed);
    let x = Tensor::randn(&[n, c_in, h, w], &mut rng);
    let wt = Tensor::randn(&[c_out, c_in, k, k], &mut rng);
    let bias = Tensor::randn(&[c_out], &mut rng);
    let go = Tensor::randn(&[n, c_out, g.oh, g.ow], &mut rng);
    let (rows, cols) = (g.rows(), g.cols());
    let (img_in, img_out) = (c_in * h * w, c_out * cols);

    let mut y = vec![0.0f32; n * img_out];
    let mut gx = vec![0.0f32; n * img_in];
    let mut gw = vec![0.0f32; c_out * rows];
    for ni in 0..n {
        let col = g.im2col(&x.data()[ni * img_in..(ni + 1) * img_in]);
        let g_img = &go.data()[ni * img_out..(ni + 1) * img_out];
        let y_img = &mut y[ni * img_out..(ni + 1) * img_out];
        gemm_oracle(
            wt.data(),
            Layout::RowMajor,
            &col,
            Layout::RowMajor,
            c_out,
            cols,
            rows,
            y_img,
        );
        for (co, &b) in bias.data().iter().enumerate() {
            for v in &mut y_img[co * cols..(co + 1) * cols] {
                *v += b;
            }
        }
        let mut colg = vec![0.0f32; rows * cols];
        gemm_oracle(
            wt.data(),
            Layout::Transposed,
            g_img,
            Layout::RowMajor,
            rows,
            cols,
            c_out,
            &mut colg,
        );
        g.col2im_add(&colg, &mut gx[ni * img_in..(ni + 1) * img_in]);
        let mut part = vec![0.0f32; c_out * rows];
        gemm_oracle(
            g_img,
            Layout::RowMajor,
            &col,
            Layout::Transposed,
            c_out,
            rows,
            cols,
            &mut part,
        );
        for (d, &p) in gw.iter_mut().zip(&part) {
            *d += p;
        }
    }

    let got = conv2d(&x, &wt, Some(&bias), spec).unwrap();
    assert_eq!(bits(got.data()), bits(&y), "conv2d {case}");
    let got = conv2d_grad_input(&go, &wt, x.dims(), spec).unwrap();
    assert_eq!(bits(got.data()), bits(&gx), "conv2d_grad_input {case}");
    let got = conv2d_grad_weight(&go, &x, wt.dims(), spec).unwrap();
    assert_eq!(bits(got.data()), bits(&gw), "conv2d_grad_weight {case}");
}

/// The geometries the blocking treats differently: the benchmark's ResNet
/// stages (patch width `P` = 100 / 25 / 9 against `NR`), 1×1 stride-2
/// projections, `K > KC` (a k block boundary inside the forward's and
/// grad-weight's rows), `P > KC` (one inside grad-weight's k) and
/// `c_out % MR ≠ 0` (a ragged strip).
#[test]
fn conv_kernels_match_the_blocked_order_oracle() {
    const { assert!(9 < NR && 16 * 3 * 3 < KC && 32 * 3 * 3 > KC && 17 * 17 > KC && 6 % MR != 0) };
    for (i, &(n, c_in, c_out, h, w, k, stride, pad)) in [
        (
            2usize, 4usize, 4usize, 10usize, 10usize, 3usize, 1usize, 1usize,
        ),
        (2, 4, 8, 10, 10, 3, 2, 1),
        (2, 4, 8, 10, 10, 1, 2, 0),
        (2, 8, 16, 5, 5, 3, 2, 1),
        (1, 16, 16, 3, 3, 3, 1, 1),
        (2, 32, 6, 5, 5, 3, 1, 0),
        (2, 30, 7, 7, 6, 3, 2, 1),
        (1, 3, 5, 17, 17, 3, 1, 1),
        (1, 2, 3, 19, 18, 3, 1, 0),
    ]
    .iter()
    .enumerate()
    {
        check_conv_bits(n, c_in, c_out, h, w, k, stride, pad, 100 + i as u64);
    }
}

// The blocked kernels against the scalar oracle in their own summation
// order, bit for bit.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn gemm_matches_the_blocked_order_oracle(
        seed in any::<u64>(),
        m in 1usize..MC + 10,
        n in 1usize..2 * NR + 5,
        k in 1usize..2 * KC + 20,
    ) {
        let mut rng = Rng::new(seed);
        let a: Vec<f32> = (0..m * k).map(|_| rng.normal()).collect();
        let b: Vec<f32> = (0..k * n).map(|_| rng.normal()).collect();
        // One inline pool, and one that hands every stripe to its workers.
        let pools = [ThreadPool::new(1), ThreadPool::with_zero_grain(2)];
        for la in [Layout::RowMajor, Layout::Transposed] {
            for lb in [Layout::RowMajor, Layout::Transposed] {
                let mut want = vec![0.0f32; m * n];
                gemm_oracle(&a, la, &b, lb, m, n, k, &mut want);
                for pool in &pools {
                    let mut got = vec![0.0f32; m * n];
                    gemm(pool, &a, la, &b, lb, m, n, k, &mut got);
                    prop_assert_eq!(bits(&got), bits(&want), "{}x{}x{} {:?}/{:?}", m, n, k, la, lb);
                }
            }
        }
    }

    #[test]
    fn conv_kernels_match_the_oracle_on_random_geometry(
        seed in any::<u64>(),
        n in 1usize..3,
        c_in in 1usize..10,
        c_out in 1usize..10,
        h in 1usize..12,
        w in 1usize..12,
        k in 1usize..4,
        stride in 1usize..3,
        pad in 0usize..2,
    ) {
        prop_assume!(h + 2 * pad >= k && w + 2 * pad >= k);
        check_conv_bits(n, c_in, c_out, h, w, k, stride, pad, seed);
    }
}
