//! Property-based tests for the tensor substrate.

use egeria_tensor::conv::{conv2d, conv2d_grad_input, Conv2dSpec};
use egeria_tensor::linalg::{linear_fit, qr, svd};
use egeria_tensor::{serialize, Rng, Tensor};
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
