//! Dense linear algebra: QR, SVD, and scalar line fits.
//!
//! These routines back two parts of the reproduction:
//!
//! - **PWCCA** (`egeria-analysis`) needs a thin SVD and whitening transforms,
//! - **Algorithm 1's freezing criterion** needs a windowed linear
//!   least-squares slope fit ([`linear_fit`]).
//!
//! Matrices in the stack are modest (≤ a few hundred columns), so a
//! Householder QR and a one-sided Jacobi SVD are accurate and fast enough.

use crate::error::{Result, TensorError};
use crate::tensor::Tensor;

/// Thin Householder QR of an `m×n` matrix with `m ≥ n`.
///
/// Returns `(Q, R)` with `Q` of shape `m×n` having orthonormal columns and
/// `R` upper triangular `n×n`, such that `A = Q·R`.
// The reflector loops index `v` alongside strided slices of R and Q; the
// shared running index is the clearest way to express that correspondence.
#[allow(clippy::needless_range_loop)]
pub fn qr(a: &Tensor) -> Result<(Tensor, Tensor)> {
    if a.rank() != 2 {
        return Err(TensorError::ShapeMismatch {
            op: "qr",
            lhs: a.dims().to_vec(),
            rhs: vec![],
        });
    }
    let (m, n) = (a.dims()[0], a.dims()[1]);
    if m < n {
        return Err(TensorError::Numerical(format!(
            "qr requires m >= n, got {m}x{n}"
        )));
    }
    // Work on a column-major copy of A augmented with an m×m identity we
    // reduce to Q implicitly via stored reflectors applied to I.
    let mut r = a.clone();
    let mut q = Tensor::eye(m);
    for k in 0..n {
        // Build the Householder reflector for column k below the diagonal.
        let mut norm = 0.0f32;
        for i in k..m {
            let v = r.data()[i * n + k];
            norm += v * v;
        }
        let norm = norm.sqrt();
        if norm < 1e-12 {
            continue;
        }
        let alpha = if r.data()[k * n + k] > 0.0 { -norm } else { norm };
        let mut v = vec![0.0f32; m];
        for i in k..m {
            v[i] = r.data()[i * n + k];
        }
        v[k] -= alpha;
        let vnorm2: f32 = v.iter().map(|x| x * x).sum();
        if vnorm2 < 1e-24 {
            continue;
        }
        let beta = 2.0 / vnorm2;
        // R <- (I - beta v vᵀ) R.
        for j in k..n {
            let mut dot = 0.0f32;
            for i in k..m {
                dot += v[i] * r.data()[i * n + j];
            }
            let s = beta * dot;
            for i in k..m {
                r.data_mut()[i * n + j] -= s * v[i];
            }
        }
        // Q <- Q (I - beta v vᵀ) (accumulate on the right).
        for i in 0..m {
            let mut dot = 0.0f32;
            for l in k..m {
                dot += q.data()[i * m + l] * v[l];
            }
            let s = beta * dot;
            for l in k..m {
                q.data_mut()[i * m + l] -= s * v[l];
            }
        }
    }
    // Thin Q: first n columns; thin R: top n rows.
    let q_thin = q.narrow(1, 0, n)?;
    let r_thin = r.narrow(0, 0, n.min(m))?;
    Ok((q_thin, r_thin))
}

/// Singular value decomposition via one-sided Jacobi rotations.
///
/// Returns `(U, S, V)` with `A = U · diag(S) · Vᵀ`, `U` of shape `m×n`
/// (thin), `S` a length-`n` vector sorted descending, and `V` of shape
/// `n×n`. Requires `m ≥ n`; transpose the input (and swap U/V) otherwise.
pub fn svd(a: &Tensor) -> Result<(Tensor, Vec<f32>, Tensor)> {
    if a.rank() != 2 {
        return Err(TensorError::ShapeMismatch {
            op: "svd",
            lhs: a.dims().to_vec(),
            rhs: vec![],
        });
    }
    let (m, n) = (a.dims()[0], a.dims()[1]);
    if m < n {
        let (u, s, v) = svd(&a.transpose2d()?)?;
        return Ok((v, s, u));
    }
    let mut u = a.clone(); // Columns get orthogonalized in place.
    let mut v = Tensor::eye(n);
    let max_sweeps = 60;
    let tol = 1e-10f64;
    for _ in 0..max_sweeps {
        let mut off = 0.0f64;
        for p in 0..n {
            for q in (p + 1)..n {
                // Gram entries for columns p, q.
                let (mut app, mut aqq, mut apq) = (0.0f64, 0.0f64, 0.0f64);
                for i in 0..m {
                    let up = u.data()[i * n + p] as f64;
                    let uq = u.data()[i * n + q] as f64;
                    app += up * up;
                    aqq += uq * uq;
                    apq += up * uq;
                }
                off += apq * apq;
                if apq.abs() < 1e-30 {
                    continue;
                }
                // Jacobi rotation angle that annihilates the (p,q) Gram entry.
                let tau = (aqq - app) / (2.0 * apq);
                let t = tau.signum() / (tau.abs() + (1.0 + tau * tau).sqrt());
                let c = 1.0 / (1.0 + t * t).sqrt();
                let s = c * t;
                for i in 0..m {
                    let up = u.data()[i * n + p] as f64;
                    let uq = u.data()[i * n + q] as f64;
                    u.data_mut()[i * n + p] = (c * up - s * uq) as f32;
                    u.data_mut()[i * n + q] = (s * up + c * uq) as f32;
                }
                for i in 0..n {
                    let vp = v.data()[i * n + p] as f64;
                    let vq = v.data()[i * n + q] as f64;
                    v.data_mut()[i * n + p] = (c * vp - s * vq) as f32;
                    v.data_mut()[i * n + q] = (s * vp + c * vq) as f32;
                }
            }
        }
        if off < tol {
            break;
        }
    }
    // Singular values are the column norms of the rotated U.
    let mut order: Vec<usize> = (0..n).collect();
    let mut sigma = vec![0.0f32; n];
    for (j, s) in sigma.iter_mut().enumerate() {
        let mut acc = 0.0f64;
        for i in 0..m {
            let x = u.data()[i * n + j] as f64;
            acc += x * x;
        }
        *s = acc.sqrt() as f32;
    }
    order.sort_by(|&a, &b| sigma[b].partial_cmp(&sigma[a]).unwrap_or(std::cmp::Ordering::Equal));
    let mut u_sorted = Tensor::zeros(&[m, n]);
    let mut v_sorted = Tensor::zeros(&[n, n]);
    let mut s_sorted = vec![0.0f32; n];
    for (new_j, &old_j) in order.iter().enumerate() {
        let s = sigma[old_j];
        s_sorted[new_j] = s;
        let inv = if s > 1e-12 { 1.0 / s } else { 0.0 };
        for i in 0..m {
            u_sorted.data_mut()[i * n + new_j] = u.data()[i * n + old_j] * inv;
        }
        for i in 0..n {
            v_sorted.data_mut()[i * n + new_j] = v.data()[i * n + old_j];
        }
    }
    Ok((u_sorted, s_sorted, v_sorted))
}

/// Ordinary least-squares line fit `y ≈ slope·x + intercept`.
///
/// This is the exact closed form used by the paper's Algorithm 1 to decide
/// whether a plasticity window has flattened out. Returns an error for fewer
/// than two points or a degenerate (constant) x.
pub fn linear_fit(xs: &[f32], ys: &[f32]) -> Result<(f32, f32)> {
    if xs.len() != ys.len() || xs.len() < 2 {
        return Err(TensorError::Numerical(format!(
            "linear_fit needs >= 2 paired points, got {} and {}",
            xs.len(),
            ys.len()
        )));
    }
    let n = xs.len() as f64;
    let sx: f64 = xs.iter().map(|&x| x as f64).sum();
    let sy: f64 = ys.iter().map(|&y| y as f64).sum();
    let sxx: f64 = xs.iter().map(|&x| (x as f64) * (x as f64)).sum();
    let sxy: f64 = xs.iter().zip(ys.iter()).map(|(&x, &y)| x as f64 * y as f64).sum();
    let denom = n * sxx - sx * sx;
    if denom.abs() < 1e-12 {
        return Err(TensorError::Numerical("degenerate x values in linear_fit".into()));
    }
    let slope = (n * sxy - sx * sy) / denom;
    let intercept = (sy - slope * sx) / n;
    Ok((slope as f32, intercept as f32))
}

/// Centers the columns of an `n×d` matrix (subtracts each column mean).
pub fn center_columns(a: &Tensor) -> Result<Tensor> {
    if a.rank() != 2 {
        return Err(TensorError::ShapeMismatch {
            op: "center_columns",
            lhs: a.dims().to_vec(),
            rhs: vec![],
        });
    }
    let (n, d) = (a.dims()[0], a.dims()[1]);
    let mut out = a.clone();
    for j in 0..d {
        let mut mean = 0.0f64;
        for i in 0..n {
            mean += a.data()[i * d + j] as f64;
        }
        let mean = (mean / n.max(1) as f64) as f32;
        for i in 0..n {
            out.data_mut()[i * d + j] -= mean;
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Rng;

    #[test]
    fn qr_reconstructs_and_q_is_orthonormal() {
        let mut rng = Rng::new(1);
        let a = Tensor::randn(&[6, 4], &mut rng);
        let (q, r) = qr(&a).unwrap();
        assert_eq!(q.dims(), &[6, 4]);
        assert_eq!(r.dims(), &[4, 4]);
        let recon = q.matmul(&r).unwrap();
        assert!(recon.allclose(&a, 1e-4), "QR reconstruction failed");
        let qtq = q.transpose2d().unwrap().matmul(&q).unwrap();
        assert!(qtq.allclose(&Tensor::eye(4), 1e-4), "Q not orthonormal");
    }

    #[test]
    fn r_is_upper_triangular() {
        let mut rng = Rng::new(2);
        let a = Tensor::randn(&[5, 3], &mut rng);
        let (_, r) = qr(&a).unwrap();
        for i in 0..3 {
            for j in 0..i {
                assert!(r.at(&[i, j]).unwrap().abs() < 1e-5);
            }
        }
    }

    #[test]
    fn svd_reconstructs_random_matrix() {
        let mut rng = Rng::new(3);
        let a = Tensor::randn(&[8, 5], &mut rng);
        let (u, s, v) = svd(&a).unwrap();
        // Rebuild A = U diag(S) Vᵀ.
        let mut us = u.clone();
        for i in 0..8 {
            for (j, sv) in s.iter().enumerate() {
                us.data_mut()[i * 5 + j] *= sv;
            }
        }
        let recon = us.matmul(&v.transpose2d().unwrap()).unwrap();
        assert!(recon.allclose(&a, 1e-3), "SVD reconstruction failed");
    }

    #[test]
    fn svd_singular_values_sorted_and_nonnegative() {
        let mut rng = Rng::new(4);
        let a = Tensor::randn(&[7, 4], &mut rng);
        let (_, s, _) = svd(&a).unwrap();
        for w in s.windows(2) {
            assert!(w[0] >= w[1]);
        }
        assert!(s.iter().all(|&x| x >= 0.0));
    }

    #[test]
    fn svd_of_identity_has_unit_singular_values() {
        let (_, s, _) = svd(&Tensor::eye(4)).unwrap();
        for x in s {
            assert!((x - 1.0).abs() < 1e-5);
        }
    }

    #[test]
    fn svd_handles_wide_matrix_via_transpose() {
        let mut rng = Rng::new(5);
        let a = Tensor::randn(&[3, 6], &mut rng);
        let (u, s, v) = svd(&a).unwrap();
        assert_eq!(u.dims()[0], 3);
        assert_eq!(v.dims()[0], 6);
        let mut us = u.clone();
        let k = s.len();
        for i in 0..u.dims()[0] {
            for (j, sv) in s.iter().enumerate() {
                us.data_mut()[i * k + j] *= sv;
            }
        }
        let recon = us.matmul(&v.transpose2d().unwrap()).unwrap();
        assert!(recon.allclose(&a, 1e-3));
    }

    #[test]
    fn linear_fit_is_exact_on_affine_data() {
        let xs: Vec<f32> = (0..10).map(|i| i as f32).collect();
        let ys: Vec<f32> = xs.iter().map(|&x| 3.0 * x - 2.0).collect();
        let (slope, intercept) = linear_fit(&xs, &ys).unwrap();
        assert!((slope - 3.0).abs() < 1e-4);
        assert!((intercept + 2.0).abs() < 1e-3);
    }

    #[test]
    fn linear_fit_zero_slope_on_constant_series() {
        let xs: Vec<f32> = (0..5).map(|i| i as f32).collect();
        let ys = vec![4.2; 5];
        let (slope, _) = linear_fit(&xs, &ys).unwrap();
        assert!(slope.abs() < 1e-6);
    }

    #[test]
    fn linear_fit_rejects_degenerate_inputs() {
        assert!(linear_fit(&[1.0], &[2.0]).is_err());
        assert!(linear_fit(&[1.0, 1.0], &[2.0, 3.0]).is_err());
        assert!(linear_fit(&[1.0, 2.0], &[2.0]).is_err());
    }

    #[test]
    fn center_columns_zeroes_column_means() {
        let mut rng = Rng::new(7);
        let a = Tensor::randn(&[20, 4], &mut rng).add_scalar(3.0);
        let c = center_columns(&a).unwrap();
        let means = c.mean_axis(0).unwrap();
        for &m in means.data() {
            assert!(m.abs() < 1e-4);
        }
    }
}
