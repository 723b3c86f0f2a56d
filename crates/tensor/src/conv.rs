//! Convolution and pooling kernels.
//!
//! Forward kernels plus the two convolution gradient kernels
//! ([`conv2d_grad_input`], [`conv2d_grad_weight`]) that the autograd layer in
//! `egeria-nn` composes into a backward pass. All kernels take NCHW tensors.
//!
//! The three GEMM-bound kernels are lowered to im2col plus the parallel
//! blocked GEMM in [`crate::gemm`], dispatched one pool task per image so a
//! batch saturates the worker pool. The seed repo's direct loops survive in
//! [`reference`](mod@reference) as the numerical oracle the tests and benches compare
//! against.
//!
//! Determinism: each task writes a disjoint image slice, im2col/col2im walk
//! fixed index orders, and the cross-image reduction in
//! [`conv2d_grad_weight`] folds per-image partials in ascending image order
//! — so outputs are bit-identical for every thread count.

use crate::error::{Result, TensorError};
use crate::gemm::{gemm, Layout};
use crate::pool::{self, ThreadPool};
use crate::tensor::Tensor;

/// Convolution geometry: square stride and zero padding.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Conv2dSpec {
    /// Stride applied in both spatial dimensions.
    pub stride: usize,
    /// Zero padding applied on every spatial edge.
    pub padding: usize,
}

impl Conv2dSpec {
    /// Creates a spec; stride must be non-zero.
    pub fn new(stride: usize, padding: usize) -> Result<Self> {
        if stride == 0 {
            return Err(TensorError::Numerical("conv stride must be > 0".into()));
        }
        Ok(Conv2dSpec { stride, padding })
    }

    /// Output spatial extent for an input extent and kernel extent.
    pub fn out_extent(&self, input: usize, kernel: usize) -> Result<usize> {
        let padded = input + 2 * self.padding;
        if kernel == 0 || padded < kernel {
            return Err(TensorError::Numerical(format!(
                "kernel {kernel} larger than padded input {padded}"
            )));
        }
        Ok((padded - kernel) / self.stride + 1)
    }
}

fn check_conv_shapes(input: &Tensor, weight: &Tensor) -> Result<()> {
    if input.rank() != 4 || weight.rank() != 4 || input.dims()[1] != weight.dims()[1] {
        return Err(TensorError::ShapeMismatch {
            op: "conv2d",
            lhs: input.dims().to_vec(),
            rhs: weight.dims().to_vec(),
        });
    }
    Ok(())
}

/// The contiguous output range `[lo, hi)` along one spatial axis for which
/// `o*stride + k − pad` stays inside `[0, extent)`.
///
/// Hoisting this bound out of the inner loops removes the per-element
/// branch that otherwise blocks vectorization — the convolution kernels are
/// the training hot path.
#[inline]
fn valid_out_range(out_extent: usize, extent: usize, k: usize, stride: usize, pad: usize) -> (usize, usize) {
    // Smallest o with o*stride + k >= pad.
    let lo = pad.saturating_sub(k).div_ceil(stride);
    // Largest o with o*stride + k - pad <= extent - 1.
    let hi = if extent + pad > k {
        (((extent + pad - k - 1) / stride) + 1).min(out_extent)
    } else {
        0
    };
    (lo.min(out_extent), hi)
}

/// Geometry shared by the im2col lowering of one image.
#[derive(Clone, Copy)]
struct ColGeom {
    c_in: usize,
    h: usize,
    w: usize,
    kh: usize,
    kw: usize,
    oh: usize,
    ow: usize,
    stride: usize,
    pad: usize,
}

impl ColGeom {
    fn rows(&self) -> usize {
        self.c_in * self.kh * self.kw
    }
    fn cols(&self) -> usize {
        self.oh * self.ow
    }
    /// Flops of one image's lowered GEMM (`2·c_out·K·P`, the same for the
    /// forward product and both gradients): the per-task cost the image
    /// loops hand to the pool.
    fn image_flops(&self, c_out: usize) -> u64 {
        2 * c_out as u64 * self.rows() as u64 * self.cols() as u64
    }
}

/// Unfolds one NCHW image into a fresh `(c_in·kh·kw) × (oh·ow)` patch
/// matrix. The allocation's zero-fill is the only one: positions the copy
/// loops below do not reach are the padding and stay zero.
fn im2col(x_img: &[f32], g: ColGeom) -> Vec<f32> {
    let mut col = vec![0.0f32; g.rows() * g.cols()];
    for ci in 0..g.c_in {
        let in_base = ci * g.h * g.w;
        for ki in 0..g.kh {
            let (oi_lo, oi_hi) = valid_out_range(g.oh, g.h, ki, g.stride, g.pad);
            for kj in 0..g.kw {
                let (oj_lo, oj_hi) = valid_out_range(g.ow, g.w, kj, g.stride, g.pad);
                if oj_lo >= oj_hi {
                    continue;
                }
                let row = ((ci * g.kh + ki) * g.kw + kj) * g.cols();
                let len = oj_hi - oj_lo;
                for oi in oi_lo..oi_hi {
                    let ii = oi * g.stride + ki - g.pad;
                    // Non-negative by construction of `oj_lo`.
                    let start = in_base + ii * g.w + oj_lo * g.stride + kj - g.pad;
                    let dst = row + oi * g.ow + oj_lo;
                    if g.stride == 1 {
                        col[dst..dst + len].copy_from_slice(&x_img[start..start + len]);
                    } else {
                        for d in 0..len {
                            col[dst + d] = x_img[start + d * g.stride];
                        }
                    }
                }
            }
        }
    }
    col
}

/// Adjoint of [`im2col`]: scatter-adds a patch-matrix gradient back onto one
/// image's input gradient. `gx_img` must be zero-initialized by the caller.
fn col2im_add(colg: &[f32], g: ColGeom, gx_img: &mut [f32]) {
    for ci in 0..g.c_in {
        let in_base = ci * g.h * g.w;
        for ki in 0..g.kh {
            let (oi_lo, oi_hi) = valid_out_range(g.oh, g.h, ki, g.stride, g.pad);
            for kj in 0..g.kw {
                let (oj_lo, oj_hi) = valid_out_range(g.ow, g.w, kj, g.stride, g.pad);
                if oj_lo >= oj_hi {
                    continue;
                }
                let row = ((ci * g.kh + ki) * g.kw + kj) * g.cols();
                let len = oj_hi - oj_lo;
                for oi in oi_lo..oi_hi {
                    let ii = oi * g.stride + ki - g.pad;
                    let start = in_base + ii * g.w + oj_lo * g.stride + kj - g.pad;
                    let src = row + oi * g.ow + oj_lo;
                    if g.stride == 1 {
                        for d in 0..len {
                            gx_img[start + d] += colg[src + d];
                        }
                    } else {
                        for d in 0..len {
                            gx_img[start + d * g.stride] += colg[src + d];
                        }
                    }
                }
            }
        }
    }
}

fn geom(input_dims: &[usize], weight_dims: &[usize], spec: Conv2dSpec) -> Result<ColGeom> {
    let (h, w) = (input_dims[2], input_dims[3]);
    let (kh, kw) = (weight_dims[2], weight_dims[3]);
    Ok(ColGeom {
        c_in: input_dims[1],
        h,
        w,
        kh,
        kw,
        oh: spec.out_extent(h, kh)?,
        ow: spec.out_extent(w, kw)?,
        stride: spec.stride,
        pad: spec.padding,
    })
}

/// 2-D convolution: input `(n, c_in, h, w)`, weight `(c_out, c_in, kh, kw)`,
/// optional bias `(c_out)`, producing `(n, c_out, oh, ow)`.
pub fn conv2d(
    input: &Tensor,
    weight: &Tensor,
    bias: Option<&Tensor>,
    spec: Conv2dSpec,
) -> Result<Tensor> {
    check_conv_shapes(input, weight)?;
    let c_out = weight.dims()[0];
    geom(input.dims(), weight.dims(), spec)?;
    if let Some(b) = bias {
        if b.dims() != [c_out] {
            return Err(TensorError::ShapeMismatch {
                op: "conv2d bias",
                lhs: b.dims().to_vec(),
                rhs: vec![c_out],
            });
        }
    }
    conv2d_with_pool(ThreadPool::global(), input, weight, bias, spec)
}

/// Blocked-path [`conv2d`] on an explicit pool. Shapes must already be
/// consistent; exposed for the cross-thread-count determinism tests.
#[doc(hidden)]
pub fn conv2d_with_pool(
    pool_ref: &ThreadPool,
    input: &Tensor,
    weight: &Tensor,
    bias: Option<&Tensor>,
    spec: Conv2dSpec,
) -> Result<Tensor> {
    let (n, _, _, _) = dims4(input);
    let c_out = weight.dims()[0];
    let g = geom(input.dims(), weight.dims(), spec)?;
    let x = input.data();
    let wd = weight.data();
    let (rows, cols) = (g.rows(), g.cols());
    let image_flops = g.image_flops(c_out);
    let img_in = g.c_in * g.h * g.w;
    let mut out = vec![0.0f32; n * c_out * cols];
    pool::for_each_batch_mut(pool_ref, &mut out, c_out * cols, image_flops, |ni, o_img| {
        let col = im2col(&x[ni * img_in..(ni + 1) * img_in], g);
        // OUT_i = W (c_out × K) · COL_i (K × P).
        gemm(
            pool_ref,
            wd,
            Layout::RowMajor,
            &col,
            Layout::RowMajor,
            c_out,
            cols,
            rows,
            o_img,
        );
        if let Some(b) = bias {
            for (co, &bv) in b.data().iter().enumerate() {
                for v in &mut o_img[co * cols..(co + 1) * cols] {
                    *v += bv;
                }
            }
        }
    });
    Tensor::from_vec(out, &[n, c_out, g.oh, g.ow])
}

/// Gradient of [`conv2d`] w.r.t. the input (a "full" transposed convolution).
pub fn conv2d_grad_input(
    grad_out: &Tensor,
    weight: &Tensor,
    input_dims: &[usize],
    spec: Conv2dSpec,
) -> Result<Tensor> {
    if grad_out.rank() != 4 || weight.rank() != 4 || input_dims.len() != 4 {
        return Err(TensorError::ShapeMismatch {
            op: "conv2d_grad_input",
            lhs: grad_out.dims().to_vec(),
            rhs: input_dims.to_vec(),
        });
    }
    let (_, c_out, _, _) = dims4(grad_out);
    let (c_out_w, c_in, _, _) = dims4(weight);
    if c_out != c_out_w || input_dims[1] != c_in {
        return Err(TensorError::ShapeMismatch {
            op: "conv2d_grad_input",
            lhs: grad_out.dims().to_vec(),
            rhs: weight.dims().to_vec(),
        });
    }
    let g = geom(input_dims, weight.dims(), spec)?;
    if g.oh != grad_out.dims()[2] || g.ow != grad_out.dims()[3] {
        return Err(TensorError::ShapeMismatch {
            op: "conv2d_grad_input",
            lhs: grad_out.dims().to_vec(),
            rhs: input_dims.to_vec(),
        });
    }
    conv2d_grad_input_with_pool(ThreadPool::global(), grad_out, weight, input_dims, spec)
}

/// Blocked-path [`conv2d_grad_input`] on an explicit pool. Shapes must
/// already be consistent; exposed for the determinism tests.
#[doc(hidden)]
pub fn conv2d_grad_input_with_pool(
    pool_ref: &ThreadPool,
    grad_out: &Tensor,
    weight: &Tensor,
    input_dims: &[usize],
    spec: Conv2dSpec,
) -> Result<Tensor> {
    let (n, c_out, _, _) = dims4(grad_out);
    let c_in = weight.dims()[1];
    let g = geom(input_dims, weight.dims(), spec)?;
    let go = grad_out.data();
    let wd = weight.data();
    let (rows, cols) = (g.rows(), g.cols());
    let image_flops = g.image_flops(c_out);
    let img_in = c_in * g.h * g.w;
    let img_out = c_out * cols;
    let mut gx = vec![0.0f32; n * img_in];
    pool::for_each_batch_mut(pool_ref, &mut gx, img_in, image_flops, |ni, gx_img| {
        // COLG_i = Wᵀ (K × c_out) · G_i (c_out × P); W's storage is the
        // transpose of the logical operand.
        let mut colg = vec![0.0f32; rows * cols];
        gemm(
            pool_ref,
            wd,
            Layout::Transposed,
            &go[ni * img_out..(ni + 1) * img_out],
            Layout::RowMajor,
            rows,
            cols,
            c_out,
            &mut colg,
        );
        col2im_add(&colg, g, gx_img);
    });
    Tensor::from_vec(gx, input_dims)
}

/// Gradient of [`conv2d`] w.r.t. the weight.
pub fn conv2d_grad_weight(
    grad_out: &Tensor,
    input: &Tensor,
    weight_dims: &[usize],
    spec: Conv2dSpec,
) -> Result<Tensor> {
    if grad_out.rank() != 4 || input.rank() != 4 || weight_dims.len() != 4 {
        return Err(TensorError::ShapeMismatch {
            op: "conv2d_grad_weight",
            lhs: grad_out.dims().to_vec(),
            rhs: weight_dims.to_vec(),
        });
    }
    let (_, c_out, _, _) = dims4(grad_out);
    let (_, c_in, _, _) = dims4(input);
    if weight_dims[0] != c_out || weight_dims[1] != c_in {
        return Err(TensorError::ShapeMismatch {
            op: "conv2d_grad_weight",
            lhs: grad_out.dims().to_vec(),
            rhs: weight_dims.to_vec(),
        });
    }
    let g = geom(input.dims(), weight_dims, spec)?;
    if g.oh != grad_out.dims()[2] || g.ow != grad_out.dims()[3] {
        return Err(TensorError::ShapeMismatch {
            op: "conv2d_grad_weight",
            lhs: grad_out.dims().to_vec(),
            rhs: weight_dims.to_vec(),
        });
    }
    conv2d_grad_weight_with_pool(ThreadPool::global(), grad_out, input, weight_dims, spec)
}

/// Blocked-path [`conv2d_grad_weight`] on an explicit pool. Shapes must
/// already be consistent; exposed for the determinism tests.
#[doc(hidden)]
pub fn conv2d_grad_weight_with_pool(
    pool_ref: &ThreadPool,
    grad_out: &Tensor,
    input: &Tensor,
    weight_dims: &[usize],
    spec: Conv2dSpec,
) -> Result<Tensor> {
    let (n, c_out, _, _) = dims4(grad_out);
    let c_in = input.dims()[1];
    let g = geom(input.dims(), weight_dims, spec)?;
    let go = grad_out.data();
    let x = input.data();
    let (rows, cols) = (g.rows(), g.cols());
    let image_flops = g.image_flops(c_out);
    let img_in = c_in * g.h * g.w;
    let img_out = c_out * cols;
    let w_numel = c_out * rows;
    // Per-image partials computed in parallel, then folded in ascending
    // image order so the reduction is bit-identical for any thread count.
    let mut partials = vec![0.0f32; n * w_numel];
    pool::for_each_batch_mut(pool_ref, &mut partials, w_numel, image_flops, |ni, part| {
        let col = im2col(&x[ni * img_in..(ni + 1) * img_in], g);
        // GW_i = G_i (c_out × P) · COL_iᵀ (P × K); COL_i's storage is the
        // transpose of the logical right operand.
        gemm(
            pool_ref,
            &go[ni * img_out..(ni + 1) * img_out],
            Layout::RowMajor,
            &col,
            Layout::Transposed,
            c_out,
            rows,
            cols,
            part,
        );
    });
    let mut gw = vec![0.0f32; w_numel];
    for ni in 0..n {
        let part = &partials[ni * w_numel..(ni + 1) * w_numel];
        for (dst, &src) in gw.iter_mut().zip(part.iter()) {
            *dst += src;
        }
    }
    Tensor::from_vec(gw, weight_dims)
}

/// The seed repo's serial direct-convolution loops, kept as the numerical
/// oracle for property tests and the perf benches' "seed serial kernel"
/// timings.
///
/// The seed's `wv == 0.0` inner-loop skip is gone: it silently collapsed
/// `0 · NaN` and `0 · ∞` to `0` and cost a branch per iteration on dense
/// weights.
pub mod reference {
    use super::*;

    /// Serial reference [`super::conv2d`].
    pub fn conv2d(
        input: &Tensor,
        weight: &Tensor,
        bias: Option<&Tensor>,
        spec: Conv2dSpec,
    ) -> Result<Tensor> {
        check_conv_shapes(input, weight)?;
        let (n, c_in, h, w) = dims4(input);
        let (c_out, _, kh, kw) = dims4(weight);
        let oh = spec.out_extent(h, kh)?;
        let ow = spec.out_extent(w, kw)?;
        if let Some(b) = bias {
            if b.dims() != [c_out] {
                return Err(TensorError::ShapeMismatch {
                    op: "conv2d bias",
                    lhs: b.dims().to_vec(),
                    rhs: vec![c_out],
                });
            }
        }
        let x = input.data();
        let wd = weight.data();
        let mut out = vec![0.0f32; n * c_out * oh * ow];
        let (stride, pad) = (spec.stride, spec.padding);
        for ni in 0..n {
            for co in 0..c_out {
                let out_base = (ni * c_out + co) * oh * ow;
                for ci in 0..c_in {
                    let in_base = (ni * c_in + ci) * h * w;
                    let w_base = (co * c_in + ci) * kh * kw;
                    for ki in 0..kh {
                        let (oi_lo, oi_hi) = valid_out_range(oh, h, ki, stride, pad);
                        for kj in 0..kw {
                            let wv = wd[w_base + ki * kw + kj];
                            let (oj_lo, oj_hi) = valid_out_range(ow, w, kj, stride, pad);
                            if oj_lo >= oj_hi {
                                continue;
                            }
                            for oi in oi_lo..oi_hi {
                                let ii = oi * stride + ki - pad;
                                // Non-negative by construction of `oj_lo`.
                                let start = in_base + ii * w + oj_lo * stride + kj - pad;
                                let orow = out_base + oi * ow;
                                let len = oj_hi - oj_lo;
                                if stride == 1 {
                                    let xs = &x[start..start + len];
                                    let os = &mut out[orow + oj_lo..orow + oj_hi];
                                    for (o, &xv) in os.iter_mut().zip(xs.iter()) {
                                        *o += wv * xv;
                                    }
                                } else {
                                    for d in 0..len {
                                        out[orow + oj_lo + d] += wv * x[start + d * stride];
                                    }
                                }
                            }
                        }
                    }
                }
                if let Some(b) = bias {
                    let bv = b.data()[co];
                    for v in &mut out[out_base..out_base + oh * ow] {
                        *v += bv;
                    }
                }
            }
        }
        Tensor::from_vec(out, &[n, c_out, oh, ow])
    }

    /// Serial reference [`super::conv2d_grad_input`].
    pub fn conv2d_grad_input(
        grad_out: &Tensor,
        weight: &Tensor,
        input_dims: &[usize],
        spec: Conv2dSpec,
    ) -> Result<Tensor> {
        let (n, c_out, oh, ow) = dims4(grad_out);
        let (_, c_in, kh, kw) = dims4(weight);
        let (h, w) = (input_dims[2], input_dims[3]);
        let g = grad_out.data();
        let wd = weight.data();
        let mut gx = vec![0.0f32; n * c_in * h * w];
        let (stride, pad) = (spec.stride, spec.padding);
        for ni in 0..n {
            for co in 0..c_out {
                let g_base = (ni * c_out + co) * oh * ow;
                for ci in 0..c_in {
                    let x_base = (ni * c_in + ci) * h * w;
                    let w_base = (co * c_in + ci) * kh * kw;
                    for ki in 0..kh {
                        let (oi_lo, oi_hi) = valid_out_range(oh, h, ki, stride, pad);
                        for kj in 0..kw {
                            let wv = wd[w_base + ki * kw + kj];
                            let (oj_lo, oj_hi) = valid_out_range(ow, w, kj, stride, pad);
                            if oj_lo >= oj_hi {
                                continue;
                            }
                            for oi in oi_lo..oi_hi {
                                let ii = oi * stride + ki - pad;
                                let start = x_base + ii * w + oj_lo * stride + kj - pad;
                                let grow = g_base + oi * ow;
                                let len = oj_hi - oj_lo;
                                if stride == 1 {
                                    let gs = &g[grow + oj_lo..grow + oj_hi];
                                    let xs = &mut gx[start..start + len];
                                    for (xv, &gv) in xs.iter_mut().zip(gs.iter()) {
                                        *xv += wv * gv;
                                    }
                                } else {
                                    for d in 0..len {
                                        gx[start + d * stride] += wv * g[grow + oj_lo + d];
                                    }
                                }
                            }
                        }
                    }
                }
            }
        }
        Tensor::from_vec(gx, input_dims)
    }

    /// Serial reference [`super::conv2d_grad_weight`].
    pub fn conv2d_grad_weight(
        grad_out: &Tensor,
        input: &Tensor,
        weight_dims: &[usize],
        spec: Conv2dSpec,
    ) -> Result<Tensor> {
        let (n, c_out, oh, ow) = dims4(grad_out);
        let (_, c_in, h, w) = dims4(input);
        let (kh, kw) = (weight_dims[2], weight_dims[3]);
        let g = grad_out.data();
        let x = input.data();
        let mut gw = vec![0.0f32; c_out * c_in * kh * kw];
        let (stride, pad) = (spec.stride, spec.padding);
        for ni in 0..n {
            for co in 0..c_out {
                let g_base = (ni * c_out + co) * oh * ow;
                for ci in 0..c_in {
                    let x_base = (ni * c_in + ci) * h * w;
                    let w_base = (co * c_in + ci) * kh * kw;
                    for ki in 0..kh {
                        let (oi_lo, oi_hi) = valid_out_range(oh, h, ki, stride, pad);
                        for kj in 0..kw {
                            let (oj_lo, oj_hi) = valid_out_range(ow, w, kj, stride, pad);
                            if oj_lo >= oj_hi {
                                continue;
                            }
                            let mut acc = 0.0f32;
                            let len = oj_hi - oj_lo;
                            for oi in oi_lo..oi_hi {
                                let ii = oi * stride + ki - pad;
                                let start = x_base + ii * w + oj_lo * stride + kj - pad;
                                let grow = g_base + oi * ow;
                                if stride == 1 {
                                    let gs = &g[grow + oj_lo..grow + oj_hi];
                                    let xs = &x[start..start + len];
                                    for (&gv, &xv) in gs.iter().zip(xs.iter()) {
                                        acc += gv * xv;
                                    }
                                } else {
                                    for d in 0..len {
                                        acc += g[grow + oj_lo + d] * x[start + d * stride];
                                    }
                                }
                            }
                            gw[w_base + ki * kw + kj] += acc;
                        }
                    }
                }
            }
        }
        Tensor::from_vec(gw, weight_dims)
    }
}

/// Depthwise 2-D convolution: input `(n, c, h, w)`, weight `(c, 1, kh, kw)`,
/// one filter per channel (MobileNetV2's spatial convolution). Parallel over
/// the `n·c` channel planes (disjoint outputs → deterministic).
pub fn depthwise_conv2d(
    input: &Tensor,
    weight: &Tensor,
    bias: Option<&Tensor>,
    spec: Conv2dSpec,
) -> Result<Tensor> {
    if input.rank() != 4
        || weight.rank() != 4
        || weight.dims()[1] != 1
        || input.dims()[1] != weight.dims()[0]
    {
        return Err(TensorError::ShapeMismatch {
            op: "depthwise_conv2d",
            lhs: input.dims().to_vec(),
            rhs: weight.dims().to_vec(),
        });
    }
    let (n, c, h, w) = dims4(input);
    let (_, _, kh, kw) = dims4(weight);
    let oh = spec.out_extent(h, kh)?;
    let ow = spec.out_extent(w, kw)?;
    let x = input.data();
    let wd = weight.data();
    let mut out = vec![0.0f32; n * c * oh * ow];
    let pad = spec.padding as isize;
    let plane_flops = 2 * (oh * ow * kh * kw) as u64;
    pool::for_each_batch_mut(ThreadPool::global(), &mut out, oh * ow, plane_flops, |nc, o_plane| {
        let ci = nc % c;
        let in_base = nc * h * w;
        let w_base = ci * kh * kw;
        let bv = bias.map(|b| b.data()[ci]).unwrap_or(0.0);
        for oi in 0..oh {
            for oj in 0..ow {
                let mut acc = bv;
                for ki in 0..kh {
                    let ii = (oi * spec.stride) as isize + ki as isize - pad;
                    if ii < 0 || ii >= h as isize {
                        continue;
                    }
                    for kj in 0..kw {
                        let jj = (oj * spec.stride) as isize + kj as isize - pad;
                        if jj < 0 || jj >= w as isize {
                            continue;
                        }
                        acc += wd[w_base + ki * kw + kj]
                            * x[in_base + ii as usize * w + jj as usize];
                    }
                }
                o_plane[oi * ow + oj] = acc;
            }
        }
    });
    Tensor::from_vec(out, &[n, c, oh, ow])
}

/// Gradient of [`depthwise_conv2d`] w.r.t. its input.
pub fn depthwise_grad_input(
    grad_out: &Tensor,
    weight: &Tensor,
    input_dims: &[usize],
    spec: Conv2dSpec,
) -> Result<Tensor> {
    let (n, c, oh, ow) = dims4(grad_out);
    let (_, _, kh, kw) = dims4(weight);
    let (h, w) = (input_dims[2], input_dims[3]);
    let g = grad_out.data();
    let wd = weight.data();
    let mut gx = vec![0.0f32; input_dims.iter().product()];
    let pad = spec.padding as isize;
    let _ = n;
    let plane_flops = 2 * (oh * ow * kh * kw) as u64;
    pool::for_each_batch_mut(ThreadPool::global(), &mut gx, h * w, plane_flops, |nc, gx_plane| {
        let ci = nc % c;
        let g_base = nc * oh * ow;
        let w_base = ci * kh * kw;
        for oi in 0..oh {
            for oj in 0..ow {
                let gv = g[g_base + oi * ow + oj];
                for ki in 0..kh {
                    let ii = (oi * spec.stride) as isize + ki as isize - pad;
                    if ii < 0 || ii >= h as isize {
                        continue;
                    }
                    for kj in 0..kw {
                        let jj = (oj * spec.stride) as isize + kj as isize - pad;
                        if jj < 0 || jj >= w as isize {
                            continue;
                        }
                        gx_plane[ii as usize * w + jj as usize] +=
                            gv * wd[w_base + ki * kw + kj];
                    }
                }
            }
        }
    });
    Tensor::from_vec(gx, input_dims)
}

/// Gradient of [`depthwise_conv2d`] w.r.t. its weight. Parallel over
/// channels; each channel folds its image contributions in ascending image
/// order (deterministic).
pub fn depthwise_grad_weight(
    grad_out: &Tensor,
    input: &Tensor,
    weight_dims: &[usize],
    spec: Conv2dSpec,
) -> Result<Tensor> {
    let (n, c, oh, ow) = dims4(grad_out);
    let (_, _, h, w) = dims4(input);
    let (kh, kw) = (weight_dims[2], weight_dims[3]);
    let g = grad_out.data();
    let x = input.data();
    let mut gw = vec![0.0f32; weight_dims.iter().product()];
    let pad = spec.padding as isize;
    let channel_flops = 2 * (n * oh * ow * kh * kw) as u64;
    pool::for_each_batch_mut(ThreadPool::global(), &mut gw, kh * kw, channel_flops, |ci, gw_chan| {
        for ni in 0..n {
            let nc = ni * c + ci;
            let x_base = nc * h * w;
            let g_base = nc * oh * ow;
            for ki in 0..kh {
                for kj in 0..kw {
                    let mut acc = 0.0f32;
                    for oi in 0..oh {
                        let ii = (oi * spec.stride) as isize + ki as isize - pad;
                        if ii < 0 || ii >= h as isize {
                            continue;
                        }
                        for oj in 0..ow {
                            let jj = (oj * spec.stride) as isize + kj as isize - pad;
                            if jj < 0 || jj >= w as isize {
                                continue;
                            }
                            acc += g[g_base + oi * ow + oj]
                                * x[x_base + ii as usize * w + jj as usize];
                        }
                    }
                    gw_chan[ki * kw + kj] += acc;
                }
            }
        }
    });
    Tensor::from_vec(gw, weight_dims)
}

/// Global average pooling `(n, c, h, w) → (n, c)`.
pub fn global_avg_pool(input: &Tensor) -> Result<Tensor> {
    if input.rank() != 4 {
        return Err(TensorError::ShapeMismatch {
            op: "global_avg_pool",
            lhs: input.dims().to_vec(),
            rhs: vec![],
        });
    }
    let (n, c, h, w) = dims4(input);
    let x = input.data();
    let inv = 1.0 / (h * w) as f32;
    let mut out = vec![0.0f32; n * c];
    for nc in 0..n * c {
        out[nc] = x[nc * h * w..(nc + 1) * h * w].iter().sum::<f32>() * inv;
    }
    Tensor::from_vec(out, &[n, c])
}

/// Gradient of [`global_avg_pool`].
pub fn global_avg_pool_grad(grad_out: &Tensor, input_dims: &[usize]) -> Result<Tensor> {
    if grad_out.rank() != 2 || input_dims.len() != 4 {
        return Err(TensorError::ShapeMismatch {
            op: "global_avg_pool_grad",
            lhs: grad_out.dims().to_vec(),
            rhs: input_dims.to_vec(),
        });
    }
    let (h, w) = (input_dims[2], input_dims[3]);
    let inv = 1.0 / (h * w) as f32;
    let g = grad_out.data();
    let mut gx = vec![0.0f32; input_dims.iter().product()];
    for nc in 0..g.len() {
        let gv = g[nc] * inv;
        for v in &mut gx[nc * h * w..(nc + 1) * h * w] {
            *v = gv;
        }
    }
    Tensor::from_vec(gx, input_dims)
}

/// Nearest-neighbour upsampling by an integer factor (DeepLab-style heads).
pub fn upsample_nearest(input: &Tensor, factor: usize) -> Result<Tensor> {
    if input.rank() != 4 || factor == 0 {
        return Err(TensorError::ShapeMismatch {
            op: "upsample_nearest",
            lhs: input.dims().to_vec(),
            rhs: vec![factor],
        });
    }
    let (n, c, h, w) = dims4(input);
    let (oh, ow) = (h * factor, w * factor);
    let x = input.data();
    let mut out = vec![0.0f32; n * c * oh * ow];
    for nc in 0..n * c {
        let ib = nc * h * w;
        let ob = nc * oh * ow;
        for oi in 0..oh {
            let row = ib + (oi / factor) * w;
            let orow = ob + oi * ow;
            for oj in 0..ow {
                out[orow + oj] = x[row + oj / factor];
            }
        }
    }
    Tensor::from_vec(out, &[n, c, oh, ow])
}

/// Gradient of [`upsample_nearest`]: sums gradients over each source pixel's
/// replicas.
pub fn upsample_nearest_grad(grad_out: &Tensor, factor: usize) -> Result<Tensor> {
    if grad_out.rank() != 4 || factor == 0 {
        return Err(TensorError::ShapeMismatch {
            op: "upsample_nearest_grad",
            lhs: grad_out.dims().to_vec(),
            rhs: vec![factor],
        });
    }
    let (n, c, oh, ow) = dims4(grad_out);
    if oh % factor != 0 || ow % factor != 0 {
        return Err(TensorError::Numerical(format!(
            "upsample grad: {oh}x{ow} not divisible by factor {factor}"
        )));
    }
    let (h, w) = (oh / factor, ow / factor);
    let g = grad_out.data();
    let mut gx = vec![0.0f32; n * c * h * w];
    for nc in 0..n * c {
        let gb = nc * oh * ow;
        let xb = nc * h * w;
        for oi in 0..oh {
            let xrow = xb + (oi / factor) * w;
            let grow = gb + oi * ow;
            for oj in 0..ow {
                gx[xrow + oj / factor] += g[grow + oj];
            }
        }
    }
    Tensor::from_vec(gx, &[n, c, h, w])
}

fn dims4(t: &Tensor) -> (usize, usize, usize, usize) {
    let d = t.dims();
    (d[0], d[1], d[2], d[3])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Rng;

    #[test]
    fn out_extent_formula() {
        let s = Conv2dSpec::new(1, 1).unwrap();
        assert_eq!(s.out_extent(8, 3).unwrap(), 8);
        let s2 = Conv2dSpec::new(2, 1).unwrap();
        assert_eq!(s2.out_extent(8, 3).unwrap(), 4);
        assert!(Conv2dSpec::new(0, 0).is_err());
    }

    #[test]
    fn conv2d_identity_kernel_preserves_input() {
        // A 1x1 kernel with weight 1 is the identity map.
        let mut rng = Rng::new(1);
        let x = Tensor::randn(&[2, 3, 5, 5], &mut rng);
        let mut w = Tensor::zeros(&[3, 3, 1, 1]);
        for c in 0..3 {
            w.set(&[c, c, 0, 0], 1.0).unwrap();
        }
        let y = conv2d(&x, &w, None, Conv2dSpec::new(1, 0).unwrap()).unwrap();
        assert!(y.allclose(&x, 1e-6));
    }

    #[test]
    fn conv2d_matches_hand_computed_3x3() {
        // Single-channel 3x3 input, 2x2 kernel, stride 1, no padding.
        let x = Tensor::from_vec(
            vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0],
            &[1, 1, 3, 3],
        )
        .unwrap();
        let w = Tensor::from_vec(vec![1.0, 0.0, 0.0, 1.0], &[1, 1, 2, 2]).unwrap();
        let y = conv2d(&x, &w, None, Conv2dSpec::new(1, 0).unwrap()).unwrap();
        // Each output = x[i,j] + x[i+1,j+1].
        assert_eq!(y.data(), &[6.0, 8.0, 12.0, 14.0]);
    }

    #[test]
    fn conv2d_bias_adds_per_channel() {
        let x = Tensor::ones(&[1, 1, 2, 2]);
        let w = Tensor::ones(&[2, 1, 1, 1]);
        let b = Tensor::from_vec(vec![10.0, 20.0], &[2]).unwrap();
        let y = conv2d(&x, &w, Some(&b), Conv2dSpec::new(1, 0).unwrap()).unwrap();
        assert_eq!(y.narrow(1, 0, 1).unwrap().data(), &[11.0; 4]);
        assert_eq!(y.narrow(1, 1, 1).unwrap().data(), &[21.0; 4]);
    }

    #[test]
    fn conv2d_padding_grows_output() {
        let x = Tensor::ones(&[1, 1, 3, 3]);
        let w = Tensor::ones(&[1, 1, 3, 3]);
        let y = conv2d(&x, &w, None, Conv2dSpec::new(1, 1).unwrap()).unwrap();
        assert_eq!(y.dims(), &[1, 1, 3, 3]);
        // Centre sees all 9 ones; corners see 4.
        assert_eq!(y.at(&[0, 0, 1, 1]).unwrap(), 9.0);
        assert_eq!(y.at(&[0, 0, 0, 0]).unwrap(), 4.0);
    }

    /// The blocked GEMM path must agree with the seed's direct loops on
    /// every geometry variation (odd extents, stride, padding).
    #[test]
    fn conv2d_matches_reference_kernels() {
        let mut rng = Rng::new(40);
        for &(n, c_in, c_out, h, w, kh, kw, stride, pad) in &[
            (1usize, 1usize, 1usize, 5usize, 5usize, 3usize, 3usize, 1usize, 0usize),
            (2, 3, 4, 7, 9, 3, 3, 1, 1),
            (3, 2, 5, 8, 6, 3, 2, 2, 1),
            (1, 4, 3, 11, 7, 5, 3, 3, 2),
        ] {
            let spec = Conv2dSpec::new(stride, pad).unwrap();
            let x = Tensor::randn(&[n, c_in, h, w], &mut rng);
            let wt = Tensor::randn(&[c_out, c_in, kh, kw], &mut rng);
            let b = Tensor::randn(&[c_out], &mut rng);
            let y = conv2d(&x, &wt, Some(&b), spec).unwrap();
            let y_ref = reference::conv2d(&x, &wt, Some(&b), spec).unwrap();
            assert!(
                y.allclose(&y_ref, 1e-4),
                "forward mismatch at ({n},{c_in},{c_out},{h},{w},{kh},{kw},s{stride},p{pad})"
            );
            let g = Tensor::randn(y.dims(), &mut rng);
            let gx = conv2d_grad_input(&g, &wt, x.dims(), spec).unwrap();
            let gx_ref = reference::conv2d_grad_input(&g, &wt, x.dims(), spec).unwrap();
            assert!(gx.allclose(&gx_ref, 1e-4), "grad_input mismatch");
            let gw = conv2d_grad_weight(&g, &x, wt.dims(), spec).unwrap();
            let gw_ref = reference::conv2d_grad_weight(&g, &x, wt.dims(), spec).unwrap();
            assert!(gw.allclose(&gw_ref, 1e-3), "grad_weight mismatch");
        }
    }

    /// Regression for the seed's `wv == 0.0` skip: a zero weight times a
    /// NaN input must produce NaN, not silently drop the term.
    #[test]
    fn conv2d_propagates_nan_through_zero_weight() {
        let mut x = Tensor::zeros(&[1, 1, 3, 3]);
        x.set(&[0, 0, 1, 1], f32::NAN).unwrap();
        let w = Tensor::zeros(&[1, 1, 3, 3]);
        let spec = Conv2dSpec::new(1, 1).unwrap();
        let y = conv2d(&x, &w, None, spec).unwrap();
        assert!(y.at(&[0, 0, 1, 1]).unwrap().is_nan(), "blocked path");
        let y_ref = reference::conv2d(&x, &w, None, spec).unwrap();
        assert!(y_ref.at(&[0, 0, 1, 1]).unwrap().is_nan(), "reference path");
        let gi = conv2d_grad_input(&y_ref.map(|_| f32::NAN), &w, x.dims(), spec).unwrap();
        assert!(gi.data().iter().any(|v| v.is_nan()), "grad_input path");
    }

    /// Numerically checks `conv2d_grad_input` and `conv2d_grad_weight`
    /// against central finite differences of the forward kernel.
    #[test]
    fn conv2d_gradients_match_finite_differences() {
        let mut rng = Rng::new(3);
        let x = Tensor::randn(&[1, 2, 4, 4], &mut rng);
        let w = Tensor::randn(&[2, 2, 3, 3], &mut rng);
        let spec = Conv2dSpec::new(2, 1).unwrap();
        let y = conv2d(&x, &w, None, spec).unwrap();
        // Loss = sum(y * c) for a fixed random c, so dL/dy = c.
        let c = Tensor::randn(y.dims(), &mut rng);
        let gx = conv2d_grad_input(&c, &w, x.dims(), spec).unwrap();
        let gw = conv2d_grad_weight(&c, &x, w.dims(), spec).unwrap();
        let eps = 1e-2f32;
        let loss = |x: &Tensor, w: &Tensor| {
            conv2d(x, w, None, spec).unwrap().dot(&c).unwrap()
        };
        for probe in [0usize, 5, 17, 31] {
            let mut xp = x.clone();
            xp.data_mut()[probe] += eps;
            let mut xm = x.clone();
            xm.data_mut()[probe] -= eps;
            let num = (loss(&xp, &w) - loss(&xm, &w)) / (2.0 * eps);
            assert!(
                (num - gx.data()[probe]).abs() < 1e-2,
                "input grad {probe}: analytic {} vs numeric {num}",
                gx.data()[probe]
            );
            let mut wp = w.clone();
            wp.data_mut()[probe] += eps;
            let mut wm = w.clone();
            wm.data_mut()[probe] -= eps;
            let num = (loss(&x, &wp) - loss(&x, &wm)) / (2.0 * eps);
            assert!(
                (num - gw.data()[probe]).abs() < 1e-2,
                "weight grad {probe}: analytic {} vs numeric {num}",
                gw.data()[probe]
            );
        }
    }

    #[test]
    fn depthwise_matches_grouped_full_conv() {
        // A depthwise conv equals a full conv whose weight is block-diagonal
        // across channels.
        let mut rng = Rng::new(21);
        let x = Tensor::randn(&[2, 3, 5, 5], &mut rng);
        let wd = Tensor::randn(&[3, 1, 3, 3], &mut rng);
        let spec = Conv2dSpec::new(1, 1).unwrap();
        let y = depthwise_conv2d(&x, &wd, None, spec).unwrap();
        let mut wf = Tensor::zeros(&[3, 3, 3, 3]);
        for c in 0..3 {
            for ki in 0..3 {
                for kj in 0..3 {
                    let v = wd.at(&[c, 0, ki, kj]).unwrap();
                    wf.set(&[c, c, ki, kj], v).unwrap();
                }
            }
        }
        let y_full = conv2d(&x, &wf, None, spec).unwrap();
        assert!(y.allclose(&y_full, 1e-4));
    }

    #[test]
    fn depthwise_gradients_match_finite_differences() {
        let mut rng = Rng::new(22);
        let x = Tensor::randn(&[1, 2, 4, 4], &mut rng);
        let w = Tensor::randn(&[2, 1, 3, 3], &mut rng);
        let spec = Conv2dSpec::new(2, 1).unwrap();
        let y = depthwise_conv2d(&x, &w, None, spec).unwrap();
        let c = Tensor::randn(y.dims(), &mut rng);
        let gx = depthwise_grad_input(&c, &w, x.dims(), spec).unwrap();
        let gw = depthwise_grad_weight(&c, &x, w.dims(), spec).unwrap();
        let eps = 1e-2f32;
        let loss =
            |x: &Tensor, w: &Tensor| depthwise_conv2d(x, w, None, spec).unwrap().dot(&c).unwrap();
        for probe in [0usize, 7, 15] {
            let mut xp = x.clone();
            xp.data_mut()[probe] += eps;
            let mut xm = x.clone();
            xm.data_mut()[probe] -= eps;
            let num = (loss(&xp, &w) - loss(&xm, &w)) / (2.0 * eps);
            assert!((num - gx.data()[probe]).abs() < 1e-2);
            let mut wp = w.clone();
            wp.data_mut()[probe] += eps;
            let mut wm = w.clone();
            wm.data_mut()[probe] -= eps;
            let num = (loss(&x, &wp) - loss(&x, &wm)) / (2.0 * eps);
            assert!((num - gw.data()[probe]).abs() < 1e-2);
        }
    }

    #[test]
    fn depthwise_rejects_multi_channel_filters() {
        let x = Tensor::zeros(&[1, 2, 4, 4]);
        let w = Tensor::zeros(&[2, 2, 3, 3]);
        assert!(depthwise_conv2d(&x, &w, None, Conv2dSpec::new(1, 1).unwrap()).is_err());
    }

    #[test]
    fn global_avg_pool_and_grad() {
        let x = Tensor::arange(8).reshape(&[1, 2, 2, 2]).unwrap();
        let y = global_avg_pool(&x).unwrap();
        assert_eq!(y.dims(), &[1, 2]);
        assert_eq!(y.data(), &[1.5, 5.5]);
        let g = Tensor::from_vec(vec![4.0, 8.0], &[1, 2]).unwrap();
        let gx = global_avg_pool_grad(&g, x.dims()).unwrap();
        assert_eq!(gx.data()[..4], [1.0; 4]);
        assert_eq!(gx.data()[4..], [2.0; 4]);
    }

    #[test]
    fn upsample_and_grad_are_adjoint() {
        // <up(x), g> == <x, up_grad(g)> for all x, g (adjointness).
        let mut rng = Rng::new(9);
        let x = Tensor::randn(&[1, 2, 3, 3], &mut rng);
        let up = upsample_nearest(&x, 2).unwrap();
        assert_eq!(up.dims(), &[1, 2, 6, 6]);
        let g = Tensor::randn(up.dims(), &mut rng);
        let lhs = up.dot(&g).unwrap();
        let rhs = x.dot(&upsample_nearest_grad(&g, 2).unwrap()).unwrap();
        assert!((lhs - rhs).abs() < 1e-3, "{lhs} vs {rhs}");
    }

    #[test]
    fn upsample_replicates_pixels() {
        let x = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[1, 1, 2, 2]).unwrap();
        let y = upsample_nearest(&x, 2).unwrap();
        assert_eq!(y.at(&[0, 0, 0, 0]).unwrap(), 1.0);
        assert_eq!(y.at(&[0, 0, 1, 1]).unwrap(), 1.0);
        assert_eq!(y.at(&[0, 0, 2, 3]).unwrap(), 4.0);
    }
}
