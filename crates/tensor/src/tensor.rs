//! The dense, contiguous, row-major `f32` tensor.

use crate::error::{Result, TensorError};
use crate::gemm::{gemm, Layout};
use crate::pool::{self, ThreadPool};
use crate::rng::Rng;
use crate::shape::Shape;
use crate::simd;

/// A dense n-dimensional array of `f32` stored contiguously in row-major
/// order.
///
/// All operations allocate fresh output tensors unless the name ends in
/// `_inplace`. Fallible operations (anything whose validity depends on
/// shapes) return [`Result`]; infallible accessors panic only on programmer
/// error (documented per method).
#[derive(Debug, Clone, PartialEq)]
pub struct Tensor {
    data: Vec<f32>,
    shape: Shape,
}

impl Tensor {
    // ------------------------------------------------------------------
    // Construction
    // ------------------------------------------------------------------

    /// Creates a tensor from raw data and a shape.
    ///
    /// Returns an error if `data.len()` does not match the shape's element
    /// count.
    pub fn from_vec(data: Vec<f32>, dims: &[usize]) -> Result<Self> {
        let shape = Shape::new(dims);
        if data.len() != shape.numel() {
            return Err(TensorError::InvalidReshape {
                from: vec![data.len()],
                to: dims.to_vec(),
            });
        }
        Ok(Tensor { data, shape })
    }

    /// Creates a zero-filled tensor.
    pub fn zeros(dims: &[usize]) -> Self {
        let shape = Shape::new(dims);
        Tensor {
            data: vec![0.0; shape.numel()],
            shape,
        }
    }

    /// Creates a one-filled tensor.
    pub fn ones(dims: &[usize]) -> Self {
        Self::full(dims, 1.0)
    }

    /// Creates a tensor filled with `value`.
    pub fn full(dims: &[usize], value: f32) -> Self {
        let shape = Shape::new(dims);
        Tensor {
            data: vec![value; shape.numel()],
            shape,
        }
    }

    /// Creates a rank-0 (scalar) tensor.
    pub fn scalar(value: f32) -> Self {
        Tensor {
            data: vec![value],
            shape: Shape::new(&[]),
        }
    }

    /// Creates a tensor of standard-normal samples using the given RNG.
    pub fn randn(dims: &[usize], rng: &mut Rng) -> Self {
        let shape = Shape::new(dims);
        let data = (0..shape.numel()).map(|_| rng.normal()).collect();
        Tensor { data, shape }
    }

    /// Creates a 1-D tensor `[0, 1, ..., n-1]`.
    pub fn arange(n: usize) -> Self {
        Tensor {
            data: (0..n).map(|i| i as f32).collect(),
            shape: Shape::new(&[n]),
        }
    }

    /// Creates an `n`×`n` identity matrix.
    pub fn eye(n: usize) -> Self {
        let mut t = Tensor::zeros(&[n, n]);
        for i in 0..n {
            t.data[i * n + i] = 1.0;
        }
        t
    }

    // ------------------------------------------------------------------
    // Accessors
    // ------------------------------------------------------------------

    /// The tensor shape.
    pub fn shape(&self) -> &Shape {
        &self.shape
    }

    /// Dimension extents as a slice.
    pub fn dims(&self) -> &[usize] {
        self.shape.dims()
    }

    /// Number of dimensions.
    pub fn rank(&self) -> usize {
        self.shape.rank()
    }

    /// Total number of elements.
    pub fn numel(&self) -> usize {
        self.shape.numel()
    }

    /// Immutable view of the underlying row-major buffer.
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Mutable view of the underlying row-major buffer.
    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Element at a multi-dimensional index.
    pub fn at(&self, index: &[usize]) -> Result<f32> {
        Ok(self.data[self.shape.offset(index)?])
    }

    /// Sets the element at a multi-dimensional index.
    pub fn set(&mut self, index: &[usize], value: f32) -> Result<()> {
        let off = self.shape.offset(index)?;
        self.data[off] = value;
        Ok(())
    }

    /// The single value of a rank-0 or single-element tensor.
    ///
    /// Returns an error if the tensor has more than one element.
    pub fn item(&self) -> Result<f32> {
        if self.numel() != 1 {
            return Err(TensorError::ShapeMismatch {
                op: "item",
                lhs: self.dims().to_vec(),
                rhs: vec![1],
            });
        }
        Ok(self.data[0])
    }

    // ------------------------------------------------------------------
    // Shape manipulation
    // ------------------------------------------------------------------

    /// Reshapes to `dims` (same element count, zero-copy for the buffer).
    pub fn reshape(&self, dims: &[usize]) -> Result<Tensor> {
        let target = Shape::new(dims);
        if target.numel() != self.numel() {
            return Err(TensorError::InvalidReshape {
                from: self.dims().to_vec(),
                to: dims.to_vec(),
            });
        }
        Ok(Tensor {
            data: self.data.clone(),
            shape: target,
        })
    }

    /// Flattens to 1-D.
    pub fn flatten(&self) -> Tensor {
        Tensor {
            data: self.data.clone(),
            shape: Shape::new(&[self.numel()]),
        }
    }

    /// Transposes a 2-D tensor.
    pub fn transpose2d(&self) -> Result<Tensor> {
        if self.rank() != 2 {
            return Err(TensorError::ShapeMismatch {
                op: "transpose2d",
                lhs: self.dims().to_vec(),
                rhs: vec![],
            });
        }
        let (r, c) = (self.dims()[0], self.dims()[1]);
        let mut out = vec![0.0f32; r * c];
        for i in 0..r {
            for j in 0..c {
                out[j * r + i] = self.data[i * c + j];
            }
        }
        Tensor::from_vec(out, &[c, r])
    }

    /// Permutes dimensions according to `perm` (a permutation of `0..rank`).
    pub fn permute(&self, perm: &[usize]) -> Result<Tensor> {
        let rank = self.rank();
        if perm.len() != rank {
            return Err(TensorError::ShapeMismatch {
                op: "permute",
                lhs: self.dims().to_vec(),
                rhs: perm.to_vec(),
            });
        }
        let mut seen = vec![false; rank];
        for &p in perm {
            if p >= rank || seen[p] {
                return Err(TensorError::AxisOutOfRange { axis: p, rank });
            }
            seen[p] = true;
        }
        let src_strides = self.shape.strides();
        let out_dims: Vec<usize> = perm.iter().map(|&p| self.dims()[p]).collect();
        let out_shape = Shape::new(&out_dims);
        let mut out = vec![0.0f32; self.numel()];
        let mut index = vec![0usize; rank];
        for slot in out.iter_mut() {
            let mut src_off = 0usize;
            for (k, &i) in index.iter().enumerate() {
                src_off += i * src_strides[perm[k]];
            }
            *slot = self.data[src_off];
            // Advance the row-major index over the output shape.
            for k in (0..rank).rev() {
                index[k] += 1;
                if index[k] < out_dims[k] {
                    break;
                }
                index[k] = 0;
            }
        }
        Ok(Tensor {
            data: out,
            shape: out_shape,
        })
    }

    /// Concatenates tensors along `axis`; all other extents must match.
    pub fn concat(parts: &[&Tensor], axis: usize) -> Result<Tensor> {
        let first = parts
            .first()
            .ok_or_else(|| TensorError::Numerical("concat of empty tensor list".into()))?;
        let rank = first.rank();
        if axis >= rank {
            return Err(TensorError::AxisOutOfRange { axis, rank });
        }
        let mut axis_total = 0usize;
        for p in parts {
            if p.rank() != rank {
                return Err(TensorError::ShapeMismatch {
                    op: "concat",
                    lhs: first.dims().to_vec(),
                    rhs: p.dims().to_vec(),
                });
            }
            for d in 0..rank {
                if d != axis && p.dims()[d] != first.dims()[d] {
                    return Err(TensorError::ShapeMismatch {
                        op: "concat",
                        lhs: first.dims().to_vec(),
                        rhs: p.dims().to_vec(),
                    });
                }
            }
            axis_total += p.dims()[axis];
        }
        let mut out_dims = first.dims().to_vec();
        out_dims[axis] = axis_total;
        let outer: usize = first.dims()[..axis].iter().product();
        let inner: usize = first.dims()[axis + 1..].iter().product();
        let mut out = Vec::with_capacity(outer * axis_total * inner);
        for o in 0..outer {
            for p in parts {
                let a = p.dims()[axis];
                let start = o * a * inner;
                out.extend_from_slice(&p.data[start..start + a * inner]);
            }
        }
        Tensor::from_vec(out, &out_dims)
    }

    /// Extracts the sub-tensor `[start, start+len)` along `axis`.
    pub fn narrow(&self, axis: usize, start: usize, len: usize) -> Result<Tensor> {
        let rank = self.rank();
        if axis >= rank {
            return Err(TensorError::AxisOutOfRange { axis, rank });
        }
        let extent = self.dims()[axis];
        if start + len > extent {
            return Err(TensorError::IndexOutOfBounds {
                index: vec![start + len],
                shape: self.dims().to_vec(),
            });
        }
        let outer: usize = self.dims()[..axis].iter().product();
        let inner: usize = self.dims()[axis + 1..].iter().product();
        let mut out = Vec::with_capacity(outer * len * inner);
        for o in 0..outer {
            let base = (o * extent + start) * inner;
            out.extend_from_slice(&self.data[base..base + len * inner]);
        }
        let mut dims = self.dims().to_vec();
        dims[axis] = len;
        Tensor::from_vec(out, &dims)
    }

    // ------------------------------------------------------------------
    // Elementwise & broadcasting arithmetic
    // ------------------------------------------------------------------

    /// Applies `f` to every element, producing a new tensor.
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Tensor {
        Tensor {
            data: self.data.iter().map(|&x| f(x)).collect(),
            shape: self.shape.clone(),
        }
    }

    /// Applies `f` to every element in place.
    pub fn map_inplace(&mut self, f: impl Fn(f32) -> f32) {
        for x in &mut self.data {
            *x = f(*x);
        }
    }

    fn binary_broadcast(
        &self,
        other: &Tensor,
        op: &'static str,
        f: impl Fn(f32, f32) -> f32 + Sync,
    ) -> Result<Tensor> {
        if self.shape == other.shape {
            // Fast path: identical shapes, no index arithmetic; chunked
            // across the pool (pure per-element map, trivially
            // deterministic).
            let mut data = vec![0.0f32; self.data.len()];
            pool::for_each_chunk_mut(ThreadPool::global(), &mut data, |ci, chunk| {
                let start = ci * pool::CHUNK;
                for (j, slot) in chunk.iter_mut().enumerate() {
                    *slot = f(self.data[start + j], other.data[start + j]);
                }
            });
            return Ok(Tensor {
                data,
                shape: self.shape.clone(),
            });
        }
        let target =
            self.shape
                .broadcast(&other.shape)
                .map_err(|_| TensorError::ShapeMismatch {
                    op,
                    lhs: self.dims().to_vec(),
                    rhs: other.dims().to_vec(),
                })?;
        let ls = self.shape.broadcast_strides(&target)?;
        let rs = other.shape.broadcast_strides(&target)?;
        let rank = target.rank();
        let dims = target.dims().to_vec();
        let mut out = vec![0.0f32; target.numel()];
        let mut index = vec![0usize; rank];
        for slot in out.iter_mut() {
            let mut lo = 0usize;
            let mut ro = 0usize;
            for k in 0..rank {
                lo += index[k] * ls[k];
                ro += index[k] * rs[k];
            }
            *slot = f(self.data[lo], other.data[ro]);
            for k in (0..rank).rev() {
                index[k] += 1;
                if index[k] < dims[k] {
                    break;
                }
                index[k] = 0;
            }
        }
        Ok(Tensor {
            data: out,
            shape: target,
        })
    }

    /// Elementwise addition with broadcasting.
    pub fn add(&self, other: &Tensor) -> Result<Tensor> {
        self.binary_broadcast(other, "add", |a, b| a + b)
    }

    /// Elementwise subtraction with broadcasting.
    pub fn sub(&self, other: &Tensor) -> Result<Tensor> {
        self.binary_broadcast(other, "sub", |a, b| a - b)
    }

    /// Elementwise multiplication with broadcasting.
    pub fn mul(&self, other: &Tensor) -> Result<Tensor> {
        self.binary_broadcast(other, "mul", |a, b| a * b)
    }

    /// Elementwise division with broadcasting.
    pub fn div(&self, other: &Tensor) -> Result<Tensor> {
        self.binary_broadcast(other, "div", |a, b| a / b)
    }

    /// Adds a scalar to every element.
    pub fn add_scalar(&self, s: f32) -> Tensor {
        self.map(|x| x + s)
    }

    /// Multiplies every element by a scalar.
    pub fn mul_scalar(&self, s: f32) -> Tensor {
        self.map(|x| x * s)
    }

    /// In-place `self += alpha * other` for same-shape tensors (the SGD
    /// update kernel). Chunk-parallel; per-element, so deterministic.
    pub fn axpy_inplace(&mut self, alpha: f32, other: &Tensor) -> Result<()> {
        if self.shape != other.shape {
            return Err(TensorError::ShapeMismatch {
                op: "axpy",
                lhs: self.dims().to_vec(),
                rhs: other.dims().to_vec(),
            });
        }
        pool::for_each_chunk_mut_zip(ThreadPool::global(), &mut self.data, &other.data, |d, s| {
            simd::axpy(d, s, alpha)
        });
        Ok(())
    }

    /// In-place `self = decay * self + alpha * other` (the fused momentum /
    /// first-moment update used by the optimizers).
    pub fn decay_axpy_inplace(&mut self, decay: f32, alpha: f32, other: &Tensor) -> Result<()> {
        if self.shape != other.shape {
            return Err(TensorError::ShapeMismatch {
                op: "decay_axpy",
                lhs: self.dims().to_vec(),
                rhs: other.dims().to_vec(),
            });
        }
        pool::for_each_chunk_mut_zip(ThreadPool::global(), &mut self.data, &other.data, |d, s| {
            simd::decay_axpy(d, s, decay, alpha)
        });
        Ok(())
    }

    /// In-place `self = decay * self + (1 - decay) * other²` (Adam's second
    /// moment, fused so the gradient square never materializes).
    pub fn ema_sq_inplace(&mut self, decay: f32, other: &Tensor) -> Result<()> {
        if self.shape != other.shape {
            return Err(TensorError::ShapeMismatch {
                op: "ema_sq",
                lhs: self.dims().to_vec(),
                rhs: other.dims().to_vec(),
            });
        }
        let w = 1.0 - decay;
        pool::for_each_chunk_mut_zip(ThreadPool::global(), &mut self.data, &other.data, |d, s| {
            simd::ema_sq(d, s, decay, w)
        });
        Ok(())
    }

    /// In-place Adam parameter update:
    /// `self -= lr * (m / bc1) / (sqrt(v / bc2) + eps)`.
    pub fn adam_update_inplace(
        &mut self,
        lr: f32,
        eps: f32,
        bc1: f32,
        bc2: f32,
        m: &Tensor,
        v: &Tensor,
    ) -> Result<()> {
        // Validate each operand separately so the error names the moment
        // tensor that actually disagrees — the chunk-parallel path below
        // slices both unchecked.
        if self.shape != m.shape {
            return Err(TensorError::ShapeMismatch {
                op: "adam_update (param vs m)",
                lhs: self.dims().to_vec(),
                rhs: m.dims().to_vec(),
            });
        }
        if self.shape != v.shape {
            return Err(TensorError::ShapeMismatch {
                op: "adam_update (param vs v)",
                lhs: self.dims().to_vec(),
                rhs: v.dims().to_vec(),
            });
        }
        pool::for_each_chunk_mut(ThreadPool::global(), &mut self.data, |ci, chunk| {
            let start = ci * pool::CHUNK;
            let mc = &m.data[start..start + chunk.len()];
            let vc = &v.data[start..start + chunk.len()];
            simd::adam_update(chunk, mc, vc, lr, eps, bc1, bc2);
        });
        Ok(())
    }

    /// In-place scaling of every element.
    pub fn scale_inplace(&mut self, s: f32) {
        pool::for_each_chunk_mut(ThreadPool::global(), &mut self.data, |_, chunk| {
            for a in chunk {
                *a *= s;
            }
        });
    }

    // ------------------------------------------------------------------
    // Reductions
    // ------------------------------------------------------------------

    /// Sum of all elements.
    ///
    /// Parallel with fixed chunk geometry and an ordered partial fold, so
    /// the result is bit-identical for every thread count (and equal to the
    /// plain serial fold for tensors up to one chunk).
    pub fn sum(&self) -> f32 {
        pool::reduce_chunks(ThreadPool::global(), self.data.len(), |r| {
            self.data[r].iter().sum()
        })
    }

    /// Mean of all elements (0 for an empty tensor).
    pub fn mean(&self) -> f32 {
        if self.data.is_empty() {
            0.0
        } else {
            self.sum() / self.data.len() as f32
        }
    }

    /// Maximum element (negative infinity for an empty tensor).
    pub fn max(&self) -> f32 {
        self.data.iter().copied().fold(f32::NEG_INFINITY, f32::max)
    }

    /// Minimum element (positive infinity for an empty tensor).
    pub fn min(&self) -> f32 {
        self.data.iter().copied().fold(f32::INFINITY, f32::min)
    }

    /// Squared Frobenius norm (sum of squares). Deterministic parallel
    /// reduction (see [`Tensor::sum`]).
    pub fn sq_norm(&self) -> f32 {
        pool::reduce_chunks(ThreadPool::global(), self.data.len(), |r| {
            self.data[r].iter().map(|&x| x * x).sum()
        })
    }

    /// Frobenius / L2 norm.
    pub fn norm(&self) -> f32 {
        self.sq_norm().sqrt()
    }

    /// Dot product of two same-shape tensors viewed as flat vectors.
    pub fn dot(&self, other: &Tensor) -> Result<f32> {
        if self.numel() != other.numel() {
            return Err(TensorError::ShapeMismatch {
                op: "dot",
                lhs: self.dims().to_vec(),
                rhs: other.dims().to_vec(),
            });
        }
        Ok(pool::reduce_chunks(
            ThreadPool::global(),
            self.data.len(),
            |r| {
                self.data[r.clone()]
                    .iter()
                    .zip(other.data[r].iter())
                    .map(|(&a, &b)| a * b)
                    .sum()
            },
        ))
    }

    /// Sums along `axis`, removing that dimension.
    pub fn sum_axis(&self, axis: usize) -> Result<Tensor> {
        let rank = self.rank();
        if axis >= rank {
            return Err(TensorError::AxisOutOfRange { axis, rank });
        }
        let outer: usize = self.dims()[..axis].iter().product();
        let extent = self.dims()[axis];
        let inner: usize = self.dims()[axis + 1..].iter().product();
        let mut out = vec![0.0f32; outer * inner];
        for o in 0..outer {
            for e in 0..extent {
                let base = (o * extent + e) * inner;
                for i in 0..inner {
                    out[o * inner + i] += self.data[base + i];
                }
            }
        }
        let mut dims = self.dims().to_vec();
        dims.remove(axis);
        Tensor::from_vec(out, &dims)
    }

    /// Means along `axis`, removing that dimension.
    pub fn mean_axis(&self, axis: usize) -> Result<Tensor> {
        let extent = *self.dims().get(axis).ok_or(TensorError::AxisOutOfRange {
            axis,
            rank: self.rank(),
        })?;
        Ok(self.sum_axis(axis)?.mul_scalar(1.0 / extent.max(1) as f32))
    }

    /// Index of the maximum element along the last axis, one per leading row.
    ///
    /// For a `(b, k)` logits tensor this is the per-sample predicted class.
    pub fn argmax_last(&self) -> Result<Vec<usize>> {
        if self.rank() == 0 {
            return Ok(vec![0]);
        }
        let k = *self.dims().last().expect("rank checked above");
        if k == 0 {
            return Err(TensorError::Numerical("argmax over empty axis".into()));
        }
        let rows = self.numel() / k;
        let mut out = Vec::with_capacity(rows);
        for r in 0..rows {
            let row = &self.data[r * k..(r + 1) * k];
            let mut best = 0usize;
            for (j, &v) in row.iter().enumerate() {
                if v > row[best] {
                    best = j;
                }
            }
            out.push(best);
        }
        Ok(out)
    }

    // ------------------------------------------------------------------
    // Matrix multiplication
    // ------------------------------------------------------------------

    /// Shared driver for the four 2-D product variants. `a_rows`/`b_rows`
    /// are the *storage* shapes; `m`/`n`/`k` the logical GEMM extents.
    #[allow(clippy::too_many_arguments)]
    fn matmul_impl(
        &self,
        other: &Tensor,
        op: &'static str,
        a_layout: Layout,
        b_layout: Layout,
    ) -> Result<Tensor> {
        if self.rank() != 2 || other.rank() != 2 {
            return Err(TensorError::ShapeMismatch {
                op,
                lhs: self.dims().to_vec(),
                rhs: other.dims().to_vec(),
            });
        }
        let (m, k) = match a_layout {
            Layout::RowMajor => (self.dims()[0], self.dims()[1]),
            Layout::Transposed => (self.dims()[1], self.dims()[0]),
        };
        let (bk, n) = match b_layout {
            Layout::RowMajor => (other.dims()[0], other.dims()[1]),
            Layout::Transposed => (other.dims()[1], other.dims()[0]),
        };
        if k != bk {
            return Err(TensorError::ShapeMismatch {
                op,
                lhs: self.dims().to_vec(),
                rhs: other.dims().to_vec(),
            });
        }
        let mut out = vec![0.0f32; m * n];
        gemm(
            ThreadPool::global(),
            &self.data,
            a_layout,
            &other.data,
            b_layout,
            m,
            n,
            k,
            &mut out,
        );
        Tensor::from_vec(out, &[m, n])
    }

    /// 2-D matrix product `self (m×k) · other (k×n) → (m×n)`.
    ///
    /// Runs on the parallel blocked GEMM ([`crate::gemm`]); deterministic
    /// for every thread count.
    pub fn matmul(&self, other: &Tensor) -> Result<Tensor> {
        self.matmul_impl(other, "matmul", Layout::RowMajor, Layout::RowMajor)
    }

    /// `self (m×k) · otherᵀ` where `other` is stored `(n×k)` — the linear
    /// layer forward (`x · Wᵀ`) without materializing the transpose.
    pub fn matmul_tb(&self, other: &Tensor) -> Result<Tensor> {
        self.matmul_impl(other, "matmul_tb", Layout::RowMajor, Layout::Transposed)
    }

    /// `selfᵀ · other` where `self` is stored `(k×m)` — the weight-gradient
    /// product (`gᵀ · x`) without materializing the transpose.
    pub fn matmul_ta(&self, other: &Tensor) -> Result<Tensor> {
        self.matmul_impl(other, "matmul_ta", Layout::Transposed, Layout::RowMajor)
    }

    /// Shared driver for the batched product variants.
    fn bmm_impl(
        &self,
        other: &Tensor,
        op: &'static str,
        a_layout: Layout,
        b_layout: Layout,
    ) -> Result<Tensor> {
        if self.rank() != 3 || other.rank() != 3 || self.dims()[0] != other.dims()[0] {
            return Err(TensorError::ShapeMismatch {
                op,
                lhs: self.dims().to_vec(),
                rhs: other.dims().to_vec(),
            });
        }
        let (m, k) = match a_layout {
            Layout::RowMajor => (self.dims()[1], self.dims()[2]),
            Layout::Transposed => (self.dims()[2], self.dims()[1]),
        };
        let (bk, n) = match b_layout {
            Layout::RowMajor => (other.dims()[1], other.dims()[2]),
            Layout::Transposed => (other.dims()[2], other.dims()[1]),
        };
        if k != bk {
            return Err(TensorError::ShapeMismatch {
                op,
                lhs: self.dims().to_vec(),
                rhs: other.dims().to_vec(),
            });
        }
        let b = self.dims()[0];
        let mut out = vec![0.0f32; b * m * n];
        // Parallel over the batch; each task owns one output matrix. Inner
        // GEMMs run inline inside pool tasks (single-batch calls still
        // parallelize internally).
        let a_sz = m * k;
        let b_sz = k * n;
        let o_sz = m * n;
        let pool_ref = ThreadPool::global();
        let gemm_flops = 2 * (m * n * k) as u64;
        pool::for_each_batch_mut(pool_ref, &mut out, o_sz, gemm_flops, |bi, o_slice| {
            let a_slice = &self.data[bi * a_sz..(bi + 1) * a_sz];
            let b_slice = &other.data[bi * b_sz..(bi + 1) * b_sz];
            gemm(
                pool_ref, a_slice, a_layout, b_slice, b_layout, m, n, k, o_slice,
            );
        });
        Tensor::from_vec(out, &[b, m, n])
    }

    /// Batched 3-D matmul: `(b, m, k) · (b, k, n) → (b, m, n)`, parallel
    /// over the batch dimension.
    pub fn bmm(&self, other: &Tensor) -> Result<Tensor> {
        self.bmm_impl(other, "bmm", Layout::RowMajor, Layout::RowMajor)
    }

    /// Batched `self (b,m,k) · otherᵀ` with `other` stored `(b,n,k)` — the
    /// attention score product (`Q · Kᵀ`) without permuting K.
    pub fn bmm_tb(&self, other: &Tensor) -> Result<Tensor> {
        self.bmm_impl(other, "bmm_tb", Layout::RowMajor, Layout::Transposed)
    }

    /// Batched `selfᵀ · other` with `self` stored `(b,k,m)` — the attention
    /// backward products (`Pᵀ · G`) without permuting P.
    pub fn bmm_ta(&self, other: &Tensor) -> Result<Tensor> {
        self.bmm_impl(other, "bmm_ta", Layout::Transposed, Layout::RowMajor)
    }

    /// Checks approximate equality within an absolute tolerance.
    pub fn allclose(&self, other: &Tensor, atol: f32) -> bool {
        self.shape == other.shape
            && self
                .data
                .iter()
                .zip(other.data.iter())
                .all(|(&a, &b)| (a - b).abs() <= atol)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(data: &[f32], dims: &[usize]) -> Tensor {
        Tensor::from_vec(data.to_vec(), dims).unwrap()
    }

    #[test]
    fn from_vec_checks_length() {
        assert!(Tensor::from_vec(vec![1.0, 2.0], &[3]).is_err());
        assert!(Tensor::from_vec(vec![1.0, 2.0], &[2]).is_ok());
    }

    #[test]
    fn constructors_fill_correctly() {
        assert_eq!(Tensor::zeros(&[2, 2]).data(), &[0.0; 4]);
        assert_eq!(Tensor::ones(&[3]).data(), &[1.0; 3]);
        assert_eq!(Tensor::full(&[2], 7.5).data(), &[7.5, 7.5]);
        assert_eq!(Tensor::scalar(3.0).item().unwrap(), 3.0);
        assert_eq!(Tensor::arange(4).data(), &[0.0, 1.0, 2.0, 3.0]);
    }

    #[test]
    fn eye_is_identity() {
        let i = Tensor::eye(3);
        let x = t(&[1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0], &[3, 3]);
        assert!(x.matmul(&i).unwrap().allclose(&x, 1e-6));
        assert!(i.matmul(&x).unwrap().allclose(&x, 1e-6));
    }

    #[test]
    fn matmul_matches_hand_computation() {
        let a = t(&[1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3]);
        let b = t(&[7.0, 8.0, 9.0, 10.0, 11.0, 12.0], &[3, 2]);
        let c = a.matmul(&b).unwrap();
        assert_eq!(c.dims(), &[2, 2]);
        assert_eq!(c.data(), &[58.0, 64.0, 139.0, 154.0]);
    }

    #[test]
    fn matmul_rejects_bad_shapes() {
        let a = Tensor::zeros(&[2, 3]);
        let b = Tensor::zeros(&[2, 3]);
        assert!(a.matmul(&b).is_err());
    }

    /// Regression for the seed's `a == 0.0` inner-loop skip: a zero operand
    /// times NaN must yield NaN in the blocked GEMM and in the reference
    /// oracle, not a silent 0.
    #[test]
    fn matmul_propagates_nan_through_zero_operand() {
        let a = t(&[0.0, 1.0], &[1, 2]);
        let b = t(&[f32::NAN, 1.0], &[2, 1]);
        let c = a.matmul(&b).unwrap();
        assert!(c.data()[0].is_nan(), "0·NaN + 1·1 must be NaN");
        let mut c_ref = [0.0f32];
        crate::gemm::gemm_reference(
            a.data(),
            Layout::RowMajor,
            b.data(),
            Layout::RowMajor,
            1,
            1,
            2,
            &mut c_ref,
        );
        assert!(c_ref[0].is_nan(), "reference oracle must agree");
    }

    #[test]
    fn bmm_matches_per_batch_matmul() {
        let mut rng = Rng::new(1);
        let a = Tensor::randn(&[3, 2, 4], &mut rng);
        let b = Tensor::randn(&[3, 4, 5], &mut rng);
        let c = a.bmm(&b).unwrap();
        for bi in 0..3 {
            let a2 = a.narrow(0, bi, 1).unwrap().reshape(&[2, 4]).unwrap();
            let b2 = b.narrow(0, bi, 1).unwrap().reshape(&[4, 5]).unwrap();
            let c2 = c.narrow(0, bi, 1).unwrap().reshape(&[2, 5]).unwrap();
            assert!(a2.matmul(&b2).unwrap().allclose(&c2, 1e-5));
        }
    }

    #[test]
    fn transpose2d_flips_indices() {
        let a = t(&[1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3]);
        let at = a.transpose2d().unwrap();
        assert_eq!(at.dims(), &[3, 2]);
        assert_eq!(at.at(&[2, 1]).unwrap(), 6.0);
        assert_eq!(at.at(&[0, 1]).unwrap(), 4.0);
    }

    #[test]
    fn permute_matches_transpose_for_rank2() {
        let a = t(&[1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3]);
        assert_eq!(a.permute(&[1, 0]).unwrap(), a.transpose2d().unwrap());
    }

    #[test]
    fn permute_rank4_nchw_to_nhwc() {
        let mut rng = Rng::new(2);
        let x = Tensor::randn(&[2, 3, 4, 5], &mut rng);
        let y = x.permute(&[0, 2, 3, 1]).unwrap();
        assert_eq!(y.dims(), &[2, 4, 5, 3]);
        assert_eq!(y.at(&[1, 2, 3, 1]).unwrap(), x.at(&[1, 1, 2, 3]).unwrap());
    }

    #[test]
    fn broadcast_add_bias() {
        let x = t(&[1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3]);
        let b = t(&[10.0, 20.0, 30.0], &[3]);
        let y = x.add(&b).unwrap();
        assert_eq!(y.data(), &[11.0, 22.0, 33.0, 14.0, 25.0, 36.0]);
    }

    #[test]
    fn broadcast_rejects_mismatch() {
        let x = Tensor::zeros(&[2, 3]);
        let b = Tensor::zeros(&[4]);
        assert!(x.add(&b).is_err());
    }

    #[test]
    fn reductions_match_hand_values() {
        let x = t(&[1.0, 2.0, 3.0, 4.0], &[2, 2]);
        assert_eq!(x.sum(), 10.0);
        assert_eq!(x.mean(), 2.5);
        assert_eq!(x.max(), 4.0);
        assert_eq!(x.min(), 1.0);
        assert_eq!(x.sq_norm(), 30.0);
    }

    #[test]
    fn sum_axis_each_direction() {
        let x = t(&[1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3]);
        assert_eq!(x.sum_axis(0).unwrap().data(), &[5.0, 7.0, 9.0]);
        assert_eq!(x.sum_axis(1).unwrap().data(), &[6.0, 15.0]);
        assert_eq!(x.mean_axis(1).unwrap().data(), &[2.0, 5.0]);
    }

    #[test]
    fn argmax_last_per_row() {
        let x = t(&[0.1, 0.9, 0.0, 0.7, 0.2, 0.1], &[2, 3]);
        assert_eq!(x.argmax_last().unwrap(), vec![1, 0]);
    }

    #[test]
    fn concat_axis0_and_axis1() {
        let a = t(&[1.0, 2.0], &[1, 2]);
        let b = t(&[3.0, 4.0], &[1, 2]);
        let c0 = Tensor::concat(&[&a, &b], 0).unwrap();
        assert_eq!(c0.dims(), &[2, 2]);
        assert_eq!(c0.data(), &[1.0, 2.0, 3.0, 4.0]);
        let c1 = Tensor::concat(&[&a, &b], 1).unwrap();
        assert_eq!(c1.dims(), &[1, 4]);
        assert_eq!(c1.data(), &[1.0, 2.0, 3.0, 4.0]);
    }

    #[test]
    fn narrow_extracts_middle() {
        let x = Tensor::arange(12).reshape(&[4, 3]).unwrap();
        let y = x.narrow(0, 1, 2).unwrap();
        assert_eq!(y.dims(), &[2, 3]);
        assert_eq!(y.data(), &[3.0, 4.0, 5.0, 6.0, 7.0, 8.0]);
        let z = x.narrow(1, 1, 1).unwrap();
        assert_eq!(z.data(), &[1.0, 4.0, 7.0, 10.0]);
    }

    #[test]
    fn narrow_rejects_overflow() {
        let x = Tensor::zeros(&[4, 3]);
        assert!(x.narrow(0, 3, 2).is_err());
        assert!(x.narrow(2, 0, 1).is_err());
    }

    #[test]
    fn axpy_accumulates() {
        let mut a = Tensor::ones(&[3]);
        let b = t(&[1.0, 2.0, 3.0], &[3]);
        a.axpy_inplace(0.5, &b).unwrap();
        assert_eq!(a.data(), &[1.5, 2.0, 2.5]);
        let c = Tensor::zeros(&[4]);
        assert!(a.axpy_inplace(1.0, &c).is_err());
    }

    #[test]
    fn adam_update_rejects_each_mismatched_moment_by_name() {
        let mut p = Tensor::ones(&[4]);
        let good = Tensor::ones(&[4]);
        let bad = Tensor::ones(&[5]);
        let err = p.adam_update_inplace(1e-3, 1e-8, 0.9, 0.99, &bad, &good);
        assert!(err.unwrap_err().to_string().contains("param vs m"));
        let err = p.adam_update_inplace(1e-3, 1e-8, 0.9, 0.99, &good, &bad);
        assert!(err.unwrap_err().to_string().contains("param vs v"));
        assert!(p
            .adam_update_inplace(1e-3, 1e-8, 0.9, 0.99, &good, &good)
            .is_ok());
        let err = p.decay_axpy_inplace(0.9, 0.1, &bad);
        assert!(err.unwrap_err().to_string().contains("decay_axpy"));
        let err = p.ema_sq_inplace(0.99, &bad);
        assert!(err.unwrap_err().to_string().contains("ema_sq"));
    }

    #[test]
    fn randn_is_deterministic_per_seed() {
        let mut r1 = Rng::new(42);
        let mut r2 = Rng::new(42);
        let a = Tensor::randn(&[16], &mut r1);
        let b = Tensor::randn(&[16], &mut r2);
        assert_eq!(a, b);
        let mut r3 = Rng::new(43);
        let c = Tensor::randn(&[16], &mut r3);
        assert_ne!(a, c);
    }

    #[test]
    fn item_requires_single_element() {
        assert!(Tensor::zeros(&[2]).item().is_err());
        assert_eq!(Tensor::scalar(5.0).item().unwrap(), 5.0);
    }
}
