//! Pure-Rust n-dimensional tensor library for the Egeria reproduction.
//!
//! This crate is the numerical substrate under the autograd engine, the model
//! zoo, and the analysis metrics. It provides:
//!
//! - a contiguous row-major [`Tensor`] of `f32` with NumPy-style broadcasting,
//! - dense linear algebra: blocked [`matmul`](Tensor::matmul), Householder QR,
//!   one-sided Jacobi SVD, and linear least squares (used by PWCCA and the
//!   freezing slope fit),
//! - convolution/pooling kernels (forward and the gradient kernels used by the
//!   autograd layer implementations),
//! - deterministic random tensor constructors seeded explicitly (training runs
//!   must be reproducible so the cached-FP path can be validated
//!   bit-for-bit),
//! - serialization of tensors to/from byte buffers (the on-disk activation
//!   cache format).
//!
//! Everything is `f32`: the paper trains in fp32 and emulates reduced
//! precision (int8/f16) in `egeria-quant` on top of this crate.

// The only crate allowed `unsafe` (pool dispatch and the SIMD intrinsic
// layer under crates/tensor/src/simd/); every site carries a // SAFETY:
// comment, enforced by egeria-lint, and `std::arch` intrinsics are confined
// to the simd module by the arch-intrinsics-confined lint rule.
#![deny(unsafe_op_in_unsafe_fn)]

pub mod conv;
pub mod error;
pub mod gemm;
pub mod linalg;
pub mod pool;
pub mod rng;
pub mod serialize;
pub mod shape;
pub mod simd;
pub mod tensor;
pub mod wire;

pub use error::{Result, TensorError};
pub use pool::{PoolStatsSnapshot, ThreadPool};
pub use rng::Rng;
pub use shape::Shape;
pub use tensor::Tensor;
