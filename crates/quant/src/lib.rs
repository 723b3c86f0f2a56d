//! Post-training quantization for Egeria's reference models (§4.1.3).
//!
//! The paper instantly compresses a training-model snapshot to int8 so the
//! reference runs fast on CPUs. This crate provides:
//!
//! - [`qtensor::QTensor`]: a real int8 tensor (symmetric, per-tensor or
//!   per-channel scales) with quantize/dequantize and an int8 matmul kernel
//!   whose speed advantage is measured by the Table 2 benchmark,
//! - [`fake`]: fake-quantization (quantize→dequantize) used to build
//!   reference *models*: the reference keeps f32 storage but carries exactly
//!   the int8 (or f16) rounding error, which is what determines plasticity
//!   accuracy; execution speed is benchmarked separately on the real int8
//!   kernels and modeled in `egeria-simsys` (substitution documented in
//!   DESIGN.md),
//! - [`model`]: whole-model reference generation at int8 / f16 / f32
//!   precision (Table 2's sweep). Only weights are quantized, with abs-max
//!   scales taken from the snapshot itself: there is no calibration pass
//!   and activations stay f32.

// No unsafe outside egeria-tensor: enforced here and audited by egeria-lint.
#![forbid(unsafe_code)]

pub mod fake;
pub mod model;
pub mod qtensor;

pub use model::{quantize_reference, Precision};
pub use qtensor::QTensor;
