//! Real int8 tensors and kernels.

use egeria_tensor::{pool, simd, Result, Tensor, TensorError, ThreadPool};

/// Quantization granularity.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Granularity {
    /// One scale for the whole tensor.
    PerTensor,
    /// One scale per leading-dimension slice (conv/linear output channels).
    PerChannel,
}

/// A symmetric int8 tensor: `value ≈ scale[channel] * q`.
#[derive(Debug, Clone, PartialEq)]
pub struct QTensor {
    data: Vec<i8>,
    scales: Vec<f32>,
    dims: Vec<usize>,
    granularity: Granularity,
}

impl QTensor {
    /// Quantizes an f32 tensor symmetrically into int8.
    pub fn quantize(t: &Tensor, granularity: Granularity) -> Result<QTensor> {
        let dims = t.dims().to_vec();
        match granularity {
            Granularity::PerTensor => {
                let scale = scale_for(t.data());
                let data = t.data().iter().map(|&x| quant_one(x, scale)).collect();
                Ok(QTensor {
                    data,
                    scales: vec![scale],
                    dims,
                    granularity,
                })
            }
            Granularity::PerChannel => {
                let channels = *dims.first().ok_or(TensorError::ShapeMismatch {
                    op: "quantize per-channel",
                    lhs: dims.clone(),
                    rhs: vec![],
                })?;
                let inner = t.numel() / channels.max(1);
                let mut data = Vec::with_capacity(t.numel());
                let mut scales = Vec::with_capacity(channels);
                for c in 0..channels {
                    let slice = &t.data()[c * inner..(c + 1) * inner];
                    let scale = scale_for(slice);
                    scales.push(scale);
                    data.extend(slice.iter().map(|&x| quant_one(x, scale)));
                }
                Ok(QTensor {
                    data,
                    scales,
                    dims,
                    granularity,
                })
            }
        }
    }

    /// Dequantizes back to f32.
    pub fn dequantize(&self) -> Result<Tensor> {
        let numel: usize = self.dims.iter().product();
        let mut out = Vec::with_capacity(numel);
        match self.granularity {
            Granularity::PerTensor => {
                let s = self.scales[0];
                out.extend(self.data.iter().map(|&q| q as f32 * s));
            }
            Granularity::PerChannel => {
                let channels = self.scales.len();
                let inner = numel / channels.max(1);
                for (c, &s) in self.scales.iter().enumerate() {
                    out.extend(
                        self.data[c * inner..(c + 1) * inner]
                            .iter()
                            .map(|&q| q as f32 * s),
                    );
                }
            }
        }
        Tensor::from_vec(out, &self.dims)
    }

    /// Raw int8 payload.
    pub fn data(&self) -> &[i8] {
        &self.data
    }

    /// Quantization scales (one entry per-tensor, or one per channel).
    pub fn scales(&self) -> &[f32] {
        &self.scales
    }

    /// Tensor dims.
    pub fn dims(&self) -> &[usize] {
        &self.dims
    }
}

fn scale_for(xs: &[f32]) -> f32 {
    let max = xs.iter().fold(0.0f32, |m, &x| m.max(x.abs()));
    // egeria-lint: allow(float-exact-eq): an abs-max is exactly 0.0 iff the
    // slice is all zeros (NaN never survives f32::max against 0.0); the
    // guard prevents a 0/0 scale, and 1.0 round-trips the zero tensor.
    if max == 0.0 {
        1.0
    } else {
        max / 127.0
    }
}

fn quant_one(x: f32, scale: f32) -> i8 {
    (x / scale).round().clamp(-127.0, 127.0) as i8
}

/// Int8 matrix multiply with i32 accumulation: `a (m×k, per-tensor) ·
/// b (k×n from a per-tensor-quantized matrix) → f32 (m×n)`.
///
/// This is the CPU-inference kernel whose speed Table 2 compares against
/// f32; it processes 1-byte operands with integer MACs.
pub fn qmatmul(a: &QTensor, b: &QTensor) -> Result<Tensor> {
    if a.dims.len() != 2 || b.dims.len() != 2 || a.dims[1] != b.dims[0] {
        return Err(TensorError::ShapeMismatch {
            op: "qmatmul",
            lhs: a.dims.clone(),
            rhs: b.dims.clone(),
        });
    }
    if a.granularity != Granularity::PerTensor || b.granularity != Granularity::PerTensor {
        return Err(TensorError::Numerical(
            "qmatmul requires per-tensor scales".into(),
        ));
    }
    let (m, k) = (a.dims[0], a.dims[1]);
    let n = b.dims[1];
    let scale = a.scales[0] * b.scales[0];
    let mut out = vec![0.0f32; m * n];
    // Row-parallel over the output: each pool task owns a disjoint output
    // row whose i32 dot products run on the SIMD layer (sign-extending
    // widened loads, exact integer accumulation) before the single f32
    // rescale. Integer adds associate exactly, so results are bit-identical
    // for every thread count *and* every ISA.
    pool::for_each_batch_mut(ThreadPool::global(), &mut out, n, (n * k) as u64, |i, orow| {
        let arow = &a.data[i * k..(i + 1) * k];
        let mut acc = vec![0i32; n];
        simd::qmatmul_row(arow, &b.data, n, &mut acc);
        for (o, &s) in orow.iter_mut().zip(acc.iter()) {
            *o = s as f32 * scale;
        }
    });
    Tensor::from_vec(out, &[m, n])
}

#[cfg(test)]
mod tests {
    use super::*;
    use egeria_tensor::Rng;

    #[test]
    fn round_trip_error_bounded_by_half_scale() {
        let mut rng = Rng::new(1);
        let t = Tensor::randn(&[64], &mut rng);
        let q = QTensor::quantize(&t, Granularity::PerTensor).unwrap();
        let back = q.dequantize().unwrap();
        let scale = q.scales[0];
        for (&a, &b) in t.data().iter().zip(back.data().iter()) {
            assert!((a - b).abs() <= scale / 2.0 + 1e-6);
        }
    }

    #[test]
    fn per_channel_beats_per_tensor_on_skewed_channels() {
        // One tiny channel next to one huge channel: per-tensor wastes
        // resolution on the tiny one.
        let mut data = vec![0.0f32; 32];
        for i in 0..16 {
            data[i] = 0.01 * (i as f32 - 8.0);
            data[16 + i] = 10.0 * (i as f32 - 8.0);
        }
        let t = Tensor::from_vec(data, &[2, 16]).unwrap();
        let per_t = QTensor::quantize(&t, Granularity::PerTensor).unwrap();
        let per_c = QTensor::quantize(&t, Granularity::PerChannel).unwrap();
        let err_t = t.sub(&per_t.dequantize().unwrap()).unwrap().sq_norm();
        let err_c = t.sub(&per_c.dequantize().unwrap()).unwrap().sq_norm();
        assert!(err_c < err_t, "per-channel {err_c} vs per-tensor {err_t}");
    }

    #[test]
    fn zero_tensor_round_trips() {
        let t = Tensor::zeros(&[8]);
        let q = QTensor::quantize(&t, Granularity::PerTensor).unwrap();
        assert_eq!(q.dequantize().unwrap(), t);
    }

    #[test]
    fn qmatmul_approximates_f32_matmul() {
        let mut rng = Rng::new(2);
        let a = Tensor::randn(&[8, 16], &mut rng);
        let b = Tensor::randn(&[16, 8], &mut rng);
        let exact = a.matmul(&b).unwrap();
        let qa = QTensor::quantize(&a, Granularity::PerTensor).unwrap();
        let qb = QTensor::quantize(&b, Granularity::PerTensor).unwrap();
        let approx = qmatmul(&qa, &qb).unwrap();
        let rel = exact.sub(&approx).unwrap().norm() / exact.norm();
        assert!(rel < 0.05, "relative error {rel}");
    }

    #[test]
    fn qmatmul_bit_identical_across_isas() {
        use egeria_tensor::simd::{self, Isa};
        let mut rng = Rng::new(5);
        let a = Tensor::randn(&[5, 33], &mut rng);
        let b = Tensor::randn(&[33, 9], &mut rng);
        let qa = QTensor::quantize(&a, Granularity::PerTensor).unwrap();
        let qb = QTensor::quantize(&b, Granularity::PerTensor).unwrap();
        // Integer accumulation is exact, so scalar and vector ISAs must
        // agree bit-for-bit (process-global set_isa; restored to default).
        simd::set_isa(Isa::Scalar);
        let s = qmatmul(&qa, &qb).unwrap();
        simd::set_isa(simd::detect());
        let v = qmatmul(&qa, &qb).unwrap();
        assert_eq!(s, v);
    }

    #[test]
    fn qmatmul_rejects_shape_mismatch() {
        let a = QTensor::quantize(&Tensor::zeros(&[2, 3]), Granularity::PerTensor).unwrap();
        let b = QTensor::quantize(&Tensor::zeros(&[2, 3]), Granularity::PerTensor).unwrap();
        assert!(qmatmul(&a, &b).is_err());
    }
}
