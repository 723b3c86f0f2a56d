//! Normalization layers: BatchNorm2d and LayerNorm.

use crate::layer::{Layer, Mode};
use crate::param::Parameter;
use egeria_tensor::{Result, Tensor, TensorError};

/// Batch normalization over NCHW feature maps.
///
/// In `Mode::Train` the layer normalizes with mini-batch statistics and
/// updates exponential running statistics; in `Mode::Eval` it uses the
/// running statistics, leaves them untouched and keeps no backward
/// context. A frozen BatchNorm layer normalizes with running statistics
/// even inside a training step (§4.3 of the paper, following
/// transfer-learning practice) because
/// [`Network::forward_range`](crate::net::Network::forward_range) runs every
/// frozen block in `Mode::Eval`; the layer itself has no freezing switch.
pub struct BatchNorm2d {
    gamma: Parameter,
    beta: Parameter,
    running_mean: Tensor,
    running_var: Tensor,
    momentum: f32,
    eps: f32,
    cache: Option<BnCache>,
}

struct BnCache {
    x_hat: Tensor,
    inv_std: Vec<f32>,
    dims: Vec<usize>,
}

impl BatchNorm2d {
    /// Creates a BatchNorm over `c` channels.
    pub fn new(name: &str, c: usize) -> Self {
        BatchNorm2d {
            gamma: Parameter::new(format!("{name}.gamma"), Tensor::ones(&[c])),
            beta: Parameter::new(format!("{name}.beta"), Tensor::zeros(&[c])),
            running_mean: Tensor::zeros(&[c]),
            running_var: Tensor::ones(&[c]),
            momentum: 0.1,
            eps: 1e-5,
            cache: None,
        }
    }
}

impl Layer for BatchNorm2d {
    fn forward(&mut self, x: &Tensor, mode: Mode) -> Result<Tensor> {
        if x.rank() != 4 || x.dims()[1] != self.gamma.numel() {
            return Err(TensorError::ShapeMismatch {
                op: "batchnorm2d",
                lhs: x.dims().to_vec(),
                rhs: self.gamma.value.dims().to_vec(),
            });
        }
        let (n, c, h, w) = {
            let d = x.dims();
            (d[0], d[1], d[2], d[3])
        };
        let count = (n * h * w) as f32;
        let mut mean = vec![0.0f32; c];
        let mut var = vec![0.0f32; c];
        if mode == Mode::Eval {
            mean.copy_from_slice(self.running_mean.data());
            var.copy_from_slice(self.running_var.data());
        } else {
            for (ci, m) in mean.iter_mut().enumerate() {
                let mut acc = 0.0f64;
                for ni in 0..n {
                    let base = (ni * c + ci) * h * w;
                    acc += x.data()[base..base + h * w].iter().map(|&v| v as f64).sum::<f64>();
                }
                *m = (acc / count as f64) as f32;
            }
            for ci in 0..c {
                let m = mean[ci] as f64;
                let mut acc = 0.0f64;
                for ni in 0..n {
                    let base = (ni * c + ci) * h * w;
                    for &v in &x.data()[base..base + h * w] {
                        let d = v as f64 - m;
                        acc += d * d;
                    }
                }
                var[ci] = (acc / count as f64) as f32;
            }
            // Update running statistics.
            for ci in 0..c {
                let rm = self.running_mean.data()[ci];
                let rv = self.running_var.data()[ci];
                self.running_mean.data_mut()[ci] = (1.0 - self.momentum) * rm + self.momentum * mean[ci];
                self.running_var.data_mut()[ci] = (1.0 - self.momentum) * rv + self.momentum * var[ci];
            }
        }
        let inv_std: Vec<f32> = var.iter().map(|&v| 1.0 / (v + self.eps).sqrt()).collect();
        let mut x_hat = x.clone();
        for ni in 0..n {
            for ci in 0..c {
                let base = (ni * c + ci) * h * w;
                let (m, is) = (mean[ci], inv_std[ci]);
                for v in &mut x_hat.data_mut()[base..base + h * w] {
                    *v = (*v - m) * is;
                }
            }
        }
        // `Train` keeps `x_hat` for backward and writes `y` into a copy;
        // `Eval` writes `y` over `x_hat` itself.
        let (mut y, kept) = match mode {
            Mode::Train => (x_hat.clone(), Some(x_hat)),
            Mode::Eval => (x_hat, None),
        };
        for ni in 0..n {
            for ci in 0..c {
                let base = (ni * c + ci) * h * w;
                let (g, b) = (self.gamma.value.data()[ci], self.beta.value.data()[ci]);
                for v in &mut y.data_mut()[base..base + h * w] {
                    *v = *v * g + b;
                }
            }
        }
        self.cache = kept.map(|x_hat| BnCache {
            x_hat,
            inv_std,
            dims: x.dims().to_vec(),
        });
        Ok(y)
    }

    fn backward(&mut self, grad_out: &Tensor) -> Result<Tensor> {
        let cache = self.cache.as_ref().ok_or_else(|| {
            TensorError::Numerical("BatchNorm2d::backward before forward".into())
        })?;
        if grad_out.dims() != cache.dims.as_slice() {
            return Err(TensorError::ShapeMismatch {
                op: "batchnorm2d backward",
                lhs: cache.dims.clone(),
                rhs: grad_out.dims().to_vec(),
            });
        }
        let (n, c, h, w) = (cache.dims[0], cache.dims[1], cache.dims[2], cache.dims[3]);
        let count = (n * h * w) as f32;
        let mut g_gamma = vec![0.0f32; c];
        let mut g_beta = vec![0.0f32; c];
        for ni in 0..n {
            for ci in 0..c {
                let base = (ni * c + ci) * h * w;
                for i in 0..h * w {
                    let g = grad_out.data()[base + i];
                    g_gamma[ci] += g * cache.x_hat.data()[base + i];
                    g_beta[ci] += g;
                }
            }
        }
        // Input gradient through the batch statistics, which depend on x:
        // dx = (gamma * inv_std / m) * (m*dy − sum(dy) − x_hat * sum(dy*x_hat)).
        // Only a `Mode::Train` forward leaves a cache, so these are always
        // batch statistics: frozen blocks normalize with running statistics
        // in `Mode::Eval` and are never backpropagated (`Network::backward`
        // stops at the first active block).
        let mut gx = grad_out.clone();
        for ni in 0..n {
            for ci in 0..c {
                let base = (ni * c + ci) * h * w;
                let gamma = self.gamma.value.data()[ci];
                let is = cache.inv_std[ci];
                for i in 0..h * w {
                    let dy = grad_out.data()[base + i];
                    let xh = cache.x_hat.data()[base + i];
                    gx.data_mut()[base + i] =
                        gamma * is / count * (count * dy - g_beta[ci] - xh * g_gamma[ci]);
                }
            }
        }
        if self.gamma.requires_grad {
            self.gamma.accumulate_grad(&Tensor::from_vec(g_gamma, &[c])?)?;
        }
        if self.beta.requires_grad {
            self.beta.accumulate_grad(&Tensor::from_vec(g_beta, &[c])?)?;
        }
        Ok(gx)
    }

    fn params(&self) -> Vec<&Parameter> {
        vec![&self.gamma, &self.beta]
    }

    fn params_mut(&mut self) -> Vec<&mut Parameter> {
        vec![&mut self.gamma, &mut self.beta]
    }

    fn state_buffers(&self) -> Vec<&Tensor> {
        vec![&self.running_mean, &self.running_var]
    }

    fn state_buffers_mut(&mut self) -> Vec<&mut Tensor> {
        vec![&mut self.running_mean, &mut self.running_var]
    }

    fn kind(&self) -> &'static str {
        "BatchNorm2d"
    }
}

/// Layer normalization over the last dimension (Transformer blocks).
pub struct LayerNorm {
    gamma: Parameter,
    beta: Parameter,
    eps: f32,
    cache: Option<LnCache>,
}

struct LnCache {
    x_hat: Tensor,
    inv_std: Vec<f32>,
}

impl LayerNorm {
    /// Creates a LayerNorm over feature width `d`.
    pub fn new(name: &str, d: usize) -> Self {
        LayerNorm {
            gamma: Parameter::new(format!("{name}.gamma"), Tensor::ones(&[d])),
            beta: Parameter::new(format!("{name}.beta"), Tensor::zeros(&[d])),
            eps: 1e-5,
            cache: None,
        }
    }
}

impl Layer for LayerNorm {
    fn forward(&mut self, x: &Tensor, mode: Mode) -> Result<Tensor> {
        let d = self.gamma.numel();
        if x.dims().last() != Some(&d) {
            return Err(TensorError::ShapeMismatch {
                op: "layernorm",
                lhs: x.dims().to_vec(),
                rhs: vec![d],
            });
        }
        let rows = x.numel() / d;
        let mut x_hat = x.clone();
        let mut inv_std = vec![0.0f32; rows];
        for (r, slot) in inv_std.iter_mut().enumerate() {
            let row = &mut x_hat.data_mut()[r * d..(r + 1) * d];
            let mean: f32 = row.iter().sum::<f32>() / d as f32;
            let var: f32 = row.iter().map(|&v| (v - mean) * (v - mean)).sum::<f32>() / d as f32;
            let is = 1.0 / (var + self.eps).sqrt();
            *slot = is;
            for v in row.iter_mut() {
                *v = (*v - mean) * is;
            }
        }
        // As in BatchNorm: `Eval` writes `y` over `x_hat`.
        let (mut y, kept) = match mode {
            Mode::Train => (x_hat.clone(), Some(x_hat)),
            Mode::Eval => (x_hat, None),
        };
        for r in 0..rows {
            let row = &mut y.data_mut()[r * d..(r + 1) * d];
            for (j, v) in row.iter_mut().enumerate() {
                *v = *v * self.gamma.value.data()[j] + self.beta.value.data()[j];
            }
        }
        self.cache = kept.map(|x_hat| LnCache { x_hat, inv_std });
        Ok(y)
    }

    fn backward(&mut self, grad_out: &Tensor) -> Result<Tensor> {
        let cache = self.cache.as_ref().ok_or_else(|| {
            TensorError::Numerical("LayerNorm::backward before forward".into())
        })?;
        let d = self.gamma.numel();
        if grad_out.dims() != cache.x_hat.dims() {
            return Err(TensorError::ShapeMismatch {
                op: "layernorm backward",
                lhs: cache.x_hat.dims().to_vec(),
                rhs: grad_out.dims().to_vec(),
            });
        }
        let rows = grad_out.numel() / d;
        let mut g_gamma = vec![0.0f32; d];
        let mut g_beta = vec![0.0f32; d];
        let mut gx = grad_out.clone();
        for r in 0..rows {
            let gy = &grad_out.data()[r * d..(r + 1) * d];
            let xh = &cache.x_hat.data()[r * d..(r + 1) * d];
            let mut sum_g = 0.0f32;
            let mut sum_gx = 0.0f32;
            for j in 0..d {
                let gj = gy[j] * self.gamma.value.data()[j];
                sum_g += gj;
                sum_gx += gj * xh[j];
                g_gamma[j] += gy[j] * xh[j];
                g_beta[j] += gy[j];
            }
            let is = cache.inv_std[r];
            let row = &mut gx.data_mut()[r * d..(r + 1) * d];
            for j in 0..d {
                let gj = gy[j] * self.gamma.value.data()[j];
                row[j] = is * (gj - sum_g / d as f32 - xh[j] * sum_gx / d as f32);
            }
        }
        if self.gamma.requires_grad {
            self.gamma.accumulate_grad(&Tensor::from_vec(g_gamma, &[d])?)?;
        }
        if self.beta.requires_grad {
            self.beta.accumulate_grad(&Tensor::from_vec(g_beta, &[d])?)?;
        }
        Ok(gx)
    }

    fn params(&self) -> Vec<&Parameter> {
        vec![&self.gamma, &self.beta]
    }

    fn params_mut(&mut self) -> Vec<&mut Parameter> {
        vec![&mut self.gamma, &mut self.beta]
    }

    fn kind(&self) -> &'static str {
        "LayerNorm"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layer::gradcheck_input;
    use egeria_tensor::Rng;

    #[test]
    fn batchnorm_normalizes_batch_statistics() {
        let mut rng = Rng::new(1);
        let mut bn = BatchNorm2d::new("bn", 3);
        let x = Tensor::randn(&[4, 3, 5, 5], &mut rng).add_scalar(2.0);
        let y = bn.forward(&x, Mode::Train).unwrap();
        // Per-channel mean ≈ 0 and var ≈ 1 after normalization (gamma=1, beta=0).
        for c in 0..3 {
            let mut vals = Vec::new();
            for n in 0..4 {
                let base = (n * 3 + c) * 25;
                vals.extend_from_slice(&y.data()[base..base + 25]);
            }
            let mean: f32 = vals.iter().sum::<f32>() / vals.len() as f32;
            let var: f32 = vals.iter().map(|&v| (v - mean) * (v - mean)).sum::<f32>() / vals.len() as f32;
            assert!(mean.abs() < 1e-4, "mean {mean}");
            assert!((var - 1.0).abs() < 1e-2, "var {var}");
        }
    }

    #[test]
    fn batchnorm_eval_uses_running_stats() {
        let mut rng = Rng::new(2);
        let mut bn = BatchNorm2d::new("bn", 2);
        // Train a few batches to move the running stats off their init.
        for _ in 0..20 {
            let x = Tensor::randn(&[8, 2, 4, 4], &mut rng).add_scalar(5.0);
            let _ = bn.forward(&x, Mode::Train).unwrap();
        }
        let x = Tensor::full(&[1, 2, 4, 4], 5.0);
        let y_eval = bn.forward(&x, Mode::Eval).unwrap();
        // With running mean ≈ 5, output ≈ 0.
        assert!(y_eval.data().iter().all(|&v| v.abs() < 1.0), "{:?}", y_eval.data());
    }

    #[test]
    fn batchnorm_gradcheck_train_mode() {
        let mut rng = Rng::new(4);
        let mut bn = BatchNorm2d::new("bn", 2);
        let x = Tensor::randn(&[3, 2, 3, 3], &mut rng);
        let worst = gradcheck_input(&mut bn, &x, &[0, 11, 23, 40], 1e-2).unwrap();
        assert!(worst < 3e-2, "bn gradcheck deviation {worst}");
    }

    #[test]
    fn layernorm_rows_are_normalized() {
        let mut rng = Rng::new(5);
        let mut ln = LayerNorm::new("ln", 16);
        let x = Tensor::randn(&[4, 16], &mut rng).mul_scalar(3.0).add_scalar(1.0);
        let y = ln.forward(&x, Mode::Train).unwrap();
        for r in 0..4 {
            let row = &y.data()[r * 16..(r + 1) * 16];
            let mean: f32 = row.iter().sum::<f32>() / 16.0;
            assert!(mean.abs() < 1e-4);
        }
    }

    #[test]
    fn layernorm_gradcheck() {
        let mut rng = Rng::new(6);
        let mut ln = LayerNorm::new("ln", 8);
        let x = Tensor::randn(&[3, 8], &mut rng);
        let worst = gradcheck_input(&mut ln, &x, &[0, 7, 13, 23], 1e-2).unwrap();
        assert!(worst < 2e-2, "ln gradcheck deviation {worst}");
    }

    #[test]
    fn batchnorm_rejects_wrong_channel_count() {
        let mut bn = BatchNorm2d::new("bn", 3);
        assert!(bn.forward(&Tensor::zeros(&[1, 2, 4, 4]), Mode::Train).is_err());
    }

    #[test]
    fn eval_forwards_keep_nothing_for_backward() {
        let mut rng = Rng::new(7);
        let x = Tensor::randn(&[3, 2, 3, 3], &mut rng).add_scalar(1.5);
        crate::layer::check_eval_contract(&mut BatchNorm2d::new("bn", 2), &x).unwrap();
        let x = Tensor::randn(&[2, 3, 8], &mut rng).mul_scalar(2.0);
        crate::layer::check_eval_contract(&mut LayerNorm::new("ln", 8), &x).unwrap();
    }
}
