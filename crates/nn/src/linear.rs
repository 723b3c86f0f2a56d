//! Fully-connected layer.

use crate::init;
use crate::layer::{Layer, Mode};
use crate::param::Parameter;
use egeria_tensor::{Result, Rng, Tensor, TensorError};

/// A dense affine map `y = x·Wᵀ + b`.
///
/// Accepts inputs of shape `(..., in_features)`; leading dimensions are
/// flattened into a batch for the matmul and restored on output, so the same
/// layer serves `(b, d)` classifier heads and `(b, t, d)` token streams.
pub struct Linear {
    weight: Parameter,
    bias: Option<Parameter>,
    in_features: usize,
    out_features: usize,
    cached_input: Option<Tensor>,
}

impl Linear {
    /// Creates a linear layer with Kaiming-normal weights.
    pub fn new(name: &str, in_features: usize, out_features: usize, bias: bool, rng: &mut Rng) -> Self {
        let weight = Parameter::new(
            format!("{name}.weight"),
            init::kaiming_normal(&[out_features, in_features], in_features, rng),
        );
        let bias = bias.then(|| Parameter::new(format!("{name}.bias"), Tensor::zeros(&[out_features])));
        Linear {
            weight,
            bias,
            in_features,
            out_features,
            cached_input: None,
        }
    }

    /// Input feature count.
    pub fn in_features(&self) -> usize {
        self.in_features
    }

    /// Output feature count.
    pub fn out_features(&self) -> usize {
        self.out_features
    }

    /// Immutable access to the weight parameter (used by quantization).
    pub fn weight(&self) -> &Parameter {
        &self.weight
    }

    /// Immutable access to the bias parameter, if present.
    pub fn bias(&self) -> Option<&Parameter> {
        self.bias.as_ref()
    }

    fn flatten_batch(&self, x: &Tensor) -> Result<(Tensor, Vec<usize>)> {
        let dims = x.dims().to_vec();
        let last = *dims.last().ok_or(TensorError::ShapeMismatch {
            op: "linear",
            lhs: dims.clone(),
            rhs: vec![self.in_features],
        })?;
        if last != self.in_features {
            return Err(TensorError::ShapeMismatch {
                op: "linear",
                lhs: dims.clone(),
                rhs: vec![self.in_features],
            });
        }
        let rows = x.numel() / last;
        Ok((x.reshape(&[rows, last])?, dims))
    }
}

impl Layer for Linear {
    fn forward(&mut self, x: &Tensor, mode: Mode) -> Result<Tensor> {
        let (x2, dims) = self.flatten_batch(x)?;
        // x·Wᵀ reading W through its transpose — no materialized copy.
        let mut y = x2.matmul_tb(&self.weight.value)?;
        if let Some(b) = &self.bias {
            y = y.add(&b.value)?;
        }
        self.cached_input = (mode == Mode::Train).then_some(x2);
        let mut out_dims = dims;
        *out_dims.last_mut().expect("checked non-empty") = self.out_features;
        y.reshape(&out_dims)
    }

    fn backward(&mut self, grad_out: &Tensor) -> Result<Tensor> {
        let x2 = self.cached_input.as_ref().ok_or_else(|| {
            TensorError::Numerical("Linear::backward before forward".into())
        })?;
        let rows = x2.dims()[0];
        let g2 = grad_out.reshape(&[rows, self.out_features])?;
        // dW = gᵀ·x, db = colsum(g), dx = g·W.
        if self.weight.requires_grad {
            let gw = g2.matmul_ta(x2)?;
            self.weight.accumulate_grad(&gw)?;
        }
        if let Some(b) = &mut self.bias {
            if b.requires_grad {
                let gb = g2.sum_axis(0)?;
                b.accumulate_grad(&gb)?;
            }
        }
        let gx = g2.matmul(&self.weight.value)?;
        // Restore the caller's input shape.
        let mut dims = grad_out.dims().to_vec();
        *dims.last_mut().expect("non-empty") = self.in_features;
        gx.reshape(&dims)
    }

    fn params(&self) -> Vec<&Parameter> {
        let mut v = vec![&self.weight];
        if let Some(b) = &self.bias {
            v.push(b);
        }
        v
    }

    fn params_mut(&mut self) -> Vec<&mut Parameter> {
        let mut v = vec![&mut self.weight];
        if let Some(b) = &mut self.bias {
            v.push(b);
        }
        v
    }

    fn kind(&self) -> &'static str {
        "Linear"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layer::gradcheck_input;

    #[test]
    fn forward_matches_manual_affine() {
        let mut rng = Rng::new(1);
        let mut l = Linear::new("l", 2, 3, true, &mut rng);
        l.weight.value = Tensor::from_vec(vec![1.0, 0.0, 0.0, 1.0, 1.0, 1.0], &[3, 2]).unwrap();
        l.bias.as_mut().unwrap().value = Tensor::from_vec(vec![0.5, -0.5, 0.0], &[3]).unwrap();
        let x = Tensor::from_vec(vec![2.0, 3.0], &[1, 2]).unwrap();
        let y = l.forward(&x, Mode::Train).unwrap();
        assert_eq!(y.data(), &[2.5, 2.5, 5.0]);
    }

    #[test]
    fn supports_rank3_token_streams() {
        let mut rng = Rng::new(2);
        let mut l = Linear::new("l", 4, 6, true, &mut rng);
        let x = Tensor::randn(&[2, 5, 4], &mut rng);
        let y = l.forward(&x, Mode::Train).unwrap();
        assert_eq!(y.dims(), &[2, 5, 6]);
        let gx = l.backward(&Tensor::ones(&[2, 5, 6])).unwrap();
        assert_eq!(gx.dims(), &[2, 5, 4]);
    }

    #[test]
    fn gradcheck_input_gradient() {
        let mut rng = Rng::new(3);
        let mut l = Linear::new("l", 5, 4, true, &mut rng);
        let x = Tensor::randn(&[3, 5], &mut rng);
        let worst = gradcheck_input(&mut l, &x, &[0, 4, 9, 14], 1e-2).unwrap();
        assert!(worst < 1e-2, "gradcheck deviation {worst}");
    }

    #[test]
    fn weight_gradient_matches_finite_difference() {
        let mut rng = Rng::new(4);
        let mut l = Linear::new("l", 3, 2, false, &mut rng);
        let x = Tensor::randn(&[4, 3], &mut rng);
        let c = Tensor::randn(&[4, 2], &mut rng);
        let _ = l.forward(&x, Mode::Train).unwrap();
        let _ = l.backward(&c).unwrap();
        let analytic = l.weight.grad.clone().unwrap();
        let eps = 1e-2;
        for probe in [0, 3, 5] {
            let orig = l.weight.value.data()[probe];
            l.weight.value.data_mut()[probe] = orig + eps;
            let yp = l.forward(&x, Mode::Train).unwrap().dot(&c).unwrap();
            l.weight.value.data_mut()[probe] = orig - eps;
            let ym = l.forward(&x, Mode::Train).unwrap().dot(&c).unwrap();
            l.weight.value.data_mut()[probe] = orig;
            let numeric = (yp - ym) / (2.0 * eps);
            assert!((numeric - analytic.data()[probe]).abs() < 1e-2);
        }
    }

    #[test]
    fn rejects_wrong_feature_count() {
        let mut rng = Rng::new(5);
        let mut l = Linear::new("l", 3, 2, true, &mut rng);
        assert!(l.forward(&Tensor::zeros(&[2, 4]), Mode::Train).is_err());
    }

    #[test]
    fn backward_before_forward_errors() {
        let mut rng = Rng::new(6);
        let mut l = Linear::new("l", 3, 2, true, &mut rng);
        assert!(l.backward(&Tensor::zeros(&[2, 2])).is_err());
    }

    #[test]
    fn eval_forward_keeps_nothing_for_backward() {
        let mut rng = Rng::new(7);
        let mut l = Linear::new("l", 4, 3, true, &mut rng);
        let x = Tensor::randn(&[2, 5, 4], &mut rng);
        crate::layer::check_eval_contract(&mut l, &x).unwrap();
    }
}
