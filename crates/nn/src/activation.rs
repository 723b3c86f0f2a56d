//! Elementwise activation layers.
//!
//! The transcendental activations (GELU/Tanh/Sigmoid) and softmax route
//! their exp/tanh sweeps through [`egeria_tensor::simd`]: under
//! `EGERIA_SIMD=scalar` that layer calls libm exactly like the seed code
//! (bit-identical, golden-run-pinned); under a vector ISA it runs the
//! polynomial kernels (toleranced — DESIGN §5g). The surrounding
//! per-element arithmetic here replicates the scalar reference expressions
//! [`Activation::apply`]/[`Activation::derivative`] operation-for-operation
//! so the only numerical difference between ISAs is inside exp/tanh.

use crate::layer::{Layer, Mode};
use crate::param::Parameter;
use egeria_tensor::{simd, Result, Tensor, TensorError};

/// √(2/π), the GELU tanh-approximation constant.
const GELU_C: f32 = 0.797_884_6;

/// Which nonlinearity an [`Activation`] layer applies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Act {
    /// `max(0, x)`.
    Relu,
    /// `min(max(0, x), 6)` (MobileNetV2's clipped ReLU).
    Relu6,
    /// The tanh-approximated Gaussian error linear unit (Transformers/BERT).
    Gelu,
    /// Hyperbolic tangent.
    Tanh,
    /// Logistic sigmoid.
    Sigmoid,
}

/// A stateless elementwise activation with cached-input backward.
pub struct Activation {
    act: Act,
    cached_input: Option<Tensor>,
}

impl Activation {
    /// Creates an activation layer of the given kind.
    pub fn new(act: Act) -> Self {
        Activation {
            act,
            cached_input: None,
        }
    }

    /// Applies the activation to a raw value (the scalar reference for the
    /// vectorized tensor paths below).
    pub fn apply(act: Act, x: f32) -> f32 {
        match act {
            Act::Relu => x.max(0.0),
            Act::Relu6 => x.clamp(0.0, 6.0),
            Act::Gelu => {
                // tanh approximation: 0.5x(1 + tanh(√(2/π)(x + 0.044715x³))).
                0.5 * x * (1.0 + (GELU_C * (x + 0.044_715 * x * x * x)).tanh())
            }
            Act::Tanh => x.tanh(),
            Act::Sigmoid => 1.0 / (1.0 + (-x).exp()),
        }
    }

    /// Derivative of the activation at a raw input value.
    pub fn derivative(act: Act, x: f32) -> f32 {
        match act {
            Act::Relu => {
                if x > 0.0 {
                    1.0
                } else {
                    0.0
                }
            }
            Act::Relu6 => {
                if x > 0.0 && x < 6.0 {
                    1.0
                } else {
                    0.0
                }
            }
            Act::Gelu => {
                let inner = GELU_C * (x + 0.044_715 * x * x * x);
                let t = inner.tanh();
                let dinner = GELU_C * (1.0 + 3.0 * 0.044_715 * x * x);
                0.5 * (1.0 + t) + 0.5 * x * (1.0 - t * t) * dinner
            }
            Act::Tanh => {
                let t = x.tanh();
                1.0 - t * t
            }
            Act::Sigmoid => {
                let s = Self::apply(Act::Sigmoid, x);
                s * (1.0 - s)
            }
        }
    }
}

/// The GELU inner argument `√(2/π)(x + 0.044715x³)` for every element of
/// `x`, ready for one vectorized tanh sweep.
fn gelu_inner(x: &Tensor) -> Tensor {
    x.map(|v| GELU_C * (v + 0.044_715 * v * v * v))
}

/// `tanh(x)` elementwise through the SIMD layer.
fn tanh_tensor(x: &Tensor) -> Tensor {
    let mut t = x.clone();
    simd::tanh_inplace(t.data_mut());
    t
}

/// `sigmoid(x)` elementwise: one vectorized exp sweep, then the same
/// `1 / (1 + e)` arithmetic as the scalar reference.
fn sigmoid_tensor(x: &Tensor) -> Tensor {
    let mut e = x.map(|v| -v);
    simd::exp_inplace(e.data_mut());
    e.map_inplace(|ev| 1.0 / (1.0 + ev));
    e
}

impl Layer for Activation {
    fn forward(&mut self, x: &Tensor, mode: Mode) -> Result<Tensor> {
        self.cached_input = (mode == Mode::Train).then(|| x.clone());
        let act = self.act;
        Ok(match act {
            Act::Relu | Act::Relu6 => x.map(|v| Self::apply(act, v)),
            Act::Tanh => tanh_tensor(x),
            Act::Sigmoid => sigmoid_tensor(x),
            Act::Gelu => {
                let mut t = gelu_inner(x);
                simd::tanh_inplace(t.data_mut());
                for (tv, &xv) in t.data_mut().iter_mut().zip(x.data().iter()) {
                    *tv = 0.5 * xv * (1.0 + *tv);
                }
                t
            }
        })
    }

    fn backward(&mut self, grad_out: &Tensor) -> Result<Tensor> {
        let x = self
            .cached_input
            .as_ref()
            .ok_or_else(|| TensorError::Numerical("Activation::backward before forward".into()))?;
        if x.dims() != grad_out.dims() {
            return Err(TensorError::ShapeMismatch {
                op: "activation backward",
                lhs: x.dims().to_vec(),
                rhs: grad_out.dims().to_vec(),
            });
        }
        let act = self.act;
        let mut g = grad_out.clone();
        match act {
            Act::Relu | Act::Relu6 => {
                for (gv, &xv) in g.data_mut().iter_mut().zip(x.data().iter()) {
                    *gv *= Self::derivative(act, xv);
                }
            }
            Act::Tanh => {
                let t = tanh_tensor(x);
                for (gv, &tv) in g.data_mut().iter_mut().zip(t.data().iter()) {
                    *gv *= 1.0 - tv * tv;
                }
            }
            Act::Sigmoid => {
                let s = sigmoid_tensor(x);
                for (gv, &sv) in g.data_mut().iter_mut().zip(s.data().iter()) {
                    *gv *= sv * (1.0 - sv);
                }
            }
            Act::Gelu => {
                let mut t = gelu_inner(x);
                simd::tanh_inplace(t.data_mut());
                for ((gv, &tv), &xv) in g
                    .data_mut()
                    .iter_mut()
                    .zip(t.data().iter())
                    .zip(x.data().iter())
                {
                    let dinner = GELU_C * (1.0 + 3.0 * 0.044_715 * xv * xv);
                    *gv *= 0.5 * (1.0 + tv) + 0.5 * xv * (1.0 - tv * tv) * dinner;
                }
            }
        }
        Ok(g)
    }

    fn params(&self) -> Vec<&Parameter> {
        Vec::new()
    }

    fn params_mut(&mut self) -> Vec<&mut Parameter> {
        Vec::new()
    }

    fn kind(&self) -> &'static str {
        match self.act {
            Act::Relu => "ReLU",
            Act::Relu6 => "ReLU6",
            Act::Gelu => "GELU",
            Act::Tanh => "Tanh",
            Act::Sigmoid => "Sigmoid",
        }
    }
}

/// Numerically stable softmax over the last axis.
pub fn softmax_last(x: &Tensor) -> Result<Tensor> {
    let k = *x.dims().last().ok_or(TensorError::ShapeMismatch {
        op: "softmax",
        lhs: x.dims().to_vec(),
        rhs: vec![],
    })?;
    if k == 0 {
        return Err(TensorError::Numerical("softmax over empty axis".into()));
    }
    let rows = x.numel() / k;
    let mut out = x.clone();
    for r in 0..rows {
        simd::softmax_row(&mut out.data_mut()[r * k..(r + 1) * k]);
    }
    Ok(out)
}

/// Backward of [`softmax_last`]: `dx = p ∘ (dy − rowsum(dy ∘ p))`.
pub fn softmax_last_grad(probs: &Tensor, grad_out: &Tensor) -> Result<Tensor> {
    if probs.dims() != grad_out.dims() {
        return Err(TensorError::ShapeMismatch {
            op: "softmax grad",
            lhs: probs.dims().to_vec(),
            rhs: grad_out.dims().to_vec(),
        });
    }
    let k = *probs.dims().last().expect("shape checked");
    let rows = probs.numel() / k;
    let mut gx = grad_out.clone();
    for r in 0..rows {
        let p = &probs.data()[r * k..(r + 1) * k];
        let g = &mut gx.data_mut()[r * k..(r + 1) * k];
        let dot: f32 = p.iter().zip(g.iter()).map(|(&pv, &gv)| pv * gv).sum();
        for (gv, &pv) in g.iter_mut().zip(p.iter()) {
            *gv = pv * (*gv - dot);
        }
    }
    Ok(gx)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layer::gradcheck_input;
    use egeria_tensor::Rng;

    #[test]
    fn relu_clips_negatives() {
        let mut a = Activation::new(Act::Relu);
        let x = Tensor::from_vec(vec![-1.0, 0.0, 2.0], &[3]).unwrap();
        assert_eq!(a.forward(&x, Mode::Train).unwrap().data(), &[0.0, 0.0, 2.0]);
        let g = a.backward(&Tensor::ones(&[3])).unwrap();
        assert_eq!(g.data(), &[0.0, 0.0, 1.0]);
    }

    #[test]
    fn relu6_clips_both_ends() {
        let mut a = Activation::new(Act::Relu6);
        let x = Tensor::from_vec(vec![-1.0, 3.0, 9.0], &[3]).unwrap();
        assert_eq!(a.forward(&x, Mode::Train).unwrap().data(), &[0.0, 3.0, 6.0]);
        let g = a.backward(&Tensor::ones(&[3])).unwrap();
        assert_eq!(g.data(), &[0.0, 1.0, 0.0]);
    }

    #[test]
    fn smooth_activations_pass_gradcheck() {
        let mut rng = Rng::new(1);
        for act in [Act::Gelu, Act::Tanh, Act::Sigmoid] {
            let mut a = Activation::new(act);
            let x = Tensor::randn(&[10], &mut rng);
            let worst = gradcheck_input(&mut a, &x, &[0, 3, 7], 1e-3).unwrap();
            assert!(worst < 1e-2, "{act:?} deviation {worst}");
        }
    }

    #[test]
    fn softmax_rows_sum_to_one() {
        let mut rng = Rng::new(2);
        let x = Tensor::randn(&[4, 7], &mut rng);
        let p = softmax_last(&x).unwrap();
        for r in 0..4 {
            let s: f32 = p.data()[r * 7..(r + 1) * 7].iter().sum();
            assert!((s - 1.0).abs() < 1e-5);
        }
        assert!(p.min() >= 0.0);
    }

    #[test]
    fn softmax_is_shift_invariant() {
        let x = Tensor::from_vec(vec![1.0, 2.0, 3.0], &[1, 3]).unwrap();
        let shifted = x.add_scalar(100.0);
        assert!(softmax_last(&x)
            .unwrap()
            .allclose(&softmax_last(&shifted).unwrap(), 1e-5));
    }

    #[test]
    fn softmax_grad_matches_finite_difference() {
        let mut rng = Rng::new(3);
        let x = Tensor::randn(&[2, 5], &mut rng);
        let c = Tensor::randn(&[2, 5], &mut rng);
        let p = softmax_last(&x).unwrap();
        let gx = softmax_last_grad(&p, &c).unwrap();
        let eps = 1e-3;
        for probe in [0usize, 4, 7] {
            let mut xp = x.clone();
            xp.data_mut()[probe] += eps;
            let mut xm = x.clone();
            xm.data_mut()[probe] -= eps;
            let num = (softmax_last(&xp).unwrap().dot(&c).unwrap()
                - softmax_last(&xm).unwrap().dot(&c).unwrap())
                / (2.0 * eps);
            assert!((num - gx.data()[probe]).abs() < 1e-3);
        }
    }

    #[test]
    fn backward_requires_forward() {
        let mut a = Activation::new(Act::Relu);
        assert!(a.backward(&Tensor::ones(&[2])).is_err());
    }

    #[test]
    fn eval_forwards_keep_nothing_for_backward() {
        let mut rng = Rng::new(4);
        let x = Tensor::randn(&[3, 5], &mut rng).mul_scalar(4.0);
        for act in [Act::Relu, Act::Relu6, Act::Gelu, Act::Tanh, Act::Sigmoid] {
            crate::layer::check_eval_contract(&mut Activation::new(act), &x).unwrap();
        }
    }
}
