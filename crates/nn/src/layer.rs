//! The layer trait and sequential composition.

use crate::param::Parameter;
use egeria_tensor::{Result, Tensor};

/// Forward-pass mode.
///
/// `Eval` makes BatchNorm normalize with its running statistics — the mode
/// [`Network::forward_range`](crate::net::Network::forward_range) gives every
/// frozen block, even inside a training step (§4.3 of the paper).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Training: batch statistics.
    Train,
    /// Inference: running statistics.
    Eval,
}

/// A differentiable layer: caches its forward context and implements an
/// explicit backward pass.
///
/// Contract:
///
/// - `backward` must be called at most once per `forward`, with a gradient
///   whose shape matches the forward output;
/// - parameter gradients are *accumulated* into [`Parameter::grad`];
/// - layers must honour `Parameter::requires_grad == false` by skipping the
///   accumulation (input gradients are still propagated — the trainer stops
///   backpropagation at the module boundary, not the layer).
pub trait Layer: Send {
    /// Computes the layer output, caching whatever `backward` needs.
    fn forward(&mut self, x: &Tensor, mode: Mode) -> Result<Tensor>;

    /// Backpropagates `grad_out`, accumulating parameter gradients and
    /// returning the gradient with respect to the forward input.
    fn backward(&mut self, grad_out: &Tensor) -> Result<Tensor>;

    /// Immutable views of the layer's parameters (possibly empty).
    fn params(&self) -> Vec<&Parameter>;

    /// Mutable views of the layer's parameters (possibly empty).
    fn params_mut(&mut self) -> Vec<&mut Parameter>;

    /// A short type name for diagnostics, e.g. `"Conv2d"`.
    fn kind(&self) -> &'static str;

    /// Non-parameter state buffers (e.g. BatchNorm running statistics) in a
    /// stable order; empty for stateless layers.
    ///
    /// Snapshot copies must include these or frozen BatchNorm layers in the
    /// copy would normalize with stale statistics.
    fn state_buffers(&self) -> Vec<&Tensor> {
        Vec::new()
    }

    /// Mutable view of [`Layer::state_buffers`].
    fn state_buffers_mut(&mut self) -> Vec<&mut Tensor> {
        Vec::new()
    }

    /// Sets `requires_grad` on every parameter of this layer.
    fn set_trainable(&mut self, trainable: bool) {
        for p in self.params_mut() {
            p.requires_grad = trainable;
        }
    }

    /// Total scalar parameter count.
    fn param_count(&self) -> usize {
        self.params().iter().map(|p| p.numel()).sum()
    }

    /// Clears all accumulated gradients.
    fn zero_grad(&mut self) {
        for p in self.params_mut() {
            p.zero_grad();
        }
    }
}

/// A chain of layers applied in order.
pub struct Sequential {
    layers: Vec<Box<dyn Layer>>,
}

impl Sequential {
    /// Creates an empty chain.
    pub fn new() -> Self {
        Sequential { layers: Vec::new() }
    }

    /// Appends a layer (builder style).
    pub fn push(mut self, layer: Box<dyn Layer>) -> Self {
        self.layers.push(layer);
        self
    }

    /// Appends a layer in place.
    pub fn add(&mut self, layer: Box<dyn Layer>) {
        self.layers.push(layer);
    }

    /// Number of layers in the chain.
    pub fn len(&self) -> usize {
        self.layers.len()
    }

    /// Whether the chain is empty.
    pub fn is_empty(&self) -> bool {
        self.layers.is_empty()
    }
}

impl Default for Sequential {
    fn default() -> Self {
        Self::new()
    }
}

impl Layer for Sequential {
    fn forward(&mut self, x: &Tensor, mode: Mode) -> Result<Tensor> {
        let mut cur = x.clone();
        for layer in &mut self.layers {
            cur = layer.forward(&cur, mode)?;
        }
        Ok(cur)
    }

    fn backward(&mut self, grad_out: &Tensor) -> Result<Tensor> {
        let mut g = grad_out.clone();
        for layer in self.layers.iter_mut().rev() {
            g = layer.backward(&g)?;
        }
        Ok(g)
    }

    fn params(&self) -> Vec<&Parameter> {
        self.layers.iter().flat_map(|l| l.params()).collect()
    }

    fn params_mut(&mut self) -> Vec<&mut Parameter> {
        self.layers.iter_mut().flat_map(|l| l.params_mut()).collect()
    }

    fn state_buffers(&self) -> Vec<&Tensor> {
        self.layers.iter().flat_map(|l| l.state_buffers()).collect()
    }

    fn state_buffers_mut(&mut self) -> Vec<&mut Tensor> {
        self.layers
            .iter_mut()
            .flat_map(|l| l.state_buffers_mut())
            .collect()
    }

    fn kind(&self) -> &'static str {
        "Sequential"
    }
}

/// The identity layer (useful as a residual shortcut placeholder).
pub struct Identity;

impl Layer for Identity {
    fn forward(&mut self, x: &Tensor, _mode: Mode) -> Result<Tensor> {
        Ok(x.clone())
    }

    fn backward(&mut self, grad_out: &Tensor) -> Result<Tensor> {
        Ok(grad_out.clone())
    }

    fn params(&self) -> Vec<&Parameter> {
        Vec::new()
    }

    fn params_mut(&mut self) -> Vec<&mut Parameter> {
        Vec::new()
    }

    fn kind(&self) -> &'static str {
        "Identity"
    }
}

/// Numerically checks a layer's input gradient against central finite
/// differences of a random linear functional of the output.
///
/// Intended for tests: returns the maximum absolute deviation over `probes`
/// random input coordinates.
pub fn gradcheck_input(
    layer: &mut dyn Layer,
    x: &Tensor,
    probes: &[usize],
    eps: f32,
) -> Result<f32> {
    use egeria_tensor::Rng;
    let y = layer.forward(x, Mode::Train)?;
    let mut rng = Rng::new(0xBEEF);
    let c = Tensor::randn(y.dims(), &mut rng);
    let gx = layer.backward(&c)?;
    let mut worst = 0.0f32;
    for &p in probes {
        let mut xp = x.clone();
        xp.data_mut()[p] += eps;
        let yp = layer.forward(&xp, Mode::Train)?.dot(&c)?;
        let mut xm = x.clone();
        xm.data_mut()[p] -= eps;
        let ym = layer.forward(&xm, Mode::Train)?.dot(&c)?;
        let numeric = (yp - ym) / (2.0 * eps);
        worst = worst.max((numeric - gx.data()[p]).abs());
    }
    // Restore the cached forward context for the caller.
    let _ = layer.forward(x, Mode::Train)?;
    Ok(worst)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::linear::Linear;
    use egeria_tensor::Rng;

    #[test]
    fn identity_round_trips() {
        let mut id = Identity;
        let x = Tensor::arange(4);
        assert_eq!(id.forward(&x, Mode::Train).unwrap(), x);
        assert_eq!(id.backward(&x).unwrap(), x);
        assert_eq!(id.param_count(), 0);
    }

    #[test]
    fn sequential_composes_forward_and_backward() {
        let mut rng = Rng::new(1);
        let mut seq = Sequential::new()
            .push(Box::new(Linear::new("l1", 4, 8, true, &mut rng)))
            .push(Box::new(Linear::new("l2", 8, 2, true, &mut rng)));
        assert_eq!(seq.len(), 2);
        let x = Tensor::randn(&[3, 4], &mut rng);
        let y = seq.forward(&x, Mode::Train).unwrap();
        assert_eq!(y.dims(), &[3, 2]);
        let gx = seq.backward(&Tensor::ones(&[3, 2])).unwrap();
        assert_eq!(gx.dims(), &[3, 4]);
        // Both layers should have gradients on weight and bias.
        assert_eq!(seq.params().len(), 4);
        assert!(seq.params().iter().all(|p| p.grad.is_some()));
    }

    #[test]
    fn set_trainable_freezes_everything() {
        let mut rng = Rng::new(2);
        let mut seq = Sequential::new().push(Box::new(Linear::new("l", 3, 3, true, &mut rng)));
        seq.set_trainable(false);
        assert!(seq.params().iter().all(|p| !p.requires_grad));
        let x = Tensor::randn(&[2, 3], &mut rng);
        let _ = seq.forward(&x, Mode::Train).unwrap();
        let _ = seq.backward(&Tensor::ones(&[2, 3])).unwrap();
        assert!(seq.params().iter().all(|p| p.grad.is_none()));
    }

    #[test]
    fn zero_grad_clears_gradients() {
        let mut rng = Rng::new(3);
        let mut seq = Sequential::new().push(Box::new(Linear::new("l", 3, 3, true, &mut rng)));
        let x = Tensor::randn(&[2, 3], &mut rng);
        let _ = seq.forward(&x, Mode::Train).unwrap();
        let _ = seq.backward(&Tensor::ones(&[2, 3])).unwrap();
        seq.zero_grad();
        assert!(seq.params().iter().all(|p| p.grad.is_none()));
    }
}
