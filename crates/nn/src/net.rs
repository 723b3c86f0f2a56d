//! A network of named, freezable layer blocks.
//!
//! [`Network`] is the structure Egeria's `EgeriaModule` wraps: an ordered
//! list of *blocks* (the paper's "layer modules"), each of which can be
//! frozen independently. The network enforces the paper's invariants:
//!
//! - freezing always covers a *prefix* of blocks (§4.2.2: "KGT monitors the
//!   frontmost active layer module to avoid a fragmented frozen model"),
//! - frozen blocks run forward in `Eval` mode, which turns BatchNorm into
//!   dataset-statistics normalization and disables dropout (§4.3) — the
//!   property that makes their outputs cacheable,
//! - backward stops at the frozen/active boundary, skipping the frozen
//!   prefix's gradient computation entirely.

use crate::layer::{Layer, Mode};
use crate::param::Parameter;
use egeria_tensor::{Result, Tensor, TensorError};

/// A named freezable unit of the network.
pub struct Block {
    /// Block name, e.g. `"layer2"` or `"encoder.3"`.
    pub name: String,
    layer: Box<dyn Layer>,
    frozen: bool,
    param_count: usize,
}

impl Block {
    /// Whether the block is currently frozen.
    pub fn is_frozen(&self) -> bool {
        self.frozen
    }

    /// Total scalar parameters in the block.
    pub fn param_count(&self) -> usize {
        self.param_count
    }

    /// Immutable access to the wrapped layer.
    pub fn layer(&self) -> &dyn Layer {
        self.layer.as_ref()
    }

    /// Mutable access to the wrapped layer.
    pub fn layer_mut(&mut self) -> &mut dyn Layer {
        self.layer.as_mut()
    }
}

/// An ordered sequence of freezable blocks.
pub struct Network {
    blocks: Vec<Block>,
}

impl Network {
    /// Creates an empty network.
    pub fn new() -> Self {
        Network { blocks: Vec::new() }
    }

    /// Appends a named block.
    pub fn add_block(&mut self, name: impl Into<String>, layer: Box<dyn Layer>) {
        let param_count = layer.param_count();
        self.blocks.push(Block {
            name: name.into(),
            layer,
            frozen: false,
            param_count,
        });
    }

    /// Number of blocks.
    pub fn num_blocks(&self) -> usize {
        self.blocks.len()
    }

    /// The blocks, in order.
    pub fn blocks(&self) -> &[Block] {
        &self.blocks
    }

    /// Mutable access to a block by index.
    pub fn block_mut(&mut self, idx: usize) -> Option<&mut Block> {
        self.blocks.get_mut(idx)
    }

    /// Length of the frozen prefix (0 = nothing frozen).
    pub fn frozen_prefix(&self) -> usize {
        self.blocks.iter().take_while(|b| b.frozen).count()
    }

    /// Freezes exactly the first `k` blocks and thaws the rest.
    ///
    /// Returns an error if `k` exceeds the block count or would freeze the
    /// entire network (the last block must stay active — Algorithm 1 asserts
    /// `l` is never the last layer).
    pub fn freeze_prefix(&mut self, k: usize) -> Result<()> {
        if k >= self.blocks.len() && !(k == 0 && self.blocks.is_empty()) {
            return Err(TensorError::Numerical(format!(
                "cannot freeze {k} of {} blocks: the last block must stay active",
                self.blocks.len()
            )));
        }
        for (i, b) in self.blocks.iter_mut().enumerate() {
            let frozen = i < k;
            if b.frozen != frozen {
                b.frozen = frozen;
                b.layer.set_trainable(!frozen);
            }
        }
        Ok(())
    }

    /// Unfreezes every block (the LR-annealing unfreeze of §4.2.2).
    pub fn unfreeze_all(&mut self) {
        for b in &mut self.blocks {
            if b.frozen {
                b.frozen = false;
                b.layer.set_trainable(true);
            }
        }
    }

    /// Forward through all blocks; frozen blocks run in `Eval` mode.
    pub fn forward(&mut self, x: &Tensor, mode: Mode) -> Result<Tensor> {
        self.forward_from(0, x, mode)
    }

    /// Forward starting at block `start` from a given activation.
    ///
    /// This is the cached-FP entry point: when the frozen prefix's output
    /// was read from the activation cache, training resumes here
    /// (§4.3 of the paper).
    pub fn forward_from(&mut self, start: usize, x: &Tensor, mode: Mode) -> Result<Tensor> {
        if start > self.blocks.len() {
            return Err(TensorError::AxisOutOfRange {
                axis: start,
                rank: self.blocks.len(),
            });
        }
        let mut cur = x.clone();
        for b in &mut self.blocks[start..] {
            let m = if b.frozen { Mode::Eval } else { mode };
            cur = b.layer.forward(&cur, m)?;
        }
        Ok(cur)
    }

    /// Forward that additionally captures the output activation of block
    /// `capture` (the forward hook used for plasticity evaluation).
    pub fn forward_capture(
        &mut self,
        x: &Tensor,
        mode: Mode,
        capture: usize,
    ) -> Result<(Tensor, Tensor)> {
        if capture >= self.blocks.len() {
            return Err(TensorError::AxisOutOfRange {
                axis: capture,
                rank: self.blocks.len(),
            });
        }
        let mut cur = x.clone();
        let mut captured = None;
        for (i, b) in self.blocks.iter_mut().enumerate() {
            let m = if b.frozen { Mode::Eval } else { mode };
            cur = b.layer.forward(&cur, m)?;
            if i == capture {
                captured = Some(cur.clone());
            }
        }
        Ok((cur, captured.expect("capture index checked")))
    }

    /// Forward that stops after block `until`, returning its output.
    ///
    /// The reference model only needs the activation of the module under
    /// plasticity evaluation, so its forward pass ends there (§4.1.2).
    pub fn forward_until(&mut self, x: &Tensor, mode: Mode, until: usize) -> Result<Tensor> {
        if until >= self.blocks.len() {
            return Err(TensorError::AxisOutOfRange {
                axis: until,
                rank: self.blocks.len(),
            });
        }
        let mut cur = x.clone();
        for b in &mut self.blocks[..=until] {
            let m = if b.frozen { Mode::Eval } else { mode };
            cur = b.layer.forward(&cur, m)?;
        }
        Ok(cur)
    }

    /// Backward from the loss gradient, stopping at the frozen/active
    /// boundary. Returns the number of blocks whose backward ran.
    pub fn backward(&mut self, grad_out: &Tensor) -> Result<usize> {
        let stop = self.frozen_prefix();
        let mut g = grad_out.clone();
        let mut ran = 0usize;
        for i in (stop..self.blocks.len()).rev() {
            // The frontmost active block still computes parameter grads but
            // its input gradient is discarded — backpropagation ends here.
            g = self.blocks[i].layer.backward(&g)?;
            ran += 1;
        }
        Ok(ran)
    }

    /// All parameters, frozen or not.
    pub fn params(&self) -> Vec<&Parameter> {
        self.blocks.iter().flat_map(|b| b.layer.params()).collect()
    }

    /// All parameters, mutably (the optimizer's view).
    pub fn params_mut(&mut self) -> Vec<&mut Parameter> {
        self.blocks
            .iter_mut()
            .flat_map(|b| b.layer.params_mut())
            .collect()
    }

    /// Clears all gradients.
    pub fn zero_grad(&mut self) {
        for b in &mut self.blocks {
            b.layer.zero_grad();
        }
    }

    /// Total scalar parameter count.
    pub fn param_count(&self) -> usize {
        self.blocks.iter().map(|b| b.param_count).sum()
    }

    /// Fraction of parameters that are still trainable (Figure 12's y-axis).
    pub fn active_param_fraction(&self) -> f32 {
        let total = self.param_count();
        if total == 0 {
            return 1.0;
        }
        let active: usize = self
            .blocks
            .iter()
            .filter(|b| !b.frozen)
            .map(|b| b.param_count)
            .sum();
        active as f32 / total as f32
    }

    /// All non-parameter state buffers (BatchNorm running statistics) in
    /// block order.
    pub fn state_buffers(&self) -> Vec<&Tensor> {
        self.blocks
            .iter()
            .flat_map(|b| b.layer.state_buffers())
            .collect()
    }

    /// Mutable view of [`Network::state_buffers`].
    pub fn state_buffers_mut(&mut self) -> Vec<&mut Tensor> {
        self.blocks
            .iter_mut()
            .flat_map(|b| b.layer.state_buffers_mut())
            .collect()
    }

    /// Copies non-parameter state (BatchNorm running statistics) from
    /// `other`; architectures must match.
    pub fn copy_running_stats_from(&mut self, other: &Network) -> Result<()> {
        let src: Vec<&Tensor> = other.state_buffers();
        let mut dst: Vec<&mut Tensor> = self.state_buffers_mut();
        if src.len() != dst.len() {
            return Err(TensorError::ShapeMismatch {
                op: "copy_running_stats_from",
                lhs: vec![dst.len()],
                rhs: vec![src.len()],
            });
        }
        for (d, s) in dst.iter_mut().zip(src.iter()) {
            **d = (*s).clone();
        }
        Ok(())
    }

    /// Copies every parameter value from `other` (architectures must match).
    ///
    /// Used to refresh reference-model snapshots.
    pub fn copy_params_from(&mut self, other: &Network) -> Result<()> {
        let src = other.params();
        let mut dst = self.params_mut();
        if src.len() != dst.len() {
            return Err(TensorError::ShapeMismatch {
                op: "copy_params_from",
                lhs: vec![dst.len()],
                rhs: vec![src.len()],
            });
        }
        for (d, s) in dst.iter_mut().zip(src.iter()) {
            if d.value.dims() != s.value.dims() {
                return Err(TensorError::ShapeMismatch {
                    op: "copy_params_from",
                    lhs: d.value.dims().to_vec(),
                    rhs: s.value.dims().to_vec(),
                });
            }
            d.value = s.value.clone();
        }
        Ok(())
    }
}

impl Default for Network {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::activation::{Act, Activation};
    use crate::linear::Linear;
    use egeria_tensor::Rng;

    fn three_block_net(rng: &mut Rng) -> Network {
        let mut net = Network::new();
        net.add_block("b0", Box::new(Linear::new("b0", 4, 8, true, rng)));
        net.add_block("b1", Box::new(Linear::new("b1", 8, 8, true, rng)));
        net.add_block("b2", Box::new(Linear::new("b2", 8, 3, true, rng)));
        net
    }

    #[test]
    fn forward_backward_all_blocks() {
        let mut rng = Rng::new(1);
        let mut net = three_block_net(&mut rng);
        let x = Tensor::randn(&[2, 4], &mut rng);
        let y = net.forward(&x, Mode::Train).unwrap();
        assert_eq!(y.dims(), &[2, 3]);
        let ran = net.backward(&Tensor::ones(&[2, 3])).unwrap();
        assert_eq!(ran, 3);
        assert!(net.params().iter().all(|p| p.grad.is_some()));
    }

    #[test]
    fn freeze_prefix_skips_backward_for_frozen_blocks() {
        let mut rng = Rng::new(2);
        let mut net = three_block_net(&mut rng);
        net.freeze_prefix(2).unwrap();
        assert_eq!(net.frozen_prefix(), 2);
        let x = Tensor::randn(&[2, 4], &mut rng);
        let _ = net.forward(&x, Mode::Train).unwrap();
        let ran = net.backward(&Tensor::ones(&[2, 3])).unwrap();
        assert_eq!(ran, 1);
        // Frozen blocks have no grads; active block does.
        let grads: Vec<bool> = net.params().iter().map(|p| p.grad.is_some()).collect();
        assert_eq!(grads, vec![false, false, false, false, true, true]);
    }

    #[test]
    fn cannot_freeze_everything() {
        let mut rng = Rng::new(3);
        let mut net = three_block_net(&mut rng);
        assert!(net.freeze_prefix(3).is_err());
        assert!(net.freeze_prefix(2).is_ok());
    }

    #[test]
    fn unfreeze_all_restores_training() {
        let mut rng = Rng::new(4);
        let mut net = three_block_net(&mut rng);
        net.freeze_prefix(2).unwrap();
        net.unfreeze_all();
        assert_eq!(net.frozen_prefix(), 0);
        assert!(net.params().iter().all(|p| p.requires_grad));
    }

    #[test]
    fn forward_from_matches_full_forward() {
        let mut rng = Rng::new(5);
        let mut net = three_block_net(&mut rng);
        let x = Tensor::randn(&[2, 4], &mut rng);
        let (full, mid) = net.forward_capture(&x, Mode::Train, 0).unwrap();
        let resumed = net.forward_from(1, &mid, Mode::Train).unwrap();
        assert!(full.allclose(&resumed, 1e-6));
    }

    #[test]
    fn active_param_fraction_tracks_freezing() {
        let mut rng = Rng::new(6);
        let mut net = three_block_net(&mut rng);
        assert!((net.active_param_fraction() - 1.0).abs() < 1e-6);
        net.freeze_prefix(1).unwrap();
        let expected = 1.0 - net.blocks()[0].param_count() as f32 / net.param_count() as f32;
        assert!((net.active_param_fraction() - expected).abs() < 1e-6);
    }

    #[test]
    fn copy_params_from_clones_values() {
        let mut rng = Rng::new(7);
        let src = three_block_net(&mut rng);
        let mut dst = three_block_net(&mut rng);
        assert_ne!(dst.params()[0].value, src.params()[0].value);
        dst.copy_params_from(&src).unwrap();
        for (d, s) in dst.params().iter().zip(src.params().iter()) {
            assert_eq!(d.value, s.value);
        }
    }

    #[test]
    fn frozen_block_with_nonparam_layer() {
        let mut rng = Rng::new(8);
        let mut net = Network::new();
        net.add_block("act", Box::new(Activation::new(Act::Relu)));
        net.add_block("head", Box::new(Linear::new("h", 4, 2, true, &mut rng)));
        net.freeze_prefix(1).unwrap();
        let x = Tensor::randn(&[2, 4], &mut rng);
        let _ = net.forward(&x, Mode::Train).unwrap();
        assert_eq!(net.backward(&Tensor::ones(&[2, 2])).unwrap(), 1);
    }
}
