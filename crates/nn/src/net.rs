//! A network of named, freezable layer blocks.
//!
//! [`Network`] is the structure Egeria's `EgeriaModule` wraps: an ordered
//! chain of *blocks* (the paper's "layer modules") of which a *prefix* is
//! frozen (§4.2.2: "KGT monitors the frontmost active layer module to avoid
//! a fragmented frozen model"). It is the only chain that knows what
//! "frozen" means, and it states the rule once, in one walk:
//!
//! - [`Network::forward_range`] is the only forward loop. A frozen block
//!   runs in `Mode::Eval` whatever mode the caller asked for, so BatchNorm
//!   normalizes with its running statistics and leaves them untouched
//!   (§4.3), and — the [`Layer`] contract — the block keeps no activations
//!   for a backward that will never reach it. That is the whole mechanism
//!   — no layer carries a freezing switch of its own — and it is what
//!   makes a frozen prefix's output cacheable. An active block runs in the
//!   caller's mode; a walk in `Mode::Eval` (validation, a reference
//!   capture) keeps nothing anywhere.
//! - Capture happens inside that walk: the output of block `capture` is
//!   copied as the walk passes it (the forward hook of plasticity
//!   evaluation), so a training step and a probe are the same pass.
//! - A cached step resumes the walk at the first active block: the range
//!   starts at the frozen-prefix length and `x` is the cached output of
//!   the block before it. A reference capture ends the range after the
//!   block under evaluation (§4.1.2).
//! - [`Network::backward`] stops at the frozen/active boundary and hands
//!   back the gradient entering the first active block.
//!
//! Whether the *last* block may be frozen is the owner's call: a vision or
//! BERT model keeps its last module active (Algorithm 1 never freezes the
//! last layer), while the Transformer's encoder stack is followed by
//! decoder modules and may be frozen whole.

use crate::layer::{Layer, Mode};
use crate::param::Parameter;
use std::ops::Range;
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
    /// Total scalar parameters in the block.
    pub fn param_count(&self) -> usize {
        self.param_count
    }

    /// Immutable access to the wrapped layer.
    pub fn layer(&self) -> &dyn Layer {
        self.layer.as_ref()
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

    /// Length of the frozen prefix (0 = nothing frozen).
    pub fn frozen_prefix(&self) -> usize {
        self.blocks.iter().take_while(|b| b.frozen).count()
    }

    /// Freezes exactly the first `k` blocks and thaws the rest.
    ///
    /// Returns an error if `k` exceeds the block count. `k` may equal it:
    /// whether the chain's last block must stay active is decided by the
    /// model that owns the chain.
    pub fn freeze_prefix(&mut self, k: usize) -> Result<()> {
        if k > self.blocks.len() {
            return Err(TensorError::AxisOutOfRange {
                axis: k,
                rank: self.blocks.len(),
            });
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
        let _ = self.freeze_prefix(0); // 0 never exceeds the block count
    }

    /// The block walk: runs `x` through `blocks`, frozen blocks in
    /// `Mode::Eval` and active ones in `mode`, and returns the last block's
    /// output together with a copy of block `capture`'s output.
    ///
    /// `blocks.start` is where a cached step resumes (with `x` the cached
    /// output of block `start − 1`), `blocks.end` where a reference capture
    /// stops. The input is only borrowed, so the range must hold at least
    /// one block; an empty or out-of-range `blocks`, or a `capture` outside
    /// it, is an error.
    pub fn forward_range(
        &mut self,
        blocks: Range<usize>,
        x: &Tensor,
        mode: Mode,
        capture: Option<usize>,
    ) -> Result<(Tensor, Option<Tensor>)> {
        let n = self.blocks.len();
        let outside = |axis| TensorError::AxisOutOfRange { axis, rank: n };
        if blocks.end > n {
            return Err(outside(blocks.end));
        }
        if let Some(c) = capture.filter(|c| !blocks.contains(c)) {
            return Err(outside(c));
        }
        let end = blocks.end;
        let mut cur: Option<Tensor> = None;
        let mut captured = None;
        for i in blocks {
            let b = &mut self.blocks[i];
            let m = if b.frozen { Mode::Eval } else { mode };
            let out = b.layer.forward(cur.as_ref().unwrap_or(x), m)?;
            if capture == Some(i) {
                captured = Some(out.clone());
            }
            cur = Some(out);
        }
        // An empty range ran no block, so there is no output to hand back.
        cur.map(|y| (y, captured)).ok_or_else(|| outside(end))
    }

    /// Backward from the loss gradient, stopping at the frozen/active
    /// boundary. Returns the gradient entering the first active block (what
    /// an owner's embedding needs when nothing is frozen; `grad_out` itself
    /// when every block is) and the number of blocks whose backward ran.
    pub fn backward(&mut self, grad_out: Tensor) -> Result<(Tensor, usize)> {
        let stop = self.frozen_prefix();
        let mut g = grad_out;
        for b in self.blocks[stop..].iter_mut().rev() {
            // The frontmost active block still computes parameter grads;
            // what it hands back is the gradient at the frozen boundary.
            g = b.layer.backward(&g)?;
        }
        Ok((g, self.blocks.len() - stop))
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

    /// The whole chain, no capture.
    fn run(net: &mut Network, x: &Tensor, mode: Mode) -> Tensor {
        let n = net.num_blocks();
        net.forward_range(0..n, x, mode, None).unwrap().0
    }

    #[test]
    fn forward_backward_all_blocks() {
        let mut rng = Rng::new(1);
        let mut net = three_block_net(&mut rng);
        let x = Tensor::randn(&[2, 4], &mut rng);
        let y = run(&mut net, &x, Mode::Train);
        assert_eq!(y.dims(), &[2, 3]);
        let (g_in, ran) = net.backward(Tensor::ones(&[2, 3])).unwrap();
        assert_eq!(ran, 3);
        assert_eq!(g_in.dims(), x.dims(), "gradient entering block 0");
        assert!(net.params().iter().all(|p| p.grad.is_some()));
    }

    #[test]
    fn freeze_prefix_skips_backward_for_frozen_blocks() {
        let mut rng = Rng::new(2);
        let mut net = three_block_net(&mut rng);
        net.freeze_prefix(2).unwrap();
        assert_eq!(net.frozen_prefix(), 2);
        let x = Tensor::randn(&[2, 4], &mut rng);
        let _ = run(&mut net, &x, Mode::Train);
        let (g_in, ran) = net.backward(Tensor::ones(&[2, 3])).unwrap();
        assert_eq!(ran, 1);
        assert_eq!(g_in.dims(), &[2, 8], "gradient entering the first active block");
        // Frozen blocks have no grads; active block does.
        let grads: Vec<bool> = net.params().iter().map(|p| p.grad.is_some()).collect();
        assert_eq!(grads, vec![false, false, false, false, true, true]);
    }

    #[test]
    fn freezing_the_whole_chain_is_the_owners_call() {
        // "The last module stays active" is a model-level rule
        // (`vision::tests::cannot_freeze_everything`); the chain itself only
        // rejects a prefix longer than it is.
        let mut rng = Rng::new(3);
        let mut net = three_block_net(&mut rng);
        assert!(net.freeze_prefix(4).is_err());
        assert_eq!(net.frozen_prefix(), 0, "a rejected prefix changes nothing");
        net.freeze_prefix(3).unwrap();
        let x = Tensor::randn(&[2, 4], &mut rng);
        let _ = run(&mut net, &x, Mode::Train);
        let g = Tensor::ones(&[2, 3]);
        let (g_in, ran) = net.backward(g.clone()).unwrap();
        assert_eq!((g_in, ran), (g, 0), "nothing active: the gradient passes through");
        assert!(net.params().iter().all(|p| p.grad.is_none()));
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
    fn forward_range_resumes_and_stops_bit_for_bit() {
        let mut rng = Rng::new(5);
        let mut net = three_block_net(&mut rng);
        let x = Tensor::randn(&[2, 4], &mut rng);
        for cut in 0..2 {
            let (full, mid) = net.forward_range(0..3, &x, Mode::Train, Some(cut)).unwrap();
            let mid = mid.unwrap();
            // Resuming after `cut` reproduces the tail; stopping at it, the head.
            let (resumed, none) = net.forward_range(cut + 1..3, &mid, Mode::Train, None).unwrap();
            assert_eq!(full, resumed);
            assert!(none.is_none());
            assert_eq!(net.forward_range(0..cut + 1, &x, Mode::Eval, None).unwrap().0, mid);
        }
    }

    #[test]
    fn forward_range_rejects_bad_ranges_without_panicking() {
        let mut rng = Rng::new(9);
        let mut net = three_block_net(&mut rng);
        let x = Tensor::randn(&[2, 4], &mut rng);
        let out_of_range = [0..4, 3..4, 5..9];
        #[allow(clippy::reversed_empty_ranges)]
        let empty = [0..0, 3..3, 2..1];
        for r in out_of_range.into_iter().chain(empty) {
            let err = net.forward_range(r.clone(), &x, Mode::Train, None);
            assert!(matches!(err, Err(TensorError::AxisOutOfRange { .. })), "{r:?}");
        }
        // A capture index must lie inside the range that runs.
        for (r, c) in [(0..3, 3), (1..3, 0), (0..2, 2), (0..0, 0)] {
            let err = net.forward_range(r.clone(), &x, Mode::Train, Some(c));
            assert!(matches!(err, Err(TensorError::AxisOutOfRange { .. })), "{r:?} capture {c}");
        }
        assert!(Network::new().forward_range(0..0, &x, Mode::Eval, None).is_err());
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
        let _ = run(&mut net, &x, Mode::Train);
        assert_eq!(net.backward(Tensor::ones(&[2, 2])).unwrap().1, 1);
    }
}
