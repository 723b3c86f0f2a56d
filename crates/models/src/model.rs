//! The uniform model interface Egeria trains through.
//!
//! Every family implements the six forward entry points below as ranges of
//! one walk over its modules — `nn::Network::forward_range`, the only loop
//! that decides what a frozen module does (the Transformer's two-input
//! decoder stack keeps the one other loop) — followed by one `loss` tail:
//!
//! | entry point | modules run | mode | capture |
//! |---|---|---|---|
//! | `train_step` | all | `Train` (frozen ⇒ `Eval`) | the hooked module, if any |
//! | `train_step_from` | `prefix..`, from the cached output of `prefix − 1` | same | same, `≥ prefix` |
//! | `eval_batch` | all | `Eval` | none |
//! | `eval_batch_from` | `start..`, from the stored output of `start − 1` | `Eval` | none |
//! | `capture_activation` | `..= module` | `Eval` | the range's output |
//! | `forward_from` | `start..until`, from the cached output of `start − 1` | `Eval` | the range's output |
//!
//! So a frozen module computes the same function in all six, which is what
//! lets a cached step or a validation batch resume from a stored
//! activation, a stored activation be carried forward over newly frozen
//! modules, and a reference probe be compared with a training hook.

use crate::input::{Batch, EvalResult, StepResult};
use egeria_nn::Parameter;
use egeria_tensor::Result;

/// Metadata about one freezable layer module.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ModuleMeta {
    /// Module name, e.g. `"layer3.0-3.3"` or `"encoder.2"`.
    pub name: String,
    /// Total scalar parameters in the module.
    pub param_count: usize,
}

/// A trainable model exposed as an ordered list of freezable layer modules.
///
/// The contract mirrors what Egeria needs from `nn.Module` in the paper:
///
/// - modules are frozen strictly as a *prefix* (the frontmost active module
///   advances monotonically between unfreeze events),
/// - `train_step` computes forward + loss + backward but does **not** apply
///   an optimizer update (the trainer owns the optimizer), and it can
///   capture the output activation of one module (the forward hook used for
///   plasticity evaluation),
/// - `capture_activation` is a forward-only hook path used to run the
///   *reference* model on the same batch,
/// - `clone_boxed` produces an identical architecture with copied weights —
///   the snapshot that quantization turns into a reference model (§4.1.3).
pub trait Model: Send {
    /// Model name for reports, e.g. `"resnet56"`.
    fn name(&self) -> &str;

    /// The freezable layer modules, in forward order.
    fn modules(&self) -> Vec<ModuleMeta>;

    /// Current frozen-prefix length.
    fn frozen_prefix(&self) -> usize;

    /// Freezes exactly the first `k` modules (thawing any others).
    fn freeze_prefix(&mut self, k: usize) -> Result<()>;

    /// Unfreezes every module.
    fn unfreeze_all(&mut self);

    /// Forward + loss + backward on one batch.
    ///
    /// `capture` asks for the output activation of module index `capture`
    /// (after its forward). Backward stops at the frozen boundary.
    fn train_step(&mut self, batch: &Batch, capture: Option<usize>) -> Result<StepResult>;

    /// Whether [`Model::train_step_from`] supports resuming at the given
    /// frozen-prefix length (i.e. the prefix boundary carries a single
    /// activation tensor).
    fn supports_cached_fp(&self, _prefix: usize) -> bool {
        false
    }

    /// Train step that *skips the frozen prefix's forward pass*: resumes
    /// from `prefix_activation`, the cached output of module `prefix − 1`
    /// (§4.3 of the paper). `capture` follows the same semantics as
    /// [`Model::train_step`] but must address a module `≥ prefix`.
    ///
    /// The default implementation reports the capability as absent.
    fn train_step_from(
        &mut self,
        _batch: &Batch,
        _prefix: usize,
        _prefix_activation: &egeria_tensor::Tensor,
        _capture: Option<usize>,
    ) -> Result<StepResult> {
        Err(egeria_tensor::TensorError::Numerical(
            "cached-FP training is not supported by this model".into(),
        ))
    }

    /// Forward-only walk over modules `start..until`, resumed from
    /// `activation`, the output of module `start − 1`: the activation
    /// cache carries an entry stored at boundary `start` forward to a
    /// frozen prefix that has since advanced to `until`. Always runs in
    /// eval mode, so it returns exactly what
    /// `capture_activation(batch, until − 1)` does.
    ///
    /// The default recomputes that capture from the batch, ignoring
    /// `start` and `activation`; the same bits, without the saving.
    fn forward_from(
        &mut self,
        batch: &Batch,
        _start: usize,
        _activation: &egeria_tensor::Tensor,
        until: usize,
    ) -> Result<egeria_tensor::Tensor> {
        let last = until
            .checked_sub(1)
            .ok_or(egeria_tensor::TensorError::AxisOutOfRange {
                axis: until,
                rank: self.modules().len(),
            })?;
        self.capture_activation(batch, last)
    }

    /// Forward-only evaluation of one batch (loss + task metric).
    fn eval_batch(&mut self, batch: &Batch) -> Result<EvalResult>;

    /// [`Model::eval_batch`] resumed from `activation`, the output of
    /// module `start − 1`: only modules `start..` run. Validation scores a
    /// batch this way while the modules before `start` stay frozen, so
    /// it returns exactly what `eval_batch` does.
    ///
    /// The default runs `eval_batch` on the batch, ignoring `start` and
    /// `activation`; the same bits, without the saving.
    fn eval_batch_from(
        &mut self,
        batch: &Batch,
        _start: usize,
        _activation: &egeria_tensor::Tensor,
    ) -> Result<EvalResult> {
        self.eval_batch(batch)
    }

    /// Forward-only activation capture of one module (reference-model path;
    /// always runs in eval mode).
    fn capture_activation(&mut self, batch: &Batch, module: usize) -> Result<egeria_tensor::Tensor>;

    /// All parameters.
    fn params(&self) -> Vec<&Parameter>;

    /// All parameters, mutably (optimizer access).
    fn params_mut(&mut self) -> Vec<&mut Parameter>;

    /// Non-parameter state buffers (BatchNorm running statistics) in a
    /// stable architecture-defined order; empty for models without such
    /// state. Checkpoints must capture these: frozen BatchNorm layers
    /// normalize with running statistics even during training, so the
    /// training trajectory after a resume depends on them.
    fn state_buffers(&self) -> Vec<&egeria_tensor::Tensor> {
        Vec::new()
    }

    /// Mutable view of [`Model::state_buffers`] (checkpoint restore).
    fn state_buffers_mut(&mut self) -> Vec<&mut egeria_tensor::Tensor> {
        Vec::new()
    }

    /// Clears gradients.
    fn zero_grad(&mut self);

    /// Deep-copies the model (same architecture, copied weights).
    fn clone_boxed(&self) -> Box<dyn Model>;

    /// Total scalar parameter count.
    fn param_count(&self) -> usize {
        self.params().iter().map(|p| p.numel()).sum()
    }

    /// Fraction of parameters still trainable (Figure 12's y-axis).
    fn active_param_fraction(&self) -> f32 {
        let mods = self.modules();
        let total: usize = mods.iter().map(|m| m.param_count).sum();
        if total == 0 {
            return 1.0;
        }
        let frozen: usize = mods
            .iter()
            .take(self.frozen_prefix())
            .map(|m| m.param_count)
            .sum();
        1.0 - frozen as f32 / total as f32
    }
}
