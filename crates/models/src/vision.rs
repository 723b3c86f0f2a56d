//! A generic vision model: a freezable [`Network`] plus a task head/loss.

use crate::input::{Batch, EvalResult, Input, StepResult, Targets};
use crate::model::{Model, ModuleMeta};
use egeria_nn::loss::{accuracy, cross_entropy};
use egeria_nn::{Mode, Network, Parameter};
use egeria_tensor::{Result, Tensor, TensorError};
use std::sync::Arc;

/// The supervised task a [`VisionModel`] solves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VisionTask {
    /// Image classification: logits `(n, k)` against per-sample classes.
    Classification,
    /// Semantic segmentation: logits `(n, k, h, w)` against per-pixel
    /// classes; the metric is mean IoU over classes.
    Segmentation,
}

/// A convolutional model assembled from freezable blocks.
///
/// `builder` reconstructs the architecture from scratch; [`Model::clone_boxed`]
/// uses it to deep-copy the model (rebuild + copy weights), which is how
/// reference-model snapshots are taken.
pub struct VisionModel {
    name: String,
    net: Network,
    task: VisionTask,
    classes: usize,
    builder: Arc<dyn Fn() -> Network + Send + Sync>,
}

impl VisionModel {
    /// Creates a vision model from a builder closure.
    pub fn new(
        name: impl Into<String>,
        task: VisionTask,
        classes: usize,
        builder: Arc<dyn Fn() -> Network + Send + Sync>,
    ) -> Self {
        VisionModel {
            name: name.into(),
            net: builder(),
            task,
            classes,
            builder,
        }
    }

    /// Direct access to the underlying network (tests and quantization).
    pub fn network(&self) -> &Network {
        &self.net
    }

    /// Flattens segmentation logits `(n, k, h, w)` into `(n·h·w, k)` rows.
    fn seg_rows(&self, logits: &Tensor) -> Result<Tensor> {
        logits.permute(&[0, 2, 3, 1])?.reshape(&[
            logits.numel() / self.classes,
            self.classes,
        ])
    }

    /// Inverse of [`Self::seg_rows`] for the gradient.
    fn seg_rows_inverse(&self, grad: &Tensor, logits_dims: &[usize]) -> Result<Tensor> {
        let (n, k, h, w) = (logits_dims[0], logits_dims[1], logits_dims[2], logits_dims[3]);
        grad.reshape(&[n, h, w, k])?.permute(&[0, 3, 1, 2])
    }

    /// The model's one call into the block walk: modules `start..until`,
    /// entered from the batch's image, or — a cached step — from
    /// `resume = (start, output of module start − 1)`.
    fn walk(
        &mut self,
        batch: &Batch,
        resume: Option<(usize, &Tensor)>,
        until: usize,
        mode: Mode,
        capture: Option<usize>,
    ) -> Result<(Tensor, Option<Tensor>)> {
        let (start, x) = match (resume, &batch.input) {
            (Some(at), _) => at,
            (None, Input::Image(t)) => (0, t),
            (None, other) => {
                return Err(TensorError::Numerical(format!(
                    "vision model got non-image input with batch size {}",
                    other.batch_size()
                )))
            }
        };
        self.net.forward_range(start..until, x, mode, capture)
    }

    /// The loss tail: `(loss, ∂loss/∂logits, task metric)`.
    fn loss(&self, logits: &Tensor, targets: &Targets) -> Result<(f32, Tensor, f32)> {
        match (self.task, targets) {
            (VisionTask::Classification, Targets::Classes(ys)) => {
                let (loss, grad) = cross_entropy(logits, ys, 0.0)?;
                let acc = accuracy(logits, ys)?;
                Ok((loss, grad, acc))
            }
            (VisionTask::Segmentation, Targets::Pixels(ys)) => {
                let rows = self.seg_rows(logits)?;
                let (loss, grad_rows) = cross_entropy(&rows, ys, 0.0)?;
                let grad = self.seg_rows_inverse(&grad_rows, logits.dims())?;
                let miou = mean_iou(&rows, ys, self.classes)?;
                Ok((loss, grad, miou))
            }
            _ => Err(TensorError::Numerical(
                "target kind does not match vision task".into(),
            )),
        }
    }

    /// One training step: walk (from the image, or resumed), loss, backward.
    fn step(
        &mut self,
        batch: &Batch,
        resume: Option<(usize, &Tensor)>,
        capture: Option<usize>,
    ) -> Result<StepResult> {
        let n = self.net.num_blocks();
        let (logits, captured) = self.walk(batch, resume, n, Mode::Train, capture)?;
        let (loss, grad, _) = self.loss(&logits, &batch.targets)?;
        let (_, ran) = self.net.backward(grad)?;
        Ok(StepResult {
            loss,
            captured,
            modules_backpropped: ran,
        })
    }
}

/// Mean intersection-over-union over classes present in targets or
/// predictions.
pub fn mean_iou(logit_rows: &Tensor, targets: &[usize], classes: usize) -> Result<f32> {
    let preds = logit_rows.argmax_last()?;
    if preds.len() != targets.len() {
        return Err(TensorError::ShapeMismatch {
            op: "mean_iou",
            lhs: vec![preds.len()],
            rhs: vec![targets.len()],
        });
    }
    let mut inter = vec![0usize; classes];
    let mut union = vec![0usize; classes];
    for (&p, &t) in preds.iter().zip(targets.iter()) {
        if p == t {
            inter[t] += 1;
            union[t] += 1;
        } else {
            union[p.min(classes - 1)] += 1;
            union[t] += 1;
        }
    }
    let mut sum = 0.0f32;
    let mut seen = 0usize;
    for c in 0..classes {
        if union[c] > 0 {
            sum += inter[c] as f32 / union[c] as f32;
            seen += 1;
        }
    }
    Ok(if seen == 0 { 0.0 } else { sum / seen as f32 })
}

impl Model for VisionModel {
    fn name(&self) -> &str {
        &self.name
    }

    fn modules(&self) -> Vec<ModuleMeta> {
        self.net
            .blocks()
            .iter()
            .map(|b| ModuleMeta {
                name: b.name.clone(),
                param_count: b.param_count(),
            })
            .collect()
    }

    fn frozen_prefix(&self) -> usize {
        self.net.frozen_prefix()
    }

    fn freeze_prefix(&mut self, k: usize) -> Result<()> {
        // Algorithm 1 asserts `l` is never the last layer.
        if k >= self.net.num_blocks() && k > 0 {
            return Err(TensorError::Numerical(format!(
                "cannot freeze {k} of {} blocks: the last block must stay active",
                self.net.num_blocks()
            )));
        }
        self.net.freeze_prefix(k)
    }

    fn unfreeze_all(&mut self) {
        self.net.unfreeze_all()
    }

    fn train_step(&mut self, batch: &Batch, capture: Option<usize>) -> Result<StepResult> {
        self.step(batch, None, capture)
    }

    fn supports_cached_fp(&self, prefix: usize) -> bool {
        prefix > 0 && prefix < self.net.num_blocks()
    }

    fn train_step_from(
        &mut self,
        batch: &Batch,
        prefix: usize,
        prefix_activation: &Tensor,
        capture: Option<usize>,
    ) -> Result<StepResult> {
        if !self.supports_cached_fp(prefix) {
            return Err(TensorError::AxisOutOfRange {
                axis: prefix,
                rank: self.net.num_blocks(),
            });
        }
        self.step(batch, Some((prefix, prefix_activation)), capture)
    }

    fn forward_from(
        &mut self,
        batch: &Batch,
        start: usize,
        activation: &Tensor,
        until: usize,
    ) -> Result<Tensor> {
        if !self.supports_cached_fp(start) {
            return Err(TensorError::AxisOutOfRange {
                axis: start,
                rank: self.net.num_blocks(),
            });
        }
        Ok(self
            .walk(batch, Some((start, activation)), until, Mode::Eval, None)?
            .0)
    }

    fn eval_batch(&mut self, batch: &Batch) -> Result<EvalResult> {
        let (logits, _) = self.walk(batch, None, self.net.num_blocks(), Mode::Eval, None)?;
        let (loss, _, metric) = self.loss(&logits, &batch.targets)?;
        Ok(EvalResult {
            loss,
            metric,
            count: batch.input.batch_size(),
        })
    }

    fn capture_activation(&mut self, batch: &Batch, module: usize) -> Result<Tensor> {
        Ok(self.walk(batch, None, module.saturating_add(1), Mode::Eval, None)?.0)
    }

    fn params(&self) -> Vec<&Parameter> {
        self.net.params()
    }

    fn params_mut(&mut self) -> Vec<&mut Parameter> {
        self.net.params_mut()
    }

    fn state_buffers(&self) -> Vec<&Tensor> {
        self.net.state_buffers()
    }

    fn state_buffers_mut(&mut self) -> Vec<&mut Tensor> {
        self.net.state_buffers_mut()
    }

    fn zero_grad(&mut self) {
        self.net.zero_grad()
    }

    fn clone_boxed(&self) -> Box<dyn Model> {
        let mut copy = VisionModel {
            name: self.name.clone(),
            net: (self.builder)(),
            task: self.task,
            classes: self.classes,
            builder: Arc::clone(&self.builder),
        };
        copy.net
            .copy_params_from(&self.net)
            .expect("builder reproduces the architecture");
        copy.net
            .copy_running_stats_from(&self.net)
            .expect("builder reproduces the architecture");
        Box::new(copy)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use egeria_nn::linear::Linear;
    use egeria_tensor::Rng;

    #[test]
    fn cannot_freeze_everything() {
        let builder = || {
            let mut rng = Rng::new(3);
            let mut net = Network::new();
            for (i, (d_in, d_out)) in [(4, 8), (8, 8), (8, 3)].into_iter().enumerate() {
                let name = format!("b{i}");
                net.add_block(name.clone(), Box::new(Linear::new(&name, d_in, d_out, true, &mut rng)));
            }
            net
        };
        let mut m = VisionModel::new("mlp", VisionTask::Classification, 3, Arc::new(builder));
        // The chain would take 3; the model keeps its last module active.
        for k in [3, 4] {
            assert!(m.freeze_prefix(k).is_err());
            assert_eq!(m.frozen_prefix(), 0);
        }
        m.freeze_prefix(2).unwrap();
        assert_eq!(m.frozen_prefix(), 2);
        assert!(!m.supports_cached_fp(3));
    }

    #[test]
    fn mean_iou_perfect_and_disjoint() {
        let logits = Tensor::from_vec(vec![5.0, 0.0, 0.0, 5.0], &[2, 2]).unwrap();
        assert!((mean_iou(&logits, &[0, 1], 2).unwrap() - 1.0).abs() < 1e-6);
        assert_eq!(mean_iou(&logits, &[1, 0], 2).unwrap(), 0.0);
    }

    #[test]
    fn mean_iou_partial_overlap() {
        // Predictions: [0, 0, 1, 1]; targets: [0, 1, 1, 1].
        let logits = Tensor::from_vec(
            vec![5.0, 0.0, 5.0, 0.0, 0.0, 5.0, 0.0, 5.0],
            &[4, 2],
        )
        .unwrap();
        let iou = mean_iou(&logits, &[0, 1, 1, 1], 2).unwrap();
        // Class 0: inter 1, union 2 → 0.5; class 1: inter 2, union 3 → 2/3.
        assert!((iou - (0.5 + 2.0 / 3.0) / 2.0).abs() < 1e-5);
    }
}
