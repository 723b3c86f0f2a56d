//! BERT-style encoder with a SQuAD-style span-prediction head.
//!
//! The paper fine-tunes BERT-Base (12 Transformer blocks) on SQuAD 1.0 and
//! reports span F1. This model reproduces that shape: an embedding, a stack
//! of encoder blocks (the 12 freezable layer modules of Table 1), and a
//! QA head producing per-token start/end logits. [`span_f1`] computes the
//! token-overlap F1 of SQuAD evaluation.

use crate::input::{Batch, EvalResult, Input, StepResult, Targets};
use crate::model::{Model, ModuleMeta};
use crate::transformer::EncoderBlock;
use egeria_nn::embedding::Embedding;
use egeria_nn::layer::{Layer, Mode};
use egeria_nn::linear::Linear;
use egeria_nn::loss::cross_entropy;
use egeria_nn::{Network, Parameter};
use egeria_tensor::{Result, Rng, Tensor, TensorError};

/// BERT-style model hyperparameters.
#[derive(Debug, Clone, Copy)]
pub struct BertConfig {
    /// Vocabulary size.
    pub vocab: usize,
    /// Model width.
    pub d_model: usize,
    /// Attention heads.
    pub heads: usize,
    /// Feed-forward width.
    pub d_ff: usize,
    /// Encoder blocks (12 for the Base shape).
    pub layers: usize,
}

impl BertConfig {
    /// A reduced-width BERT-Base (12 blocks).
    pub fn base(vocab: usize) -> Self {
        BertConfig {
            vocab,
            d_model: 24,
            heads: 4,
            d_ff: 48,
            layers: 12,
        }
    }
}

/// Encoder-only model with a span head for extractive QA.
pub struct BertQa {
    name: String,
    cfg: BertConfig,
    seed: u64,
    embed: Embedding,
    /// The encoder blocks: the freezable chain, and the only place the
    /// frozen prefix is recorded.
    net: Network,
    span_head: Linear,
}

impl BertQa {
    /// Creates the model from a config and init seed.
    pub fn new(name: impl Into<String>, cfg: BertConfig, seed: u64) -> Result<Self> {
        let mut rng = Rng::new(seed);
        let mut net = Network::new();
        for i in 0..cfg.layers {
            let name = format!("block.{i}");
            let block = EncoderBlock::new(&name, cfg.d_model, cfg.heads, cfg.d_ff, &mut rng)?;
            net.add_block(name, Box::new(block));
        }
        Ok(BertQa {
            name: name.into(),
            cfg,
            seed,
            embed: Embedding::new("embed", cfg.vocab, cfg.d_model, true, &mut rng),
            net,
            // Two logits per token: span start and span end.
            span_head: Linear::new("span_head", cfg.d_model, 2, true, &mut rng),
        })
    }

    /// The model's one call into the block walk: modules `start..until`,
    /// entered from the embedded tokens (the embedding is part of module
    /// 0), or — a cached step — from `resume = (start, output of module
    /// start − 1)`.
    fn walk(
        &mut self,
        batch: &Batch,
        resume: Option<(usize, &Tensor)>,
        until: usize,
        mode: Mode,
        capture: Option<usize>,
    ) -> Result<(Tensor, Option<Tensor>)> {
        let embedded;
        let (start, x) = match (resume, &batch.input) {
            (Some(at), _) => at,
            (None, Input::Tokens(tokens)) => {
                embedded = self.embed.forward_ids(tokens, mode)?;
                (0, &embedded)
            }
            (None, _) => return Err(TensorError::Numerical("bert needs token input".into())),
        };
        self.net.forward_range(start..until, x, mode, capture)
    }

    /// The loss tail: span head, start/end split, and the mean of the two
    /// cross-entropies. Returns `(loss, ∂loss/∂head logits, mean span F1)`;
    /// the F1 is only computed in `Mode::Eval`.
    fn loss(&mut self, h: &Tensor, targets: &Targets, mode: Mode) -> Result<(f32, Tensor, f32)> {
        let Targets::Spans(spans) = targets else {
            return Err(TensorError::Numerical("bert needs span targets".into()));
        };
        let logits = self.span_head.forward(h, mode)?; // (b, t, 2)
        let dims = [logits.dims()[0], logits.dims()[1]];
        let start = Tensor::from_vec(logits.data().iter().step_by(2).copied().collect(), &dims)?;
        let end = Tensor::from_vec(logits.data().iter().skip(1).step_by(2).copied().collect(), &dims)?;
        let (starts, ends): (Vec<usize>, Vec<usize>) = spans.iter().copied().unzip();
        let (l1, g1) = cross_entropy(&start, &starts, 0.0)?;
        let (l2, g2) = cross_entropy(&end, &ends, 0.0)?;
        let interleaved = g1.data().iter().zip(g2.data()).flat_map(|(&s, &e)| [s, e]);
        let grad = Tensor::from_vec(interleaved.collect(), logits.dims())?;
        let mut f1 = 0.0f32;
        if mode == Mode::Eval {
            let (ps, pe) = (start.argmax_last()?, end.argmax_last()?);
            for ((&s, &e), &gold) in ps.iter().zip(pe.iter()).zip(spans.iter()) {
                f1 += span_f1((s, e), gold);
            }
            f1 /= spans.len().max(1) as f32;
        }
        Ok((0.5 * (l1 + l2), grad, f1))
    }

    /// One evaluation: an `Eval` walk (from the tokens, or resumed), then
    /// the loss tail.
    fn eval(&mut self, batch: &Batch, resume: Option<(usize, &Tensor)>) -> Result<EvalResult> {
        let n = self.net.num_blocks();
        let (h, _) = self.walk(batch, resume, n, Mode::Eval, None)?;
        let (loss, _, metric) = self.loss(&h, &batch.targets, Mode::Eval)?;
        Ok(EvalResult {
            loss,
            metric,
            count: batch.input.batch_size(),
        })
    }

    /// One training step: walk (from the tokens, or resumed), loss, backward.
    fn step(
        &mut self,
        batch: &Batch,
        resume: Option<(usize, &Tensor)>,
        capture: Option<usize>,
    ) -> Result<StepResult> {
        let n = self.net.num_blocks();
        let (h, captured) = self.walk(batch, resume, n, Mode::Train, capture)?;
        let (loss, grad, _) = self.loss(&h, &batch.targets, Mode::Train)?;
        let gh = self.span_head.backward(&grad)?;
        let (g_in, ran) = self.net.backward(gh)?;
        if self.net.frozen_prefix() == 0 {
            self.embed.backward_ids(&g_in)?;
        }
        Ok(StepResult {
            loss,
            captured,
            modules_backpropped: ran,
        })
    }
}

/// Token-overlap F1 between a predicted and gold inclusive span.
pub fn span_f1(pred: (usize, usize), gold: (usize, usize)) -> f32 {
    let (ps, pe) = (pred.0.min(pred.1), pred.0.max(pred.1));
    let (gs, ge) = gold;
    let inter_start = ps.max(gs);
    let inter_end = pe.min(ge);
    if inter_end < inter_start {
        return 0.0;
    }
    let inter = (inter_end - inter_start + 1) as f32;
    let p_len = (pe - ps + 1) as f32;
    let g_len = (ge - gs + 1) as f32;
    let precision = inter / p_len;
    let recall = inter / g_len;
    2.0 * precision * recall / (precision + recall)
}

impl Model for BertQa {
    fn name(&self) -> &str {
        &self.name
    }

    fn modules(&self) -> Vec<ModuleMeta> {
        let mut mods: Vec<ModuleMeta> = self
            .net
            .blocks()
            .iter()
            .map(|b| ModuleMeta {
                name: b.name.clone(),
                param_count: b.param_count(),
            })
            .collect();
        // The embedding is folded into the first module, the head into the last.
        if let Some(first) = mods.first_mut() {
            first.param_count += self.embed.table.numel();
        }
        if let Some(last) = mods.last_mut() {
            last.param_count += self.span_head.param_count();
        }
        mods
    }

    fn frozen_prefix(&self) -> usize {
        self.net.frozen_prefix()
    }

    fn freeze_prefix(&mut self, k: usize) -> Result<()> {
        if k >= self.net.num_blocks() {
            return Err(TensorError::Numerical(format!(
                "cannot freeze {k} of {} bert modules",
                self.net.num_blocks()
            )));
        }
        self.net.freeze_prefix(k)?;
        self.embed.table.requires_grad = k == 0;
        Ok(())
    }

    fn unfreeze_all(&mut self) {
        let _ = self.freeze_prefix(0);
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
        self.eval(batch, None)
    }

    fn eval_batch_from(
        &mut self,
        batch: &Batch,
        start: usize,
        activation: &Tensor,
    ) -> Result<EvalResult> {
        if !self.supports_cached_fp(start) {
            return Err(TensorError::AxisOutOfRange {
                axis: start,
                rank: self.net.num_blocks(),
            });
        }
        self.eval(batch, Some((start, activation)))
    }

    fn capture_activation(&mut self, batch: &Batch, module: usize) -> Result<Tensor> {
        Ok(self.walk(batch, None, module.saturating_add(1), Mode::Eval, None)?.0)
    }

    fn params(&self) -> Vec<&Parameter> {
        let mut v = vec![&self.embed.table];
        v.extend(self.net.params());
        v.extend(self.span_head.params());
        v
    }

    fn params_mut(&mut self) -> Vec<&mut Parameter> {
        let mut v = vec![&mut self.embed.table];
        v.extend(self.net.params_mut());
        v.extend(self.span_head.params_mut());
        v
    }

    fn zero_grad(&mut self) {
        for p in self.params_mut() {
            p.zero_grad();
        }
    }

    fn clone_boxed(&self) -> Box<dyn Model> {
        let mut copy = BertQa::new(self.name.clone(), self.cfg, self.seed)
            .expect("config already validated");
        let src = self.params();
        let mut dst = copy.params_mut();
        for (d, s) in dst.iter_mut().zip(src.iter()) {
            d.value = s.value.clone();
        }
        Box::new(copy)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> BertQa {
        BertQa::new(
            "bert",
            BertConfig {
                vocab: 12,
                d_model: 8,
                heads: 2,
                d_ff: 16,
                layers: 3,
            },
            1,
        )
        .unwrap()
    }

    fn batch(vocab: usize, b: usize, t: usize) -> Batch {
        let tokens: Vec<Vec<usize>> = (0..b).map(|i| (0..t).map(|j| (i + j) % vocab).collect()).collect();
        let spans: Vec<(usize, usize)> = (0..b).map(|i| (i % t, (i % t + 2).min(t - 1))).collect();
        Batch {
            input: Input::Tokens(tokens),
            targets: Targets::Spans(spans),
            sample_ids: (0..b as u64).collect(),
        }
    }

    #[test]
    fn span_f1_cases() {
        assert!((span_f1((2, 4), (2, 4)) - 1.0).abs() < 1e-6);
        assert_eq!(span_f1((0, 1), (3, 4)), 0.0);
        // Pred [1,2], gold [2,3]: inter 1, p=0.5, r=0.5 → F1 0.5.
        assert!((span_f1((1, 2), (2, 3)) - 0.5).abs() < 1e-6);
    }

    #[test]
    fn train_step_and_eval_run() {
        let mut m = tiny();
        let b = batch(12, 3, 6);
        let r = m.train_step(&b, Some(0)).unwrap();
        assert!(r.loss.is_finite());
        assert!(r.captured.is_some());
        let e = m.eval_batch(&b).unwrap();
        assert!(e.metric >= 0.0 && e.metric <= 1.0);
    }

    #[test]
    fn freezing_blocks_skips_their_grads() {
        let mut m = tiny();
        m.freeze_prefix(2).unwrap();
        let b = batch(12, 2, 6);
        let r = m.train_step(&b, None).unwrap();
        assert_eq!(r.modules_backpropped, 1);
        let blocks = m.net.blocks();
        assert!(blocks[0].layer().params().iter().all(|p| p.grad.is_none()));
        assert!(blocks[2].layer().params().iter().any(|p| p.grad.is_some()));
        assert!(m.embed.table.grad.is_none());
    }

    #[test]
    fn fine_tuning_reduces_span_loss() {
        let mut m = tiny();
        let b = batch(12, 4, 6);
        let mut opt = egeria_nn::optim::Adam::new(3e-3, 0.0);
        let first = m.train_step(&b, None).unwrap().loss;
        for _ in 0..30 {
            opt.step(&mut m.params_mut()).unwrap();
            m.zero_grad();
            let _ = m.train_step(&b, None).unwrap();
        }
        let last = m.eval_batch(&b).unwrap().loss;
        assert!(last < first, "loss {first} → {last}");
    }

    #[test]
    fn modules_fold_embed_and_head() {
        let m = tiny();
        let mods = m.modules();
        assert_eq!(mods.len(), 3);
        assert!(mods[0].param_count > mods[1].param_count);
        assert!(mods[2].param_count > mods[1].param_count);
    }
}
