//! Encoder–decoder Transformer for machine translation.
//!
//! Structure per Vaswani et al. with post-layer-norm blocks. The paper's
//! Table 1 freezes over 12 layer modules for Transformer-Base ("6 encoders
//! & 6 decoders") and 4 for Transformer-Tiny ("2 & 2"); this model exposes
//! exactly that module list, with the source embedding folded into the
//! first encoder module and the target embedding/generator folded into the
//! decoder modules at the ends.

use crate::input::{Batch, EvalResult, Input, StepResult, Targets};
use crate::model::{Model, ModuleMeta};
use egeria_nn::activation::{Act, Activation};
use egeria_nn::attention::MultiHeadAttention;
use egeria_nn::embedding::Embedding;
use egeria_nn::layer::{Layer, Mode};
use egeria_nn::linear::Linear;
use egeria_nn::loss::{accuracy, cross_entropy};
use egeria_nn::norm::LayerNorm;
use egeria_nn::{Network, Parameter};
use egeria_tensor::{Result, Rng, Tensor, TensorError};

/// One post-LN encoder block: self-attention + feed-forward, each with a
/// residual connection and layer norm.
pub struct EncoderBlock {
    attn: MultiHeadAttention,
    ln1: LayerNorm,
    ff1: Linear,
    act: Activation,
    ff2: Linear,
    ln2: LayerNorm,
}

impl EncoderBlock {
    /// Creates an encoder block.
    pub fn new(name: &str, d: usize, heads: usize, d_ff: usize, rng: &mut Rng) -> Result<Self> {
        Ok(EncoderBlock {
            attn: MultiHeadAttention::new(&format!("{name}.attn"), d, heads, false, rng)?,
            ln1: LayerNorm::new(&format!("{name}.ln1"), d),
            ff1: Linear::new(&format!("{name}.ff1"), d, d_ff, true, rng),
            act: Activation::new(Act::Gelu),
            ff2: Linear::new(&format!("{name}.ff2"), d_ff, d, true, rng),
            ln2: LayerNorm::new(&format!("{name}.ln2"), d),
        })
    }
}

impl Layer for EncoderBlock {
    fn forward(&mut self, x: &Tensor, mode: Mode) -> Result<Tensor> {
        let a = self.attn.forward(x, mode)?;
        let mid = self.ln1.forward(&x.add(&a)?, mode)?;
        let f = self.ff1.forward(&mid, mode)?;
        let f = self.act.forward(&f, mode)?;
        let f = self.ff2.forward(&f, mode)?;
        self.ln2.forward(&mid.add(&f)?, mode)
    }

    fn backward(&mut self, grad_out: &Tensor) -> Result<Tensor> {
        // The block keeps no context of its own: its sublayers hold what
        // backward needs, and `ln2` reports a backward with no `Train`
        // forward before it.
        let g = self.ln2.backward(grad_out)?;
        // Residual: out = mid + ff(mid).
        let gf = self.ff2.backward(&g)?;
        let gf = self.act.backward(&gf)?;
        let gf = self.ff1.backward(&gf)?;
        let g_mid = g.add(&gf)?;
        let g1 = self.ln1.backward(&g_mid)?;
        // Residual: mid_pre = x + attn(x).
        let ga = self.attn.backward(&g1)?;
        g1.add(&ga)
    }

    fn params(&self) -> Vec<&Parameter> {
        let mut v = self.attn.params();
        v.extend(self.ln1.params());
        v.extend(self.ff1.params());
        v.extend(self.ff2.params());
        v.extend(self.ln2.params());
        v
    }

    fn params_mut(&mut self) -> Vec<&mut Parameter> {
        let mut v = self.attn.params_mut();
        v.extend(self.ln1.params_mut());
        v.extend(self.ff1.params_mut());
        v.extend(self.ff2.params_mut());
        v.extend(self.ln2.params_mut());
        v
    }

    fn kind(&self) -> &'static str {
        "EncoderBlock"
    }
}

/// One post-LN decoder block: causal self-attention, cross-attention to the
/// encoder memory, and a feed-forward stack.
pub struct DecoderBlock {
    self_attn: MultiHeadAttention,
    ln1: LayerNorm,
    cross_attn: MultiHeadAttention,
    ln2: LayerNorm,
    ff1: Linear,
    act: Activation,
    ff2: Linear,
    ln3: LayerNorm,
}

impl DecoderBlock {
    /// Creates a decoder block.
    pub fn new(name: &str, d: usize, heads: usize, d_ff: usize, rng: &mut Rng) -> Result<Self> {
        Ok(DecoderBlock {
            self_attn: MultiHeadAttention::new(&format!("{name}.self"), d, heads, true, rng)?,
            ln1: LayerNorm::new(&format!("{name}.ln1"), d),
            cross_attn: MultiHeadAttention::new(&format!("{name}.cross"), d, heads, false, rng)?,
            ln2: LayerNorm::new(&format!("{name}.ln2"), d),
            ff1: Linear::new(&format!("{name}.ff1"), d, d_ff, true, rng),
            act: Activation::new(Act::Gelu),
            ff2: Linear::new(&format!("{name}.ff2"), d_ff, d, true, rng),
            ln3: LayerNorm::new(&format!("{name}.ln3"), d),
        })
    }

    /// Forward with the encoder memory as cross-attention context.
    pub fn forward_dec(&mut self, x: &Tensor, memory: &Tensor, mode: Mode) -> Result<Tensor> {
        let a = self.self_attn.forward(x, mode)?;
        let h1 = self.ln1.forward(&x.add(&a)?, mode)?;
        let c = self.cross_attn.forward_attn(&h1, memory, mode)?;
        let h2 = self.ln2.forward(&h1.add(&c)?, mode)?;
        let f = self.ff1.forward(&h2, mode)?;
        let f = self.act.forward(&f, mode)?;
        let f = self.ff2.forward(&f, mode)?;
        self.ln3.forward(&h2.add(&f)?, mode)
    }

    /// Backward; returns `(grad_x, grad_memory)`.
    pub fn backward_dec(&mut self, grad_out: &Tensor) -> Result<(Tensor, Tensor)> {
        let g = self.ln3.backward(grad_out)?;
        let gf = self.ff2.backward(&g)?;
        let gf = self.act.backward(&gf)?;
        let gf = self.ff1.backward(&gf)?;
        let g_h2 = g.add(&gf)?;
        let g2 = self.ln2.backward(&g_h2)?;
        let (gc_x, g_mem) = self.cross_attn.backward_attn(&g2)?;
        let g_h1 = g2.add(&gc_x)?;
        let g1 = self.ln1.backward(&g_h1)?;
        let ga = self.self_attn.backward(&g1)?;
        Ok((g1.add(&ga)?, g_mem))
    }

    /// All parameters of the block.
    pub fn params(&self) -> Vec<&Parameter> {
        let mut v = self.self_attn.params();
        v.extend(self.ln1.params());
        v.extend(self.cross_attn.params());
        v.extend(self.ln2.params());
        v.extend(self.ff1.params());
        v.extend(self.ff2.params());
        v.extend(self.ln3.params());
        v
    }

    /// All parameters, mutably.
    pub fn params_mut(&mut self) -> Vec<&mut Parameter> {
        let mut v = self.self_attn.params_mut();
        v.extend(self.ln1.params_mut());
        v.extend(self.cross_attn.params_mut());
        v.extend(self.ln2.params_mut());
        v.extend(self.ff1.params_mut());
        v.extend(self.ff2.params_mut());
        v.extend(self.ln3.params_mut());
        v
    }

    fn set_trainable(&mut self, trainable: bool) {
        for p in self.params_mut() {
            p.requires_grad = trainable;
        }
    }
}

/// Transformer hyperparameters.
#[derive(Debug, Clone, Copy)]
pub struct TransformerConfig {
    /// Vocabulary size (shared between source and target).
    pub vocab: usize,
    /// Model width.
    pub d_model: usize,
    /// Attention heads.
    pub heads: usize,
    /// Feed-forward width.
    pub d_ff: usize,
    /// Encoder blocks (6 = Base, 2 = Tiny).
    pub encoders: usize,
    /// Decoder blocks.
    pub decoders: usize,
}

impl TransformerConfig {
    /// A reduced-width Transformer-Base (6 encoders + 6 decoders).
    pub fn base(vocab: usize) -> Self {
        TransformerConfig {
            vocab,
            d_model: 32,
            heads: 4,
            d_ff: 64,
            encoders: 6,
            decoders: 6,
        }
    }

    /// A reduced-width Transformer-Tiny (2 encoders + 2 decoders).
    pub fn tiny(vocab: usize) -> Self {
        TransformerConfig {
            vocab,
            d_model: 16,
            heads: 2,
            d_ff: 32,
            encoders: 2,
            decoders: 2,
        }
    }
}

/// An encoder–decoder Transformer exposed as freezable layer modules.
///
/// Module indexing: `0..encoders` are the encoder blocks, then the decoders.
pub struct Seq2SeqTransformer {
    name: String,
    cfg: TransformerConfig,
    seed: u64,
    src_embed: Embedding,
    tgt_embed: Embedding,
    /// The encoder stack: a freezable chain that records its own share of
    /// the frozen prefix.
    encoders: Network,
    decoders: Vec<DecoderBlock>,
    generator: Linear,
    /// How far the frozen prefix reaches into the decoder stack; non-zero
    /// only when every encoder is frozen.
    frozen_decoders: usize,
}

impl Seq2SeqTransformer {
    /// Creates a Transformer from a config and an init seed.
    pub fn new(name: impl Into<String>, cfg: TransformerConfig, seed: u64) -> Result<Self> {
        let mut rng = Rng::new(seed);
        let (d, heads, d_ff) = (cfg.d_model, cfg.heads, cfg.d_ff);
        let mut encoders = Network::new();
        for i in 0..cfg.encoders {
            let name = format!("encoder.{i}");
            let block = EncoderBlock::new(&name, d, heads, d_ff, &mut rng)?;
            encoders.add_block(name, Box::new(block));
        }
        let mut decoders = Vec::with_capacity(cfg.decoders);
        for i in 0..cfg.decoders {
            decoders.push(DecoderBlock::new(&format!("decoder.{i}"), d, heads, d_ff, &mut rng)?);
        }
        Ok(Seq2SeqTransformer {
            name: name.into(),
            cfg,
            seed,
            src_embed: Embedding::new("src_embed", cfg.vocab, cfg.d_model, true, &mut rng),
            tgt_embed: Embedding::new("tgt_embed", cfg.vocab, cfg.d_model, true, &mut rng),
            encoders,
            decoders,
            generator: Linear::new("generator", cfg.d_model, cfg.vocab, true, &mut rng),
            frozen_decoders: 0,
        })
    }

    fn num_modules(&self) -> usize {
        self.encoders.num_blocks() + self.decoders.len()
    }

    /// The model's one walk over modules `start..until`, entered from the
    /// embedded source tokens (part of module 0), or — a cached step — from
    /// `resume = (start, output of module start − 1)` with `start` inside
    /// the encoder stack or at its end. Encoder modules go through the
    /// [`Network`] walk; the decoder stack takes two inputs and keeps the
    /// one loop of its own. Returns the last module's output and a copy of
    /// module `capture`'s.
    fn walk(
        &mut self,
        batch: &Batch,
        resume: Option<(usize, &Tensor)>,
        until: usize,
        mode: Mode,
        capture: Option<usize>,
    ) -> Result<(Tensor, Option<Tensor>)> {
        let Input::Seq2Seq { src, tgt } = &batch.input else {
            return Err(TensorError::Numerical("transformer needs seq2seq input".into()));
        };
        let ne = self.encoders.num_blocks();
        let start = resume.map_or(0, |(start, _)| start);
        let modules = start..until;
        if start > ne
            || modules.is_empty()
            || until > self.num_modules()
            || capture.is_some_and(|c| !modules.contains(&c))
        {
            return Err(TensorError::AxisOutOfRange {
                axis: until,
                rank: self.num_modules(),
            });
        }
        let (embedded, encoded);
        let x = match resume {
            Some((_, activation)) => activation,
            None => {
                embedded = self.src_embed.forward_ids(src, mode)?;
                &embedded
            }
        };
        let mut captured = None;
        // Resumed at the encoder/decoder boundary, `x` already is the memory.
        let memory = if start < ne {
            let enc_capture = capture.filter(|&c| c < ne);
            let (h, c) = self.encoders.forward_range(start..until.min(ne), x, mode, enc_capture)?;
            if until <= ne {
                return Ok((h, c));
            }
            (encoded, captured) = (h, c);
            &encoded
        } else {
            x
        };
        let mut d = self.tgt_embed.forward_ids(tgt, mode)?;
        for (j, dec) in self.decoders.iter_mut().enumerate().take(until - ne) {
            let m = if j < self.frozen_decoders { Mode::Eval } else { mode };
            d = dec.forward_dec(&d, memory, m)?;
            if capture == Some(ne + j) {
                captured = Some(d.clone());
            }
        }
        Ok((d, captured))
    }

    /// The loss tail: generator, row-flattened logits, token cross-entropy.
    /// Returns `(loss, ∂loss/∂logits, token accuracy)`. Training smooths the
    /// labels and skips the accuracy; `Mode::Eval` reports the unsmoothed
    /// loss (for perplexity) and the accuracy.
    fn loss(&mut self, d: &Tensor, targets: &Targets, mode: Mode) -> Result<(f32, Tensor, f32)> {
        let Targets::TokenTargets(targets) = targets else {
            return Err(TensorError::Numerical("transformer needs token targets".into()));
        };
        let targets: Vec<usize> = targets.iter().flatten().copied().collect();
        let logits = self.generator.forward(d, mode)?;
        let flat = logits.reshape(&[logits.numel() / self.cfg.vocab, self.cfg.vocab])?;
        let (smoothing, metric) = match mode {
            Mode::Train => (0.1, 0.0),
            Mode::Eval => (0.0, accuracy(&flat, &targets)?),
        };
        let (loss, grad) = cross_entropy(&flat, &targets, smoothing)?;
        Ok((loss, grad.reshape(logits.dims())?, metric))
    }

    /// One evaluation: an `Eval` walk (from the tokens, or resumed), then
    /// the loss tail.
    fn eval(&mut self, batch: &Batch, resume: Option<(usize, &Tensor)>) -> Result<EvalResult> {
        let n = self.num_modules();
        let (d, _) = self.walk(batch, resume, n, Mode::Eval, None)?;
        let (loss, _, metric) = self.loss(&d, &batch.targets, Mode::Eval)?;
        Ok(EvalResult {
            loss,
            metric,
            count: batch.input.batch_size(),
        })
    }

    /// One training step: walk (from the tokens, or resumed), loss, then
    /// backward through the active decoders, the memory, and the active
    /// encoder suffix.
    fn step(
        &mut self,
        batch: &Batch,
        resume: Option<(usize, &Tensor)>,
        capture: Option<usize>,
    ) -> Result<StepResult> {
        let n = self.num_modules();
        let (d, captured) = self.walk(batch, resume, n, Mode::Train, capture)?;
        let (loss, grad, _) = self.loss(&d, &batch.targets, Mode::Train)?;
        let mut g = self.generator.backward(&grad)?;
        let mut g_memory: Option<Tensor> = None;
        let mut ran = 0usize;
        for dec in self.decoders[self.frozen_decoders..].iter_mut().rev() {
            let (gx, gm) = dec.backward_dec(&g)?;
            g = gx;
            g_memory = Some(match g_memory {
                Some(acc) => acc.add(&gm)?,
                None => gm,
            });
            ran += 1;
        }
        // A frozen decoder prefix means the target embedding (part of the
        // first decoder module) and every encoder are frozen too: neither
        // `g` nor the memory gradient has anywhere to go.
        if let (Some(gm), 0) = (g_memory, self.frozen_decoders) {
            self.tgt_embed.backward_ids(&g)?;
            let (g_src, encoders_ran) = self.encoders.backward(gm)?;
            if self.encoders.frozen_prefix() == 0 {
                self.src_embed.backward_ids(&g_src)?;
            }
            ran += encoders_ran;
        }
        Ok(StepResult {
            loss,
            captured,
            modules_backpropped: ran,
        })
    }
}

impl Model for Seq2SeqTransformer {
    fn name(&self) -> &str {
        &self.name
    }

    fn modules(&self) -> Vec<ModuleMeta> {
        // Each embedding is folded into the first module of its stack, the
        // generator into the last decoder.
        let nd = self.decoders.len();
        let encoders = self.encoders.blocks().iter().enumerate().map(|(i, e)| {
            let embed = if i == 0 { self.src_embed.table.numel() } else { 0 };
            ModuleMeta {
                name: e.name.clone(),
                param_count: e.param_count() + embed,
            }
        });
        let decoders = self.decoders.iter().enumerate().map(|(j, d)| {
            let mut params: usize = d.params().iter().map(|p| p.numel()).sum();
            if j == 0 {
                params += self.tgt_embed.table.numel();
            }
            if j == nd - 1 {
                params += self.generator.param_count();
            }
            ModuleMeta {
                name: format!("decoder.{j}"),
                param_count: params,
            }
        });
        encoders.chain(decoders).collect()
    }

    fn frozen_prefix(&self) -> usize {
        self.encoders.frozen_prefix() + self.frozen_decoders
    }

    fn freeze_prefix(&mut self, k: usize) -> Result<()> {
        let n = self.num_modules();
        if k >= n {
            return Err(TensorError::Numerical(format!(
                "cannot freeze {k} of {n} transformer modules"
            )));
        }
        let ne = self.encoders.num_blocks();
        self.encoders.freeze_prefix(k.min(ne))?;
        self.frozen_decoders = k.saturating_sub(ne);
        for (j, d) in self.decoders.iter_mut().enumerate() {
            d.set_trainable(j >= self.frozen_decoders);
        }
        self.src_embed.table.requires_grad = k == 0;
        self.tgt_embed.table.requires_grad = k <= ne;
        Ok(())
    }

    fn unfreeze_all(&mut self) {
        let _ = self.freeze_prefix(0);
    }

    fn train_step(&mut self, batch: &Batch, capture: Option<usize>) -> Result<StepResult> {
        self.step(batch, None, capture)
    }

    fn supports_cached_fp(&self, prefix: usize) -> bool {
        // The boundary activation is a single tensor only within the
        // encoder stack (a decoder-side boundary would additionally need
        // the memory tensor).
        prefix > 0 && prefix <= self.encoders.num_blocks()
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
                rank: self.num_modules(),
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
                rank: self.num_modules(),
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
                rank: self.num_modules(),
            });
        }
        self.eval(batch, Some((start, activation)))
    }

    fn capture_activation(&mut self, batch: &Batch, module: usize) -> Result<Tensor> {
        // Stops after `module`: an encoder capture never touches the decoders.
        Ok(self.walk(batch, None, module.saturating_add(1), Mode::Eval, None)?.0)
    }

    fn params(&self) -> Vec<&Parameter> {
        let mut v = vec![&self.src_embed.table, &self.tgt_embed.table];
        v.extend(self.encoders.params());
        for d in &self.decoders {
            v.extend(d.params());
        }
        v.extend(self.generator.params());
        v
    }

    fn params_mut(&mut self) -> Vec<&mut Parameter> {
        let mut v = vec![&mut self.src_embed.table, &mut self.tgt_embed.table];
        v.extend(self.encoders.params_mut());
        for d in &mut self.decoders {
            v.extend(d.params_mut());
        }
        v.extend(self.generator.params_mut());
        v
    }

    fn zero_grad(&mut self) {
        for p in self.params_mut() {
            p.zero_grad();
        }
    }

    fn clone_boxed(&self) -> Box<dyn Model> {
        let mut copy = Seq2SeqTransformer::new(self.name.clone(), self.cfg, self.seed)
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

    fn tiny_batch(vocab: usize, b: usize, t: usize) -> Batch {
        let src: Vec<Vec<usize>> = (0..b).map(|i| (0..t).map(|j| (i + j) % vocab).collect()).collect();
        let tgt = src.clone();
        let targets: Vec<Vec<usize>> = src
            .iter()
            .map(|s| s.iter().map(|&x| (x + 1) % vocab).collect())
            .collect();
        Batch {
            input: Input::Seq2Seq { src, tgt },
            targets: Targets::TokenTargets(targets),
            sample_ids: (0..b as u64).collect(),
        }
    }

    #[test]
    fn base_has_12_modules_and_tiny_4() {
        let base = Seq2SeqTransformer::new("base", TransformerConfig::base(16), 1).unwrap();
        assert_eq!(base.modules().len(), 12);
        let tiny = Seq2SeqTransformer::new("tiny", TransformerConfig::tiny(16), 1).unwrap();
        assert_eq!(tiny.modules().len(), 4);
    }

    #[test]
    fn train_step_runs_and_loss_is_finite() {
        let mut m = Seq2SeqTransformer::new("t", TransformerConfig::tiny(8), 2).unwrap();
        let batch = tiny_batch(8, 2, 5);
        let r = m.train_step(&batch, Some(1)).unwrap();
        assert!(r.loss.is_finite());
        assert!(r.captured.is_some());
        assert_eq!(r.modules_backpropped, 4);
    }

    #[test]
    fn freezing_encoders_skips_their_backward() {
        let mut m = Seq2SeqTransformer::new("t", TransformerConfig::tiny(8), 3).unwrap();
        m.freeze_prefix(1).unwrap();
        let batch = tiny_batch(8, 2, 5);
        let r = m.train_step(&batch, None).unwrap();
        // 1 encoder frozen → 1 encoder + 2 decoders backprop.
        assert_eq!(r.modules_backpropped, 3);
        // Frozen encoder params kept no gradient.
        let encoders = m.encoders.blocks();
        assert!(encoders[0].layer().params().iter().all(|p| p.grad.is_none()));
        assert!(encoders[1].layer().params().iter().any(|p| p.grad.is_some()));
    }

    #[test]
    fn freezing_all_encoders_still_trains_decoders() {
        let mut m = Seq2SeqTransformer::new("t", TransformerConfig::tiny(8), 4).unwrap();
        m.freeze_prefix(2).unwrap();
        let batch = tiny_batch(8, 2, 4);
        let r = m.train_step(&batch, None).unwrap();
        assert_eq!(r.modules_backpropped, 2);
        assert!(m.decoders[0].params().iter().any(|p| p.grad.is_some()));
    }

    #[test]
    fn training_reduces_loss_on_fixed_batch() {
        let mut m = Seq2SeqTransformer::new("t", TransformerConfig::tiny(8), 5).unwrap();
        let batch = tiny_batch(8, 4, 6);
        let mut opt = egeria_nn::optim::Adam::new(3e-3, 0.0);
        let first = m.train_step(&batch, None).unwrap().loss;
        for _ in 0..30 {
            opt.step(&mut m.params_mut()).unwrap();
            m.zero_grad();
            let _ = m.train_step(&batch, None).unwrap();
        }
        let last = m.eval_batch(&batch).unwrap().loss;
        assert!(last < first, "loss {first} → {last} did not improve");
    }

    #[test]
    fn capture_matches_clone_capture() {
        let m = Seq2SeqTransformer::new("t", TransformerConfig::tiny(8), 6).unwrap();
        let mut a = m.clone_boxed();
        let mut b = m.clone_boxed();
        let batch = tiny_batch(8, 2, 4);
        let ca = a.capture_activation(&batch, 1).unwrap();
        let cb = b.capture_activation(&batch, 1).unwrap();
        assert!(ca.allclose(&cb, 1e-6));
    }

    #[test]
    fn cannot_freeze_all_modules() {
        let mut m = Seq2SeqTransformer::new("t", TransformerConfig::tiny(8), 7).unwrap();
        assert!(m.freeze_prefix(4).is_err());
        assert!(m.freeze_prefix(3).is_ok());
        m.unfreeze_all();
        assert_eq!(m.frozen_prefix(), 0);
    }

    #[test]
    fn blocks_keep_nothing_for_backward_in_eval() {
        let mut rng = Rng::new(9);
        let x = Tensor::randn(&[2, 3, 8], &mut rng);
        let mut enc = EncoderBlock::new("e", 8, 2, 16, &mut rng).unwrap();
        egeria_nn::layer::check_eval_contract(&mut enc, &x).unwrap();

        // The decoder block is not a `Layer` (two inputs), so the same
        // checks by hand: backward after Eval fails, and an Eval forward
        // leaves the next Train step's gradients bit-identical.
        let mut dec = DecoderBlock::new("d", 8, 2, 16, &mut rng).unwrap();
        let memory = Tensor::randn(&[2, 4, 8], &mut rng);
        let g = Tensor::randn(&[2, 3, 8], &mut rng);
        let bits = |t: &Tensor| t.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        let train = |dec: &mut DecoderBlock| {
            for p in dec.params_mut() {
                p.zero_grad();
            }
            let y = dec.forward_dec(&x, &memory, Mode::Train).unwrap();
            let (gx, gm) = dec.backward_dec(&g).unwrap();
            let mut out = vec![bits(&y), bits(&gx), bits(&gm)];
            out.extend(dec.params().iter().map(|p| bits(p.grad.as_ref().unwrap())));
            out
        };
        dec.forward_dec(&x, &memory, Mode::Eval).unwrap();
        assert!(dec.backward_dec(&g).is_err());
        let plain = train(&mut dec);
        dec.forward_dec(&x, &memory, Mode::Train).unwrap();
        dec.forward_dec(&x, &memory, Mode::Eval).unwrap();
        assert!(dec.backward_dec(&g).is_err());
        assert_eq!(train(&mut dec), plain);
    }
}
