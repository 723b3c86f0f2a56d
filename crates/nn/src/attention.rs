//! Multi-head scaled dot-product attention.

use crate::activation::{softmax_last, softmax_last_grad};
use crate::layer::{Layer, Mode};
use crate::linear::Linear;
use crate::param::Parameter;
use egeria_tensor::{Result, Rng, Tensor, TensorError};

/// Multi-head attention with optional causal masking.
///
/// Covers both self-attention (keys and values from the query input) and
/// encoder–decoder cross-attention (keys and values from a separate
/// context, the encoder memory). Which one runs is decided by the call, not
/// by comparing values: the [`Layer`] impl is self-attention, while
/// [`MultiHeadAttention::forward_attn`] / [`MultiHeadAttention::backward_attn`]
/// are always cross-attention and also return the gradient flowing into
/// the context — even when the context equals the query by value.
pub struct MultiHeadAttention {
    wq: Linear,
    wk: Linear,
    wv: Linear,
    wo: Linear,
    heads: usize,
    d_model: usize,
    causal: bool,
    cache: Option<AttnCache>,
}

struct AttnCache {
    q: Tensor,
    k: Tensor,
    v: Tensor,
    probs: Tensor,
    b: usize,
    s: usize,
    self_attention: bool,
}

/// Splits `(b, t, d)` into `(b*heads, t, d/heads)`.
fn split_heads(x: &Tensor, heads: usize) -> Result<Tensor> {
    let (b, t, d) = dims3(x)?;
    let dh = d / heads;
    x.reshape(&[b, t, heads, dh])?
        .permute(&[0, 2, 1, 3])?
        .reshape(&[b * heads, t, dh])
}

/// Inverse of [`split_heads`].
fn merge_heads(x: &Tensor, heads: usize, b: usize) -> Result<Tensor> {
    let t = x.dims()[1];
    let dh = x.dims()[2];
    x.reshape(&[b, heads, t, dh])?
        .permute(&[0, 2, 1, 3])?
        .reshape(&[b, t, heads * dh])
}

fn dims3(x: &Tensor) -> Result<(usize, usize, usize)> {
    if x.rank() != 3 {
        return Err(TensorError::ShapeMismatch {
            op: "attention",
            lhs: x.dims().to_vec(),
            rhs: vec![],
        });
    }
    Ok((x.dims()[0], x.dims()[1], x.dims()[2]))
}

impl MultiHeadAttention {
    /// Creates an attention block.
    ///
    /// Returns an error if `d_model` is not divisible by `heads`.
    pub fn new(name: &str, d_model: usize, heads: usize, causal: bool, rng: &mut Rng) -> Result<Self> {
        if heads == 0 || !d_model.is_multiple_of(heads) {
            return Err(TensorError::Numerical(format!(
                "d_model {d_model} not divisible by heads {heads}"
            )));
        }
        Ok(MultiHeadAttention {
            wq: Linear::new(&format!("{name}.wq"), d_model, d_model, true, rng),
            wk: Linear::new(&format!("{name}.wk"), d_model, d_model, true, rng),
            wv: Linear::new(&format!("{name}.wv"), d_model, d_model, true, rng),
            wo: Linear::new(&format!("{name}.wo"), d_model, d_model, true, rng),
            heads,
            d_model,
            causal,
            cache: None,
        })
    }

    /// Cross-attention forward: queries from `x`, keys and values from the
    /// context `ctx`.
    pub fn forward_attn(&mut self, x: &Tensor, ctx: &Tensor, mode: Mode) -> Result<Tensor> {
        self.attend(x, Some(ctx), mode)
    }

    /// The one forward: self-attention when `ctx` is `None`. A `Mode::Eval`
    /// call keeps nothing for backward.
    fn attend(&mut self, x: &Tensor, ctx: Option<&Tensor>, mode: Mode) -> Result<Tensor> {
        let self_attention = ctx.is_none();
        let ctx = ctx.unwrap_or(x);
        let (b, t, d) = dims3(x)?;
        let (cb, s, cd) = dims3(ctx)?;
        if d != self.d_model || cd != self.d_model || cb != b {
            return Err(TensorError::ShapeMismatch {
                op: "attention",
                lhs: x.dims().to_vec(),
                rhs: ctx.dims().to_vec(),
            });
        }
        let q = split_heads(&self.wq.forward(x, mode)?, self.heads)?;
        let k = split_heads(&self.wk.forward(ctx, mode)?, self.heads)?;
        let v = split_heads(&self.wv.forward(ctx, mode)?, self.heads)?;
        let dh = d / self.heads;
        let scale = 1.0 / (dh as f32).sqrt();
        let mut scores = q.bmm_tb(&k)?.mul_scalar(scale);
        if self.causal {
            // Mask future positions with a large negative logit.
            let bh = scores.dims()[0];
            for m in 0..bh {
                for i in 0..t {
                    for j in (i + 1)..s {
                        scores.data_mut()[(m * t + i) * s + j] = -1e9;
                    }
                }
            }
        }
        let probs = softmax_last(&scores)?;
        let ctx_out = probs.bmm(&v)?;
        let merged = merge_heads(&ctx_out, self.heads, b)?;
        let out = self.wo.forward(&merged, mode)?;
        self.cache = (mode == Mode::Train).then_some(AttnCache {
            q,
            k,
            v,
            probs,
            b,
            s,
            self_attention,
        });
        Ok(out)
    }

    /// Attention backward; returns `(grad_x, grad_ctx)`.
    ///
    /// For a self-attention forward the context gradient is already folded
    /// into `grad_x` and the second tensor is zero-shaped like `x`.
    pub fn backward_attn(&mut self, grad_out: &Tensor) -> Result<(Tensor, Tensor)> {
        let cache = self.cache.take().ok_or_else(|| {
            TensorError::Numerical("attention backward before forward".into())
        })?;
        let b = cache.b;
        let dh = self.d_model / self.heads;
        let scale = 1.0 / (dh as f32).sqrt();
        let g_merged = self.wo.backward(grad_out)?;
        let g_ctx_out = split_heads(&g_merged, self.heads)?;
        // O = P·V.
        let g_probs = g_ctx_out.bmm_tb(&cache.v)?;
        let g_v = cache.probs.bmm_ta(&g_ctx_out)?;
        let g_scores = softmax_last_grad(&cache.probs, &g_probs)?.mul_scalar(scale);
        // S = Q·Kᵀ (scaled).
        let g_q = g_scores.bmm(&cache.k)?;
        let g_k = g_scores.bmm_ta(&cache.q)?;
        let g_q = merge_heads(&g_q, self.heads, b)?;
        let g_k = merge_heads(&g_k, self.heads, b)?;
        let g_v = merge_heads(&g_v, self.heads, b)?;
        let gx_q = self.wq.backward(&g_q)?;
        let gctx_k = self.wk.backward(&g_k)?;
        let gctx_v = self.wv.backward(&g_v)?;
        let gctx = gctx_k.add(&gctx_v)?;
        if cache.self_attention {
            Ok((gx_q.add(&gctx)?, Tensor::zeros(&[cache.b, cache.s, self.d_model])))
        } else {
            Ok((gx_q, gctx))
        }
    }
}

impl Layer for MultiHeadAttention {
    fn forward(&mut self, x: &Tensor, mode: Mode) -> Result<Tensor> {
        self.attend(x, None, mode)
    }

    fn backward(&mut self, grad_out: &Tensor) -> Result<Tensor> {
        let (gx, _) = self.backward_attn(grad_out)?;
        Ok(gx)
    }

    fn params(&self) -> Vec<&Parameter> {
        [&self.wq, &self.wk, &self.wv, &self.wo]
            .iter()
            .flat_map(|l| l.params())
            .collect()
    }

    fn params_mut(&mut self) -> Vec<&mut Parameter> {
        let mut v = self.wq.params_mut();
        v.extend(self.wk.params_mut());
        v.extend(self.wv.params_mut());
        v.extend(self.wo.params_mut());
        v
    }

    fn kind(&self) -> &'static str {
        "MultiHeadAttention"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layer::gradcheck_input;

    #[test]
    fn output_shape_matches_input() {
        let mut rng = Rng::new(1);
        let mut a = MultiHeadAttention::new("a", 8, 2, false, &mut rng).unwrap();
        let x = Tensor::randn(&[2, 5, 8], &mut rng);
        let y = a.forward(&x, Mode::Train).unwrap();
        assert_eq!(y.dims(), &[2, 5, 8]);
    }

    #[test]
    fn rejects_indivisible_heads() {
        let mut rng = Rng::new(2);
        assert!(MultiHeadAttention::new("a", 7, 2, false, &mut rng).is_err());
        assert!(MultiHeadAttention::new("a", 8, 0, false, &mut rng).is_err());
    }

    #[test]
    fn causal_mask_blocks_future_tokens() {
        let mut rng = Rng::new(3);
        let mut a = MultiHeadAttention::new("a", 4, 1, true, &mut rng).unwrap();
        // Changing a future token must not change the first position output.
        let x1 = Tensor::randn(&[1, 3, 4], &mut rng);
        let mut x2 = x1.clone();
        for j in 0..4 {
            x2.set(&[0, 2, j], 99.0).unwrap();
        }
        let y1 = a.forward(&x1, Mode::Train).unwrap();
        let y2 = a.forward(&x2, Mode::Train).unwrap();
        let first1 = y1.narrow(1, 0, 1).unwrap();
        let first2 = y2.narrow(1, 0, 1).unwrap();
        assert!(first1.allclose(&first2, 1e-5));
        // Without the mask it would change.
        let mut nc = MultiHeadAttention::new("b", 4, 1, false, &mut rng).unwrap();
        let z1 = nc.forward(&x1, Mode::Train).unwrap().narrow(1, 0, 1).unwrap();
        let z2 = nc.forward(&x2, Mode::Train).unwrap().narrow(1, 0, 1).unwrap();
        assert!(!z1.allclose(&z2, 1e-3));
    }

    #[test]
    fn self_attention_gradcheck() {
        let mut rng = Rng::new(4);
        let mut a = MultiHeadAttention::new("a", 6, 2, false, &mut rng).unwrap();
        let x = Tensor::randn(&[1, 3, 6], &mut rng);
        let worst = gradcheck_input(&mut a, &x, &[0, 5, 11, 17], 1e-2).unwrap();
        assert!(worst < 3e-2, "attention gradcheck deviation {worst}");
    }

    #[test]
    fn cross_attention_context_gradient_matches_finite_difference() {
        let mut rng = Rng::new(5);
        let mut a = MultiHeadAttention::new("a", 4, 2, false, &mut rng).unwrap();
        let x = Tensor::randn(&[1, 2, 4], &mut rng);
        let ctx = Tensor::randn(&[1, 3, 4], &mut rng);
        let y = a.forward_attn(&x, &ctx, Mode::Train).unwrap();
        let c = Tensor::randn(y.dims(), &mut rng);
        let (_, gctx) = a.backward_attn(&c).unwrap();
        let eps = 1e-2;
        for probe in [0usize, 5, 11] {
            let mut cp = ctx.clone();
            cp.data_mut()[probe] += eps;
            let yp = a.forward_attn(&x, &cp, Mode::Train).unwrap().dot(&c).unwrap();
            let mut cm = ctx.clone();
            cm.data_mut()[probe] -= eps;
            let ym = a.forward_attn(&x, &cm, Mode::Train).unwrap().dot(&c).unwrap();
            let numeric = (yp - ym) / (2.0 * eps);
            assert!(
                (numeric - gctx.data()[probe]).abs() < 2e-2,
                "ctx grad {probe}: {} vs {numeric}",
                gctx.data()[probe]
            );
        }
    }

    #[test]
    fn split_merge_heads_round_trip() {
        let mut rng = Rng::new(6);
        let x = Tensor::randn(&[2, 3, 8], &mut rng);
        let s = split_heads(&x, 4).unwrap();
        assert_eq!(s.dims(), &[8, 3, 2]);
        let m = merge_heads(&s, 4, 2).unwrap();
        assert_eq!(m, x);
    }

    fn bits(t: &Tensor) -> Vec<u32> {
        t.data().iter().map(|v| v.to_bits()).collect()
    }

    #[test]
    fn eval_forwards_keep_nothing_for_backward() {
        let mut rng = Rng::new(7);
        let x = Tensor::randn(&[2, 3, 8], &mut rng);
        for causal in [false, true] {
            let mut a = MultiHeadAttention::new("a", 8, 2, causal, &mut rng).unwrap();
            crate::layer::check_eval_contract(&mut a, &x).unwrap();
        }
        // The cross-attention entry point drops its context the same way.
        let mut a = MultiHeadAttention::new("c", 8, 2, false, &mut rng).unwrap();
        let ctx = Tensor::randn(&[2, 4, 8], &mut rng);
        let y = a.forward_attn(&x, &ctx, Mode::Train).unwrap();
        a.forward_attn(&x, &ctx, Mode::Eval).unwrap();
        assert!(a.backward_attn(&y).is_err());
    }

    #[test]
    fn cross_attention_over_an_equal_copy_keeps_its_context_gradient() {
        // Self- vs cross-attention is the caller's choice: a context equal to
        // the query by value is still a separate input with its own gradient.
        let mut rng = Rng::new(8);
        let mut a = MultiHeadAttention::new("a", 8, 2, true, &mut rng).unwrap();
        let x = Tensor::randn(&[2, 3, 8], &mut rng);
        let c = Tensor::randn(&[2, 3, 8], &mut rng);
        let y_self = a.forward(&x, Mode::Train).unwrap();
        let g_self = a.backward(&c).unwrap();
        let ctx = x.clone();
        let y_cross = a.forward_attn(&x, &ctx, Mode::Train).unwrap();
        let (gx_q, gctx) = a.backward_attn(&c).unwrap();
        assert_eq!(bits(&y_cross), bits(&y_self));
        assert!(gctx.data().iter().any(|&v| v != 0.0), "context gradient dropped");
        assert_eq!(bits(&gx_q.add(&gctx).unwrap()), bits(&g_self));
    }
}
