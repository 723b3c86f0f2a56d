//! Token embedding with learned table plus fixed sinusoidal positions.

use crate::init;
use crate::layer::Mode;
use crate::param::Parameter;
use egeria_tensor::{Result, Rng, Tensor, TensorError};

/// A learned token-embedding table.
///
/// Unlike most layers this one consumes *token ids* (`&[Vec<usize>]`,
/// `(batch, time)`), so it does not implement [`crate::Layer`]; sequence
/// models call [`Embedding::forward_ids`]/[`Embedding::backward_ids`]
/// directly.
pub struct Embedding {
    /// The `(vocab, d_model)` embedding table.
    pub table: Parameter,
    d_model: usize,
    cached_ids: Option<Vec<Vec<usize>>>,
    /// Whether to add sinusoidal position encodings to the output.
    pub with_positions: bool,
}

impl Embedding {
    /// Creates an embedding table for `vocab` tokens of width `d_model`.
    pub fn new(name: &str, vocab: usize, d_model: usize, with_positions: bool, rng: &mut Rng) -> Self {
        Embedding {
            table: Parameter::new(
                format!("{name}.table"),
                init::kaiming_normal(&[vocab, d_model], d_model, rng),
            ),
            d_model,
            cached_ids: None,
            with_positions,
        }
    }

    /// Embedding width.
    pub fn d_model(&self) -> usize {
        self.d_model
    }

    /// Vocabulary size.
    pub fn vocab(&self) -> usize {
        self.table.value.dims()[0]
    }

    /// The sinusoidal position encoding value at `(pos, dim)`.
    fn position_encoding(pos: usize, dim: usize, d_model: usize) -> f32 {
        let i = (dim / 2) as f32;
        let angle = pos as f32 / (10_000f32).powf(2.0 * i / d_model as f32);
        if dim.is_multiple_of(2) {
            angle.sin()
        } else {
            angle.cos()
        }
    }

    /// Embeds a batch of token id sequences into `(batch, time, d_model)`.
    ///
    /// A `Mode::Train` call keeps the ids for [`Embedding::backward_ids`];
    /// a `Mode::Eval` call keeps nothing (the [`crate::Layer`] contract).
    pub fn forward_ids(&mut self, ids: &[Vec<usize>], mode: Mode) -> Result<Tensor> {
        let b = ids.len();
        let t = ids.first().map(|s| s.len()).unwrap_or(0);
        if b == 0 || t == 0 {
            return Err(TensorError::Numerical("empty id batch".into()));
        }
        let vocab = self.vocab();
        let d = self.d_model;
        let mut out = vec![0.0f32; b * t * d];
        for (bi, seq) in ids.iter().enumerate() {
            if seq.len() != t {
                return Err(TensorError::ShapeMismatch {
                    op: "embedding",
                    lhs: vec![t],
                    rhs: vec![seq.len()],
                });
            }
            for (ti, &id) in seq.iter().enumerate() {
                if id >= vocab {
                    return Err(TensorError::IndexOutOfBounds {
                        index: vec![id],
                        shape: vec![vocab],
                    });
                }
                let dst = (bi * t + ti) * d;
                let src = id * d;
                out[dst..dst + d].copy_from_slice(&self.table.value.data()[src..src + d]);
                if self.with_positions {
                    for j in 0..d {
                        out[dst + j] += Self::position_encoding(ti, j, d);
                    }
                }
            }
        }
        self.cached_ids = (mode == Mode::Train).then(|| ids.to_vec());
        Tensor::from_vec(out, &[b, t, d])
    }

    /// Scatters `grad_out` back into the table gradient.
    pub fn backward_ids(&mut self, grad_out: &Tensor) -> Result<()> {
        let ids = self.cached_ids.as_ref().ok_or_else(|| {
            TensorError::Numerical("Embedding::backward before forward".into())
        })?;
        if !self.table.requires_grad {
            return Ok(());
        }
        let d = self.d_model;
        let t = ids[0].len();
        let mut grad = Tensor::zeros(self.table.value.dims());
        for (bi, seq) in ids.iter().enumerate() {
            for (ti, &id) in seq.iter().enumerate() {
                let src = (bi * t + ti) * d;
                let dst = id * d;
                for j in 0..d {
                    grad.data_mut()[dst + j] += grad_out.data()[src + j];
                }
            }
        }
        self.table.accumulate_grad(&grad)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn forward_looks_up_rows() {
        let mut rng = Rng::new(1);
        let mut e = Embedding::new("e", 10, 4, false, &mut rng);
        let ids = vec![vec![3usize, 7], vec![0, 3]];
        let y = e.forward_ids(&ids, Mode::Train).unwrap();
        assert_eq!(y.dims(), &[2, 2, 4]);
        let row3 = &e.table.value.data()[12..16];
        assert_eq!(&y.data()[0..4], row3);
        assert_eq!(&y.data()[12..16], row3);
    }

    #[test]
    fn positions_make_identical_tokens_differ() {
        let mut rng = Rng::new(2);
        let mut e = Embedding::new("e", 5, 8, true, &mut rng);
        let y = e.forward_ids(&[vec![2, 2]], Mode::Train).unwrap();
        let first = &y.data()[0..8];
        let second = &y.data()[8..16];
        assert_ne!(first, second);
    }

    #[test]
    fn backward_accumulates_repeated_tokens() {
        let mut rng = Rng::new(3);
        let mut e = Embedding::new("e", 4, 2, false, &mut rng);
        let _ = e.forward_ids(&[vec![1, 1, 2]], Mode::Train).unwrap();
        let g = Tensor::ones(&[1, 3, 2]);
        e.backward_ids(&g).unwrap();
        let grad = e.table.grad.as_ref().unwrap();
        // Token 1 appears twice, token 2 once, others never.
        assert_eq!(&grad.data()[2..4], &[2.0, 2.0]);
        assert_eq!(&grad.data()[4..6], &[1.0, 1.0]);
        assert_eq!(&grad.data()[0..2], &[0.0, 0.0]);
    }

    #[test]
    fn rejects_out_of_vocab_and_ragged() {
        let mut rng = Rng::new(4);
        let mut e = Embedding::new("e", 4, 2, false, &mut rng);
        assert!(e.forward_ids(&[vec![9]], Mode::Train).is_err());
        assert!(e.forward_ids(&[vec![1, 2], vec![1]], Mode::Train).is_err());
        assert!(e.forward_ids(&[], Mode::Train).is_err());
    }

    #[test]
    fn frozen_table_skips_gradient() {
        let mut rng = Rng::new(5);
        let mut e = Embedding::new("e", 4, 2, false, &mut rng);
        e.table.requires_grad = false;
        let _ = e.forward_ids(&[vec![0]], Mode::Train).unwrap();
        e.backward_ids(&Tensor::ones(&[1, 1, 2])).unwrap();
        assert!(e.table.grad.is_none());
    }

    #[test]
    fn eval_forward_keeps_nothing_for_backward() {
        let mut rng = Rng::new(6);
        let mut e = Embedding::new("e", 5, 3, true, &mut rng);
        let ids = vec![vec![1, 4, 1], vec![0, 2, 3]];
        let g = Tensor::randn(&[2, 3, 3], &mut rng);
        let _ = e.forward_ids(&ids, Mode::Eval).unwrap();
        assert!(e.backward_ids(&g).is_err());
        let _ = e.forward_ids(&ids, Mode::Train).unwrap();
        e.backward_ids(&g).unwrap();
        let plain = e.table.grad.take().unwrap();
        let _ = e.forward_ids(&ids, Mode::Train).unwrap();
        let _ = e.forward_ids(&[vec![2]], Mode::Eval).unwrap();
        assert!(e.backward_ids(&g).is_err(), "Eval dropped the Train forward's ids");
        let _ = e.forward_ids(&ids, Mode::Train).unwrap();
        e.backward_ids(&g).unwrap();
        let bits = |t: &Tensor| t.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(e.table.grad.as_ref().unwrap()), bits(&plain));
    }
}
