//! Loss functions returning `(scalar loss, gradient w.r.t. input)`.

use crate::activation::softmax_last;
use egeria_tensor::{Result, Tensor, TensorError};

/// Softmax cross-entropy over the last axis with optional label smoothing.
///
/// `logits` has shape `(rows, k)` after flattening leading dimensions;
/// `targets` supplies one class id per row. Returns the mean loss and the
/// gradient w.r.t. the logits (already divided by the row count).
pub fn cross_entropy(logits: &Tensor, targets: &[usize], smoothing: f32) -> Result<(f32, Tensor)> {
    let k = *logits.dims().last().ok_or(TensorError::ShapeMismatch {
        op: "cross_entropy",
        lhs: logits.dims().to_vec(),
        rhs: vec![],
    })?;
    let rows = logits.numel() / k;
    if targets.len() != rows {
        return Err(TensorError::ShapeMismatch {
            op: "cross_entropy targets",
            lhs: vec![rows],
            rhs: vec![targets.len()],
        });
    }
    if !(0.0..1.0).contains(&smoothing) {
        return Err(TensorError::Numerical(format!(
            "label smoothing {smoothing} outside [0, 1)"
        )));
    }
    let probs = softmax_last(logits)?;
    let on = 1.0 - smoothing;
    let off = smoothing / k as f32;
    let mut loss = 0.0f64;
    let mut grad = probs.clone();
    for (r, &target) in targets.iter().enumerate() {
        if target >= k {
            return Err(TensorError::IndexOutOfBounds {
                index: vec![target],
                shape: vec![k],
            });
        }
        let row = &probs.data()[r * k..(r + 1) * k];
        let grow = &mut grad.data_mut()[r * k..(r + 1) * k];
        for (j, gv) in grow.iter_mut().enumerate() {
            // Soft target distribution: `on` at the label, `off` elsewhere.
            let y = if j == target { on + off } else { off };
            let p = row[j].max(1e-12);
            loss -= (y as f64) * (p as f64).ln();
            *gv -= y;
        }
    }
    let inv = 1.0 / rows as f32;
    grad.scale_inplace(inv);
    Ok(((loss / rows as f64) as f32, grad))
}

/// Perplexity corresponding to a mean cross-entropy in nats.
pub fn perplexity(mean_ce: f32) -> f32 {
    mean_ce.exp()
}

/// Classification accuracy of `(rows, k)` logits against targets.
pub fn accuracy(logits: &Tensor, targets: &[usize]) -> Result<f32> {
    let preds = logits.argmax_last()?;
    if preds.len() != targets.len() {
        return Err(TensorError::ShapeMismatch {
            op: "accuracy",
            lhs: vec![preds.len()],
            rhs: vec![targets.len()],
        });
    }
    if targets.is_empty() {
        return Ok(0.0);
    }
    let correct = preds.iter().zip(targets.iter()).filter(|(p, t)| p == t).count();
    Ok(correct as f32 / targets.len() as f32)
}

#[cfg(test)]
mod tests {
    use super::*;
    use egeria_tensor::Rng;

    #[test]
    fn uniform_logits_give_log_k_loss() {
        let logits = Tensor::zeros(&[4, 10]);
        let (loss, _) = cross_entropy(&logits, &[0, 1, 2, 3], 0.0).unwrap();
        assert!((loss - (10f32).ln()).abs() < 1e-4);
    }

    #[test]
    fn confident_correct_prediction_has_low_loss() {
        let mut logits = Tensor::zeros(&[1, 3]);
        logits.set(&[0, 0], 20.0).unwrap();
        let (loss, _) = cross_entropy(&logits, &[0], 0.0).unwrap();
        assert!(loss < 1e-3);
        let (wrong, _) = cross_entropy(&logits, &[1], 0.0).unwrap();
        assert!(wrong > 10.0);
    }

    #[test]
    fn gradient_matches_finite_difference() {
        let mut rng = Rng::new(1);
        let logits = Tensor::randn(&[3, 4], &mut rng);
        let targets = [2usize, 0, 3];
        let (_, grad) = cross_entropy(&logits, &targets, 0.1).unwrap();
        let eps = 1e-3;
        for probe in [0usize, 5, 11] {
            let mut lp = logits.clone();
            lp.data_mut()[probe] += eps;
            let mut lm = logits.clone();
            lm.data_mut()[probe] -= eps;
            let (loss_p, _) = cross_entropy(&lp, &targets, 0.1).unwrap();
            let (loss_m, _) = cross_entropy(&lm, &targets, 0.1).unwrap();
            let numeric = (loss_p - loss_m) / (2.0 * eps);
            assert!(
                (numeric - grad.data()[probe]).abs() < 1e-3,
                "{} vs {numeric}",
                grad.data()[probe]
            );
        }
    }

    #[test]
    fn gradient_rows_sum_to_zero() {
        let mut rng = Rng::new(2);
        let logits = Tensor::randn(&[2, 5], &mut rng);
        let (_, grad) = cross_entropy(&logits, &[1, 4], 0.0).unwrap();
        for r in 0..2 {
            let s: f32 = grad.data()[r * 5..(r + 1) * 5].iter().sum();
            assert!(s.abs() < 1e-5);
        }
    }

    #[test]
    fn rejects_bad_targets_and_smoothing() {
        let logits = Tensor::zeros(&[2, 3]);
        assert!(cross_entropy(&logits, &[0], 0.0).is_err());
        assert!(cross_entropy(&logits, &[0, 3], 0.0).is_err());
        assert!(cross_entropy(&logits, &[0, 1], 1.0).is_err());
    }

    #[test]
    fn accuracy_counts_matches() {
        let logits = Tensor::from_vec(vec![0.9, 0.1, 0.2, 0.8], &[2, 2]).unwrap();
        assert_eq!(accuracy(&logits, &[0, 1]).unwrap(), 1.0);
        assert_eq!(accuracy(&logits, &[1, 1]).unwrap(), 0.5);
    }

    #[test]
    fn perplexity_is_exp() {
        assert!((perplexity(0.0) - 1.0).abs() < 1e-6);
        assert!((perplexity(1.0) - std::f32::consts::E).abs() < 1e-5);
    }
}
