//! Weight initialization schemes.

use egeria_tensor::{Rng, Tensor};

/// Kaiming/He normal initialization for ReLU networks: `N(0, 2/fan_in)`.
pub fn kaiming_normal(dims: &[usize], fan_in: usize, rng: &mut Rng) -> Tensor {
    let std = (2.0 / fan_in.max(1) as f32).sqrt();
    Tensor::randn(dims, rng).mul_scalar(std)
}

/// Fan-in for a conv weight `(c_out, c_in, kh, kw)` or linear `(out, in)`.
pub fn fan_in_of(dims: &[usize]) -> usize {
    match dims.len() {
        2 => dims[1],
        4 => dims[1] * dims[2] * dims[3],
        _ => dims.iter().skip(1).product::<usize>().max(1),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kaiming_variance_tracks_fan_in() {
        let mut rng = Rng::new(1);
        let w = kaiming_normal(&[64, 128], 128, &mut rng);
        let var = w.sq_norm() / w.numel() as f32;
        let expected = 2.0 / 128.0;
        assert!((var - expected).abs() < expected * 0.3, "var {var}");
    }

    #[test]
    fn fan_in_for_linear_and_conv() {
        assert_eq!(fan_in_of(&[10, 20]), 20);
        assert_eq!(fan_in_of(&[8, 3, 3, 3]), 27);
    }
}
