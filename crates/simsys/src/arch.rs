//! Paper-scale architecture cost profiles.
//!
//! The reproduction trains width-reduced models, so per-module *relative*
//! sizes come from the live model while *absolute* costs come from the
//! paper-scale architecture. [`ArchSpec::scaled`] combines the two: the
//! live model's module parameter counts fix the distribution, and a
//! [`PaperScale`] fixes the totals (computed from the published
//! architectures' dimensions).

/// Per-module cost profile (per training sample where applicable).
#[derive(Debug, Clone)]
pub struct ModuleCost {
    /// Module name.
    pub name: String,
    /// Forward FLOPs per sample.
    pub flops_fwd: f64,
    /// Parameter payload in bytes (gradient sync volume).
    pub param_bytes: f64,
    /// Output activation size per sample in bytes (cache traffic).
    pub act_bytes: f64,
}

/// A whole-model cost profile.
#[derive(Debug, Clone)]
pub struct ArchSpec {
    /// Model name.
    pub name: String,
    /// Modules in forward order.
    pub modules: Vec<ModuleCost>,
    /// Input size per sample in bytes.
    pub input_bytes: f64,
}

/// How forward FLOPs distribute across modules.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlopsModel {
    /// FLOPs proportional to the module's parameter count (Transformers,
    /// whose per-block cost tracks per-block parameters).
    ProportionalToParams,
    /// FLOPs proportional to the module's *block* count (ResNet-style CNNs:
    /// channel doubling cancels spatial halving, so per-block FLOPs are
    /// roughly constant while parameters grow toward the back).
    PerBlockUniform,
}

/// Paper-scale totals for one Table 1 workload.
#[derive(Debug, Clone, Copy)]
pub struct PaperScale {
    /// Total forward FLOPs per sample.
    pub total_flops_fwd: f64,
    /// Total parameter bytes.
    pub total_param_bytes: f64,
    /// Input bytes per sample.
    pub input_bytes: f64,
    /// Activation-to-input size ratio at the first module boundary (the
    /// paper reports 1.5×–5.3× of input for ResNet-50; activations shrink
    /// toward the back).
    pub act_ratio_front: f64,
    /// Activation-to-input ratio at the last module boundary.
    pub act_ratio_back: f64,
}

impl PaperScale {
    /// ResNet-50 on ImageNet (224², 25.6 M params, ≈4.1 GFLOPs forward).
    pub fn resnet50_imagenet() -> Self {
        PaperScale {
            total_flops_fwd: 4.1e9,
            total_param_bytes: 25.6e6 * 4.0,
            input_bytes: 224.0 * 224.0 * 3.0 * 4.0,
            act_ratio_front: 5.3,
            act_ratio_back: 1.5,
        }
    }

    /// MobileNetV2 on CIFAR-10 (32², ≈2.3 M params, ≈90 MFLOPs).
    pub fn mobilenet_v2_cifar() -> Self {
        PaperScale {
            total_flops_fwd: 9.0e7,
            total_param_bytes: 2.3e6 * 4.0,
            input_bytes: 32.0 * 32.0 * 3.0 * 4.0,
            act_ratio_front: 4.0,
            act_ratio_back: 1.0,
        }
    }

    /// ResNet-56 on CIFAR-10 (32², 0.85 M params, ≈125 MFLOPs).
    pub fn resnet56_cifar() -> Self {
        PaperScale {
            total_flops_fwd: 1.25e8,
            total_param_bytes: 0.85e6 * 4.0,
            input_bytes: 32.0 * 32.0 * 3.0 * 4.0,
            act_ratio_front: 5.3,
            act_ratio_back: 1.3,
        }
    }

    /// DeepLabv3 (ResNet-50 backbone) on VOC at 513² crops (≈39 M params,
    /// ≈80 GFLOPs forward).
    pub fn deeplabv3_voc() -> Self {
        PaperScale {
            total_flops_fwd: 8.0e10,
            total_param_bytes: 39.0e6 * 4.0,
            input_bytes: 513.0 * 513.0 * 3.0 * 4.0,
            act_ratio_front: 5.3,
            act_ratio_back: 2.0,
        }
    }

    /// Transformer-Base on WMT16 EN-DE (≈65 M params, ≈5 GFLOPs per
    /// sentence pair at typical lengths).
    pub fn transformer_base_wmt() -> Self {
        PaperScale {
            total_flops_fwd: 5.0e9,
            total_param_bytes: 65.0e6 * 4.0,
            input_bytes: 2.0 * 25.0 * 4.0, // Token ids, tiny next to CV.
            act_ratio_front: 400.0,        // d_model × tokens dominates ids.
            act_ratio_back: 400.0,
        }
    }

    /// Transformer-Tiny (2+2 blocks, ≈15 M params).
    pub fn transformer_tiny_wmt() -> Self {
        PaperScale {
            total_flops_fwd: 1.2e9,
            total_param_bytes: 15.0e6 * 4.0,
            input_bytes: 2.0 * 25.0 * 4.0,
            act_ratio_front: 200.0,
            act_ratio_back: 200.0,
        }
    }

    /// BERT-Base fine-tuning on SQuAD at sequence length 384 (110 M
    /// params, ≈85 GFLOPs forward per sample).
    pub fn bert_base_squad() -> Self {
        PaperScale {
            total_flops_fwd: 8.5e10,
            total_param_bytes: 110.0e6 * 4.0,
            input_bytes: 384.0 * 4.0,
            act_ratio_front: 768.0,
            act_ratio_back: 768.0,
        }
    }
}

impl ArchSpec {
    /// Builds a paper-scale spec from the live model's module layout.
    ///
    /// `module_params` are the live model's per-module parameter counts;
    /// `blocks_per_module` supplies block counts for the
    /// [`FlopsModel::PerBlockUniform`] distribution (ignored otherwise, and
    /// defaulting to "one block each" if absent).
    pub fn scaled(
        name: impl Into<String>,
        module_params: &[usize],
        blocks_per_module: Option<&[usize]>,
        flops_model: FlopsModel,
        paper: PaperScale,
    ) -> ArchSpec {
        let n = module_params.len();
        let total_params: f64 = module_params.iter().map(|&p| p as f64).sum::<f64>().max(1.0);
        let default_blocks = vec![1usize; n];
        let blocks = blocks_per_module.unwrap_or(&default_blocks);
        let total_blocks: f64 = blocks.iter().map(|&b| b as f64).sum::<f64>().max(1.0);
        let modules = (0..n)
            .map(|i| {
                let param_share = module_params[i] as f64 / total_params;
                let flop_share = match flops_model {
                    FlopsModel::ProportionalToParams => param_share,
                    FlopsModel::PerBlockUniform => blocks[i] as f64 / total_blocks,
                };
                // Activation ratio interpolates front→back across module
                // boundaries.
                let frac = if n <= 1 { 0.0 } else { i as f64 / (n - 1) as f64 };
                let act_ratio =
                    paper.act_ratio_front + (paper.act_ratio_back - paper.act_ratio_front) * frac;
                ModuleCost {
                    name: format!("module{i}"),
                    flops_fwd: paper.total_flops_fwd * flop_share,
                    param_bytes: paper.total_param_bytes * param_share,
                    act_bytes: paper.input_bytes * act_ratio,
                }
            })
            .collect();
        ArchSpec {
            name: name.into(),
            modules,
            input_bytes: paper.input_bytes,
        }
    }

    /// Number of modules.
    pub fn num_modules(&self) -> usize {
        self.modules.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scaled_preserves_totals() {
        let spec = ArchSpec::scaled(
            "m",
            &[100, 300, 600],
            None,
            FlopsModel::ProportionalToParams,
            PaperScale::resnet56_cifar(),
        );
        let p = PaperScale::resnet56_cifar();
        let flops: f64 = spec.modules.iter().map(|m| m.flops_fwd).sum();
        let param_bytes: f64 = spec.modules.iter().map(|m| m.param_bytes).sum();
        assert!((flops - p.total_flops_fwd).abs() / p.total_flops_fwd < 1e-9);
        assert!((param_bytes - p.total_param_bytes).abs() / p.total_param_bytes < 1e-9);
    }

    #[test]
    fn per_block_uniform_decouples_flops_from_params() {
        // Back-heavy params but uniform blocks: FLOPs stay uniform.
        let spec = ArchSpec::scaled(
            "m",
            &[100, 1000],
            Some(&[5, 5]),
            FlopsModel::PerBlockUniform,
            PaperScale::resnet56_cifar(),
        );
        assert!((spec.modules[0].flops_fwd - spec.modules[1].flops_fwd).abs() < 1.0);
        assert!(spec.modules[1].param_bytes > spec.modules[0].param_bytes * 5.0);
    }

    #[test]
    fn activation_ratio_interpolates_front_to_back() {
        let spec = ArchSpec::scaled(
            "m",
            &[1, 1, 1],
            None,
            FlopsModel::ProportionalToParams,
            PaperScale::resnet50_imagenet(),
        );
        let front = spec.modules.first().unwrap().act_bytes / spec.input_bytes;
        let back = spec.modules.last().unwrap().act_bytes / spec.input_bytes;
        assert!((front - 5.3).abs() < 1e-6);
        assert!((back - 1.5).abs() < 1e-6);
    }

    #[test]
    fn paper_scales_are_plausible() {
        assert!(PaperScale::bert_base_squad().total_param_bytes
            > PaperScale::transformer_base_wmt().total_param_bytes);
        assert!(PaperScale::resnet50_imagenet().total_flops_fwd
            > PaperScale::resnet56_cifar().total_flops_fwd * 10.0);
    }
}
