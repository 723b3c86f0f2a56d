//! MobileNetV2-style network built from inverted residual blocks.
//!
//! The paper's Table 1 lists MobileNetV2 as 17 inverted-residual building
//! modules; this builder reproduces that block table (expansion factor,
//! channel, repeat, stride) at a configurable width multiplier.

use crate::module_parser::{plan_groups, ParserConfig, UnitSpec};
use crate::vision::{VisionModel, VisionTask};
use egeria_nn::activation::{Act, Activation};
use egeria_nn::conv_layers::{Conv2d, DepthwiseConv2d, GlobalAvgPool};
use egeria_nn::layer::{Layer, Mode};
use egeria_nn::linear::Linear;
use egeria_nn::norm::BatchNorm2d;
use egeria_nn::{Network, Parameter, Sequential};
use egeria_tensor::{Result, Rng, Tensor};
use std::sync::Arc;

/// An inverted residual block: 1×1 expand → depthwise 3×3 → 1×1 project,
/// with a residual connection when stride is 1 and channels match.
pub struct InvertedResidual {
    expand: Option<(Conv2d, BatchNorm2d, Activation)>,
    dw: DepthwiseConv2d,
    dw_bn: BatchNorm2d,
    dw_act: Activation,
    project: Conv2d,
    project_bn: BatchNorm2d,
    residual: bool,
}

impl InvertedResidual {
    /// Creates a block with expansion factor `t`.
    pub fn new(name: &str, c_in: usize, c_out: usize, stride: usize, t: usize, rng: &mut Rng) -> Self {
        let hidden = c_in * t;
        let expand = (t != 1).then(|| {
            (
                Conv2d::new(&format!("{name}.expand"), c_in, hidden, 1, 1, 0, false, rng),
                BatchNorm2d::new(&format!("{name}.expand_bn"), hidden),
                Activation::new(Act::Relu6),
            )
        });
        InvertedResidual {
            expand,
            dw: DepthwiseConv2d::new(&format!("{name}.dw"), hidden, 3, stride, 1, rng),
            dw_bn: BatchNorm2d::new(&format!("{name}.dw_bn"), hidden),
            dw_act: Activation::new(Act::Relu6),
            project: Conv2d::new(&format!("{name}.project"), hidden, c_out, 1, 1, 0, false, rng),
            project_bn: BatchNorm2d::new(&format!("{name}.project_bn"), c_out),
            residual: stride == 1 && c_in == c_out,
        }
    }
}

impl Layer for InvertedResidual {
    fn forward(&mut self, x: &Tensor, mode: Mode) -> Result<Tensor> {
        let expanded;
        let h = match &mut self.expand {
            Some((conv, bn, act)) => {
                let t = conv.forward(x, mode)?;
                let t = bn.forward(&t, mode)?;
                expanded = act.forward(&t, mode)?;
                &expanded
            }
            None => x,
        };
        let mut h = self.dw.forward(h, mode)?;
        h = self.dw_bn.forward(&h, mode)?;
        h = self.dw_act.forward(&h, mode)?;
        h = self.project.forward(&h, mode)?;
        h = self.project_bn.forward(&h, mode)?;
        if self.residual {
            h = h.add(x)?;
        }
        Ok(h)
    }

    fn backward(&mut self, grad_out: &Tensor) -> Result<Tensor> {
        let mut g = self.project_bn.backward(grad_out)?;
        g = self.project.backward(&g)?;
        g = self.dw_act.backward(&g)?;
        g = self.dw_bn.backward(&g)?;
        g = self.dw.backward(&g)?;
        let gx = match &mut self.expand {
            Some((conv, bn, act)) => {
                let t = act.backward(&g)?;
                let t = bn.backward(&t)?;
                conv.backward(&t)?
            }
            None => g,
        };
        if self.residual {
            gx.add(grad_out)
        } else {
            Ok(gx)
        }
    }

    fn params(&self) -> Vec<&Parameter> {
        let mut v = Vec::new();
        if let Some((c, b, _)) = &self.expand {
            v.extend(c.params());
            v.extend(b.params());
        }
        v.extend(self.dw.params());
        v.extend(self.dw_bn.params());
        v.extend(self.project.params());
        v.extend(self.project_bn.params());
        v
    }

    fn params_mut(&mut self) -> Vec<&mut Parameter> {
        let mut v = Vec::new();
        if let Some((c, b, _)) = &mut self.expand {
            v.extend(c.params_mut());
            v.extend(b.params_mut());
        }
        v.extend(self.dw.params_mut());
        v.extend(self.dw_bn.params_mut());
        v.extend(self.project.params_mut());
        v.extend(self.project_bn.params_mut());
        v
    }

    fn state_buffers(&self) -> Vec<&Tensor> {
        let mut v = Vec::new();
        if let Some((_, b, _)) = &self.expand {
            v.extend(b.state_buffers());
        }
        v.extend(self.dw_bn.state_buffers());
        v.extend(self.project_bn.state_buffers());
        v
    }

    fn state_buffers_mut(&mut self) -> Vec<&mut Tensor> {
        let mut v = Vec::new();
        if let Some((_, b, _)) = &mut self.expand {
            v.extend(b.state_buffers_mut());
        }
        v.extend(self.dw_bn.state_buffers_mut());
        v.extend(self.project_bn.state_buffers_mut());
        v
    }

    fn kind(&self) -> &'static str {
        "InvertedResidual"
    }
}

/// Configuration for the MobileNetV2-style builder.
#[derive(Debug, Clone, Copy)]
pub struct MobileNetConfig {
    /// Width divisor relative to the paper-scale channel table (4 → quarter
    /// width).
    pub width_div: usize,
    /// Output classes.
    pub classes: usize,
    /// Module-parser configuration.
    pub parser: ParserConfig,
}

impl Default for MobileNetConfig {
    fn default() -> Self {
        MobileNetConfig {
            width_div: 4,
            classes: 10,
            parser: ParserConfig::default(),
        }
    }
}

/// The MobileNetV2 block table `(expansion, channels, repeats, stride)` —
/// 17 inverted residual blocks, matching Table 1 of the paper.
pub const MOBILENET_V2_TABLE: [(usize, usize, usize, usize); 7] = [
    (1, 16, 1, 1),
    (6, 24, 2, 2),
    (6, 32, 3, 2),
    (6, 64, 4, 2),
    (6, 96, 3, 1),
    (6, 160, 3, 2),
    (6, 320, 1, 1),
];

/// Builds a MobileNetV2-style classifier.
pub fn mobilenet_v2(cfg: MobileNetConfig, seed: u64) -> VisionModel {
    let classes = cfg.classes;
    let builder = Arc::new(move || {
        let mut rng = Rng::new(seed);
        let scale = |c: usize| (c / cfg.width_div).max(2);
        let stem_c = scale(32);
        let stem: Vec<Box<dyn Layer>> = vec![
            Box::new(Conv2d::new("stem.conv", 3, stem_c, 3, 1, 1, false, &mut rng)),
            Box::new(BatchNorm2d::new("stem.bn", stem_c)),
            Box::new(Activation::new(Act::Relu6)),
        ];
        let mut units: Vec<(UnitSpec, Box<dyn Layer>)> = Vec::new();
        let mut c_in = stem_c;
        let mut block_idx = 0usize;
        for (stage, &(t, c, reps, s)) in MOBILENET_V2_TABLE.iter().enumerate() {
            let c_out = scale(c);
            for r in 0..reps {
                // Reduced input resolution: keep only the first two
                // downsampling strides so 16×16 inputs stay viable.
                let stride = if r == 0 && s == 2 && stage < 3 { 2 } else { 1 };
                let name = format!("block{block_idx}");
                let block = InvertedResidual::new(&name, c_in, c_out, stride, t, &mut rng);
                let params = block.param_count();
                units.push((
                    UnitSpec {
                        stage,
                        label: name,
                        params,
                    },
                    Box::new(block),
                ));
                c_in = c_out;
                block_idx += 1;
            }
        }
        let head_c = scale(1280);
        let head: Vec<Box<dyn Layer>> = vec![
            Box::new(Conv2d::new("head.conv", c_in, head_c, 1, 1, 0, false, &mut rng)),
            Box::new(BatchNorm2d::new("head.bn", head_c)),
            Box::new(Activation::new(Act::Relu6)),
            Box::new(GlobalAvgPool::new()),
            Box::new(Linear::new("classifier", head_c, cfg.classes, true, &mut rng)),
        ];
        let specs: Vec<UnitSpec> = units.iter().map(|(s, _)| s.clone()).collect();
        let groups = plan_groups(&specs, &cfg.parser);
        let mut layers: Vec<Option<Box<dyn Layer>>> =
            units.into_iter().map(|(_, l)| Some(l)).collect();
        let mut net = Network::new();
        let mut stem = stem;
        let mut head = head;
        let n_groups = groups.len();
        for (gi, group) in groups.iter().enumerate() {
            let mut seq = Sequential::new();
            if gi == 0 {
                for s in stem.drain(..) {
                    seq.add(s);
                }
            }
            for &idx in group {
                seq.add(layers[idx].take().expect("unit used once"));
            }
            if gi == n_groups - 1 {
                for h in head.drain(..) {
                    seq.add(h);
                }
            }
            let name = format!(
                "{}-{}",
                specs[*group.first().expect("non-empty")].label,
                specs[*group.last().expect("non-empty")].label
            );
            net.add_block(name, Box::new(seq));
        }
        net
    });
    VisionModel::new("mobilenet_v2", VisionTask::Classification, classes, builder)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::input::{Batch, Input, Targets};
    use crate::model::Model;

    #[test]
    fn inverted_residual_shapes_and_residual_flag() {
        let mut rng = Rng::new(1);
        let mut b = InvertedResidual::new("b", 4, 4, 1, 6, &mut rng);
        assert!(b.residual);
        let x = Tensor::randn(&[1, 4, 8, 8], &mut rng);
        let y = b.forward(&x, Mode::Train).unwrap();
        assert_eq!(y.dims(), x.dims());
        let mut b2 = InvertedResidual::new("b2", 4, 8, 2, 6, &mut rng);
        assert!(!b2.residual);
        let y2 = b2.forward(&x, Mode::Train).unwrap();
        assert_eq!(y2.dims(), &[1, 8, 4, 4]);
    }

    #[test]
    fn inverted_residual_gradcheck() {
        let mut rng = Rng::new(2);
        let mut b = InvertedResidual::new("b", 3, 3, 1, 2, &mut rng);
        let x = Tensor::randn(&[1, 3, 4, 4], &mut rng);
        let worst = egeria_nn::layer::gradcheck_input(&mut b, &x, &[0, 13, 31, 47], 1e-2).unwrap();
        assert!(worst < 5e-2, "inverted residual gradcheck {worst}");
    }

    #[test]
    fn mobilenet_has_17_inverted_residual_blocks() {
        let total_blocks: usize = MOBILENET_V2_TABLE.iter().map(|&(_, _, n, _)| n).sum();
        assert_eq!(total_blocks, 17);
    }

    #[test]
    fn mobilenet_trains_one_step() {
        let mut m = mobilenet_v2(
            MobileNetConfig {
                width_div: 8,
                classes: 10,
                parser: ParserConfig::default(),
            },
            3,
        );
        let mut rng = Rng::new(4);
        let batch = Batch {
            input: Input::Image(Tensor::randn(&[2, 3, 16, 16], &mut rng)),
            targets: Targets::Classes(vec![1, 2]),
            sample_ids: vec![0, 1],
        };
        let r = m.train_step(&batch, None).unwrap();
        assert!(r.loss.is_finite());
        assert!(m.modules().len() >= 3);
    }

    #[test]
    fn inverted_residual_keeps_nothing_for_backward_in_eval() {
        use egeria_nn::layer::check_eval_contract;
        let mut rng = Rng::new(9);
        let x = Tensor::randn(&[2, 4, 5, 5], &mut rng);
        // Residual without expansion, expanded residual, strided projection.
        for (c_out, stride, t) in [(4, 1, 1), (4, 1, 6), (6, 2, 6)] {
            let mut block = InvertedResidual::new("ir", 4, c_out, stride, t, &mut rng);
            check_eval_contract(&mut block, &x).unwrap();
        }
    }
}
