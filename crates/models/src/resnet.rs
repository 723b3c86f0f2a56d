//! Residual networks and their blocks.
//!
//! `resnet_cifar(n, …)` builds the 3-stage basic-block ResNet family of the
//! paper's CIFAR experiments (`n = 9` → ResNet-56: 6n+2 layers, 3 stages of
//! 9 blocks). It is width-reduced but structurally faithful: stage
//! boundaries, stride-2 downsampling, and projection shortcuts land in the
//! same places. Table 1's ImageNet "ResNet-50" workload is a member of this
//! basic-block family too (`n = 4`, 26 layers), not a bottleneck network.
//! The [`Bottleneck`] block serves the DeepLab backbone (`deeplab.rs`).

use crate::module_parser::{plan_groups, ParserConfig, UnitSpec};
use crate::vision::{VisionModel, VisionTask};
use egeria_nn::activation::{Act, Activation};
use egeria_nn::conv_layers::{Conv2d, GlobalAvgPool};
use egeria_nn::layer::{Layer, Mode};
use egeria_nn::linear::Linear;
use egeria_nn::norm::BatchNorm2d;
use egeria_nn::{Network, Parameter, Sequential};
use egeria_tensor::{Result, Rng, Tensor, TensorError};
use std::sync::Arc;

/// A basic residual block: `relu(bn(conv(relu(bn(conv(x))))) + shortcut(x))`.
pub struct BasicBlock {
    conv1: Conv2d,
    bn1: BatchNorm2d,
    relu1: Activation,
    conv2: Conv2d,
    bn2: BatchNorm2d,
    shortcut: Option<(Conv2d, BatchNorm2d)>,
    cached_sum: Option<Tensor>,
}

impl BasicBlock {
    /// Creates a basic block; a projection shortcut is added when the
    /// channel count or stride changes.
    pub fn new(name: &str, c_in: usize, c_out: usize, stride: usize, rng: &mut Rng) -> Self {
        let shortcut = (stride != 1 || c_in != c_out).then(|| {
            (
                Conv2d::new(&format!("{name}.down"), c_in, c_out, 1, stride, 0, false, rng),
                BatchNorm2d::new(&format!("{name}.down_bn"), c_out),
            )
        });
        BasicBlock {
            conv1: Conv2d::new(&format!("{name}.conv1"), c_in, c_out, 3, stride, 1, false, rng),
            bn1: BatchNorm2d::new(&format!("{name}.bn1"), c_out),
            relu1: Activation::new(Act::Relu),
            conv2: Conv2d::new(&format!("{name}.conv2"), c_out, c_out, 3, 1, 1, false, rng),
            bn2: BatchNorm2d::new(&format!("{name}.bn2"), c_out),
            shortcut,
            cached_sum: None,
        }
    }
}

impl Layer for BasicBlock {
    fn forward(&mut self, x: &Tensor, mode: Mode) -> Result<Tensor> {
        let mut h = self.conv1.forward(x, mode)?;
        h = self.bn1.forward(&h, mode)?;
        h = self.relu1.forward(&h, mode)?;
        h = self.conv2.forward(&h, mode)?;
        h = self.bn2.forward(&h, mode)?;
        let sum = match &mut self.shortcut {
            Some((conv, bn)) => {
                let t = conv.forward(x, mode)?;
                h.add(&bn.forward(&t, mode)?)?
            }
            None => h.add(x)?,
        };
        let out = sum.map(|v| v.max(0.0));
        self.cached_sum = (mode == Mode::Train).then_some(sum);
        Ok(out)
    }

    fn backward(&mut self, grad_out: &Tensor) -> Result<Tensor> {
        let sum = self.cached_sum.as_ref().ok_or_else(|| {
            TensorError::Numerical("BasicBlock::backward before forward".into())
        })?;
        // Through the final ReLU.
        let mut g = grad_out.clone();
        for (gv, &sv) in g.data_mut().iter_mut().zip(sum.data().iter()) {
            if sv <= 0.0 {
                *gv = 0.0;
            }
        }
        // Main branch.
        let mut gm = self.bn2.backward(&g)?;
        gm = self.conv2.backward(&gm)?;
        gm = self.relu1.backward(&gm)?;
        gm = self.bn1.backward(&gm)?;
        gm = self.conv1.backward(&gm)?;
        // Shortcut branch.
        let gs = match &mut self.shortcut {
            Some((conv, bn)) => {
                let t = bn.backward(&g)?;
                conv.backward(&t)?
            }
            None => g,
        };
        gm.add(&gs)
    }

    fn params(&self) -> Vec<&Parameter> {
        let mut v = self.conv1.params();
        v.extend(self.bn1.params());
        v.extend(self.conv2.params());
        v.extend(self.bn2.params());
        if let Some((c, b)) = &self.shortcut {
            v.extend(c.params());
            v.extend(b.params());
        }
        v
    }

    fn params_mut(&mut self) -> Vec<&mut Parameter> {
        let mut v = self.conv1.params_mut();
        v.extend(self.bn1.params_mut());
        v.extend(self.conv2.params_mut());
        v.extend(self.bn2.params_mut());
        if let Some((c, b)) = &mut self.shortcut {
            v.extend(c.params_mut());
            v.extend(b.params_mut());
        }
        v
    }

    fn state_buffers(&self) -> Vec<&Tensor> {
        let mut v = self.bn1.state_buffers();
        v.extend(self.bn2.state_buffers());
        if let Some((_, b)) = &self.shortcut {
            v.extend(b.state_buffers());
        }
        v
    }

    fn state_buffers_mut(&mut self) -> Vec<&mut Tensor> {
        let mut v = self.bn1.state_buffers_mut();
        v.extend(self.bn2.state_buffers_mut());
        if let Some((_, b)) = &mut self.shortcut {
            v.extend(b.state_buffers_mut());
        }
        v
    }

    fn kind(&self) -> &'static str {
        "BasicBlock"
    }
}

/// A bottleneck residual block (1×1 reduce, 3×3, 1×1 expand ×4).
pub struct Bottleneck {
    conv1: Conv2d,
    bn1: BatchNorm2d,
    relu1: Activation,
    conv2: Conv2d,
    bn2: BatchNorm2d,
    relu2: Activation,
    conv3: Conv2d,
    bn3: BatchNorm2d,
    shortcut: Option<(Conv2d, BatchNorm2d)>,
    cached_sum: Option<Tensor>,
}

/// Channel expansion of the bottleneck output relative to its inner width.
pub const BOTTLENECK_EXPANSION: usize = 4;

impl Bottleneck {
    /// Creates a bottleneck block with inner width `planes` and output
    /// width `planes * 4`.
    pub fn new(name: &str, c_in: usize, planes: usize, stride: usize, rng: &mut Rng) -> Self {
        let c_out = planes * BOTTLENECK_EXPANSION;
        let shortcut = (stride != 1 || c_in != c_out).then(|| {
            (
                Conv2d::new(&format!("{name}.down"), c_in, c_out, 1, stride, 0, false, rng),
                BatchNorm2d::new(&format!("{name}.down_bn"), c_out),
            )
        });
        Bottleneck {
            conv1: Conv2d::new(&format!("{name}.conv1"), c_in, planes, 1, 1, 0, false, rng),
            bn1: BatchNorm2d::new(&format!("{name}.bn1"), planes),
            relu1: Activation::new(Act::Relu),
            conv2: Conv2d::new(&format!("{name}.conv2"), planes, planes, 3, stride, 1, false, rng),
            bn2: BatchNorm2d::new(&format!("{name}.bn2"), planes),
            relu2: Activation::new(Act::Relu),
            conv3: Conv2d::new(&format!("{name}.conv3"), planes, c_out, 1, 1, 0, false, rng),
            bn3: BatchNorm2d::new(&format!("{name}.bn3"), c_out),
            shortcut,
            cached_sum: None,
        }
    }
}

impl Layer for Bottleneck {
    fn forward(&mut self, x: &Tensor, mode: Mode) -> Result<Tensor> {
        let mut h = self.conv1.forward(x, mode)?;
        h = self.bn1.forward(&h, mode)?;
        h = self.relu1.forward(&h, mode)?;
        h = self.conv2.forward(&h, mode)?;
        h = self.bn2.forward(&h, mode)?;
        h = self.relu2.forward(&h, mode)?;
        h = self.conv3.forward(&h, mode)?;
        h = self.bn3.forward(&h, mode)?;
        let sum = match &mut self.shortcut {
            Some((conv, bn)) => {
                let t = conv.forward(x, mode)?;
                h.add(&bn.forward(&t, mode)?)?
            }
            None => h.add(x)?,
        };
        let out = sum.map(|v| v.max(0.0));
        self.cached_sum = (mode == Mode::Train).then_some(sum);
        Ok(out)
    }

    fn backward(&mut self, grad_out: &Tensor) -> Result<Tensor> {
        let sum = self.cached_sum.as_ref().ok_or_else(|| {
            TensorError::Numerical("Bottleneck::backward before forward".into())
        })?;
        let mut g = grad_out.clone();
        for (gv, &sv) in g.data_mut().iter_mut().zip(sum.data().iter()) {
            if sv <= 0.0 {
                *gv = 0.0;
            }
        }
        let mut gm = self.bn3.backward(&g)?;
        gm = self.conv3.backward(&gm)?;
        gm = self.relu2.backward(&gm)?;
        gm = self.bn2.backward(&gm)?;
        gm = self.conv2.backward(&gm)?;
        gm = self.relu1.backward(&gm)?;
        gm = self.bn1.backward(&gm)?;
        gm = self.conv1.backward(&gm)?;
        let gs = match &mut self.shortcut {
            Some((conv, bn)) => {
                let t = bn.backward(&g)?;
                conv.backward(&t)?
            }
            None => g,
        };
        gm.add(&gs)
    }

    fn params(&self) -> Vec<&Parameter> {
        let mut v = self.conv1.params();
        v.extend(self.bn1.params());
        v.extend(self.conv2.params());
        v.extend(self.bn2.params());
        v.extend(self.conv3.params());
        v.extend(self.bn3.params());
        if let Some((c, b)) = &self.shortcut {
            v.extend(c.params());
            v.extend(b.params());
        }
        v
    }

    fn params_mut(&mut self) -> Vec<&mut Parameter> {
        let mut v = self.conv1.params_mut();
        v.extend(self.bn1.params_mut());
        v.extend(self.conv2.params_mut());
        v.extend(self.bn2.params_mut());
        v.extend(self.conv3.params_mut());
        v.extend(self.bn3.params_mut());
        if let Some((c, b)) = &mut self.shortcut {
            v.extend(c.params_mut());
            v.extend(b.params_mut());
        }
        v
    }

    fn state_buffers(&self) -> Vec<&Tensor> {
        let mut v = self.bn1.state_buffers();
        v.extend(self.bn2.state_buffers());
        v.extend(self.bn3.state_buffers());
        if let Some((_, b)) = &self.shortcut {
            v.extend(b.state_buffers());
        }
        v
    }

    fn state_buffers_mut(&mut self) -> Vec<&mut Tensor> {
        let mut v = self.bn1.state_buffers_mut();
        v.extend(self.bn2.state_buffers_mut());
        v.extend(self.bn3.state_buffers_mut());
        if let Some((_, b)) = &mut self.shortcut {
            v.extend(b.state_buffers_mut());
        }
        v
    }

    fn kind(&self) -> &'static str {
        "Bottleneck"
    }
}

/// Shared assembly: groups raw residual blocks into freezable Network
/// blocks via the module parser, merging the stem into the first group and
/// the classifier head into the last.
fn assemble_network(
    mut stem: Vec<Box<dyn Layer>>,
    units: Vec<(UnitSpec, Box<dyn Layer>)>,
    mut head: Vec<Box<dyn Layer>>,
    cfg: &ParserConfig,
) -> Network {
    let specs: Vec<UnitSpec> = units.iter().map(|(s, _)| s.clone()).collect();
    let groups = plan_groups(&specs, cfg);
    let mut layers: Vec<Option<Box<dyn Layer>>> = units.into_iter().map(|(_, l)| Some(l)).collect();
    let mut net = Network::new();
    let n_groups = groups.len();
    for (gi, group) in groups.iter().enumerate() {
        let mut seq = Sequential::new();
        if gi == 0 {
            for s in stem.drain_all() {
                seq.add(s);
            }
        }
        let first = specs[*group.first().expect("non-empty group")].label.clone();
        let last = specs[*group.last().expect("non-empty group")].label.clone();
        for &idx in group {
            seq.add(layers[idx].take().expect("each unit used once"));
        }
        if gi == n_groups - 1 {
            for h in head.drain_all() {
                seq.add(h);
            }
        }
        let name = if first == last {
            first
        } else {
            format!("{first}-{last}")
        };
        net.add_block(name, Box::new(seq));
    }
    net
}

/// Helper to drain a `Vec` passed by value inside a closure-captured move.
trait DrainAll<T> {
    fn drain_all(&mut self) -> Vec<T>;
}

impl<T> DrainAll<T> for Vec<T> {
    fn drain_all(&mut self) -> Vec<T> {
        std::mem::take(self)
    }
}

/// Configuration for the CIFAR-style ResNet family.
#[derive(Debug, Clone, Copy)]
pub struct ResNetCifarConfig {
    /// Blocks per stage (`n = 9` → ResNet-56).
    pub n: usize,
    /// Base channel width (the paper-scale model uses 16).
    pub width: usize,
    /// Output classes.
    pub classes: usize,
    /// Module-parser configuration.
    pub parser: ParserConfig,
}

impl Default for ResNetCifarConfig {
    fn default() -> Self {
        ResNetCifarConfig {
            n: 9,
            width: 4,
            classes: 10,
            parser: ParserConfig::default(),
        }
    }
}

/// Builds a CIFAR-style ResNet (`6n+2` layers) as a freezable vision model.
pub fn resnet_cifar(cfg: ResNetCifarConfig, seed: u64) -> VisionModel {
    let builder = Arc::new(move || {
        let mut rng = Rng::new(seed);
        let w = cfg.width;
        let stem: Vec<Box<dyn Layer>> = vec![
            Box::new(Conv2d::new("stem.conv", 3, w, 3, 1, 1, false, &mut rng)),
            Box::new(BatchNorm2d::new("stem.bn", w)),
            Box::new(Activation::new(Act::Relu)),
        ];
        let mut units: Vec<(UnitSpec, Box<dyn Layer>)> = Vec::new();
        let widths = [w, 2 * w, 4 * w];
        let mut c_in = w;
        for (stage, &c_out) in widths.iter().enumerate() {
            for b in 0..cfg.n {
                let stride = if stage > 0 && b == 0 { 2 } else { 1 };
                let name = format!("layer{}.{}", stage + 1, b);
                let block = BasicBlock::new(&name, c_in, c_out, stride, &mut rng);
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
            }
        }
        let head: Vec<Box<dyn Layer>> = vec![
            Box::new(GlobalAvgPool::new()),
            Box::new(Linear::new("fc", 4 * w, cfg.classes, true, &mut rng)),
        ];
        assemble_network(stem, units, head, &cfg.parser)
    });
    VisionModel::new(
        format!("resnet{}", 6 * cfg.n + 2),
        VisionTask::Classification,
        cfg.classes,
        builder,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::Model;

    #[test]
    fn basic_block_identity_shortcut_shapes() {
        let mut rng = Rng::new(1);
        let mut b = BasicBlock::new("b", 4, 4, 1, &mut rng);
        let x = Tensor::randn(&[2, 4, 8, 8], &mut rng);
        let y = b.forward(&x, Mode::Train).unwrap();
        assert_eq!(y.dims(), &[2, 4, 8, 8]);
        let gx = b.backward(&Tensor::ones(&[2, 4, 8, 8])).unwrap();
        assert_eq!(gx.dims(), x.dims());
    }

    #[test]
    fn basic_block_downsampling_shortcut() {
        let mut rng = Rng::new(2);
        let mut b = BasicBlock::new("b", 4, 8, 2, &mut rng);
        let x = Tensor::randn(&[1, 4, 8, 8], &mut rng);
        let y = b.forward(&x, Mode::Train).unwrap();
        assert_eq!(y.dims(), &[1, 8, 4, 4]);
        assert!(b.shortcut.is_some());
        let gx = b.backward(&Tensor::ones(&[1, 8, 4, 4])).unwrap();
        assert_eq!(gx.dims(), x.dims());
    }

    #[test]
    fn basic_block_gradcheck() {
        let mut rng = Rng::new(3);
        let mut b = BasicBlock::new("b", 2, 2, 1, &mut rng);
        let x = Tensor::randn(&[1, 2, 4, 4], &mut rng);
        let worst = egeria_nn::layer::gradcheck_input(&mut b, &x, &[0, 9, 21, 31], 1e-2).unwrap();
        assert!(worst < 5e-2, "basic block gradcheck {worst}");
    }

    #[test]
    fn bottleneck_expands_channels() {
        let mut rng = Rng::new(4);
        let mut b = Bottleneck::new("b", 8, 4, 1, &mut rng);
        let x = Tensor::randn(&[1, 8, 4, 4], &mut rng);
        let y = b.forward(&x, Mode::Train).unwrap();
        assert_eq!(y.dims(), &[1, 16, 4, 4]);
        let gx = b.backward(&Tensor::ones(&[1, 16, 4, 4])).unwrap();
        assert_eq!(gx.dims(), x.dims());
    }

    #[test]
    fn resnet_cifar_builds_and_trains_a_step() {
        let cfg = ResNetCifarConfig {
            n: 2,
            width: 4,
            classes: 10,
            parser: ParserConfig::default(),
        };
        let mut m = resnet_cifar(cfg, 7);
        assert_eq!(m.name(), "resnet14");
        assert!(m.modules().len() >= 3);
        let mut rng = Rng::new(8);
        let batch = crate::input::Batch {
            input: crate::input::Input::Image(Tensor::randn(&[4, 3, 8, 8], &mut rng)),
            targets: crate::input::Targets::Classes(vec![0, 1, 2, 3]),
            sample_ids: vec![0, 1, 2, 3],
        };
        let r = m.train_step(&batch, Some(0)).unwrap();
        assert!(r.loss.is_finite());
        assert!(r.captured.is_some());
        assert_eq!(r.modules_backpropped, m.modules().len());
    }

    #[test]
    fn resnet56_has_27_basic_blocks_grouped() {
        let cfg = ResNetCifarConfig::default();
        let m = resnet_cifar(cfg, 1);
        assert_eq!(m.name(), "resnet56");
        // 27 blocks grouped into a handful of modules; layer3 (~75% of
        // params) must be split finer than layer1.
        let mods = m.modules();
        assert!(mods.len() >= 4 && mods.len() <= 10, "{} modules", mods.len());
        let total: usize = mods.iter().map(|m| m.param_count).sum();
        assert_eq!(total, m.param_count());
    }

    #[test]
    fn clone_boxed_copies_weights_and_running_stats() {
        let cfg = ResNetCifarConfig {
            n: 2,
            width: 4,
            classes: 4,
            parser: ParserConfig::default(),
        };
        let mut m = resnet_cifar(cfg, 9);
        let mut rng = Rng::new(10);
        // Run a train step so running stats move.
        let batch = crate::input::Batch {
            input: crate::input::Input::Image(Tensor::randn(&[4, 3, 8, 8], &mut rng)),
            targets: crate::input::Targets::Classes(vec![0, 1, 2, 3]),
            sample_ids: vec![0, 1, 2, 3],
        };
        let _ = m.train_step(&batch, None).unwrap();
        let mut copy = m.clone_boxed();
        // Same eval output on the same batch.
        let a = m.eval_batch(&batch).unwrap();
        let b = copy.eval_batch(&batch).unwrap();
        assert!((a.loss - b.loss).abs() < 1e-5);
    }

    #[test]
    fn freezing_prefix_reduces_backprop_work() {
        let cfg = ResNetCifarConfig {
            n: 2,
            width: 4,
            classes: 4,
            parser: ParserConfig::default(),
        };
        let mut m = resnet_cifar(cfg, 11);
        let nmods = m.modules().len();
        m.freeze_prefix(1).unwrap();
        let mut rng = Rng::new(12);
        let batch = crate::input::Batch {
            input: crate::input::Input::Image(Tensor::randn(&[2, 3, 8, 8], &mut rng)),
            targets: crate::input::Targets::Classes(vec![0, 1]),
            sample_ids: vec![0, 1],
        };
        let r = m.train_step(&batch, None).unwrap();
        assert_eq!(r.modules_backpropped, nmods - 1);
        assert!(m.active_param_fraction() < 1.0);
    }

    #[test]
    fn residual_blocks_keep_nothing_for_backward_in_eval() {
        use egeria_nn::layer::check_eval_contract;
        let mut rng = Rng::new(9);
        let x = Tensor::randn(&[2, 4, 5, 5], &mut rng);
        let blocks: Vec<Box<dyn Layer>> = vec![
            Box::new(BasicBlock::new("id", 4, 4, 1, &mut rng)),
            Box::new(BasicBlock::new("proj", 4, 8, 2, &mut rng)),
            Box::new(Bottleneck::new("bid", 4, 1, 1, &mut rng)),
            Box::new(Bottleneck::new("bproj", 4, 2, 2, &mut rng)),
        ];
        for mut block in blocks {
            check_eval_contract(block.as_mut(), &x).unwrap();
        }
    }
}
