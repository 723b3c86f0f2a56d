//! The seven Table 1 workloads at reproduction scale.
//!
//! Each workload bundles a width-reduced model, its synthetic dataset, the
//! paper's training configuration (optimizer family, LR schedule shape,
//! batch size), and the paper-scale cost profile used by the performance
//! simulator. Epoch counts are scaled down ~3× from the paper so a full
//! sweep runs on a CPU in minutes; LR-decay milestones keep their relative
//! positions (e.g. ResNet's 100/150-of-200 become 50/75-of-100).

use egeria_core::trainer::Optimizer;
use egeria_data::images::{ImageDataConfig, SyntheticImages};
use egeria_data::qa::{QaDataConfig, SyntheticQa};
use egeria_data::segmentation::{SegDataConfig, SyntheticSegmentation};
use egeria_data::translation::{SyntheticTranslation, TranslationConfig};
use egeria_data::{DataLoader, Dataset};
use egeria_models::bert::{BertConfig, BertQa};
use egeria_models::deeplab::{deeplab_v3, DeepLabConfig};
use egeria_models::mobilenet::{mobilenet_v2, MobileNetConfig};
use egeria_models::resnet::{resnet_cifar, ResNetCifarConfig};
use egeria_models::transformer::{Seq2SeqTransformer, TransformerConfig};
use egeria_models::Model;
use egeria_nn::optim::{Adam, Sgd};
use egeria_nn::sched::{InverseSqrt, LambdaLr, LinearDecay, LrSchedule, MultiStepDecay};
use egeria_simsys::arch::{FlopsModel, PaperScale};

/// Which Table 1 workload to build.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Table 1's "ResNet-50" row on synthetic ImageNet (classification):
    /// a 26-layer basic-block ResNet (`resnet_cifar` at `n = 4`).
    ResNet50,
    /// MobileNetV2-style on synthetic CIFAR (classification).
    MobileNetV2,
    /// ResNet-56 on synthetic CIFAR (classification).
    ResNet56,
    /// DeepLabv3-style on synthetic VOC (segmentation).
    DeepLabV3,
    /// Transformer-Base on synthetic WMT (translation).
    TransformerBase,
    /// Transformer-Tiny on synthetic WMT.
    TransformerTiny,
    /// BERT-Base-style fine-tuning on synthetic SQuAD (QA).
    BertQa,
}

/// A fully-specified training workload.
pub struct Workload {
    /// Workload name for reports.
    pub name: &'static str,
    /// The model under training.
    pub model: Box<dyn Model>,
    /// Training dataset.
    pub train: Box<dyn Dataset>,
    /// Validation dataset.
    pub val: Box<dyn Dataset>,
    /// Per-worker batch size.
    pub batch_size: usize,
    /// Default epoch count (scaled from the paper).
    pub epochs: usize,
    /// Base learning rate.
    pub base_lr: f32,
    /// Whether the schedule is indexed per iteration.
    pub lr_per_iteration: bool,
    /// Whether the validation metric improves upward.
    pub higher_is_better: bool,
    /// Paper-scale totals for the cost model.
    pub paper_scale: PaperScale,
    /// FLOP distribution model.
    pub flops_model: FlopsModel,
    optimizer_kind: OptKind,
    schedule_kind: SchedKind,
}

#[derive(Clone, Copy)]
enum OptKind {
    SgdMomentum,
    Adam,
}

#[derive(Clone, Copy)]
enum SchedKind {
    /// Step decay at 50% and 75% of training (paper: 100/150 of 200 or
    /// 30/60 of 90).
    MultiStep,
    /// Inverse-sqrt with warmup (Transformer).
    InverseSqrt { warmup: usize },
    /// Linear decay (BERT fine-tuning).
    Linear { total: usize },
    /// Polynomial lambda (DeepLab).
    Poly { total: usize },
}

impl Workload {
    /// Builds the given workload at reproduction scale.
    pub fn make(kind: Kind, seed: u64) -> Workload {
        match kind {
            Kind::ResNet56 => {
                let model = resnet_cifar(
                    ResNetCifarConfig {
                        n: 9,
                        width: 4,
                        classes: 8,
                        ..Default::default()
                    },
                    seed,
                );
                let data_cfg = ImageDataConfig {
                    samples: 320,
                    classes: 8,
                    size: 10,
                    noise: 0.5,
                    augment: true,
                };
                Workload {
                    name: "resnet56",
                    model: Box::new(model),
                    train: Box::new(SyntheticImages::new(data_cfg, seed.wrapping_add(1))),
                    val: Box::new(SyntheticImages::new(
                        ImageDataConfig {
                            samples: 128,
                            augment: false,
                            ..data_cfg
                        },
                        seed.wrapping_add(1),
                    )),
                    batch_size: 16,
                    epochs: 60,
                    base_lr: 0.1,
                    lr_per_iteration: false,
                    higher_is_better: true,
                    paper_scale: PaperScale::resnet56_cifar(),
                    flops_model: FlopsModel::PerBlockUniform,
                    optimizer_kind: OptKind::SgdMomentum,
                    schedule_kind: SchedKind::MultiStep,
                }
            }
            Kind::ResNet50 => {
                let model = resnet_cifar(
                    ResNetCifarConfig {
                        n: 4,
                        width: 4,
                        classes: 12,
                        ..Default::default()
                    },
                    seed,
                );
                let data_cfg = ImageDataConfig {
                    samples: 320,
                    classes: 12,
                    size: 10,
                    noise: 0.5,
                    augment: true,
                };
                Workload {
                    name: "resnet50",
                    model: Box::new(model),
                    train: Box::new(SyntheticImages::new(data_cfg, seed.wrapping_add(2))),
                    val: Box::new(SyntheticImages::new(
                        ImageDataConfig {
                            samples: 128,
                            augment: false,
                            ..data_cfg
                        },
                        seed.wrapping_add(2),
                    )),
                    batch_size: 16,
                    epochs: 45,
                    base_lr: 0.1,
                    lr_per_iteration: false,
                    higher_is_better: true,
                    paper_scale: PaperScale::resnet50_imagenet(),
                    flops_model: FlopsModel::PerBlockUniform,
                    optimizer_kind: OptKind::SgdMomentum,
                    schedule_kind: SchedKind::MultiStep,
                }
            }
            Kind::MobileNetV2 => {
                let model = mobilenet_v2(
                    MobileNetConfig {
                        width_div: 8,
                        classes: 10,
                        ..Default::default()
                    },
                    seed,
                );
                let data_cfg = ImageDataConfig {
                    samples: 240,
                    classes: 10,
                    size: 12,
                    noise: 1.3,
                    augment: true,
                };
                Workload {
                    name: "mobilenet_v2",
                    model: Box::new(model),
                    train: Box::new(SyntheticImages::new(data_cfg, seed.wrapping_add(3))),
                    val: Box::new(SyntheticImages::new(
                        ImageDataConfig {
                            samples: 64,
                            augment: false,
                            ..data_cfg
                        },
                        seed.wrapping_add(3),
                    )),
                    batch_size: 16,
                    epochs: 40,
                    base_lr: 0.05,
                    lr_per_iteration: false,
                    higher_is_better: true,
                    paper_scale: PaperScale::mobilenet_v2_cifar(),
                    flops_model: FlopsModel::PerBlockUniform,
                    optimizer_kind: OptKind::SgdMomentum,
                    schedule_kind: SchedKind::MultiStep,
                }
            }
            Kind::DeepLabV3 => {
                let model = deeplab_v3(
                    DeepLabConfig {
                        stages: vec![2, 2, 2, 2],
                        width: 4,
                        classes: 5,
                        ..Default::default()
                    },
                    seed,
                );
                let data_cfg = SegDataConfig {
                    samples: 192,
                    classes: 5,
                    size: 16,
                };
                let epochs = 40;
                Workload {
                    name: "deeplabv3",
                    model: Box::new(model),
                    train: Box::new(SyntheticSegmentation::new(data_cfg, seed.wrapping_add(4))),
                    val: Box::new(SyntheticSegmentation::new(
                        SegDataConfig {
                            samples: 64,
                            ..data_cfg
                        },
                        seed.wrapping_add(400),
                    )),
                    batch_size: 16,
                    epochs,
                    base_lr: 0.02,
                    lr_per_iteration: false,
                    higher_is_better: true,
                    paper_scale: PaperScale::deeplabv3_voc(),
                    flops_model: FlopsModel::PerBlockUniform,
                    optimizer_kind: OptKind::SgdMomentum,
                    schedule_kind: SchedKind::Poly { total: epochs },
                }
            }
            Kind::TransformerBase => {
                let cfg = TransformerConfig::base(16);
                let model = Seq2SeqTransformer::new("transformer_base", cfg, seed)
                    .expect("valid config");
                let data_cfg = TranslationConfig {
                    samples: 256,
                    vocab: 16,
                    len: 8,
                };
                Workload {
                    name: "transformer_base",
                    model: Box::new(model),
                    train: Box::new(SyntheticTranslation::new(data_cfg, seed.wrapping_add(5))),
                    val: Box::new(SyntheticTranslation::new(
                        TranslationConfig {
                            samples: 96,
                            ..data_cfg
                        },
                        seed.wrapping_add(5),
                    )),
                    batch_size: 16,
                    epochs: 50,
                    base_lr: 4e-3,
                    lr_per_iteration: true,
                    // The reported metric series is token accuracy
                    // (perplexity is derivable from the loss and shown in
                    // Figure 9c's CSV).
                    higher_is_better: true,
                    paper_scale: PaperScale::transformer_base_wmt(),
                    flops_model: FlopsModel::ProportionalToParams,
                    optimizer_kind: OptKind::Adam,
                    schedule_kind: SchedKind::InverseSqrt { warmup: 40 },
                }
            }
            Kind::TransformerTiny => {
                let cfg = TransformerConfig::tiny(16);
                let model = Seq2SeqTransformer::new("transformer_tiny", cfg, seed)
                    .expect("valid config");
                let data_cfg = TranslationConfig {
                    samples: 256,
                    vocab: 16,
                    len: 8,
                };
                Workload {
                    name: "transformer_tiny",
                    model: Box::new(model),
                    train: Box::new(SyntheticTranslation::new(data_cfg, seed.wrapping_add(6))),
                    val: Box::new(SyntheticTranslation::new(
                        TranslationConfig {
                            samples: 96,
                            ..data_cfg
                        },
                        seed.wrapping_add(6),
                    )),
                    batch_size: 16,
                    epochs: 35,
                    base_lr: 3e-3,
                    lr_per_iteration: true,
                    // The reported metric series is token accuracy
                    // (perplexity is derivable from the loss and shown in
                    // Figure 9c's CSV).
                    higher_is_better: true,
                    paper_scale: PaperScale::transformer_tiny_wmt(),
                    flops_model: FlopsModel::ProportionalToParams,
                    optimizer_kind: OptKind::Adam,
                    schedule_kind: SchedKind::InverseSqrt { warmup: 40 },
                }
            }
            Kind::BertQa => {
                let mut model = BertQa::new(
                    "bert_base",
                    BertConfig {
                        vocab: 24,
                        d_model: 24,
                        heads: 4,
                        d_ff: 48,
                        layers: 12,
                    },
                    seed,
                )
                .expect("valid config");
                // The paper FINE-TUNES a pretrained BERT; emulate the
                // pretrained checkpoint by training on a disjoint synthetic
                // QA distribution first (deterministic in `seed`), so front
                // blocks start near-converged like real BERT layers.
                pretrain_bert(&mut model, seed);
                let data_cfg = QaDataConfig {
                    samples: 256,
                    vocab: 24,
                    len: 16,
                    answer_len: 3,
                };
                let epochs = 25;
                let iters = epochs * (256 / 16);
                Workload {
                    name: "bert_qa",
                    model: Box::new(model),
                    train: Box::new(SyntheticQa::new(data_cfg, seed.wrapping_add(7))),
                    val: Box::new(SyntheticQa::new(
                        QaDataConfig {
                            samples: 96,
                            ..data_cfg
                        },
                        seed.wrapping_add(700),
                    )),
                    batch_size: 16,
                    epochs,
                    base_lr: 5e-4,
                    lr_per_iteration: true,
                    higher_is_better: true,
                    paper_scale: PaperScale::bert_base_squad(),
                    flops_model: FlopsModel::ProportionalToParams,
                    optimizer_kind: OptKind::Adam,
                    schedule_kind: SchedKind::Linear { total: iters },
                }
            }
        }
    }

    /// A fresh optimizer for this workload.
    pub fn optimizer(&self) -> Optimizer {
        match self.optimizer_kind {
            OptKind::SgdMomentum => Optimizer::Sgd(Sgd::new(self.base_lr, 0.9, 1e-4)),
            OptKind::Adam => Optimizer::Adam(Adam::new(self.base_lr, 0.0)),
        }
    }

    /// A fresh LR schedule for this workload.
    pub fn schedule(&self) -> Box<dyn LrSchedule> {
        match self.schedule_kind {
            SchedKind::MultiStep => Box::new(MultiStepDecay::new(
                self.base_lr,
                0.1,
                vec![self.epochs / 2, self.epochs * 3 / 4],
            )),
            SchedKind::InverseSqrt { warmup } => Box::new(InverseSqrt::new(self.base_lr, warmup)),
            SchedKind::Linear { total } => Box::new(LinearDecay::new(self.base_lr, total)),
            SchedKind::Poly { total } => {
                let t = total as f32;
                Box::new(LambdaLr::new(self.base_lr, move |e| {
                    (1.0 - e as f32 / t).max(0.0).powf(0.9)
                }))
            }
        }
    }

    /// A training loader over this workload's dataset.
    pub fn loader(&self, seed: u64) -> DataLoader {
        DataLoader::new(self.train.len(), self.batch_size, seed, true)
    }

    /// A validation loader (sequential coverage).
    pub fn val_loader(&self) -> DataLoader {
        DataLoader::new(self.val.len(), self.batch_size, 0, false)
    }

    /// Per-module block counts inferred from module names like
    /// `"layer3.0-layer3.3"` (4 blocks); single names count 1.
    pub fn blocks_per_module(&self) -> Vec<usize> {
        self.model
            .modules()
            .iter()
            .map(|m| blocks_in_name(&m.name))
            .collect()
    }

    /// The paper-scale cost spec matching this model's module layout.
    pub fn arch_spec(&self) -> egeria_simsys::ArchSpec {
        let params: Vec<usize> = self.model.modules().iter().map(|m| m.param_count).collect();
        let blocks = self.blocks_per_module();
        egeria_simsys::ArchSpec::scaled(
            self.name,
            &params,
            Some(&blocks),
            self.flops_model,
            self.paper_scale,
        )
    }
}

/// Pre-trains a BERT-style model on a held-out synthetic QA distribution
/// (the stand-in for loading a pretrained checkpoint before fine-tuning).
fn pretrain_bert(model: &mut BertQa, seed: u64) {
    use egeria_models::Model;
    let data = SyntheticQa::new(
        QaDataConfig {
            samples: 192,
            vocab: 24,
            len: 16,
            answer_len: 3,
        },
        seed.wrapping_add(0xBE57),
    );
    let loader = DataLoader::new(192, 16, seed.wrapping_add(1), true);
    let mut opt = Adam::new(1e-3, 0.0);
    for epoch in 0..10 {
        for plan in loader.epoch_plan(epoch) {
            let batch = data.materialize(&plan.indices).expect("pretrain batch");
            let _ = model.train_step(&batch, None).expect("pretrain step");
            opt.step(&mut model.params_mut()).expect("pretrain opt");
            model.zero_grad();
        }
    }
}

/// Counts the building blocks a module-name range covers.
pub fn blocks_in_name(name: &str) -> usize {
    // Trailing digits of the endpoint: handles both dotted ("layer1.8")
    // and undotted ("block3") block naming.
    let parse_idx = |s: &str| -> Option<usize> {
        let digits: String = s
            .chars()
            .rev()
            .take_while(|c| c.is_ascii_digit())
            .collect::<Vec<_>>()
            .into_iter()
            .rev()
            .collect();
        digits.parse::<usize>().ok()
    };
    match name.split_once('-') {
        Some((a, b)) => match (parse_idx(a), parse_idx(b)) {
            (Some(x), Some(y)) if y >= x => y - x + 1,
            _ => 1,
        },
        None => 1,
    }
}

/// All seven workload kinds, in Table 1 order.
pub const ALL_KINDS: [Kind; 7] = [
    Kind::ResNet50,
    Kind::MobileNetV2,
    Kind::ResNet56,
    Kind::DeepLabV3,
    Kind::TransformerBase,
    Kind::TransformerTiny,
    Kind::BertQa,
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn blocks_in_name_parses_ranges() {
        assert_eq!(blocks_in_name("layer3.0-layer3.3"), 4);
        assert_eq!(blocks_in_name("layer1.0-layer1.8"), 9);
        assert_eq!(blocks_in_name("classifier"), 1);
        assert_eq!(blocks_in_name("encoder.2"), 1);
        assert_eq!(blocks_in_name("block0-block3"), 4);
    }

    #[test]
    fn every_workload_builds_and_matches_its_spec() {
        for kind in ALL_KINDS {
            let w = Workload::make(kind, 42);
            let spec = w.arch_spec();
            assert_eq!(spec.num_modules(), w.model.modules().len(), "{}", w.name);
            assert!(w.train.len() > w.batch_size);
            assert!(!w.val.is_empty());
            let _ = w.optimizer();
            let s = w.schedule();
            assert!(s.lr(0) >= 0.0);
        }
    }

    #[test]
    fn transformer_base_has_12_modules_and_tiny_4() {
        assert_eq!(Workload::make(Kind::TransformerBase, 1).model.modules().len(), 12);
        assert_eq!(Workload::make(Kind::TransformerTiny, 1).model.modules().len(), 4);
        assert_eq!(Workload::make(Kind::BertQa, 1).model.modules().len(), 12);
    }
}
