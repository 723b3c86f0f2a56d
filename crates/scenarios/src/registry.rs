//! The workload registry: the runs behind the reproduced evidence, as
//! plain data.
//!
//! A [`Recipe`] names everything a run is built from: the architecture,
//! the dataset, the validation set, the seeds, the batch size, the epochs,
//! the optimizer, the LR schedule and the Egeria configuration. [`build`]
//! is the one place that turns an entry into a model, datasets, loaders,
//! an optimizer, a schedule and [`TrainerOptions`]. Two tables hold the
//! entries:
//!
//! - [`table1`]: the paper's seven Table 1 workloads at reproduction scale,
//!   read by the `egeria-bench` experiment binaries. Epoch counts are
//!   scaled down ~3× from the paper; LR-decay milestones keep their
//!   relative positions (ResNet's 100/150-of-200 become 30/45-of-60).
//! - [`scenarios`]: the five tiny families of the policy A/B matrix
//!   (DESIGN §5i).
//!
//! The tables differ in more than size. Table 1 probes every `n = 5`
//! iterations with the paper's `W = S` coupling (`W = S = 12`, 8 for the
//! BERT fine-tune) and holds out a validation set. The scenario entries
//! probe every iteration (`n = 1`) with `S < W` and run no validation
//! pass.
//!
//! A variant of an entry is a struct update, e.g.
//! `Recipe { epochs: 40, ..entry }`. Every schedule step count is an
//! explicit constant, so overriding `epochs` leaves the schedule as it was.

use egeria_core::trainer::{EgeriaTrainer, Optimizer, TrainReport, TrainerOptions};
use egeria_core::EgeriaConfig;
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
use egeria_tensor::Result;

/// An architecture and its config.
#[derive(Debug, Clone)]
pub enum Arch {
    /// CIFAR-style ResNet (`6n + 2` layers).
    ResNet(ResNetCifarConfig),
    /// MobileNetV2-style classifier.
    MobileNet(MobileNetConfig),
    /// DeepLabv3-style segmenter.
    DeepLab(DeepLabConfig),
    /// Encoder–decoder Transformer.
    Transformer(TransformerConfig),
    /// BERT-style extractive QA model.
    Bert {
        /// Model shape.
        cfg: BertConfig,
        /// Pre-train for 10 epochs on a disjoint synthetic QA distribution
        /// first: the stand-in for loading a pretrained checkpoint before
        /// fine-tuning.
        pretrain: bool,
    },
}

/// A synthetic dataset; its config sets the training set's size.
#[derive(Debug, Clone, Copy)]
pub enum Data {
    /// Image classification (CIFAR/ImageNet stand-in).
    Images(ImageDataConfig),
    /// Semantic segmentation (VOC stand-in).
    Segmentation(SegDataConfig),
    /// Translation (WMT stand-in).
    Translation(TranslationConfig),
    /// Extractive QA (SQuAD stand-in).
    Qa(QaDataConfig),
}

/// What a run validates on.
#[derive(Debug, Clone, Copy)]
pub enum Val {
    /// No validation pass.
    None,
    /// The training set itself, augmentation included.
    Train,
    /// `samples` samples from the training set's generator at `seed`, with
    /// augmentation off.
    Held {
        /// Validation set size.
        samples: usize,
        /// Generator seed.
        seed: u64,
    },
}

/// The optimizer family; its learning rate is [`Recipe::lr`].
#[derive(Debug, Clone, Copy)]
pub enum Optim {
    /// SGD with momentum 0.9.
    Sgd {
        /// Decoupled weight decay.
        weight_decay: f32,
    },
    /// Adam without weight decay.
    Adam,
}

/// The LR schedule from base [`Recipe::lr`], indexed by epoch or, under
/// [`Recipe::lr_per_iteration`], by iteration.
#[derive(Debug, Clone, Copy)]
pub enum Sched {
    /// ×0.1 at each milestone.
    MultiStep {
        /// Steps at which the LR decays.
        milestones: &'static [usize],
    },
    /// Linear warmup, then inverse square root.
    InverseSqrt {
        /// Warmup steps.
        warmup: usize,
    },
    /// Linear decay to 0 at `total`.
    Linear {
        /// Step at which the LR reaches 0.
        total: usize,
    },
    /// Polynomial decay `(1 − step/total)^0.9`.
    Poly {
        /// Step at which the LR reaches 0.
        total: usize,
    },
}

/// One registry entry: a complete, seeded training run.
#[derive(Debug, Clone)]
pub struct Recipe {
    /// Entry name: report rows, golden files, the simulator's cost profile.
    /// The Transformer and BERT models take it as their name too; the CNN
    /// builders name their models themselves.
    pub name: &'static str,
    /// Architecture.
    pub arch: Arch,
    /// Weight-init seed.
    pub model_seed: u64,
    /// Training set.
    pub data: Data,
    /// Training-set generator seed.
    pub data_seed: u64,
    /// Validation set.
    pub val: Val,
    /// Per-step batch size (validation batches too).
    pub batch_size: usize,
    /// Training loader's shuffle seed.
    pub loader_seed: u64,
    /// Epochs.
    pub epochs: usize,
    /// Base learning rate.
    pub lr: f32,
    /// Optimizer.
    pub optimizer: Optim,
    /// LR schedule.
    pub schedule: Sched,
    /// Whether the schedule is indexed per iteration (NLP) or per epoch (CV).
    pub lr_per_iteration: bool,
    /// Egeria configuration; `None` trains the vanilla baseline.
    pub egeria: Option<EgeriaConfig>,
}

/// A recipe turned into live objects.
pub struct Built {
    /// The model, initialised (and pre-trained, where the entry says so).
    pub model: Box<dyn Model>,
    /// Training set.
    pub train: Box<dyn Dataset>,
    /// Shuffled training loader (drops the last partial batch).
    pub loader: DataLoader,
    /// Validation set and its sequential loader; `None` under [`Val::None`].
    pub val: Option<(Box<dyn Dataset>, DataLoader)>,
    /// A fresh optimizer.
    pub optimizer: Optimizer,
    /// A fresh LR schedule.
    pub schedule: Box<dyn LrSchedule>,
    /// Epochs, Egeria configuration and schedule indexing; everything else
    /// at its default.
    pub options: TrainerOptions,
}

impl Built {
    /// Trains the run with [`EgeriaTrainer`], validating where the recipe
    /// holds a validation set.
    pub fn train(self) -> Result<TrainReport> {
        let mut trainer =
            EgeriaTrainer::new(self.model, self.optimizer, self.schedule, self.options);
        let val = self
            .val
            .as_ref()
            .map(|(set, loader)| (set.as_ref(), loader));
        trainer.train(self.train.as_ref(), &self.loader, val)
    }
}

impl Data {
    fn dataset(self, seed: u64) -> Box<dyn Dataset> {
        match self {
            Data::Images(c) => Box::new(SyntheticImages::new(c, seed)),
            Data::Segmentation(c) => Box::new(SyntheticSegmentation::new(c, seed)),
            Data::Translation(c) => Box::new(SyntheticTranslation::new(c, seed)),
            Data::Qa(c) => Box::new(SyntheticQa::new(c, seed)),
        }
    }

    /// The same generator at `samples` samples, augmentation off.
    fn held_out(self, samples: usize) -> Data {
        match self {
            Data::Images(c) => Data::Images(ImageDataConfig {
                samples,
                augment: false,
                ..c
            }),
            Data::Segmentation(c) => Data::Segmentation(SegDataConfig { samples, ..c }),
            Data::Translation(c) => Data::Translation(TranslationConfig { samples, ..c }),
            Data::Qa(c) => Data::Qa(QaDataConfig { samples, ..c }),
        }
    }
}

/// Builds an entry.
pub fn build(r: &Recipe) -> Result<Built> {
    let seed = r.model_seed;
    let model: Box<dyn Model> = match &r.arch {
        Arch::ResNet(c) => Box::new(resnet_cifar(*c, seed)),
        Arch::MobileNet(c) => Box::new(mobilenet_v2(*c, seed)),
        Arch::DeepLab(c) => Box::new(deeplab_v3(c.clone(), seed)),
        Arch::Transformer(c) => Box::new(Seq2SeqTransformer::new(r.name, *c, seed)?),
        Arch::Bert { cfg, pretrain } => {
            let mut model = BertQa::new(r.name, *cfg, seed)?;
            if *pretrain {
                pretrain_bert(&mut model, seed)?;
            }
            Box::new(model)
        }
    };
    let train = r.data.dataset(r.data_seed);
    let loader = DataLoader::new(train.len(), r.batch_size, r.loader_seed, true);
    let val = match r.val {
        Val::None => None,
        Val::Train => Some(r.data.dataset(r.data_seed)),
        Val::Held { samples, seed } => Some(r.data.held_out(samples).dataset(seed)),
    }
    .map(|set| {
        let loader = DataLoader::new(set.len(), r.batch_size, 0, false);
        (set, loader)
    });
    let optimizer = match r.optimizer {
        Optim::Sgd { weight_decay } => Optimizer::Sgd(Sgd::new(r.lr, 0.9, weight_decay)),
        Optim::Adam => Optimizer::Adam(Adam::new(r.lr, 0.0)),
    };
    let schedule: Box<dyn LrSchedule> = match r.schedule {
        Sched::MultiStep { milestones } => {
            Box::new(MultiStepDecay::new(r.lr, 0.1, milestones.to_vec()))
        }
        Sched::InverseSqrt { warmup } => Box::new(InverseSqrt::new(r.lr, warmup)),
        Sched::Linear { total } => Box::new(LinearDecay::new(r.lr, total)),
        Sched::Poly { total } => {
            let t = total as f32;
            Box::new(LambdaLr::new(r.lr, move |e| {
                (1.0 - e as f32 / t).max(0.0).powf(0.9)
            }))
        }
    };
    Ok(Built {
        model,
        train,
        loader,
        val,
        optimizer,
        schedule,
        options: TrainerOptions {
            epochs: r.epochs,
            egeria: r.egeria,
            lr_per_iteration: r.lr_per_iteration,
            ..Default::default()
        },
    })
}

/// Pre-trains a BERT-style model for 10 epochs on a held-out synthetic QA
/// distribution seeded from `seed`, so its front blocks start
/// near-converged like real BERT layers.
fn pretrain_bert(model: &mut BertQa, seed: u64) -> Result<()> {
    let cfg = QaDataConfig {
        samples: 192,
        vocab: 24,
        len: 16,
        answer_len: 3,
    };
    let data = SyntheticQa::new(cfg, seed.wrapping_add(0xBE57));
    let loader = DataLoader::new(cfg.samples, 16, seed.wrapping_add(1), true);
    let mut opt = Adam::new(1e-3, 0.0);
    for epoch in 0..10 {
        for plan in loader.epoch_plan(epoch) {
            let batch = data.materialize(&plan.indices)?;
            model.train_step(&batch, None)?;
            opt.step(&mut model.params_mut())?;
            model.zero_grad();
        }
    }
    Ok(())
}

/// Table 1's seven workloads, in the paper's row order.
///
/// Every entry initialises its weights from seed 42, seeds its training
/// loader 1042 and its training set `43..=49` by row, and trains at batch
/// 16. The image and translation validation sets reuse the training seed
/// (the images with augmentation off); DeepLab's and BERT's have seeds of
/// their own.
pub fn table1() -> Vec<Recipe> {
    let resnet56 = Recipe {
        name: "resnet56",
        arch: Arch::ResNet(ResNetCifarConfig {
            n: 9,
            width: 4,
            classes: 8,
            ..Default::default()
        }),
        model_seed: 42,
        data: Data::Images(ImageDataConfig {
            samples: 320,
            classes: 8,
            size: 10,
            noise: 0.5,
            augment: true,
        }),
        data_seed: 43,
        val: Val::Held {
            samples: 128,
            seed: 43,
        },
        batch_size: 16,
        loader_seed: 1042,
        epochs: 60,
        lr: 0.1,
        optimizer: Optim::Sgd { weight_decay: 1e-4 },
        schedule: Sched::MultiStep {
            milestones: &[30, 45],
        },
        lr_per_iteration: false,
        // Picked once on the reproduction scale (§4.2.2: the four knobs
        // are coupled and robust); Figure 13 sweeps W around it.
        egeria: Some(EgeriaConfig {
            n: 5,
            w: 12,
            s: 12,
            t: 1.0,
            bootstrap_rate: 0.10,
            reference_update_every: 8,
            ..Default::default()
        }),
    };
    let transformer_base = Recipe {
        name: "transformer_base",
        arch: Arch::Transformer(TransformerConfig::base(16)),
        data: Data::Translation(TranslationConfig {
            samples: 256,
            vocab: 16,
            len: 8,
        }),
        data_seed: 47,
        val: Val::Held {
            samples: 96,
            seed: 47,
        },
        epochs: 50,
        lr: 4e-3,
        optimizer: Optim::Adam,
        schedule: Sched::InverseSqrt { warmup: 40 },
        lr_per_iteration: true,
        ..resnet56.clone()
    };
    vec![
        // A 26-layer basic-block ResNet stands in for ResNet-50 on ImageNet.
        Recipe {
            name: "resnet50",
            arch: Arch::ResNet(ResNetCifarConfig {
                n: 4,
                width: 4,
                classes: 12,
                ..Default::default()
            }),
            data: Data::Images(ImageDataConfig {
                samples: 320,
                classes: 12,
                size: 10,
                noise: 0.5,
                augment: true,
            }),
            data_seed: 44,
            val: Val::Held {
                samples: 128,
                seed: 44,
            },
            epochs: 45,
            schedule: Sched::MultiStep {
                milestones: &[22, 33],
            },
            ..resnet56.clone()
        },
        Recipe {
            name: "mobilenet_v2",
            arch: Arch::MobileNet(MobileNetConfig {
                width_div: 8,
                classes: 10,
                ..Default::default()
            }),
            data: Data::Images(ImageDataConfig {
                samples: 240,
                classes: 10,
                size: 12,
                noise: 1.3,
                augment: true,
            }),
            data_seed: 45,
            val: Val::Held {
                samples: 64,
                seed: 45,
            },
            epochs: 40,
            lr: 0.05,
            schedule: Sched::MultiStep {
                milestones: &[20, 30],
            },
            ..resnet56.clone()
        },
        resnet56.clone(),
        Recipe {
            name: "deeplabv3",
            arch: Arch::DeepLab(DeepLabConfig {
                stages: vec![2, 2, 2, 2],
                width: 4,
                classes: 5,
                ..Default::default()
            }),
            data: Data::Segmentation(SegDataConfig {
                samples: 192,
                classes: 5,
                size: 16,
            }),
            data_seed: 46,
            val: Val::Held {
                samples: 64,
                seed: 442,
            },
            epochs: 40,
            lr: 0.02,
            schedule: Sched::Poly { total: 40 },
            ..resnet56
        },
        transformer_base.clone(),
        Recipe {
            name: "transformer_tiny",
            arch: Arch::Transformer(TransformerConfig::tiny(16)),
            data_seed: 48,
            val: Val::Held {
                samples: 96,
                seed: 48,
            },
            epochs: 35,
            lr: 3e-3,
            ..transformer_base.clone()
        },
        // Fine-tuning a pre-trained model converges fast: shorter windows.
        Recipe {
            name: "bert_qa",
            arch: Arch::Bert {
                cfg: BertConfig::base(24),
                pretrain: true,
            },
            data: Data::Qa(QaDataConfig {
                samples: 256,
                vocab: 24,
                len: 16,
                answer_len: 3,
            }),
            data_seed: 49,
            val: Val::Held {
                samples: 96,
                seed: 742,
            },
            epochs: 25,
            lr: 5e-4,
            schedule: Sched::Linear { total: 25 * 16 },
            egeria: transformer_base
                .egeria
                .map(|c| EgeriaConfig { w: 8, s: 8, ..c }),
            ..transformer_base
        },
    ]
}

/// The policy A/B matrix's five families (DESIGN §5i): eight epochs at
/// batch 16 on 48–64 samples, no validation pass, and one set of Egeria
/// knobs per modality. [`crate::run_scenario`] sets the policy.
pub fn scenarios() -> Vec<Recipe> {
    let resnet = Recipe {
        name: "resnet",
        arch: Arch::ResNet(ResNetCifarConfig {
            n: 2,
            width: 4,
            classes: 4,
            ..Default::default()
        }),
        model_seed: 7,
        data: Data::Images(ImageDataConfig {
            samples: 64,
            classes: 4,
            size: 8,
            noise: 0.3,
            augment: true,
        }),
        data_seed: 2,
        val: Val::None,
        batch_size: 16,
        loader_seed: 3,
        epochs: 8,
        lr: 0.05,
        optimizer: Optim::Sgd { weight_decay: 0.0 },
        schedule: Sched::MultiStep { milestones: &[5] },
        lr_per_iteration: false,
        egeria: Some(EgeriaConfig {
            n: 1,
            w: 3,
            s: 2,
            t: 5.0,
            bootstrap_rate: 0.9,
            reference_update_every: 4,
            ..Default::default()
        }),
    };
    let transformer = Recipe {
        name: "transformer",
        arch: Arch::Transformer(TransformerConfig::tiny(16)),
        model_seed: 5,
        data: Data::Translation(TranslationConfig {
            samples: 48,
            vocab: 16,
            len: 6,
        }),
        data_seed: 6,
        loader_seed: 7,
        lr: 3e-3,
        optimizer: Optim::Adam,
        schedule: Sched::InverseSqrt { warmup: 30 },
        lr_per_iteration: true,
        egeria: resnet.egeria.map(|c| EgeriaConfig {
            w: 4,
            s: 3,
            t: 2.5,
            ..c
        }),
        ..resnet.clone()
    };
    vec![
        resnet.clone(),
        Recipe {
            name: "mobilenet",
            arch: Arch::MobileNet(MobileNetConfig {
                width_div: 16,
                classes: 4,
                ..Default::default()
            }),
            model_seed: 5,
            data_seed: 4,
            loader_seed: 5,
            ..resnet.clone()
        },
        Recipe {
            name: "deeplab",
            arch: Arch::DeepLab(DeepLabConfig {
                stages: vec![1, 1, 1],
                width: 4,
                classes: 3,
                ..Default::default()
            }),
            model_seed: 6,
            data: Data::Segmentation(SegDataConfig {
                samples: 48,
                classes: 3,
                size: 8,
            }),
            data_seed: 7,
            loader_seed: 7,
            ..resnet
        },
        transformer.clone(),
        Recipe {
            name: "bert_tiny",
            arch: Arch::Bert {
                cfg: BertConfig {
                    vocab: 16,
                    d_model: 16,
                    heads: 2,
                    d_ff: 32,
                    layers: 4,
                },
                pretrain: false,
            },
            model_seed: 9,
            data: Data::Qa(QaDataConfig {
                samples: 48,
                vocab: 16,
                len: 10,
                answer_len: 2,
            }),
            data_seed: 10,
            loader_seed: 11,
            lr: 1e-3,
            schedule: Sched::Linear { total: 200 },
            ..transformer
        },
    ]
}

/// The entry called `name`, from either table.
pub fn recipe(name: &str) -> Option<Recipe> {
    table1()
        .into_iter()
        .chain(scenarios())
        .find(|r| r.name == name)
}
