//! Architecture-faithful model zoo for the Egeria reproduction.
//!
//! Each model in the paper's Table 1 has a width/depth-reduced counterpart
//! here that preserves the *layer-module structure* the paper freezes over:
//!
//! - [`resnet`]: CIFAR-style ResNet (3 stages of basic blocks; ResNet-56 at
//!   depth parameter 9, and the "ResNet-50" workload at 4) plus the
//!   bottleneck block the DeepLab backbone is built from,
//! - [`mobilenet`]: MobileNetV2-style inverted residual blocks,
//! - [`deeplab`]: a DeepLabv3-style segmentation model (ResNet backbone +
//!   dilated-context classifier head),
//! - [`transformer`]: an encoder–decoder Transformer (Base = 6+6 blocks,
//!   Tiny = 2+2),
//! - [`bert`]: an encoder-only BERT-style model with a SQuAD-style span
//!   head for fine-tuning experiments.
//!
//! The [`model::Model`] trait is the uniform interface Egeria trains
//! through, and [`module_parser`] reproduces §6.3's parameter-share-based
//! grouping of building blocks into freezable layer modules (Figure 12).

// No unsafe outside egeria-tensor: enforced here and audited by egeria-lint.
#![forbid(unsafe_code)]

pub mod bert;
pub mod deeplab;
pub mod input;
pub mod mobilenet;
pub mod model;
pub mod module_parser;
pub mod resnet;
pub mod transformer;
pub mod vision;

pub use input::{Batch, EvalResult, Input, StepResult, Targets};
pub use model::{Model, ModuleMeta};
pub use vision::VisionModel;
