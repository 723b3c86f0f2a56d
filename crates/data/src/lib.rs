//! Synthetic datasets and the training data loader.
//!
//! The paper trains on ImageNet/CIFAR-10/VOC/WMT16/SQuAD; this reproduction
//! substitutes deterministic synthetic datasets with learnable structure
//! (documented in DESIGN.md). Two properties of the paper's data pipeline
//! are preserved exactly because Egeria's design depends on them:
//!
//! 1. **Stateless augmentation** (§4.3): every augmented sample is a pure
//!    function of `(dataset seed, sample id)`, identical across epochs, so
//!    frozen-prefix activations can be cached and replayed.
//! 2. **Known-future sampling**: the loader fixes each epoch's batch order
//!    up front, so the incoming sample ids are known before the iteration
//!    reaches them ("we actually know the future").

// No unsafe outside egeria-tensor: enforced here and audited by egeria-lint.
#![forbid(unsafe_code)]

pub mod images;
pub mod loader;
pub mod qa;
pub mod segmentation;
pub mod translation;

pub use loader::{DataLoader, Dataset};
