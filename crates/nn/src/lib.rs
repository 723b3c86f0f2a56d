//! Reverse-mode neural-network engine for the Egeria reproduction.
//!
//! Rather than a general tape autograd, every [`Layer`] caches whatever it
//! needs during `forward` and implements an explicit `backward`. This makes
//! the training-loop surgery Egeria performs — freezing a prefix of layer
//! modules, stopping backpropagation at the frontmost active module,
//! switching frozen BatchNorm layers to inference mode, and splicing cached
//! activations into the forward pass — first-class operations instead of
//! graph rewrites.
//!
//! Contents:
//!
//! - [`param::Parameter`]: a tensor with gradient storage, a stable id, and a
//!   `requires_grad` flag (the freezing switch, mirroring PyTorch §5 of the
//!   paper),
//! - [`layer::Layer`]: the forward/backward object trait plus
//!   [`layer::Sequential`],
//! - concrete layers: linear, conv, norms, activations, embedding,
//!   multi-head attention,
//! - [`loss`]: cross-entropy (with label smoothing),
//! - [`optim`]: SGD with momentum/weight-decay and Adam,
//! - [`sched`]: the LR schedules used by the paper's workloads (step decay,
//!   inverse-sqrt, linear, cosine annealing, lambda),
//! - [`net::Network`]: a named sequence of freezable blocks with forward
//!   hooks — the structure `EgeriaModule` wraps.

// No unsafe outside egeria-tensor: enforced here and audited by egeria-lint.
#![forbid(unsafe_code)]

pub mod activation;
pub mod attention;
pub mod conv_layers;
pub mod embedding;
pub mod init;
pub mod layer;
pub mod linear;
pub mod loss;
pub mod net;
pub mod norm;
pub mod optim;
pub mod param;
pub mod sched;

pub use layer::{Layer, Mode, Sequential};
pub use net::{Block, Network};
pub use param::Parameter;

/// Crate-wide result alias (errors are tensor errors).
pub type Result<T> = egeria_tensor::Result<T>;
