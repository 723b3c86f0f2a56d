//! Egeria: knowledge-guided DNN training with layer freezing (EuroSys 2023).
//!
//! This crate is the paper's contribution. The training life cycle (Figure
//! 3) is reproduced end to end:
//!
//! 1. **Bootstrapping stage** ([`bootstrap`]): monitor the training-loss
//!    changing rate; while the DNN is in its critical period nothing is
//!    eligible for freezing.
//! 2. **Knowledge-guided stage**: generate a *reference model* by int8
//!    post-training quantization of a training snapshot ([`reference`](mod@reference)),
//!    evaluate the *plasticity* of the frontmost active layer module — the
//!    SP loss between training and reference activations on the same batch
//!    ([`plasticity`]) — and freeze the module when its smoothed plasticity
//!    slope stays under tolerance for `S` consecutive evaluations
//!    ([`freezer`], Algorithm 1). Learning-rate annealing triggers
//!    unfreezing with relaxed refreeze criteria.
//! 3. **Forward-pass skipping** ([`cache`]): frozen-prefix activations are
//!    cached to disk keyed by sample id, looked up by the step that needs
//!    them, and spliced into the forward pass so frozen modules skip
//!    computation entirely.
//!
//! The paper's controller (§4.1) runs the reference on a CPU thread so
//! probing stays off the GPU's critical path. Here every thread is a CPU
//! thread, so the reference is probed inline on the training thread, at the
//! step that hooks the training activation, and the value is folded before
//! the optimizer step — deterministic, with no thread of its own.
//! [`trainer::EgeriaTrainer`] ties everything together, and [`api`]
//! provides the `EgeriaModule`/`EgeriaController` facade matching the
//! paper's minimal-code-change interface.

// No unsafe outside egeria-tensor: enforced here and audited by egeria-lint.
#![forbid(unsafe_code)]

pub mod api;
pub mod bootstrap;
pub mod cache;
pub mod checkpoint;
pub mod config;
pub mod freezer;
pub mod plasticity;
pub mod policy;
pub mod reference;
pub mod trainer;

pub use api::{EgeriaController, EgeriaModule};
pub use checkpoint::{CheckpointOptions, CheckpointStore, TrainerCheckpoint};
pub use config::{EgeriaConfig, PolicyKind};
pub use policy::{build_policy, FreezePolicy, PolicyAction, PolicyState};
pub use egeria_obs::Telemetry;
pub use trainer::{EgeriaTrainer, TrainReport};
