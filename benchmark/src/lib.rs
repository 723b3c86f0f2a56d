//! The Egeria trainer's end-to-end benchmark: four fixed-seed workloads
//! trained through the public `EgeriaTrainer::train` API in fresh child
//! processes, measured from outside. See `README.md`.

pub mod child;
pub mod clocked;
pub mod compare;
pub mod harness;
pub mod json;
pub mod metrics;
pub mod probes;
pub mod stats;
pub mod workloads;
