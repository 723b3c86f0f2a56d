//! `egeria-serve`: batched inference serving for reference-model traffic
//! (DESIGN.md §5e).
//!
//! Egeria's reference model is an always-on, forward-only inference
//! workload that answers plasticity probes beside training (§4.2–§4.3 of
//! the paper). This crate is a standalone, embeddable serving subsystem for
//! that traffic when it has many clients. It is **off the training path**:
//! `egeria-core` does not depend on it — a trainer has one in-process
//! client, whose probes never coalesced, so `ReferenceManager::capture` is
//! a direct forward (ROADMAP 4(h)).
//!
//! - [`snapshot`]: immutable, versioned model snapshots (fp32 / f16 / int8
//!   via `egeria-quant`) published by the caller and swapped atomically —
//!   in-flight requests keep executing against the version they were
//!   admitted under.
//! - the pluggable [`Clock`] (from `egeria_resil::clock`) every
//!   batching-policy decision is timed by. Production uses [`RealClock`];
//!   nothing in this crate reads the wall clock itself (enforced by
//!   `egeria-lint`), and tests drive a deterministic [`VirtualClock`].
//! - [`batcher`]: a pure micro-batching state machine — bounded pending
//!   budget, flush-on-full (`max_batch`), flush-on-deadline (`max_wait`),
//!   shed-on-overflow — with no threads inside, so every policy behavior
//!   is pinned by virtual-clock unit tests.
//! - [`exec`]: request coalescing. Same-shaped image probes against the
//!   same snapshot version and module merge along the batch axis into one
//!   forward; outputs are split back per request. **Batched execution is
//!   bit-identical to singleton execution** regardless of how requests
//!   coalesce (the eval-mode forward is per-sample independent and the
//!   tensor kernels partition work by fixed geometry — DESIGN.md §5b), and
//!   any group that cannot be merged or split degrades to singleton
//!   forwards, so the contract holds by construction.
//! - [`engine`]: the [`ServeEngine`] — a bounded submission queue with
//!   admission control, a dispatcher thread driving the batcher, and a
//!   forward-execution worker pool whose tensor math runs on the shared
//!   `egeria_tensor::ThreadPool`. Overflow sheds with
//!   [`ServeError::Overloaded`], late requests fail with
//!   [`ServeError::DeadlineExceeded`], and shutdown resolves every pending
//!   ticket with [`ServeError::Shutdown`] — typed errors, never panics.
//!
//! Everything is instrumented through `egeria-obs`: `serve.*` counters and
//! histograms (queue depth, batch size, queue-wait/execute latencies) and
//! one `serve_batch` span per executed group, which `trace_report`
//! summarizes into its serving section.

// No unsafe outside egeria-tensor: enforced here and audited by egeria-lint.
#![forbid(unsafe_code)]

pub mod batcher;
pub mod engine;
pub mod error;
pub mod exec;
pub mod snapshot;

pub use egeria_resil::clock::{Clock, RealClock, VirtualClock};
pub use engine::{ProbeRequest, ProbeResponse, ProbeTicket, ServeEngine};
pub use error::{ServeError, ServeResult};
pub use snapshot::{ModelSnapshot, SnapshotRegistry};

use std::time::Duration;

/// Tuning knobs for a [`ServeEngine`].
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Forward-execution worker threads.
    pub workers: usize,
    /// Maximum requests coalesced into one executed batch; reaching it
    /// flushes the group immediately (flush-on-full).
    pub max_batch: usize,
    /// How long an under-full group may wait for co-batchable requests
    /// before it is flushed anyway (flush-on-deadline).
    pub max_wait: Duration,
    /// Bounded submission-queue depth; admission beyond it sheds the
    /// request with [`ServeError::Overloaded`].
    pub queue_depth: usize,
    /// Default per-request deadline applied when a request carries none;
    /// `None` means requests without a deadline never expire.
    pub default_deadline: Option<Duration>,
    /// How many dead workers may respawn themselves over the engine's
    /// lifetime (a panicking worker's guard spawns its own replacement)
    /// before the budget is exhausted. Exhaustion fails all queued and
    /// future probes and flips the wired health monitor to Critical.
    pub worker_respawn_budget: u32,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            workers: 1,
            max_batch: 8,
            max_wait: Duration::from_millis(2),
            queue_depth: 64,
            default_deadline: None,
            worker_respawn_budget: 8,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_is_sane() {
        let c = ServeConfig::default();
        assert!(c.workers >= 1);
        assert!(c.max_batch >= 1);
        assert!(c.queue_depth >= 1);
        assert!(c.default_deadline.is_none());
    }
}
