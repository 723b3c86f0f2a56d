//! Structured telemetry for the Egeria reproduction (DESIGN.md §5d).
//!
//! Egeria's claims are *timeline* claims — when plasticity flattens, when
//! the freezer fires, how much time each frozen layer saves. This crate is
//! the observation side of the `nn`-trains / `simsys`-predicts split:
//!
//! - [`metrics`]: a lock-cheap registry of counters, gauges, and
//!   histograms (fixed log2 buckets, so snapshots are deterministic for a
//!   deterministic run).
//! - [`trace`]: a span-based trace recorder capturing per-iteration,
//!   per-module events into a bounded ring buffer.
//! - [`telemetry`]: the [`Telemetry`] handle the rest of the workspace is
//!   wired through. A disabled handle is a `None` and every operation on
//!   it is an inlined no-op — the hot path pays one branch.
//! - [`export`]: deterministic JSONL export plus a Chrome
//!   `trace_event`-compatible dump (load it in `about://tracing` /
//!   Perfetto).
//! - [`jsonl`]: the workspace's one JSON module — a minimal parser, the
//!   writer every JSON report goes through, and the line-schema validator
//!   CI runs against exported traces.
//! - [`report`]: the trace summarizer behind `trace_report` — turns a
//!   JSONL trace into the paper's per-layer frozen-time breakdown and the
//!   observed iteration timeline `simsys` calibrates against.
//!
//! The crate is dependency-free on purpose: it must be embeddable under
//! every layer of the workspace (the tensor runtime included) without
//! dragging in vendored stubs, and its serialization must stay inside the
//! determinism lint (no hash-ordered collections, no wall-clock reads in
//! export paths).

// No unsafe outside egeria-tensor: enforced here and audited by egeria-lint.
#![forbid(unsafe_code)]

pub mod export;
pub mod jsonl;
pub mod metrics;
pub mod report;
pub mod telemetry;
pub mod trace;

pub use metrics::{Counter, Gauge, Histogram, MetricsRegistry, MetricsSnapshot};
pub use report::TraceSummary;
pub use telemetry::{Span, Telemetry};
pub use trace::{ArgValue, TraceEvent, TraceRecorder};
