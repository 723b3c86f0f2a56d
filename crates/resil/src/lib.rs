//! egeria-resil: the workspace resilience layer (DESIGN.md §5f).
//!
//! Egeria's accuracy guarantees are conditional on the control plane
//! degrading *safely*: a dead probe path must decay to "don't freeze yet",
//! never to "freeze on stale knowledge". This crate is the shared
//! substrate the rest of the workspace builds that guarantee on:
//!
//! - [`clock`]: the pluggable [`Clock`] trait (moved here from
//!   egeria-serve) — the **only** module in this crate allowed to read the
//!   wall clock. Everything else times itself through the trait so tests
//!   drive batching off a [`VirtualClock`].
//! - [`fault`]: the seeded, schedule-driven fault plane. Deterministic
//!   counter plans (PR 1 semantics, unchanged) plus xorshift-seeded
//!   randomized schedules — an explicit seed, never entropy, so every
//!   chaos run replays bit-for-bit.
//! - [`supervise`]: [`Watchdog`], capped-respawn budgets for the async
//!   controller and serve workers.
//! - [`health`]: the workspace [`HealthState`] machine
//!   (Healthy / Degraded{reasons} / Critical) fed by watchdog and
//!   cache-quarantine events, exported through egeria-obs counters.
//! - [`chaos`]: seeded site schedules bundled into named profiles for the
//!   chaos-soak harness (`EGERIA_CHAOS_SEED`).
//!
//! The crate sits *below* egeria-serve and egeria-core (its only
//! dependency is egeria-obs), so both can share one fault plane without a
//! dependency cycle.

// No unsafe outside egeria-tensor: enforced here and audited by egeria-lint.
#![forbid(unsafe_code)]

pub mod chaos;
pub mod clock;
pub mod fault;
pub mod health;
pub mod supervise;

pub use chaos::ChaosPlan;
pub use clock::{Clock, RealClock, VirtualClock};
pub use fault::{FaultAction, FaultInjector, FaultSite};
pub use health::{HealthMonitor, HealthState};
pub use supervise::Watchdog;
