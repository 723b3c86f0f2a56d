//! The workspace health state machine.
//!
//! A [`HealthMonitor`] aggregates degradation signals from everywhere the
//! resilience layer is wired — watchdog respawns and budget exhaustion,
//! cache quarantines — into one three-level
//! [`HealthState`]:
//!
//! - **Healthy**: no outstanding degradation reasons.
//! - **Degraded{reasons}**: at least one recoverable degradation is
//!   active (a quarantined cache entry). The system is still making
//!   progress on a fallback path.
//! - **Critical{reasons}**: a non-recoverable condition (a respawn budget
//!   exhausted). Training continues where possible, but the control plane
//!   has permanently lost a component.
//!
//! Reasons are `&'static str` tags held in ordered sets, so the rendered
//! state is deterministic for a deterministic run. Every transition is
//! exported through egeria-obs: `resil.health.*` counters, a
//! `resil.health.level` gauge (0/1/2), and `health_transition` instants
//! the `trace_report` resilience section renders.

use crate::lock;
use egeria_obs::{ArgValue, Telemetry};
use std::collections::BTreeSet;
use std::sync::{Arc, Mutex};

/// The aggregate health of the workspace control plane.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HealthState {
    /// No outstanding degradation.
    Healthy,
    /// Recoverable degradation(s) active; fallback paths are carrying.
    Degraded {
        /// Active degradation tags, in deterministic (sorted) order.
        reasons: Vec<&'static str>,
    },
    /// A component is permanently lost (e.g. respawn budget exhausted).
    Critical {
        /// Critical tags plus any still-active degradations, sorted.
        reasons: Vec<&'static str>,
    },
}

impl HealthState {
    /// Numeric severity: 0 healthy, 1 degraded, 2 critical (the
    /// `resil.health.level` gauge).
    pub fn level(&self) -> u8 {
        match self {
            HealthState::Healthy => 0,
            HealthState::Degraded { .. } => 1,
            HealthState::Critical { .. } => 2,
        }
    }
}

#[derive(Debug, Default)]
struct Inner {
    degraded: BTreeSet<&'static str>,
    critical: BTreeSet<&'static str>,
}

/// Thread-shared health aggregator (clone the `Arc`, feed it events).
pub struct HealthMonitor {
    telemetry: Telemetry,
    inner: Mutex<Inner>,
}

impl HealthMonitor {
    /// A monitor starting Healthy, exporting through `telemetry`.
    pub fn new(telemetry: Telemetry) -> Arc<Self> {
        Arc::new(HealthMonitor {
            telemetry,
            inner: Mutex::new(Inner::default()),
        })
    }

    /// Marks a recoverable degradation active. Idempotent per tag.
    pub fn degrade(&self, reason: &'static str) {
        let newly = lock(&self.inner).degraded.insert(reason);
        if newly {
            self.telemetry.counter("resil.health.degradations").inc();
            self.emit_transition("degraded", reason);
        }
    }

    /// Clears a recoverable degradation. Idempotent per tag.
    pub fn resolve(&self, reason: &'static str) {
        let removed = lock(&self.inner).degraded.remove(reason);
        if removed {
            self.telemetry.counter("resil.health.recoveries").inc();
            self.emit_transition("recovered", reason);
        }
    }

    /// Marks a non-recoverable condition. Critical tags never clear.
    pub fn critical(&self, reason: &'static str) {
        let newly = lock(&self.inner).critical.insert(reason);
        if newly {
            self.telemetry.counter("resil.health.criticals").inc();
            self.emit_transition("critical", reason);
        }
    }

    /// The current aggregate state.
    pub fn state(&self) -> HealthState {
        let inner = lock(&self.inner);
        if !inner.critical.is_empty() {
            let mut reasons: Vec<&'static str> = inner.critical.iter().copied().collect();
            reasons.extend(inner.degraded.iter().copied());
            HealthState::Critical { reasons }
        } else if !inner.degraded.is_empty() {
            HealthState::Degraded {
                reasons: inner.degraded.iter().copied().collect(),
            }
        } else {
            HealthState::Healthy
        }
    }

    /// Severity of the current state (0/1/2).
    pub fn level(&self) -> u8 {
        self.state().level()
    }

    fn emit_transition(&self, edge: &'static str, reason: &'static str) {
        let level = self.level();
        self.telemetry.gauge("resil.health.level").set(f64::from(level));
        self.telemetry.instant(
            "health_transition",
            None,
            None,
            vec![
                ("edge", ArgValue::Str(edge)),
                ("reason", ArgValue::Str(reason)),
                ("level", ArgValue::U64(u64::from(level))),
            ],
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn starts_healthy_and_degrades_with_sorted_reasons() {
        let h = HealthMonitor::new(Telemetry::disabled());
        assert_eq!(h.state(), HealthState::Healthy);
        h.degrade("second-reason");
        h.degrade("cache-quarantine");
        assert_eq!(
            h.state(),
            HealthState::Degraded {
                reasons: vec!["cache-quarantine", "second-reason"],
            }
        );
        assert_eq!(h.level(), 1);
    }

    #[test]
    fn resolve_returns_to_healthy() {
        let h = HealthMonitor::new(Telemetry::disabled());
        h.degrade("cache-quarantine");
        h.resolve("cache-quarantine");
        assert_eq!(h.state(), HealthState::Healthy);
        // Resolving an absent tag is a no-op.
        h.resolve("cache-quarantine");
        assert_eq!(h.state(), HealthState::Healthy);
    }

    #[test]
    fn critical_dominates_and_never_clears() {
        let h = HealthMonitor::new(Telemetry::disabled());
        h.degrade("second-reason");
        h.critical("controller-respawn-budget-exhausted");
        let state = h.state();
        assert_eq!(state.level(), 2);
        assert_eq!(
            state,
            HealthState::Critical {
                reasons: vec![
                    "controller-respawn-budget-exhausted",
                    "second-reason",
                ],
            }
        );
        h.resolve("second-reason");
        assert_eq!(h.level(), 2, "critical outlives degradation recovery");
    }

    #[test]
    fn transitions_export_counters() {
        let t = Telemetry::enabled();
        let h = HealthMonitor::new(t.clone());
        h.degrade("a");
        h.degrade("a"); // idempotent: counted once
        h.resolve("a");
        h.critical("b");
        let snap = t.metrics_snapshot();
        assert_eq!(snap.counter("resil.health.degradations"), Some(1));
        assert_eq!(snap.counter("resil.health.recoveries"), Some(1));
        assert_eq!(snap.counter("resil.health.criticals"), Some(1));
    }
}
