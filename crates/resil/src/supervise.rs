//! Capped-respawn supervision budgets.
//!
//! A [`Watchdog`] does not own threads — the serve engine keeps spawning
//! its own workers — it owns the *budget*: each time a supervised
//! component is found dead, the supervisor asks
//! [`request_respawn`](Watchdog::request_respawn). Under the cap the
//! answer is yes (counted, exported); once the budget is exhausted the
//! answer is permanently no and the wired [`HealthMonitor`] goes
//! Critical, because a component that keeps dying is a fault the fallback
//! paths must absorb rather than a blip worth respawn-looping on.

use crate::health::HealthMonitor;
use crate::lock;
use egeria_obs::{ArgValue, Telemetry};
use std::sync::{Arc, Mutex};

#[derive(Debug, Default)]
struct Inner {
    respawns: u32,
    exhausted: bool,
}

/// A respawn budget for one supervised component.
pub struct Watchdog {
    name: &'static str,
    max_respawns: u32,
    telemetry: Telemetry,
    health: Option<(Arc<HealthMonitor>, &'static str)>,
    inner: Mutex<Inner>,
}

impl Watchdog {
    /// A budget of `max_respawns` for the component called `name`
    /// (used as the counter suffix and trace tag).
    pub fn new(name: &'static str, max_respawns: u32, telemetry: Telemetry) -> Self {
        Watchdog {
            name,
            max_respawns,
            telemetry,
            health: None,
            inner: Mutex::new(Inner::default()),
        }
    }

    /// Wires health reporting: budget exhaustion raises `reason` as a
    /// Critical condition.
    pub fn with_health(mut self, health: Arc<HealthMonitor>, reason: &'static str) -> Self {
        self.health = Some((health, reason));
        self
    }

    /// Asks permission to respawn the supervised component. Returns
    /// `true` (and spends one unit of budget) while under the cap;
    /// returns `false` forever after, flipping health to Critical on the
    /// first exhausted request.
    pub fn request_respawn(&self) -> bool {
        let mut inner = lock(&self.inner);
        if inner.respawns < self.max_respawns {
            inner.respawns += 1;
            let count = inner.respawns;
            drop(inner);
            self.telemetry.counter("resil.watchdog.respawns").inc();
            self.telemetry.instant(
                "watchdog_respawn",
                None,
                None,
                vec![
                    ("component", ArgValue::Str(self.name)),
                    ("respawn", ArgValue::U64(u64::from(count))),
                ],
            );
            true
        } else {
            let first = !inner.exhausted;
            inner.exhausted = true;
            drop(inner);
            if first {
                self.telemetry.counter("resil.watchdog.exhausted").inc();
                if let Some((h, reason)) = &self.health {
                    h.critical(reason);
                }
            }
            false
        }
    }

    /// Respawns granted so far.
    pub fn respawns(&self) -> u32 {
        lock(&self.inner).respawns
    }

    /// Whether the budget has been exhausted (a request was denied).
    pub fn exhausted(&self) -> bool {
        lock(&self.inner).exhausted
    }

    /// The supervised component's name.
    pub fn name(&self) -> &'static str {
        self.name
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grants_up_to_cap_then_denies_forever() {
        let w = Watchdog::new("controller", 2, Telemetry::disabled());
        assert!(w.request_respawn());
        assert!(w.request_respawn());
        assert!(!w.request_respawn());
        assert!(!w.request_respawn(), "denial is permanent");
        assert_eq!(w.respawns(), 2);
        assert!(w.exhausted());
    }

    #[test]
    fn zero_budget_denies_immediately() {
        let w = Watchdog::new("worker", 0, Telemetry::disabled());
        assert!(!w.request_respawn());
        assert_eq!(w.respawns(), 0);
    }

    #[test]
    fn exhaustion_goes_critical_once() {
        let t = Telemetry::enabled();
        let health = HealthMonitor::new(t.clone());
        let w = Watchdog::new("controller", 1, t.clone())
            .with_health(Arc::clone(&health), "controller-respawn-budget-exhausted");
        assert!(w.request_respawn());
        assert_eq!(health.level(), 0, "respawns under the cap are not critical");
        assert!(!w.request_respawn());
        assert!(!w.request_respawn());
        assert_eq!(health.level(), 2);
        let snap = t.metrics_snapshot();
        assert_eq!(snap.counter("resil.watchdog.respawns"), Some(1));
        assert_eq!(snap.counter("resil.watchdog.exhausted"), Some(1));
    }
}
