//! The pluggable clock driving every time-based policy decision.
//!
//! This is the **only** module in the resilience layer allowed to read the
//! wall clock (`lint.toml` puts the rest of the workspace's timing code
//! under the determinism rule's wall-clock ban): the serve batcher and
//! engine time themselves through [`Clock`], so tests substitute a
//! [`VirtualClock`] and pin flush/deadline/shed behavior deterministically.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// A monotonic clock in microseconds since an arbitrary epoch.
pub trait Clock: Send + Sync {
    /// Microseconds since the clock's epoch.
    fn now_us(&self) -> u64;
}

/// The production clock: wall time from [`Instant`].
pub struct RealClock {
    epoch: Instant,
}

impl RealClock {
    /// A real clock whose epoch is "now".
    pub fn new() -> Self {
        RealClock { epoch: Instant::now() }
    }

    /// Convenience: an `Arc<dyn Clock>` real clock.
    pub fn shared() -> Arc<dyn Clock> {
        Arc::new(RealClock::new())
    }
}

impl Default for RealClock {
    fn default() -> Self {
        Self::new()
    }
}

impl Clock for RealClock {
    fn now_us(&self) -> u64 {
        self.epoch.elapsed().as_micros() as u64
    }
}

/// A deterministic manually-advanced clock for tests: time moves only when
/// the test [`advance_us`](Self::advance_us)es it.
#[derive(Default)]
pub struct VirtualClock {
    now_us: AtomicU64,
}

impl VirtualClock {
    /// A virtual clock starting at 0 µs.
    pub fn new() -> Self {
        Self::default()
    }

    /// Convenience: a shared virtual clock (the test keeps one `Arc` to
    /// advance, the engine gets the other as its `dyn Clock`).
    pub fn shared() -> Arc<VirtualClock> {
        Arc::new(VirtualClock::new())
    }

    /// Moves time forward by `us` microseconds.
    pub fn advance_us(&self, us: u64) {
        self.now_us.fetch_add(us, Ordering::SeqCst);
    }
}

impl Clock for VirtualClock {
    fn now_us(&self) -> u64 {
        self.now_us.load(Ordering::SeqCst)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn real_clock_is_monotonic() {
        let c = RealClock::new();
        let a = c.now_us();
        let b = c.now_us();
        assert!(b >= a);
    }

    #[test]
    fn virtual_clock_only_moves_when_advanced() {
        let c = VirtualClock::new();
        assert_eq!(c.now_us(), 0);
        c.advance_us(250);
        assert_eq!(c.now_us(), 250);
        c.advance_us(50);
        assert_eq!(c.now_us(), 300);
    }
}
