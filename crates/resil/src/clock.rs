//! The pluggable clock driving every time-based policy decision.
//!
//! This is the **only** module in the resilience layer allowed to read the
//! wall clock (`lint.toml` puts the rest of the workspace's timing code
//! under the determinism rule's wall-clock ban): the serve batcher and
//! engine, the retry/backoff policy, and the circuit breaker all time
//! themselves through [`Clock`], so tests substitute a [`VirtualClock`]
//! and pin flush/deadline/shed/backoff/trip behavior deterministically.

use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// A monotonic clock in microseconds since an arbitrary epoch.
pub trait Clock: Send + Sync {
    /// Microseconds since the clock's epoch.
    fn now_us(&self) -> u64;

    /// Blocks the calling thread for `us` microseconds of *this clock's*
    /// time. A virtual clock blocks until someone advances it that far.
    fn sleep_us(&self, us: u64);
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

    fn sleep_us(&self, us: u64) {
        std::thread::sleep(Duration::from_micros(us));
    }
}

/// A deterministic manually-advanced clock for tests.
///
/// `sleep_us` blocks until another thread [`advance_us`](Self::advance_us)es
/// the clock past the wake time, so threaded code under test makes progress
/// only when the test says time passed.
pub struct VirtualClock {
    state: Mutex<VirtualState>,
    advanced: Condvar,
}

#[derive(Default)]
struct VirtualState {
    now_us: u64,
    /// Threads currently blocked in `sleep_us`.
    sleepers: usize,
}

impl VirtualClock {
    /// A virtual clock starting at 0 µs.
    pub fn new() -> Self {
        VirtualClock {
            state: Mutex::new(VirtualState::default()),
            advanced: Condvar::new(),
        }
    }

    /// Convenience: a shared virtual clock (the test keeps one `Arc` to
    /// advance, the engine gets the other as its `dyn Clock`).
    pub fn shared() -> Arc<VirtualClock> {
        Arc::new(VirtualClock::new())
    }

    /// Moves time forward by `us` microseconds and wakes sleepers.
    pub fn advance_us(&self, us: u64) {
        let mut state = self.state.lock().expect("virtual clock poisoned");
        state.now_us += us;
        self.advanced.notify_all();
    }

    /// How many threads are blocked in [`sleep_us`](Clock::sleep_us) right
    /// now. A sleeper's wake time is fixed when it registers, so a test
    /// that spawns a sleeper waits for this to reach the expected count
    /// before advancing — otherwise an early advance is lost to it.
    pub fn sleepers(&self) -> usize {
        self.state.lock().expect("virtual clock poisoned").sleepers
    }
}

impl Default for VirtualClock {
    fn default() -> Self {
        Self::new()
    }
}

impl Clock for VirtualClock {
    fn now_us(&self) -> u64 {
        self.state.lock().expect("virtual clock poisoned").now_us
    }

    fn sleep_us(&self, us: u64) {
        let mut state = self.state.lock().expect("virtual clock poisoned");
        let wake = state.now_us + us;
        state.sleepers += 1;
        while state.now_us < wake {
            state = self.advanced.wait(state).expect("virtual clock poisoned");
        }
        state.sleepers -= 1;
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

    #[test]
    fn virtual_sleep_wakes_on_advance() {
        let c = VirtualClock::shared();
        let c2 = Arc::clone(&c);
        // egeria-lint: allow(determinism): test thread exercising the
        // virtual clock's sleep/advance handshake.
        let h = std::thread::spawn(move || {
            c2.sleep_us(100);
            c2.now_us()
        });
        // The wake time is fixed at registration: advancing before the
        // sleeper registers would leave it waiting for time that never
        // comes.
        while c.sleepers() < 1 {
            std::thread::yield_now();
        }
        // Advance in two steps; the sleeper must see at least 100 µs.
        c.advance_us(60);
        c.advance_us(60);
        assert!(h.join().unwrap() >= 100);
    }
}
