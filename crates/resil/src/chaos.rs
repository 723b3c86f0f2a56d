//! Named chaos profiles: bundles of seeded per-site schedules.
//!
//! A [`ChaosPlan`] turns one master seed into an [`arm_seeded`]
//! (see [`FaultInjector::arm_seeded`]) schedule per covered site. Two
//! profiles, matching the semantics the chaos-soak harness asserts:
//!
//! - [`fallback_only`](ChaosPlan::fallback_only): sites whose failure is
//!   absorbed by a **bit-identical** fallback path — cache and checkpoint
//!   write failures. A training run under this profile must reproduce the
//!   fault-free loss curve bit-for-bit.
//! - [`full`](ChaosPlan::full): adds sites whose degradation changes the
//!   control-plane timeline (corrupted cache reads, failed reference
//!   captures, controller deaths). The contract drops to "never aborts,
//!   degradation counters move monotonically".
//!
//! [`FaultSite::TrainStep`] is in neither profile: it models a process
//! crash and aborts training by design (the crash/resume tests own it).
//! Neither are the serve engine's sites (`ServeAdmission`, `ServeExecute`,
//! `PoolTaskPanic`): the engine is off the training path, so a trainer run
//! cannot reach them; its own tests arm them directly.

use crate::fault::{splitmix64, FaultAction, FaultInjector, FaultSite};

/// One site's seeded schedule: `(site, rate_permille, max_fires, action)`.
pub type ChaosEntry = (FaultSite, u32, usize, FaultAction);

/// A named, seeded set of per-site fault schedules.
///
/// A trainer run consults every site a plan arms: `CheckpointWrite` and
/// `CacheWrite` (both profiles), `CacheRead`, `ReferenceCapture` and —
/// async controller only — `ControllerEval` ([`full`](Self::full)).
/// (Outside the plans a run also consults `TrainStep`, and
/// `CheckpointRead` when it resumes.)
#[derive(Debug, Clone)]
pub struct ChaosPlan {
    /// The master seed every per-site stream is derived from.
    pub seed: u64,
    entries: Vec<ChaosEntry>,
}

impl ChaosPlan {
    /// Sites with a bit-identity-preserving fallback path.
    pub fn fallback_only(seed: u64) -> Self {
        ChaosPlan {
            seed,
            entries: vec![
                (FaultSite::CheckpointWrite, 300, 4, FaultAction::Fail),
                (FaultSite::CacheWrite, 150, 8, FaultAction::Fail),
            ],
        }
    }

    /// Everything in [`fallback_only`](Self::fallback_only) plus the
    /// sites whose degradation legitimately shifts the freeze timeline.
    pub fn full(seed: u64) -> Self {
        let mut plan = Self::fallback_only(seed);
        plan.entries.extend([
            (FaultSite::CacheRead, 100, 4, FaultAction::CorruptBytes),
            (FaultSite::ReferenceCapture, 200, 4, FaultAction::Fail),
            (FaultSite::ControllerEval, 200, 2, FaultAction::Fail),
        ]);
        plan
    }

    /// The per-site schedules this plan arms.
    pub fn entries(&self) -> &[ChaosEntry] {
        &self.entries
    }

    /// Arms every entry on `injector` (seeded from the master seed; each
    /// site gets its own stream via its stable stream index).
    pub fn apply(&self, injector: &FaultInjector) {
        for (site, rate, max_fires, action) in &self.entries {
            injector.arm_seeded(*site, self.seed, *rate, *max_fires, *action);
        }
    }

    /// Derives a distinct but reproducible sibling seed (for running the
    /// same profile at "another seed" without inventing constants).
    pub fn sibling_seed(seed: u64) -> u64 {
        splitmix64(seed)
    }

    /// The seed from `EGERIA_CHAOS_SEED`, if set and parseable (decimal
    /// or `0x`-prefixed hex).
    pub fn seed_from_env() -> Option<u64> {
        let raw = std::env::var("EGERIA_CHAOS_SEED").ok()?;
        let raw = raw.trim();
        if let Some(hex) = raw.strip_prefix("0x").or_else(|| raw.strip_prefix("0X")) {
            u64::from_str_radix(hex, 16).ok()
        } else {
            raw.parse().ok()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn profiles_never_cover_train_step() {
        for plan in [ChaosPlan::fallback_only(1), ChaosPlan::full(1)] {
            assert!(
                plan.entries().iter().all(|(s, ..)| *s != FaultSite::TrainStep),
                "TrainStep aborts by design and must stay out of chaos profiles"
            );
        }
    }

    #[test]
    fn full_is_a_superset_of_fallback_only() {
        let fallback = ChaosPlan::fallback_only(7);
        let full = ChaosPlan::full(7);
        for e in fallback.entries() {
            assert!(full.entries().contains(e));
        }
        assert!(full.entries().len() > fallback.entries().len());
    }

    #[test]
    fn apply_arms_every_entry() {
        let plan = ChaosPlan::fallback_only(3);
        let f = FaultInjector::new();
        plan.apply(&f);
        // Saturate each armed site; every schedule must be able to fire.
        for (site, rate, _, _) in plan.entries() {
            if *rate == 0 {
                continue;
            }
            let fired = (0..2000).any(|_| f.check(*site).is_some());
            assert!(fired, "armed site {site:?} never fired in 2000 ops");
        }
        // Unarmed sites stay silent.
        assert!(f.check(FaultSite::TrainStep).is_none());
    }

    #[test]
    fn sibling_seed_differs() {
        assert_ne!(ChaosPlan::sibling_seed(1337), 1337);
    }
}
