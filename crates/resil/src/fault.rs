//! The seeded, schedule-driven fault plane.
//!
//! A [`FaultInjector`] is armed with per-site plans and shared via `Arc`
//! with the components under test: the activation cache, the checkpoint
//! writer, the trainer's step loop, the reference manager's capture path,
//! and (standalone, off the training path) the serve engine's admission and
//! execution paths. Each component consults the injector at well-defined
//! points and reacts the way a real disk error, bit flip, shed, or worker
//! panic would — which is what the crash/resume, degradation, and
//! chaos-soak tests drive.
//!
//! Two plan kinds, both fully deterministic:
//!
//! - **Counter plans** ([`FaultInjector::arm`], PR 1 semantics unchanged):
//!   "skip the first `skip` operations at this site, then fire `fire`
//!   times". The same arming plus the same operation sequence always
//!   injects at the same operations.
//! - **Seeded schedules** ([`FaultInjector::arm_seeded`]): each operation
//!   at the site draws from a per-site xorshift64* stream and fires with a
//!   fixed per-mille probability, capped at `max_fires`. The stream is
//!   derived from an **explicit seed, never entropy**, so a chaos run is a
//!   pure function of `(seed, operation sequence)` and replays bit-for-bit.

use crate::lock;
use std::collections::HashMap;
use std::sync::{Arc, Mutex};

/// Where a fault can be injected.
///
/// The discriminant is the site's stable stream index for seeded
/// schedules: new sites take new numbers and a retired site's number (4,
/// the async-controller evaluation; 8, the serve-registry publish; 10, the
/// prefetcher read) is never reused, so existing `(seed, site)` streams
/// stay unchanged.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultSite {
    /// A cache entry write (simulates ENOSPC / write failure).
    CacheWrite = 0,
    /// A cache entry read (the bytes read back are corrupted).
    CacheRead = 1,
    /// A checkpoint file write (simulates disk-full mid-save).
    CheckpointWrite = 2,
    /// A checkpoint file read (the bytes read back are corrupted).
    CheckpointRead = 3,
    /// One training step (the process "crashes" mid-epoch).
    TrainStep = 5,
    /// Serve admission: a probe submit is rejected at the queue boundary
    /// as if the engine were overloaded (the caller sheds to fallback).
    ServeAdmission = 6,
    /// Serve execution: a batched reference forward fails inside a worker
    /// (the requests in the batch resolve with an execution error).
    ServeExecute = 7,
    /// A reference-model activation capture fails.
    ReferenceCapture = 9,
    /// A pool/worker task panics mid-execution (the worker thread dies
    /// and must be respawned by its supervisor).
    PoolTaskPanic = 11,
}

impl FaultSite {
    /// Every site, in declaration order.
    pub const ALL: [FaultSite; 9] = [
        FaultSite::CacheWrite,
        FaultSite::CacheRead,
        FaultSite::CheckpointWrite,
        FaultSite::CheckpointRead,
        FaultSite::TrainStep,
        FaultSite::ServeAdmission,
        FaultSite::ServeExecute,
        FaultSite::ReferenceCapture,
        FaultSite::PoolTaskPanic,
    ];

    /// The site's stable stream index (its discriminant).
    pub fn stream_index(self) -> u64 {
        self as u64
    }
}

/// What the injected fault does.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultAction {
    /// The operation fails outright (I/O error / crash / dead thread).
    Fail,
    /// The operation's bytes are corrupted (a bit flip in the payload).
    CorruptBytes,
}

/// splitmix64: seeds the xorshift state (never zero for a nonzero output
/// stream) and derives independent per-site sub-seeds from a master seed.
pub(crate) fn splitmix64(state: u64) -> u64 {
    let mut z = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// One xorshift64* draw; mutates the stream state in place.
fn xorshift64star(state: &mut u64) -> u64 {
    let mut x = *state;
    x ^= x >> 12;
    x ^= x << 25;
    x ^= x >> 27;
    *state = x;
    x.wrapping_mul(0x2545_F491_4F6C_DD1D)
}

#[derive(Debug, Clone, Copy)]
enum Plan {
    /// Skip `skip` operations, then fire `fire` times, then pass forever.
    Counter {
        skip: usize,
        fire: usize,
        action: FaultAction,
        seen: usize,
        fired: usize,
    },
    /// Fire each operation with probability `rate_permille`/1000, drawn
    /// from a dedicated xorshift64* stream, capped at `max_fires`.
    Seeded {
        state: u64,
        rate_permille: u32,
        max_fires: usize,
        action: FaultAction,
        fired: usize,
    },
}

/// Deterministic, thread-shared fault injector.
///
/// Cloneable via `Arc`; all methods take `&self`.
#[derive(Debug, Default)]
pub struct FaultInjector {
    plans: Mutex<HashMap<FaultSite, Plan>>,
    injected: Mutex<HashMap<FaultSite, usize>>,
}

impl FaultInjector {
    /// Creates an injector with no armed faults.
    pub fn new() -> Arc<Self> {
        Arc::new(FaultInjector::default())
    }

    /// Arms a site: the first `skip` operations pass through, the next
    /// `fire` operations inject `action`, everything after passes again.
    /// Re-arming a site replaces its previous plan and counters.
    pub fn arm(&self, site: FaultSite, skip: usize, fire: usize, action: FaultAction) {
        lock(&self.plans).insert(
            site,
            Plan::Counter {
                skip,
                fire,
                action,
                seen: 0,
                fired: 0,
            },
        );
    }

    /// Arms a site with a seeded randomized schedule: each operation fires
    /// with probability `rate_permille`/1000, drawn from a xorshift64*
    /// stream derived from `seed` (and the site's stable stream index, so
    /// one master seed gives every site an independent stream), capped at
    /// `max_fires` total injections. Re-arming replaces the previous plan.
    pub fn arm_seeded(
        &self,
        site: FaultSite,
        seed: u64,
        rate_permille: u32,
        max_fires: usize,
        action: FaultAction,
    ) {
        let state = splitmix64(seed ^ splitmix64(site.stream_index()));
        lock(&self.plans).insert(
            site,
            Plan::Seeded {
                // splitmix64 output is zero only for one input; re-mix so
                // the xorshift stream can never get stuck at zero.
                state: if state == 0 { splitmix64(1) } else { state },
                rate_permille,
                max_fires,
                action,
                fired: 0,
            },
        );
    }

    /// Records one operation at `site` and returns the action to inject,
    /// if any. Components call this at each injection point.
    pub fn check(&self, site: FaultSite) -> Option<FaultAction> {
        let mut plans = lock(&self.plans);
        let plan = plans.get_mut(&site)?;
        let injected = match plan {
            Plan::Counter {
                skip,
                fire,
                action,
                seen,
                fired,
            } => {
                let idx = *seen;
                *seen += 1;
                if idx < *skip || *fired >= *fire {
                    None
                } else {
                    *fired += 1;
                    Some(*action)
                }
            }
            Plan::Seeded {
                state,
                rate_permille,
                max_fires,
                action,
                fired,
            } => {
                // Draw even when saturated so the stream position stays a
                // pure function of the operation count.
                let draw = xorshift64star(state);
                if *fired < *max_fires && draw % 1000 < u64::from(*rate_permille) {
                    *fired += 1;
                    Some(*action)
                } else {
                    None
                }
            }
        };
        drop(plans);
        if let Some(action) = injected {
            *lock(&self.injected).entry(site).or_insert(0) += 1;
            return Some(action);
        }
        None
    }

    /// Convenience: `check` for sites whose only sensible action is `Fail`.
    pub fn should_fail(&self, site: FaultSite) -> bool {
        matches!(self.check(site), Some(FaultAction::Fail))
    }

    /// How many faults have been injected at `site` so far.
    pub fn injected(&self, site: FaultSite) -> usize {
        lock(&self.injected).get(&site).copied().unwrap_or(0)
    }

    /// Total faults injected across all sites.
    pub fn injected_total(&self) -> usize {
        lock(&self.injected).values().sum()
    }

    /// Flips one bit in the middle of `bytes` (the canonical
    /// [`FaultAction::CorruptBytes`] effect). No-op on an empty buffer.
    pub fn corrupt(bytes: &mut [u8]) {
        if let Some(mid) = bytes.len().checked_sub(1) {
            bytes[mid / 2] ^= 0x20;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unarmed_sites_never_inject() {
        let f = FaultInjector::new();
        for _ in 0..100 {
            assert!(f.check(FaultSite::CacheWrite).is_none());
        }
        assert_eq!(f.injected_total(), 0);
    }

    #[test]
    fn skip_then_fire_window() {
        let f = FaultInjector::new();
        f.arm(FaultSite::CacheWrite, 3, 2, FaultAction::Fail);
        let hits: Vec<bool> = (0..8)
            .map(|_| f.check(FaultSite::CacheWrite).is_some())
            .collect();
        assert_eq!(
            hits,
            vec![false, false, false, true, true, false, false, false]
        );
        assert_eq!(f.injected(FaultSite::CacheWrite), 2);
    }

    #[test]
    fn sites_are_independent() {
        let f = FaultInjector::new();
        f.arm(FaultSite::CacheRead, 0, 1, FaultAction::CorruptBytes);
        assert!(f.check(FaultSite::CacheWrite).is_none());
        assert_eq!(
            f.check(FaultSite::CacheRead),
            Some(FaultAction::CorruptBytes)
        );
        assert!(f.check(FaultSite::CacheRead).is_none());
    }

    #[test]
    fn corrupt_flips_exactly_one_bit() {
        let clean = vec![0u8; 9];
        let mut dirty = clean.clone();
        FaultInjector::corrupt(&mut dirty);
        let flipped: u32 = clean
            .iter()
            .zip(dirty.iter())
            .map(|(a, b)| (a ^ b).count_ones())
            .sum();
        assert_eq!(flipped, 1);
        // Empty buffers are left alone.
        let mut empty: Vec<u8> = Vec::new();
        FaultInjector::corrupt(&mut empty);
        assert!(empty.is_empty());
    }

    #[test]
    fn rearming_resets_counters() {
        let f = FaultInjector::new();
        f.arm(FaultSite::TrainStep, 0, 1, FaultAction::Fail);
        assert!(f.should_fail(FaultSite::TrainStep));
        assert!(!f.should_fail(FaultSite::TrainStep));
        f.arm(FaultSite::TrainStep, 0, 1, FaultAction::Fail);
        assert!(f.should_fail(FaultSite::TrainStep));
        assert_eq!(f.injected(FaultSite::TrainStep), 2);
    }

    fn seeded_pattern(seed: u64, ops: usize) -> Vec<bool> {
        let f = FaultInjector::new();
        f.arm_seeded(FaultSite::ServeExecute, seed, 300, usize::MAX, FaultAction::Fail);
        (0..ops)
            .map(|_| f.check(FaultSite::ServeExecute).is_some())
            .collect()
    }

    #[test]
    fn seeded_schedule_is_reproducible() {
        let a = seeded_pattern(0xE6E51A, 256);
        let b = seeded_pattern(0xE6E51A, 256);
        assert_eq!(a, b);
        // A ~30% rate over 256 ops fires somewhere in the broad middle.
        let fires = a.iter().filter(|h| **h).count();
        assert!((20..=140).contains(&fires), "fires = {fires}");
    }

    #[test]
    fn different_seeds_give_different_streams() {
        assert_ne!(seeded_pattern(1, 256), seeded_pattern(2, 256));
    }

    #[test]
    fn seeded_sites_draw_independent_streams() {
        let f = FaultInjector::new();
        f.arm_seeded(FaultSite::CacheWrite, 7, 500, usize::MAX, FaultAction::Fail);
        f.arm_seeded(FaultSite::CacheRead, 7, 500, usize::MAX, FaultAction::CorruptBytes);
        let a: Vec<bool> = (0..128).map(|_| f.check(FaultSite::CacheWrite).is_some()).collect();
        let b: Vec<bool> = (0..128).map(|_| f.check(FaultSite::CacheRead).is_some()).collect();
        assert_ne!(a, b, "same master seed must still give per-site streams");
    }

    #[test]
    fn seeded_respects_max_fires() {
        let f = FaultInjector::new();
        f.arm_seeded(FaultSite::CacheWrite, 3, 1000, 4, FaultAction::Fail);
        let fires = (0..64)
            .filter(|_| f.check(FaultSite::CacheWrite).is_some())
            .count();
        assert_eq!(fires, 4);
        assert_eq!(f.injected(FaultSite::CacheWrite), 4);
    }

    #[test]
    fn seeded_zero_rate_never_fires() {
        let f = FaultInjector::new();
        f.arm_seeded(FaultSite::CheckpointRead, 9, 0, usize::MAX, FaultAction::Fail);
        assert!((0..256).all(|_| f.check(FaultSite::CheckpointRead).is_none()));
    }

    #[test]
    fn stream_index_survives_a_retired_site() {
        assert_eq!(FaultSite::CacheWrite.stream_index(), 0);
        // 4 was the async-controller evaluation, 8 the serve-registry
        // publish site and 10 the prefetcher read; their numbers stay
        // retired.
        assert_eq!(FaultSite::CheckpointRead.stream_index(), 3);
        assert_eq!(FaultSite::TrainStep.stream_index(), 5);
        assert_eq!(FaultSite::ServeExecute.stream_index(), 7);
        assert_eq!(FaultSite::ReferenceCapture.stream_index(), 9);
        assert_eq!(FaultSite::PoolTaskPanic.stream_index(), 11);
        assert_eq!(FaultSite::ALL.len(), 9);
        for retired in [4, 8, 10] {
            assert!(
                FaultSite::ALL.iter().all(|s| s.stream_index() != retired),
                "retired stream index {retired} was reused"
            );
        }
    }
}
