//! Property tests for the [`egeria_core::FreezePolicy`] contract
//! (DESIGN §5i), driven through the real [`FreezingEngine`] on arbitrary
//! plasticity/LR sequences:
//!
//! * one-way policies (`is_one_way`) keep a monotone frozen front and
//!   never emit an unfreeze, whatever the plasticity or LR does;
//! * no policy ever freezes the tail module, even under maximally
//!   freeze-friendly input (the engine's tail guard, not policy courtesy);
//! * `snapshot → restore → replay` into a fresh engine reproduces the
//!   remaining decision timeline bit-for-bit for every policy.

use egeria_core::config::UnfreezePolicy;
use egeria_core::freezer::{FreezeEvent, FreezingEngine};
use egeria_core::{EgeriaConfig, PolicyKind};
use egeria_tensor::Rng;
use proptest::prelude::*;

/// Every selectable policy kind (the scenario-harness matrix).
const ALL_KINDS: [PolicyKind; 5] = [
    PolicyKind::Paper,
    PolicyKind::Learned,
    PolicyKind::Interval { every: 3 },
    PolicyKind::NeverFreeze,
    PolicyKind::RegressionAware,
];

fn cfg_for(kind: PolicyKind, unfreeze: UnfreezePolicy) -> EgeriaConfig {
    EgeriaConfig {
        w: 3,
        s: 2,
        t: 5.0,
        policy: kind,
        unfreeze,
        ..Default::default()
    }
}

/// A regime-switching plasticity series: calm stretches (which induce
/// freezes), occasional level jumps (which induce rebounds), mild
/// multiplicative noise throughout. Deterministic in `seed`.
fn plasticity_series(seed: u64, len: usize) -> Vec<f32> {
    let mut rng = Rng::new(seed);
    let mut level = 0.5 + rng.uniform() * 2.0;
    (0..len)
        .map(|_| {
            if rng.below(8) == 0 {
                level = 0.5 + rng.uniform() * 2.0;
            }
            (level * (1.0 + 0.05 * rng.normal())).max(0.01)
        })
        .collect()
}

/// A step LR schedule: 0.1 until `drop_at`, then a ≥10× decayed rate that
/// arms the paper LR-reboot rule for two-way policies.
fn lr_at(i: usize, drop_at: usize) -> f32 {
    if i < drop_at {
        0.1
    } else {
        0.008
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// One-way policies never reopen the front: the frozen prefix is
    /// monotone non-decreasing and no `Unfroze` event appears, even when
    /// the LR decays past the reboot threshold mid-run. (The paper policy
    /// is one-way exactly when configured with `UnfreezePolicy::Never`.)
    #[test]
    fn one_way_policies_keep_a_monotone_front(
        seed in any::<u64>(),
        len in 24usize..80,
        modules in 2usize..6,
        kind_idx in 0usize..4,
    ) {
        let kinds = [
            PolicyKind::Paper,
            PolicyKind::Learned,
            PolicyKind::Interval { every: 3 },
            PolicyKind::NeverFreeze,
        ];
        let cfg = cfg_for(kinds[kind_idx], UnfreezePolicy::Never);
        let mut engine = FreezingEngine::new(modules, &cfg);
        let values = plasticity_series(seed, len);
        let mut prev = 0usize;
        for (i, &v) in values.iter().enumerate() {
            let (_, ev) = engine.observe_value(v, lr_at(i, len / 2)).unwrap();
            prop_assert!(
                ev != FreezeEvent::Unfroze,
                "one-way policy {} unfroze", engine.policy_name()
            );
            prop_assert!(
                engine.front() >= prev,
                "front regressed {} -> {} under one-way policy {}",
                prev, engine.front(), engine.policy_name()
            );
            prev = engine.front();
        }
    }

    /// The tail module stays active under every policy, even on perfectly
    /// flat plasticity (which makes each policy maximally freeze-happy —
    /// the interval baseline asks to freeze every third evaluation
    /// forever). The engine's tail guard, not the policies, enforces this.
    #[test]
    fn no_policy_ever_freezes_the_tail_module(
        seed in any::<u64>(),
        modules in 2usize..5,
        kind_idx in 0usize..5,
    ) {
        let cfg = cfg_for(ALL_KINDS[kind_idx], UnfreezePolicy::LrAnnealing);
        let mut engine = FreezingEngine::new(modules, &cfg);
        let mut rng = Rng::new(seed);
        for _ in 0..60 {
            let v = (1.0 + 0.01 * rng.normal()).max(0.01);
            engine.observe_value(v, 0.1).unwrap();
            prop_assert!(
                engine.front() < modules,
                "policy {} froze the tail module (front {} of {})",
                engine.policy_name(), engine.front(), modules
            );
        }
    }

    /// Checkpoint fidelity: snapshot the engine mid-run, restore into a
    /// fresh engine, and replay the rest of the sequence — both engines
    /// must emit identical observations, events, and fronts at every step,
    /// and end on identical snapshots. This is what makes a crash/resume
    /// replay the freeze timeline exactly for *stateful* policies (the
    /// regression-aware watch window, the learned hot streak).
    #[test]
    fn snapshot_restore_replays_identical_decisions(
        seed in any::<u64>(),
        len in 30usize..80,
        cut in 1usize..30,
        drop_at in 10usize..60,
        modules in 3usize..6,
        kind_idx in 0usize..5,
    ) {
        let cfg = cfg_for(ALL_KINDS[kind_idx], UnfreezePolicy::LrAnnealing);
        let values = plasticity_series(seed, len);
        let cut = cut.min(len - 1);

        let mut original = FreezingEngine::new(modules, &cfg);
        for (i, &v) in values[..cut].iter().enumerate() {
            original.observe_value(v, lr_at(i, drop_at)).unwrap();
        }
        let snap = original.snapshot();
        let mut restored = FreezingEngine::new(modules, &cfg);
        restored.restore(&snap).unwrap();
        prop_assert_eq!(&restored.snapshot(), &snap, "restore is not lossless");

        for (i, &v) in values.iter().enumerate().skip(cut) {
            let lr = lr_at(i, drop_at);
            let (obs_a, ev_a) = original.observe_value(v, lr).unwrap();
            let (obs_b, ev_b) = restored.observe_value(v, lr).unwrap();
            prop_assert_eq!(obs_a, obs_b, "observation diverged at step {}", i);
            prop_assert_eq!(ev_a, ev_b, "event diverged at step {}", i);
            prop_assert_eq!(
                original.front(), restored.front(),
                "front diverged at step {}", i
            );
        }
        prop_assert_eq!(original.snapshot(), restored.snapshot());
    }
}
