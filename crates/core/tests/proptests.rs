//! Property-based tests for the freezing state machine, the activation
//! cache, and the checkpoint container.

use egeria_core::bootstrap::BootstrapSnapshot;
use egeria_core::cache::ActivationCache;
use egeria_core::checkpoint::{self, CheckpointStore, TrainerCheckpoint};
use egeria_core::freezer::{FreezeEvent, FreezerSnapshot, FreezingEngine};
use egeria_core::plasticity::{PlasticityTracker, TrackerSnapshot};
use egeria_core::trainer::{EpochRecord, EventRecord, IterationRecord, PlasticityPoint};
use egeria_core::{EgeriaConfig, PolicyState};
use egeria_nn::optim::OptimizerState;
use egeria_tensor::{Rng, Tensor};
use proptest::prelude::*;

/// A deterministic, seed-varied checkpoint with every optional section
/// toggled independently.
fn random_checkpoint(seed: u64) -> TrainerCheckpoint {
    let mut rng = Rng::new(seed);
    let n_params = 1 + rng.below(4);
    let params: Vec<(String, Tensor)> = (0..n_params)
        .map(|i| {
            let rows = 1 + rng.below(3);
            (format!("p{i}"), Tensor::randn(&[rows, 2], &mut rng))
        })
        .collect();
    let slots = vec![(
        "velocity".to_string(),
        params
            .iter()
            .map(|(n, t)| (n.clone(), Tensor::randn(&[t.dims()[0], 2], &mut rng)))
            .collect::<Vec<_>>(),
    )];
    let freezer = rng.flip().then(|| FreezerSnapshot {
        front: rng.below(3),
        lr_at_first_freeze: rng.flip().then(|| rng.uniform()),
        relaxed: rng.flip(),
        evaluations: rng.below(50),
        trackers: (0..3)
            .map(|_| TrackerSnapshot {
                raw: (0..rng.below(6)).map(|_| rng.normal()).collect(),
                smoothed: (0..rng.below(6)).map(|_| rng.normal()).collect(),
                stale: rng.below(4),
            })
            .collect(),
        policy: PolicyState {
            kind: ["paper", "learned", "interval", "never", "regression"]
                [rng.below(5)]
            .to_string(),
            scalars: (0..rng.below(4)).map(|_| rng.normal()).collect(),
            counters: (0..rng.below(4)).map(|_| rng.below(100) as u64).collect(),
        },
    });
    let bootstrap = rng.flip().then(|| BootstrapSnapshot {
        losses: (0..rng.below(12)).map(|_| rng.uniform() * 4.0).collect(),
        done: rng.flip(),
    });
    let reference = rng.flip().then(|| egeria_core::reference::ReferenceSnapshot {
        params: params.clone(),
        state_buffers: vec![Tensor::randn(&[2], &mut rng)],
    });
    TrainerCheckpoint {
        model_name: format!("model-{}", seed % 10),
        next_epoch: rng.below(100) as u64,
        global_step: rng.below(10_000) as u64,
        evals_since_ref_update: rng.below(16) as u64,
        params,
        state_buffers: vec![Tensor::randn(&[3], &mut rng)],
        optimizer: OptimizerState {
            kind: "sgd".into(),
            lr: rng.uniform(),
            step_count: rng.below(1000) as u64,
            slots,
        },
        freezer,
        bootstrap,
        reference,
        epochs: (0..rng.below(4))
            .map(|e| EpochRecord {
                epoch: e,
                train_loss: rng.uniform(),
                val_loss: rng.flip().then(|| rng.uniform()),
                val_metric: None,
                lr: rng.uniform(),
                frozen_prefix: rng.below(3),
                active_param_fraction: rng.uniform(),
            })
            .collect(),
        iterations: (0..rng.below(8))
            .map(|_| IterationRecord {
                epoch: rng.below(4) as u32,
                frozen_prefix: rng.below(3) as u16,
                fp_cached: rng.flip(),
            })
            .collect(),
        plasticity: (0..rng.below(5))
            .map(|_| PlasticityPoint {
                iteration: rng.below(500),
                module: rng.below(4),
                raw: rng.uniform(),
                smoothed: rng.uniform(),
            })
            .collect(),
        events: (0..rng.below(3))
            .map(|_| EventRecord {
                iteration: rng.below(500),
                kind: "freeze".into(),
                prefix: rng.below(4),
            })
            .collect(),
        input_bytes: rng.below(1 << 30) as u64,
        cache_store: if rng.flip() { "flat" } else { "chunked" }.to_string(),
    }
}

fn checkpoints_equal(a: &TrainerCheckpoint, b: &TrainerCheckpoint) -> bool {
    a.model_name == b.model_name
        && a.next_epoch == b.next_epoch
        && a.global_step == b.global_step
        && a.evals_since_ref_update == b.evals_since_ref_update
        && a.cache_store == b.cache_store
        && a.params == b.params
        && a.state_buffers == b.state_buffers
        && a.optimizer.kind == b.optimizer.kind
        && a.optimizer.lr == b.optimizer.lr
        && a.optimizer.step_count == b.optimizer.step_count
        && a.optimizer.slots == b.optimizer.slots
        && a.freezer == b.freezer
        && a.bootstrap == b.bootstrap
        && a.reference.as_ref().map(|r| (&r.params, &r.state_buffers))
            == b.reference.as_ref().map(|r| (&r.params, &r.state_buffers))
        && a.epochs.len() == b.epochs.len()
        && a.iterations.len() == b.iterations.len()
        && a.plasticity.len() == b.plasticity.len()
        && a.events.len() == b.events.len()
        && a.input_bytes == b.input_bytes
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn frozen_prefix_is_monotone_between_unfreezes(seed in any::<u64>(), evals in 10usize..80) {
        let cfg = EgeriaConfig {
            w: 4,
            s: 3,
            t: 5.0,
            ..Default::default()
        };
        let mut engine = FreezingEngine::new(5, &cfg);
        let mut rng = Rng::new(seed);
        let mut prev = 0usize;
        for _ in 0..evals {
            let a = Tensor::randn(&[4, 6], &mut rng);
            let noise = Tensor::randn(&[4, 6], &mut rng).mul_scalar(0.05);
            let b = a.add(&noise).unwrap();
            let (_, ev) = engine.observe(&a, &b, 0.1).unwrap();
            match ev {
                FreezeEvent::Unfroze => prev = 0,
                _ => {
                    prop_assert!(engine.front() >= prev);
                    prev = engine.front();
                }
            }
            prop_assert!(engine.front() < 5, "tail module must stay active");
        }
    }

    #[test]
    fn tracker_never_converges_on_strong_trends(step in 0.5f32..5.0, w in 3usize..10) {
        let mut t = PlasticityTracker::new(w, 3, 1.0);
        for i in 0..40 {
            let o = t.observe_value(100.0 - step * i as f32).unwrap();
            prop_assert!(!o.converged, "converged on a strong trend at {}", i);
        }
    }

    #[test]
    fn tracker_converges_on_trendless_noise(seed in any::<u64>()) {
        let mut rng = Rng::new(seed);
        let mut t = PlasticityTracker::new(6, 5, 1.5);
        let mut converged = false;
        for _ in 0..80 {
            converged |= t.observe_value(1.0 + 0.2 * rng.normal()).unwrap().converged;
        }
        prop_assert!(converged, "never converged on stationary noise");
    }

    #[test]
    fn cache_round_trips_arbitrary_batches(
        seed in any::<u64>(),
        ids in prop::collection::hash_set(0u64..1000, 1..12),
    ) {
        let ids: Vec<u64> = ids.into_iter().collect();
        let dir = std::env::temp_dir().join(format!(
            "egeria_prop_cache_{}_{}",
            std::process::id(),
            seed
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let mut cache = ActivationCache::new(&dir, 3).unwrap();
        let mut rng = Rng::new(seed);
        let act = Tensor::randn(&[ids.len(), 2, 3], &mut rng);
        cache.put_batch(&ids, &act, 1).unwrap();
        let got = cache.get_batch(&ids, 1).unwrap().unwrap();
        prop_assert_eq!(got, act);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn checkpoint_round_trip_is_exact(seed in any::<u64>()) {
        let ckpt = random_checkpoint(seed);
        let bytes = checkpoint::to_bytes(&ckpt);
        let back = checkpoint::from_bytes(&bytes).unwrap();
        prop_assert!(checkpoints_equal(&ckpt, &back));
    }

    #[test]
    fn checkpoint_rejects_any_byte_flip(seed in any::<u64>(), pos in any::<usize>(), bit in 0u8..8) {
        let bytes = checkpoint::to_bytes(&random_checkpoint(seed));
        let mut bad = bytes.clone();
        let i = pos % bad.len();
        bad[i] ^= 1 << bit;
        prop_assert!(
            checkpoint::from_bytes(&bad).is_err(),
            "flip of bit {} at byte {} went undetected", bit, i
        );
    }

    #[test]
    fn checkpoint_rejects_any_truncation(seed in any::<u64>(), cut in any::<usize>()) {
        let bytes = checkpoint::to_bytes(&random_checkpoint(seed));
        let keep = cut % bytes.len();
        prop_assert!(checkpoint::from_bytes(&bytes[..keep]).is_err());
    }

    #[test]
    fn corrupted_latest_checkpoint_falls_back(seed in any::<u64>(), pos in any::<usize>()) {
        let dir = std::env::temp_dir().join(format!(
            "egeria_prop_ckpt_{}_{}",
            std::process::id(),
            seed
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let mut store = CheckpointStore::open(&dir, 3).unwrap();
        let mut ckpt = random_checkpoint(seed);
        ckpt.next_epoch = 1;
        store.save(&ckpt).unwrap();
        ckpt.next_epoch = 2;
        let latest = store.save(&ckpt).unwrap();
        let mut bytes = std::fs::read(&latest).unwrap();
        let i = pos % bytes.len();
        bytes[i] ^= 0x10;
        std::fs::write(&latest, &bytes).unwrap();
        // The corrupt newest file is skipped; the previous checkpoint wins.
        let loaded = store.load_latest().unwrap();
        prop_assert_eq!(loaded.next_epoch, 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn cache_misses_on_prefix_mismatch(seed in any::<u64>(), p1 in 1usize..5, p2 in 1usize..5) {
        prop_assume!(p1 != p2);
        let dir = std::env::temp_dir().join(format!(
            "egeria_prop_prefix_{}_{}",
            std::process::id(),
            seed
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let mut cache = ActivationCache::new(&dir, 3).unwrap();
        cache.put_batch(&[1, 2], &Tensor::ones(&[2, 4]), p1).unwrap();
        prop_assert!(cache.get_batch(&[1, 2], p2).unwrap().is_none());
        prop_assert!(cache.get_batch(&[1, 2], p1).unwrap().is_some());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
