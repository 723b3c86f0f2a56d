//! Shutdown ordering for the serving and controller subsystems
//! (companion to `tests/crash_resume.rs`: that file pins crash *recovery*,
//! this one pins clean teardown).
//!
//! The contracts:
//!
//! - Dropping a [`ServeEngine`] resolves every still-pending ticket with
//!   [`ServeError::Shutdown`] and joins its threads within a bound — a
//!   stuck serve worker must never hang or outlive the trainer.
//! - Dropping an [`AsyncController`] is bounded even when the controller
//!   thread is blocked publishing into a full result queue (the drop
//!   drains results while it waits — without that, every such drop ate
//!   the full 2 s timeout and leaked the thread).

use egeria_core::controller::AsyncController;
use egeria_core::reference::ReferenceManager;
use egeria_core::{EgeriaConfig, Telemetry};
use egeria_models::resnet::{resnet_cifar, ResNetCifarConfig};
use egeria_models::{Batch, Input, Model, Targets};
use egeria_quant::Precision;
use egeria_serve::{ProbeRequest, RealClock, ServeConfig, ServeEngine, ServeError};
use egeria_tensor::{Rng, Tensor};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn model() -> Box<dyn Model> {
    Box::new(resnet_cifar(
        ResNetCifarConfig {
            n: 2,
            width: 4,
            classes: 4,
            ..Default::default()
        },
        11,
    ))
}

fn batch(seed: u64) -> Batch {
    let mut rng = Rng::new(seed);
    Batch {
        input: Input::Image(Tensor::randn(&[2, 3, 8, 8], &mut rng)),
        targets: Targets::Classes(vec![0, 1]),
        sample_ids: vec![seed * 2, seed * 2 + 1],
    }
}

#[test]
fn engine_drop_resolves_queued_tickets_within_bound() {
    let engine = ServeEngine::new(
        ServeConfig {
            // Nothing can flush on its own: the only way out is shutdown.
            max_batch: 1024,
            max_wait: Duration::from_secs(3600),
            ..ServeConfig::default()
        },
        RealClock::shared(),
        Telemetry::disabled(),
    );
    engine.publish(model().as_ref(), Precision::F32).unwrap();
    let tickets: Vec<_> = (0..8)
        .map(|i| {
            engine
                .submit(ProbeRequest {
                    batch: batch(i),
                    module: 0,
                    deadline: None,
                })
                .unwrap()
        })
        .collect();
    let start = Instant::now();
    drop(engine);
    let elapsed = start.elapsed();
    assert!(
        elapsed < Duration::from_millis(1500),
        "engine drop must be bounded, took {elapsed:?}"
    );
    for t in tickets {
        assert_eq!(t.wait().unwrap_err(), ServeError::Shutdown);
    }
}

#[test]
fn controller_drop_with_full_result_queue_is_bounded() {
    let mut refmgr = ReferenceManager::new(&EgeriaConfig::default());
    refmgr.generate(model().as_ref()).unwrap();
    // Always-busy gate: every eval is answered immediately (no reference
    // forward), so results pile up as fast as we can submit them.
    let mut ctrl = AsyncController::spawn(refmgr, 0.5, Arc::new(|| 1.0), None, Telemetry::disabled());
    let mut m = model();
    let act = m.capture_activation(&batch(0), 0).unwrap();
    // The result queue holds 64; keep submitting until the controller has
    // unambiguously produced more results than that without anyone
    // draining, i.e. its thread is parked in `result_tx.send`. (Capped
    // well below the ~97 where a full TOQ would block `submit` itself.)
    let mut accepted = 0u64;
    let deadline = Instant::now() + Duration::from_secs(10);
    while accepted < 80 && Instant::now() < deadline {
        match ctrl.submit(batch(accepted), 0, act.clone()) {
            Some(_) => accepted += 1,
            None => std::thread::sleep(Duration::from_millis(1)),
        }
    }
    assert!(accepted >= 80, "could not saturate the result queue");
    // Give the controller a moment to fill the queue and block.
    std::thread::sleep(Duration::from_millis(50));
    let start = Instant::now();
    drop(ctrl);
    let elapsed = start.elapsed();
    assert!(
        elapsed < Duration::from_millis(1500),
        "controller drop must drain results and join, took {elapsed:?}"
    );
}

#[test]
fn respawned_controller_after_drop_still_works() {
    // The trainer's watchdog rebuilds a controller (with a fresh
    // reference manager) after the previous one died; teardown of the old
    // one must leave nothing behind that breaks the replacement.
    for round in 0..2 {
        let mut refmgr = ReferenceManager::new(&EgeriaConfig::default());
        refmgr.generate(model().as_ref()).unwrap();
        let mut ctrl = AsyncController::spawn(refmgr, 0.5, Arc::new(|| 0.0), None, Telemetry::disabled());
        let mut m = model();
        let act = m.capture_activation(&batch(round), 0).unwrap();
        let id = ctrl.submit(batch(round), 0, act).unwrap();
        let r = ctrl.wait_for(id).unwrap();
        assert!(r.value.is_some(), "round {round} evaluation failed");
    }
}
