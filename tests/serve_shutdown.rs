//! Shutdown ordering for the serving subsystem (companion to
//! `tests/crash_resume.rs`: that file pins crash *recovery*, this one pins
//! clean teardown).
//!
//! The contract: dropping a [`ServeEngine`] resolves every still-pending
//! ticket with [`ServeError::Shutdown`] and joins its threads within a
//! bound — a stuck serve worker must never hang or outlive its owner.

use egeria_core::Telemetry;
use egeria_models::resnet::{resnet_cifar, ResNetCifarConfig};
use egeria_models::{Batch, Input, Model, Targets};
use egeria_quant::Precision;
use egeria_serve::{ProbeRequest, RealClock, ServeConfig, ServeEngine, ServeError};
use egeria_tensor::{Rng, Tensor};
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
