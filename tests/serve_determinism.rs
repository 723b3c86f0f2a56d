//! Serving determinism: batched execution is bit-identical to singleton
//! execution, however requests coalesce (DESIGN.md §5e).
//!
//! This is the serve == singleton oracle: a plasticity probe answered
//! through the serve engine must produce the same activation bits as the
//! direct reference forward (`ReferenceManager::capture`'s one path),
//! regardless of how the micro-batcher groups it with other probes, at
//! any precision and any `EGERIA_THREADS` setting (the tensor pool's
//! fixed-geometry partitioning carries the thread-count half of the
//! claim; these tests carry the coalescing half).

use egeria_models::resnet::{resnet_cifar, ResNetCifarConfig};
use egeria_models::{Batch, Input, Model, Targets};
use egeria_quant::{quantize_reference, Precision};
use egeria_serve::engine::ProbeRequest;
use egeria_serve::{exec, RealClock, ServeConfig, ServeEngine, VirtualClock};
use egeria_tensor::{Rng, Tensor};
use proptest::prelude::*;
use std::sync::Arc;
use std::time::Duration;

fn model() -> impl Model {
    resnet_cifar(
        ResNetCifarConfig {
            n: 2,
            width: 4,
            classes: 4,
            ..Default::default()
        },
        77,
    )
}

fn image_batch(rng: &mut Rng, rows: usize) -> Batch {
    Batch {
        input: Input::Image(Tensor::randn(&[rows, 3, 8, 8], rng)),
        targets: Targets::Classes((0..rows).map(|i| i % 4).collect()),
        sample_ids: (0..rows as u64).collect(),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Exec level: any partition of probe requests, coalesced through
    /// merge → one forward → split, equals singleton forwards bit for bit
    /// at both serving precisions.
    #[test]
    fn any_coalescing_is_bit_identical_to_singletons(
        seed in any::<u64>(),
        n_requests in 2usize..6,
        module in 0usize..3,
    ) {
        let mut rng = Rng::new(seed);
        let parts: Vec<Batch> = (0..n_requests)
            .map(|_| { let rows = 1 + rng.below(3); image_batch(&mut rng, rows) })
            .collect();
        let refs: Vec<&Batch> = parts.iter().collect();
        for precision in [Precision::F32, Precision::Int8] {
            let m = model();
            let mut grouped_model = quantize_reference(&m, precision).unwrap();
            let mut merged = false;
            let grouped =
                exec::execute_group(grouped_model.as_mut(), module, &refs, &mut merged)
                    .unwrap();
            prop_assert!(merged, "same-geometry image probes must coalesce");
            let mut singleton_model = quantize_reference(&m, precision).unwrap();
            for (part, got) in refs.iter().zip(&grouped) {
                let want = singleton_model.capture_activation(part, module).unwrap();
                prop_assert_eq!(
                    got.data(), want.data(),
                    "coalesced != singleton at {:?} module {}", precision, module
                );
            }
        }
    }

    /// Engine level: N probes submitted through the full admission →
    /// batcher → worker path, under a randomized batching policy, resolve
    /// to the same bits as sequential inline captures.
    #[test]
    fn engine_path_matches_inline_under_any_policy(
        seed in any::<u64>(),
        n_requests in 2usize..6,
        max_batch in 1usize..5,
        workers in 1usize..3,
    ) {
        let mut rng = Rng::new(seed);
        let parts: Vec<Batch> = (0..n_requests)
            .map(|_| { let rows = 1 + rng.below(3); image_batch(&mut rng, rows) })
            .collect();
        for precision in [Precision::F32, Precision::Int8] {
            let m = model();
            let engine = ServeEngine::new(
                ServeConfig {
                    workers,
                    max_batch,
                    max_wait: Duration::from_secs(10),
                    ..ServeConfig::default()
                },
                RealClock::shared(),
                egeria_obs::Telemetry::disabled(),
            );
            engine.publish(&m, precision).unwrap();
            let tickets: Vec<_> = parts
                .iter()
                .map(|b| {
                    engine
                        .submit(ProbeRequest { batch: b.clone(), module: 1, deadline: None })
                        .unwrap()
                })
                .collect();
            engine.flush();
            let mut inline = quantize_reference(&m, precision).unwrap();
            for (part, ticket) in parts.iter().zip(tickets) {
                let got = ticket.wait().unwrap();
                let want = inline.capture_activation(part, 1).unwrap();
                prop_assert_eq!(
                    got.activation.data(), want.data(),
                    "engine != inline at {:?} max_batch {}", precision, max_batch
                );
            }
        }
    }
}

/// Flush-on-deadline through the whole engine, timed by a virtual clock:
/// an under-full group executes once virtual time passes `max_wait`, and
/// not because wall time elapsed (wall waits only wake the dispatcher to
/// re-read the virtual clock).
#[test]
fn engine_flushes_on_virtual_deadline() {
    let clock = VirtualClock::shared();
    let engine = ServeEngine::new(
        ServeConfig {
            max_batch: 64,
            max_wait: Duration::from_micros(500),
            ..ServeConfig::default()
        },
        Arc::clone(&clock) as Arc<dyn egeria_serve::Clock>,
        egeria_obs::Telemetry::disabled(),
    );
    let m = model();
    engine.publish(&m, Precision::F32).unwrap();
    let mut rng = Rng::new(5);
    let ticket = engine
        .submit(ProbeRequest { batch: image_batch(&mut rng, 2), module: 0, deadline: None })
        .unwrap();
    // Group of 1 out of 64: only the (virtual) deadline can flush it. The
    // submission races with the dispatcher's receive, so a single advance
    // could land before the group forms (leaving its deadline forever in
    // the virtual future); keep nudging the clock until the flush fires.
    let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
    let advancer = {
        let clock = Arc::clone(&clock);
        let stop = Arc::clone(&stop);
        // egeria-lint: allow(determinism): test thread driving the virtual
        // clock past the batch deadline.
        std::thread::spawn(move || {
            while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                clock.advance_us(1_000);
                std::thread::sleep(std::time::Duration::from_millis(1));
            }
        })
    };
    let resp = ticket.wait().unwrap();
    stop.store(true, std::sync::atomic::Ordering::Relaxed);
    advancer.join().unwrap();
    assert_eq!(resp.batch_size, 1);
    assert_eq!(resp.snapshot_version, 1);
}

/// Shed-on-overflow through the whole engine: with the submission queue
/// saturated (no dispatcher progress while the virtual clock is stalled
/// and nothing flushes), admission fails typed instead of blocking.
#[test]
fn engine_sheds_when_submission_queue_overflows() {
    let clock = VirtualClock::shared();
    let engine = ServeEngine::new(
        ServeConfig {
            max_batch: 1024,
            max_wait: Duration::from_secs(3600),
            queue_depth: 4,
            ..ServeConfig::default()
        },
        Arc::clone(&clock) as Arc<dyn egeria_serve::Clock>,
        egeria_obs::Telemetry::disabled(),
    );
    let m = model();
    engine.publish(&m, Precision::F32).unwrap();
    let mut rng = Rng::new(6);
    // Far more submissions than queue_depth (4) + the batcher's pending
    // budget (2 × queue_depth = 8). A shed surfaces either at admission
    // (submission queue full) or on the ticket (batcher budget full) —
    // which one depends on dispatcher drain timing, but every request
    // beyond the bounded budgets must shed with the typed Overloaded
    // error, and nothing may block.
    let mut admission_sheds = 0;
    let mut tickets = Vec::new();
    for _ in 0..64 {
        match engine.submit(ProbeRequest {
            batch: image_batch(&mut rng, 1),
            module: 0,
            deadline: None,
        }) {
            Ok(t) => tickets.push(t),
            Err(egeria_serve::ServeError::Overloaded { .. }) => admission_sheds += 1,
            Err(other) => panic!("expected Overloaded, got {other}"),
        }
    }
    engine.flush();
    clock.advance_us(10);
    let mut successes = 0;
    let mut ticket_sheds = 0;
    for t in tickets {
        match t.wait() {
            Ok(_) => successes += 1,
            Err(egeria_serve::ServeError::Overloaded { .. }) => ticket_sheds += 1,
            Err(other) => panic!("expected success or Overloaded, got {other}"),
        }
    }
    assert!(
        successes <= 12,
        "at most queue_depth + pending budget can be in flight, got {successes}"
    );
    assert_eq!(admission_sheds + ticket_sheds, 64 - successes);
    assert!(
        admission_sheds + ticket_sheds >= 52,
        "everything beyond the bounded budgets must shed"
    );
}
