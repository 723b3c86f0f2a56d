//! Serving-layer load benchmark: `BENCH_serve.json`.
//!
//! Drives a [`ServeEngine`] with the two canonical load shapes:
//!
//! - **open loop**: a paced generator submits probes at a fixed arrival
//!   rate regardless of completions (the shape that exposes queueing
//!   delay and shedding under overload), and
//! - **closed loop**: K clients each keep exactly one probe in flight
//!   (the trainer's own shape — `capture` blocks on its ticket).
//!
//! Each section reports client-measured latency percentiles (p50/p95/p99),
//! delivered throughput, shed counts, and the mean executed batch size.
//! Pass `--smoke` for a fast low-request run with the same report shape.

use egeria_bench::write_json;
use egeria_models::resnet::{resnet_cifar, ResNetCifarConfig};
use egeria_models::{Batch, Input, Targets};
use egeria_quant::Precision;
use egeria_serve::{ProbeRequest, RealClock, ServeConfig, ServeEngine};
use egeria_tensor::{Rng, Tensor};
use serde::Serialize;
use std::sync::mpsc;
use std::sync::Arc;
use std::time::{Duration, Instant};

#[derive(Serialize)]
struct LoadReport {
    submitted: u64,
    completed: u64,
    shed: u64,
    p50_us: u64,
    p95_us: u64,
    p99_us: u64,
    throughput_rps: f64,
    mean_batch_size: f64,
}

#[derive(Serialize)]
struct Report {
    workers: usize,
    max_batch: usize,
    max_wait_us: u64,
    queue_depth: usize,
    precision: String,
    open_loop: LoadReport,
    closed_loop: LoadReport,
}

fn probe_batch(rng: &mut Rng, rows: usize) -> Batch {
    Batch {
        input: Input::Image(Tensor::randn(&[rows, 3, 8, 8], rng)),
        targets: Targets::Classes((0..rows).map(|i| i % 8).collect()),
        sample_ids: (0..rows as u64).collect(),
    }
}

fn percentile(sorted_us: &[u64], p: f64) -> u64 {
    if sorted_us.is_empty() {
        return 0;
    }
    let idx = (p / 100.0 * (sorted_us.len() - 1) as f64).round() as usize;
    sorted_us[idx.min(sorted_us.len() - 1)]
}

fn finish(
    mut latencies_us: Vec<u64>,
    batch_size_sum: u64,
    submitted: u64,
    shed: u64,
    elapsed: Duration,
) -> LoadReport {
    latencies_us.sort_unstable();
    let completed = latencies_us.len() as u64;
    LoadReport {
        submitted,
        completed,
        shed,
        p50_us: percentile(&latencies_us, 50.0),
        p95_us: percentile(&latencies_us, 95.0),
        p99_us: percentile(&latencies_us, 99.0),
        throughput_rps: completed as f64 / elapsed.as_secs_f64().max(1e-9),
        mean_batch_size: batch_size_sum as f64 / completed.max(1) as f64,
    }
}

/// Paced submissions at a fixed arrival interval; a collector thread waits
/// on tickets in submission order (resolution is FIFO to within one batch,
/// so the collector never sits on an already-resolved ticket for long).
fn open_loop(engine: &Arc<ServeEngine>, requests: u64, interval: Duration) -> LoadReport {
    let (tx, rx) = mpsc::channel::<(Instant, egeria_serve::ProbeTicket)>();
    let collector = std::thread::spawn(move || {
        let mut latencies = Vec::new();
        let mut batch_size_sum = 0u64;
        let mut shed = 0u64;
        for (start, ticket) in rx {
            match ticket.wait() {
                Ok(resp) => {
                    latencies.push(start.elapsed().as_micros() as u64);
                    batch_size_sum += resp.batch_size as u64;
                }
                Err(_) => shed += 1,
            }
        }
        (latencies, batch_size_sum, shed)
    });
    let mut rng = Rng::new(17);
    let mut shed_at_admission = 0u64;
    let t0 = Instant::now();
    let mut next = t0;
    for i in 0..requests {
        let now = Instant::now();
        if now < next {
            std::thread::sleep(next - now);
        }
        next += interval;
        let batch = probe_batch(&mut rng, 2);
        let start = Instant::now();
        match engine.submit(ProbeRequest {
            batch,
            module: (i % 3) as usize,
            deadline: None,
        }) {
            Ok(ticket) => tx.send((start, ticket)).expect("collector died"),
            Err(_) => shed_at_admission += 1,
        }
    }
    drop(tx);
    let (latencies, batch_size_sum, shed_on_ticket) = collector.join().expect("collector panicked");
    let elapsed = t0.elapsed();
    finish(
        latencies,
        batch_size_sum,
        requests,
        shed_at_admission + shed_on_ticket,
        elapsed,
    )
}

/// K clients, each with exactly one probe in flight (submit → wait → next).
fn closed_loop(engine: &Arc<ServeEngine>, clients: usize, per_client: u64) -> LoadReport {
    let t0 = Instant::now();
    let handles: Vec<_> = (0..clients)
        .map(|c| {
            let engine = Arc::clone(engine);
            std::thread::spawn(move || {
                let mut rng = Rng::new(31 + c as u64);
                let mut latencies = Vec::new();
                let mut batch_size_sum = 0u64;
                let mut shed = 0u64;
                for i in 0..per_client {
                    let batch = probe_batch(&mut rng, 2);
                    let start = Instant::now();
                    let ticket = match engine.submit(ProbeRequest {
                        batch,
                        module: (i % 3) as usize,
                        deadline: None,
                    }) {
                        Ok(t) => t,
                        Err(_) => {
                            shed += 1;
                            continue;
                        }
                    };
                    match ticket.wait() {
                        Ok(resp) => {
                            latencies.push(start.elapsed().as_micros() as u64);
                            batch_size_sum += resp.batch_size as u64;
                        }
                        Err(_) => shed += 1,
                    }
                }
                (latencies, batch_size_sum, shed)
            })
        })
        .collect();
    let mut latencies = Vec::new();
    let mut batch_size_sum = 0u64;
    let mut shed = 0u64;
    for h in handles {
        let (l, b, s) = h.join().expect("client panicked");
        latencies.extend(l);
        batch_size_sum += b;
        shed += s;
    }
    let elapsed = t0.elapsed();
    finish(
        latencies,
        batch_size_sum,
        clients as u64 * per_client,
        shed,
        elapsed,
    )
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let cfg = ServeConfig::default();
    let (open_requests, interval, clients, per_client) = if smoke {
        (64u64, Duration::from_micros(500), 2usize, 16u64)
    } else {
        (1024, Duration::from_micros(500), 4, 256)
    };
    println!(
        "bench_serve: {} worker(s), max_batch {}, max_wait {:?}, queue {}{}",
        cfg.workers,
        cfg.max_batch,
        cfg.max_wait,
        cfg.queue_depth,
        if smoke { " (smoke)" } else { "" }
    );

    let model = resnet_cifar(
        ResNetCifarConfig {
            n: 2,
            width: 4,
            classes: 8,
            ..Default::default()
        },
        42,
    );
    let engine = Arc::new(ServeEngine::new(
        cfg.clone(),
        RealClock::shared(),
        egeria_obs::Telemetry::disabled(),
    ));
    engine
        .publish(&model, Precision::Int8)
        .expect("publish reference snapshot");

    let open = open_loop(&engine, open_requests, interval);
    println!(
        "open loop    {:>6} submitted  {:>6} completed  {:>4} shed  p50 {:>7} us  p99 {:>7} us  {:>8.1} rps  mean batch {:.2}",
        open.submitted, open.completed, open.shed, open.p50_us, open.p99_us,
        open.throughput_rps, open.mean_batch_size
    );
    let closed = closed_loop(&engine, clients, per_client);
    println!(
        "closed loop  {:>6} submitted  {:>6} completed  {:>4} shed  p50 {:>7} us  p99 {:>7} us  {:>8.1} rps  mean batch {:.2}",
        closed.submitted, closed.completed, closed.shed, closed.p50_us, closed.p99_us,
        closed.throughput_rps, closed.mean_batch_size
    );

    let report = Report {
        workers: cfg.workers,
        max_batch: cfg.max_batch,
        max_wait_us: cfg.max_wait.as_micros() as u64,
        queue_depth: cfg.queue_depth,
        precision: "int8".into(),
        open_loop: open,
        closed_loop: closed,
    };
    write_json(std::path::Path::new("BENCH_serve.json"), &report).expect("write BENCH_serve.json");
}
