//! Reference-model serving: plasticity probes answered by the
//! `egeria-serve` engine instead of inline forwards.
//!
//! ```text
//! cargo run --release --example reference_serving
//! ```
//!
//! Publishes versioned snapshots of a reference model (fp32, then an int8
//! re-generation), drives the engine with several concurrent probe
//! clients, and reports what the serving layer did: the live snapshot
//! version, how requests coalesced into batches, and the client-measured
//! probe latency distribution (p50/p95/p99).
//!
//! Set `EGERIA_TRACE=<prefix>` to record the run's telemetry:
//! `<prefix>.jsonl` (summarized by `trace_report`, including its
//! "serve batches" section) and `<prefix>.chrome.json` (Perfetto).

use egeria_core::Telemetry;
use egeria_models::resnet::{resnet_cifar, ResNetCifarConfig};
use egeria_models::{Batch, Input, Targets};
use egeria_quant::Precision;
use egeria_serve::{ProbeRequest, RealClock, ServeConfig, ServeEngine};
use egeria_tensor::{Rng, Tensor};
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

const CLIENTS: usize = 4;
const PROBES_PER_CLIENT: usize = 32;

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

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let trace_prefix = std::env::var("EGERIA_TRACE").ok();
    let telemetry = if trace_prefix.is_some() {
        Telemetry::enabled()
    } else {
        Telemetry::disabled()
    };

    // 1. A reference model, published as an immutable serving snapshot.
    let model = resnet_cifar(
        ResNetCifarConfig {
            n: 2,
            width: 4,
            classes: 8,
            ..Default::default()
        },
        42,
    );
    let cfg = ServeConfig::default();
    println!(
        "serve config: {} worker(s), max_batch {}, max_wait {:?}, queue {}",
        cfg.workers, cfg.max_batch, cfg.max_wait, cfg.queue_depth
    );
    let engine = Arc::new(ServeEngine::new(cfg, RealClock::shared(), telemetry.clone()));
    engine.publish(&model, Precision::F32)?;
    println!("published fp32 snapshot: version {}", engine.registry().version());

    // 2. Concurrent probe clients. Each submits its probe and waits on the
    // ticket without forcing a flush, so requests arriving close together
    // coalesce under the engine's flush-on-full / flush-on-deadline policy.
    let run = |engine: &Arc<ServeEngine>| -> (Vec<u64>, BTreeMap<usize, u64>, u64) {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|c| {
                let engine = Arc::clone(engine);
                std::thread::spawn(move || {
                    let mut rng = Rng::new(100 + c as u64);
                    let mut latencies_us = Vec::new();
                    let mut batch_sizes = BTreeMap::new();
                    let mut shed = 0u64;
                    for i in 0..PROBES_PER_CLIENT {
                        let batch = probe_batch(&mut rng, 2);
                        let module = i % 3;
                        let start = Instant::now();
                        let ticket = match engine.submit(ProbeRequest {
                            batch,
                            module,
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
                                latencies_us.push(start.elapsed().as_micros() as u64);
                                *batch_sizes.entry(resp.batch_size).or_insert(0) += 1;
                            }
                            Err(_) => shed += 1,
                        }
                    }
                    (latencies_us, batch_sizes, shed)
                })
            })
            .collect();
        let mut latencies = Vec::new();
        let mut sizes: BTreeMap<usize, u64> = BTreeMap::new();
        let mut shed = 0;
        for h in handles {
            let (l, s, d) = h.join().expect("client thread panicked");
            latencies.extend(l);
            for (size, count) in s {
                *sizes.entry(size).or_insert(0) += count;
            }
            shed += d;
        }
        latencies.sort_unstable();
        (latencies, sizes, shed)
    };

    let (latencies, sizes, shed) = run(&engine);
    println!(
        "\n{} probes answered by snapshot v{} ({} shed)",
        latencies.len(),
        engine.registry().version(),
        shed
    );
    println!("batch-size distribution (requests per executed batch):");
    for (size, count) in &sizes {
        println!("  size {size:>3}: {count:>4} responses");
    }
    println!(
        "probe latency: p50 {} us, p95 {} us, p99 {} us",
        percentile(&latencies, 50.0),
        percentile(&latencies, 95.0),
        percentile(&latencies, 99.0)
    );

    // 3. The trainer re-generates the reference model over time; serving
    // picks the new version up atomically while in-flight probes finish
    // against the version they were admitted under.
    engine.publish(&model, Precision::Int8)?;
    println!(
        "\nre-published as int8: version {} now live",
        engine.registry().version()
    );
    let (latencies, _, _) = run(&engine);
    println!(
        "int8 probes: {} answered, p99 {} us",
        latencies.len(),
        percentile(&latencies, 99.0)
    );

    if let Some(prefix) = trace_prefix {
        let jsonl_path = format!("{prefix}.jsonl");
        let chrome_path = format!("{prefix}.chrome.json");
        std::fs::write(&jsonl_path, egeria_obs::export::export_jsonl(&telemetry))?;
        std::fs::write(&chrome_path, egeria_obs::export::export_chrome_trace(&telemetry))?;
        println!("\ntrace written: {jsonl_path} (+ {chrome_path})");
        println!("summarize with: cargo run --release --bin trace_report -- {jsonl_path}");
    }
    Ok(())
}
