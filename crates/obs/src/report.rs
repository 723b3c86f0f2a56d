//! Trace summarization: JSONL trace → the paper's per-layer frozen-time
//! breakdown plus the observed iteration split `simsys` calibrates
//! against. This is the library behind `bin/trace_report`.

use crate::jsonl::{parse, validate_trace_jsonl, Value};

/// Aggregate duration stats for one event kind.
#[derive(Debug, Clone, PartialEq)]
pub struct KindStat {
    /// Event kind name.
    pub kind: String,
    /// Number of events of this kind.
    pub count: u64,
    /// Total span time in µs (0 for instants).
    pub total_us: u64,
}

/// One observed `train_step` span.
#[derive(Debug, Clone, PartialEq)]
pub struct IterationStat {
    /// Iteration index.
    pub iteration: u64,
    /// Measured step duration in µs.
    pub dur_us: u64,
    /// Frozen prefix in force during the step.
    pub frozen_prefix: u64,
    /// Whether the frozen-prefix forward came from the activation cache.
    pub fp_cached: bool,
}

/// One freeze/unfreeze decision from the timeline.
#[derive(Debug, Clone, PartialEq)]
pub struct FreezeDecision {
    /// Iteration the decision fired at.
    pub iteration: u64,
    /// Frozen prefix after the decision.
    pub frozen_prefix: u64,
    /// `"froze"` or `"unfroze"`.
    pub action: String,
    /// The triggering plasticity (SP/CKA) value, when recorded.
    pub value: Option<f64>,
}

/// Per-layer share of the run spent frozen — the paper's breakdown.
#[derive(Debug, Clone, PartialEq)]
pub struct LayerStat {
    /// Layer/module index.
    pub module: u64,
    /// Steps during which this layer was frozen.
    pub frozen_steps: u64,
    /// Total observed steps.
    pub total_steps: u64,
}

impl LayerStat {
    /// Fraction of observed steps this layer spent frozen.
    pub fn frozen_frac(&self) -> f64 {
        if self.total_steps == 0 {
            0.0
        } else {
            self.frozen_steps as f64 / self.total_steps as f64
        }
    }
}

/// Mean observed step time grouped by `(frozen_prefix, fp_cached)` — the
/// shape `simsys::calibration` compares predictions against.
#[derive(Debug, Clone, PartialEq)]
pub struct SplitStat {
    /// Frozen prefix.
    pub frozen_prefix: u64,
    /// Whether the frozen forward was cache-served.
    pub fp_cached: bool,
    /// Steps observed in this configuration.
    pub count: u64,
    /// Mean step duration in µs.
    pub mean_dur_us: f64,
}

/// Aggregates over the serving engine's `serve_batch` spans: how probe
/// requests coalesced and where their latency went (queue wait vs
/// execution).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ServeBatchStat {
    /// Executed serve batches (one span each).
    pub batches: u64,
    /// Probe requests across all batches.
    pub requests: u64,
    /// Coalesced sample rows across all batches.
    pub rows: u64,
    /// `(batch_size, count)` distribution, size-sorted.
    pub batch_size_hist: Vec<(u64, u64)>,
    /// Total leader queue-wait across batches in µs.
    pub total_queue_wait_us: u64,
    /// Total execution (span) time across batches in µs.
    pub total_exec_us: u64,
    /// Requests shed at admission (`serve.shed`): the queue was full.
    pub shed: u64,
}

impl ServeBatchStat {
    /// Mean requests coalesced per executed batch.
    pub fn mean_batch_size(&self) -> f64 {
        if self.batches == 0 {
            0.0
        } else {
            self.requests as f64 / self.batches as f64
        }
    }
}

/// One health-state transition from the trace's `health_transition`
/// instants, in trace order.
#[derive(Debug, Clone, PartialEq)]
pub struct HealthTransition {
    /// `"degraded"`, `"recovered"`, or `"critical"`.
    pub edge: String,
    /// The degradation tag that moved.
    pub reason: String,
    /// Aggregate health level after the transition (0/1/2).
    pub level: u64,
}

/// Aggregates over the trainer's `evaluate` spans, one per validation
/// pass: how its batches crossed the frozen prefix.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ValidationStat {
    /// Validation passes (one span each).
    pub passes: u64,
    /// Batches scored across all passes.
    pub batches: u64,
    /// Batches scored from a stored prefix output.
    pub served: u64,
    /// Batches scored from a stored output carried over modules frozen
    /// since.
    pub promoted: u64,
    /// Batches whose prefix output was captured afresh, then stored.
    pub recomputed: u64,
    /// Total time across passes in µs.
    pub total_us: u64,
}

/// Resilience-layer aggregates: watchdog and health counters plus the
/// health-transition timeline.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ResilienceStat {
    /// Watchdog-granted respawns (`resil.watchdog.respawns`).
    pub watchdog_respawns: u64,
    /// Watchdog budgets exhausted (`resil.watchdog.exhausted`).
    pub watchdog_exhausted: u64,
    /// Health degradations raised (`resil.health.degradations`).
    pub health_degradations: u64,
    /// Health degradations resolved (`resil.health.recoveries`).
    pub health_recoveries: u64,
    /// Critical conditions raised (`resil.health.criticals`).
    pub health_criticals: u64,
    /// The health-transition timeline in trace order.
    pub transitions: Vec<HealthTransition>,
}

impl ResilienceStat {
    /// Whether any resilience event occurred at all.
    pub fn any(&self) -> bool {
        self.watchdog_respawns
            + self.watchdog_exhausted
            + self.health_degradations
            + self.health_recoveries
            + self.health_criticals
            > 0
            || !self.transitions.is_empty()
    }
}

/// Chunked activation-store (cache v2) aggregates from the `store.*`
/// counters and gauges egeria-store mirrors into telemetry. All zero when
/// the run used the flat cache backend.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CacheV2Stat {
    /// Chunk blocks written to shard files (`store.chunks_written`).
    pub chunks_written: u64,
    /// Pre-codec payload bytes (`store.bytes_raw`).
    pub bytes_raw: u64,
    /// Post-codec bytes on disk (`store.bytes_encoded`).
    pub bytes_encoded: u64,
    /// Chunk blocks decoded from disk (`store.chunk_reads`).
    pub chunk_reads: u64,
    /// Chunks evicted by the capacity bound (`store.evicted_chunks`).
    pub evicted_chunks: u64,
    /// Bytes freed by eviction (`store.evicted_bytes`).
    pub evicted_bytes: u64,
    /// Chunks quarantined for corruption (`store.corrupt_chunks`).
    pub corrupt_chunks: u64,
    /// Shard compactions run (`store.compactions`).
    pub compactions: u64,
    /// Final live on-disk bytes (gauge `store.live_bytes`).
    pub live_bytes: u64,
    /// Final shard-file count (gauge `store.shard_files`).
    pub shard_files: u64,
}

impl CacheV2Stat {
    /// Raw-to-encoded compression ratio (1.0 when nothing was written).
    pub fn codec_ratio(&self) -> f64 {
        if self.bytes_encoded == 0 {
            1.0
        } else {
            self.bytes_raw as f64 / self.bytes_encoded as f64
        }
    }

    /// Whether the chunked store was active at all this run.
    pub fn any(&self) -> bool {
        self.chunks_written + self.chunk_reads + self.corrupt_chunks + self.live_bytes > 0
    }
}

/// Everything `trace_report` prints, extracted from one JSONL trace.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TraceSummary {
    /// Span + instant lines in the trace.
    pub total_events: usize,
    /// Events the recorder's ring evicted.
    pub dropped: u64,
    /// Per-kind counts and total span time, kind-sorted.
    pub kinds: Vec<KindStat>,
    /// Every observed `train_step`, iteration-sorted.
    pub iterations: Vec<IterationStat>,
    /// The freeze/unfreeze decision timeline in trace order.
    pub freeze_timeline: Vec<FreezeDecision>,
    /// Per-layer frozen share over the observed steps.
    pub layers: Vec<LayerStat>,
    /// Mean step time per `(frozen_prefix, fp_cached)` configuration.
    pub splits: Vec<SplitStat>,
    /// Serving-engine batch aggregates from `serve_batch` spans.
    pub serve: ServeBatchStat,
    /// Validation-pass aggregates from `evaluate` spans.
    pub validation: ValidationStat,
    /// Resilience-layer aggregates (watchdogs, health).
    pub resilience: ResilienceStat,
    /// Chunked activation-store aggregates (cache v2; zero when flat).
    pub cache_v2: CacheV2Stat,
    /// Final counter snapshot, name-sorted.
    pub counters: Vec<(String, u64)>,
    /// Final gauge snapshot, name-sorted.
    pub gauges: Vec<(String, f64)>,
}

impl TraceSummary {
    /// The final value of gauge `name`, if the trace recorded one.
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.gauges.iter().find(|(n, _)| n == name).map(|(_, v)| *v)
    }
}

fn arg_u64(obj: &Value, key: &str) -> Option<u64> {
    obj.get("args").and_then(|a| a.get(key)).and_then(Value::as_u64)
}

fn arg_f64(obj: &Value, key: &str) -> Option<f64> {
    obj.get("args").and_then(|a| a.get(key)).and_then(Value::as_f64)
}

fn arg_bool(obj: &Value, key: &str) -> Option<bool> {
    match obj.get("args").and_then(|a| a.get(key)) {
        Some(Value::Bool(b)) => Some(*b),
        _ => None,
    }
}

/// Validates and summarizes a JSONL trace. Fails with the validator's
/// line-addressed error on malformed input.
pub fn summarize(text: &str) -> Result<TraceSummary, String> {
    let stats = validate_trace_jsonl(text)?;
    let mut summary = TraceSummary {
        dropped: stats.dropped,
        ..TraceSummary::default()
    };
    let mut kinds: Vec<KindStat> = Vec::new();
    for line in text.lines().filter(|l| !l.trim().is_empty()) {
        let obj = parse(line)?;
        let ty = obj.get("type").and_then(Value::as_str).unwrap_or("");
        match ty {
            "span" | "instant" => {
                summary.total_events += 1;
                let kind = obj.get("kind").and_then(Value::as_str).unwrap_or("");
                let dur = obj.get("dur_us").and_then(Value::as_u64).unwrap_or(0);
                match kinds.iter_mut().find(|k| k.kind == kind) {
                    Some(k) => {
                        k.count += 1;
                        k.total_us += dur;
                    }
                    None => kinds.push(KindStat {
                        kind: kind.to_string(),
                        count: 1,
                        total_us: dur,
                    }),
                }
                if ty == "span" && kind == "train_step" {
                    summary.iterations.push(IterationStat {
                        iteration: obj.get("iteration").and_then(Value::as_u64).unwrap_or(0),
                        dur_us: dur,
                        frozen_prefix: arg_u64(&obj, "frozen_prefix").unwrap_or(0),
                        fp_cached: arg_bool(&obj, "fp_cached").unwrap_or(false),
                    });
                } else if ty == "span" && kind == "serve_batch" {
                    let requests = arg_u64(&obj, "requests").unwrap_or(1);
                    summary.serve.batches += 1;
                    summary.serve.requests += requests;
                    summary.serve.rows += arg_u64(&obj, "rows").unwrap_or(0);
                    summary.serve.total_queue_wait_us +=
                        arg_u64(&obj, "queue_wait_us").unwrap_or(0);
                    summary.serve.total_exec_us += dur;
                    match summary
                        .serve
                        .batch_size_hist
                        .iter_mut()
                        .find(|(size, _)| *size == requests)
                    {
                        Some((_, n)) => *n += 1,
                        None => summary.serve.batch_size_hist.push((requests, 1)),
                    }
                } else if ty == "span" && kind == "evaluate" {
                    let v = &mut summary.validation;
                    v.passes += 1;
                    v.batches += arg_u64(&obj, "batches").unwrap_or(0);
                    v.served += arg_u64(&obj, "served").unwrap_or(0);
                    v.promoted += arg_u64(&obj, "promoted").unwrap_or(0);
                    v.recomputed += arg_u64(&obj, "recomputed").unwrap_or(0);
                    v.total_us += dur;
                } else if ty == "instant" && kind == "health_transition" {
                    let arg_str = |key: &str| {
                        obj.get("args")
                            .and_then(|a| a.get(key))
                            .and_then(Value::as_str)
                            .unwrap_or("?")
                            .to_string()
                    };
                    summary.resilience.transitions.push(HealthTransition {
                        edge: arg_str("edge"),
                        reason: arg_str("reason"),
                        level: arg_u64(&obj, "level").unwrap_or(0),
                    });
                } else if ty == "instant" && kind == "freeze_decision" {
                    summary.freeze_timeline.push(FreezeDecision {
                        iteration: obj.get("iteration").and_then(Value::as_u64).unwrap_or(0),
                        frozen_prefix: arg_u64(&obj, "frozen_prefix").unwrap_or(0),
                        action: obj
                            .get("args")
                            .and_then(|a| a.get("action"))
                            .and_then(Value::as_str)
                            .unwrap_or("?")
                            .to_string(),
                        value: arg_f64(&obj, "value"),
                    });
                }
            }
            "metrics" => {
                if let Some(counters) = obj.get("counters").and_then(Value::as_obj) {
                    summary.counters = counters
                        .iter()
                        .filter_map(|(k, v)| v.as_u64().map(|n| (k.clone(), n)))
                        .collect();
                }
                if let Some(gauges) = obj.get("gauges").and_then(Value::as_obj) {
                    summary.gauges = gauges
                        .iter()
                        .filter_map(|(k, v)| v.as_f64().map(|n| (k.clone(), n)))
                        .collect();
                }
            }
            _ => {}
        }
    }
    kinds.sort_by(|a, b| a.kind.cmp(&b.kind));
    summary.kinds = kinds;
    summary.serve.batch_size_hist.sort_by_key(|(size, _)| *size);
    summary.iterations.sort_by_key(|i| i.iteration);

    // Degradation and resilience counters from the final metrics snapshot.
    {
        let get = |name: &str| {
            summary
                .counters
                .iter()
                .find(|(n, _)| n == name)
                .map(|(_, v)| *v)
                .unwrap_or(0)
        };
        let shed = get("serve.shed");
        let resil = ResilienceStat {
            watchdog_respawns: get("resil.watchdog.respawns"),
            watchdog_exhausted: get("resil.watchdog.exhausted"),
            health_degradations: get("resil.health.degradations"),
            health_recoveries: get("resil.health.recoveries"),
            health_criticals: get("resil.health.criticals"),
            transitions: Vec::new(),
        };
        summary.serve.shed = shed;
        let transitions = std::mem::take(&mut summary.resilience.transitions);
        summary.resilience = ResilienceStat {
            transitions,
            ..resil
        };
        let gauge = |name: &str| summary.gauge(name).unwrap_or(0.0);
        summary.cache_v2 = CacheV2Stat {
            chunks_written: get("store.chunks_written"),
            bytes_raw: get("store.bytes_raw"),
            bytes_encoded: get("store.bytes_encoded"),
            chunk_reads: get("store.chunk_reads"),
            evicted_chunks: get("store.evicted_chunks"),
            evicted_bytes: get("store.evicted_bytes"),
            corrupt_chunks: get("store.corrupt_chunks"),
            compactions: get("store.compactions"),
            live_bytes: gauge("store.live_bytes") as u64,
            shard_files: gauge("store.shard_files") as u64,
        };
    }

    // Per-layer frozen share: layer m is frozen during a step iff the
    // step's frozen_prefix exceeds m. Cover every layer up to the deepest
    // prefix ever reached so fully-plastic layers still show a row.
    let total_steps = summary.iterations.len() as u64;
    let max_prefix = summary
        .iterations
        .iter()
        .map(|i| i.frozen_prefix)
        .max()
        .unwrap_or(0);
    for module in 0..max_prefix {
        let frozen_steps = summary
            .iterations
            .iter()
            .filter(|i| i.frozen_prefix > module)
            .count() as u64;
        summary.layers.push(LayerStat {
            module,
            frozen_steps,
            total_steps,
        });
    }

    // Observed iteration split per (frozen_prefix, fp_cached).
    let mut splits: Vec<(u64, bool, u64, u64)> = Vec::new();
    for it in &summary.iterations {
        match splits
            .iter_mut()
            .find(|(p, c, _, _)| *p == it.frozen_prefix && *c == it.fp_cached)
        {
            Some((_, _, n, sum)) => {
                *n += 1;
                *sum += it.dur_us;
            }
            None => splits.push((it.frozen_prefix, it.fp_cached, 1, it.dur_us)),
        }
    }
    splits.sort_by_key(|(p, c, _, _)| (*p, *c));
    summary.splits = splits
        .into_iter()
        .map(|(frozen_prefix, fp_cached, count, sum)| SplitStat {
            frozen_prefix,
            fp_cached,
            count,
            mean_dur_us: sum as f64 / count as f64,
        })
        .collect();
    Ok(summary)
}

/// Renders the summary as the human-readable report `trace_report`
/// prints: per-kind totals, the freeze timeline, the per-layer
/// frozen-time breakdown, and the observed iteration split.
pub fn render(summary: &TraceSummary) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "trace: {} events ({} dropped by ring)",
        summary.total_events, summary.dropped
    );
    let _ = writeln!(out, "\n== event kinds ==");
    let _ = writeln!(out, "{:<24} {:>8} {:>12}", "kind", "count", "total_us");
    for k in &summary.kinds {
        let _ = writeln!(out, "{:<24} {:>8} {:>12}", k.kind, k.count, k.total_us);
    }
    let _ = writeln!(out, "\n== freeze timeline ==");
    if summary.freeze_timeline.is_empty() {
        let _ = writeln!(out, "(no freeze decisions recorded)");
    }
    for d in &summary.freeze_timeline {
        match d.value {
            Some(v) => {
                let _ = writeln!(
                    out,
                    "iter {:>6}: {} -> prefix {} (plasticity {v:.6})",
                    d.iteration, d.action, d.frozen_prefix
                );
            }
            None => {
                let _ = writeln!(
                    out,
                    "iter {:>6}: {} -> prefix {}",
                    d.iteration, d.action, d.frozen_prefix
                );
            }
        }
    }
    let _ = writeln!(out, "\n== per-layer frozen time ==");
    let _ = writeln!(
        out,
        "{:<8} {:>14} {:>12} {:>10}",
        "layer", "frozen_steps", "total_steps", "frozen_%"
    );
    for l in &summary.layers {
        let _ = writeln!(
            out,
            "{:<8} {:>14} {:>12} {:>9.1}%",
            l.module,
            l.frozen_steps,
            l.total_steps,
            100.0 * l.frozen_frac()
        );
    }
    let _ = writeln!(out, "\n== observed iteration split ==");
    let _ = writeln!(
        out,
        "{:<14} {:>10} {:>8} {:>14}",
        "frozen_prefix", "fp_cached", "steps", "mean_us"
    );
    for s in &summary.splits {
        let _ = writeln!(
            out,
            "{:<14} {:>10} {:>8} {:>14.1}",
            s.frozen_prefix, s.fp_cached, s.count, s.mean_dur_us
        );
    }
    let _ = writeln!(out, "\n== validation ==");
    if summary.validation.passes == 0 {
        let _ = writeln!(out, "(no evaluate spans recorded)");
    } else {
        let v = &summary.validation;
        let _ = writeln!(
            out,
            "{} passes, {} batches in {} us: {} from a stored prefix output, {} promoted, {} recomputed, {} through the whole network",
            v.passes,
            v.batches,
            v.total_us,
            v.served,
            v.promoted,
            v.recomputed,
            v.batches.saturating_sub(v.served + v.promoted + v.recomputed)
        );
    }
    let _ = writeln!(out, "\n== serve batches ==");
    if summary.serve.batches == 0 {
        let _ = writeln!(out, "(no serve_batch spans recorded)");
    } else {
        let s = &summary.serve;
        let _ = writeln!(
            out,
            "{} batches, {} requests ({} rows), mean batch size {:.2}",
            s.batches,
            s.requests,
            s.rows,
            s.mean_batch_size()
        );
        let _ = writeln!(out, "{:<12} {:>8}", "batch_size", "count");
        for (size, count) in &s.batch_size_hist {
            let _ = writeln!(out, "{size:<12} {count:>8}");
        }
        let total = (s.total_queue_wait_us + s.total_exec_us).max(1);
        let _ = writeln!(
            out,
            "latency split: queue wait {} us ({:.1}%), execute {} us ({:.1}%)",
            s.total_queue_wait_us,
            100.0 * s.total_queue_wait_us as f64 / total as f64,
            s.total_exec_us,
            100.0 * s.total_exec_us as f64 / total as f64
        );
    }
    let _ = writeln!(out, "shed at admission (overloaded): {}", summary.serve.shed);
    let _ = writeln!(out, "\n== resilience ==");
    if !summary.resilience.any() {
        let _ = writeln!(out, "(no resilience events recorded)");
    } else {
        let r = &summary.resilience;
        let _ = writeln!(
            out,
            "watchdog: {} respawns, {} budgets exhausted",
            r.watchdog_respawns, r.watchdog_exhausted
        );
        let _ = writeln!(
            out,
            "health: {} degradations, {} recoveries, {} criticals",
            r.health_degradations, r.health_recoveries, r.health_criticals
        );
        for tr in &r.transitions {
            let _ = writeln!(
                out,
                "health {}: {} -> level {}",
                tr.edge, tr.reason, tr.level
            );
        }
    }
    let _ = writeln!(out, "\n== cache v2 ==");
    if !summary.cache_v2.any() {
        let _ = writeln!(out, "(no chunked-store activity recorded; flat backend or cache off)");
    } else {
        let c = &summary.cache_v2;
        let _ = writeln!(
            out,
            "codec: {} raw -> {} encoded bytes (ratio {:.2}x) over {} chunks",
            c.bytes_raw,
            c.bytes_encoded,
            c.codec_ratio(),
            c.chunks_written
        );
        let _ = writeln!(out, "reads: {} chunk decodes", c.chunk_reads);
        let _ = writeln!(
            out,
            "eviction: {} chunks ({} bytes) evicted, {} compactions",
            c.evicted_chunks, c.evicted_bytes, c.compactions
        );
        let _ = writeln!(out, "corrupt chunks quarantined: {}", c.corrupt_chunks);
        let _ = writeln!(
            out,
            "footprint: {} live bytes across {} shard files",
            c.live_bytes, c.shard_files
        );
    }
    let _ = writeln!(out, "\n== pool ==");
    let pool = |name: &str| summary.gauge(name).unwrap_or(0.0) as u64;
    if let Some(jobs) = summary.gauge("pool.jobs") {
        let _ = writeln!(
            out,
            "{} jobs handed to the workers, {} run inline ({} of them kept inline by the grain rule), {} tasks",
            jobs as u64,
            pool("pool.inline_jobs"),
            pool("pool.small_jobs"),
            pool("pool.tasks")
        );
    } else {
        let _ = writeln!(out, "(no pool occupancy recorded)");
    }
    let _ = writeln!(out, "\n== counters ==");
    for (name, v) in &summary.counters {
        let _ = writeln!(out, "{name} = {v}");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::export::export_jsonl;
    use crate::telemetry::Telemetry;
    use crate::trace::ArgValue;

    fn demo_trace() -> String {
        let t = Telemetry::enabled();
        t.counter("cache.hits").add(3);
        t.counter("cache.misses").add(1);
        for it in 0..4u64 {
            let prefix = if it < 2 { 0u64 } else { 2u64 };
            let _s = t
                .span("train_step")
                .iteration(it)
                .arg("frozen_prefix", prefix)
                .arg("fp_cached", it == 3);
        }
        t.instant(
            "freeze_decision",
            Some(2),
            Some(2),
            vec![
                ("action", ArgValue::Str("froze")),
                ("frozen_prefix", ArgValue::U64(2)),
                ("value", ArgValue::F64(0.0125)),
            ],
        );
        for (served, promoted, recomputed) in [(0u64, 0u64, 4u64), (3, 1, 0)] {
            let _s = t
                .span("evaluate")
                .iteration(4)
                .arg("batches", 4u64)
                .arg("served", served)
                .arg("promoted", promoted)
                .arg("recomputed", recomputed);
        }
        drop(t.span("evaluate").iteration(8).arg("batches", 4u64));
        for requests in [1u64, 3, 3] {
            let _s = t
                .span("serve_batch")
                .module(1)
                .arg("requests", requests)
                .arg("rows", requests * 2)
                .arg("queue_wait_us", 10u64);
        }
        t.counter("serve.shed").add(2);
        t.counter("store.chunks_written").add(10);
        t.counter("store.bytes_raw").add(4000);
        t.counter("store.bytes_encoded").add(1000);
        t.counter("store.chunk_reads").add(6);
        t.counter("store.evicted_chunks").add(1);
        t.counter("store.evicted_bytes").add(100);
        t.counter("store.corrupt_chunks").add(1);
        t.gauge("store.live_bytes").set(900.0);
        t.gauge("store.shard_files").set(2.0);
        t.gauge("pool.jobs").set(1.0);
        t.gauge("pool.inline_jobs").set(40.0);
        t.gauge("pool.small_jobs").set(12.0);
        t.gauge("pool.tasks").set(90.0);
        t.counter("resil.watchdog.respawns").add(2);
        t.counter("resil.health.degradations").add(1);
        t.counter("resil.health.recoveries").add(1);
        t.instant(
            "health_transition",
            None,
            None,
            vec![
                ("edge", ArgValue::Str("degraded")),
                ("reason", ArgValue::Str("cache-quarantine")),
                ("level", ArgValue::U64(1)),
            ],
        );
        t.instant(
            "health_transition",
            None,
            None,
            vec![
                ("edge", ArgValue::Str("recovered")),
                ("reason", ArgValue::Str("cache-quarantine")),
                ("level", ArgValue::U64(0)),
            ],
        );
        export_jsonl(&t)
    }

    #[test]
    fn summarizes_iterations_layers_and_timeline() {
        let s = summarize(&demo_trace()).unwrap();
        assert_eq!(s.iterations.len(), 4);
        assert_eq!(s.freeze_timeline.len(), 1);
        assert_eq!(s.freeze_timeline[0].action, "froze");
        assert_eq!(s.freeze_timeline[0].frozen_prefix, 2);
        assert_eq!(s.freeze_timeline[0].value, Some(0.0125));
        // Layers 0 and 1 are frozen for the last 2 of 4 steps.
        assert_eq!(s.layers.len(), 2);
        for l in &s.layers {
            assert_eq!(l.frozen_steps, 2);
            assert_eq!(l.total_steps, 4);
            assert!((l.frozen_frac() - 0.5).abs() < 1e-12);
        }
        // Splits: (0,false) x2, (2,false) x1, (2,true) x1.
        assert_eq!(s.splits.len(), 3);
        assert_eq!(s.splits[0].frozen_prefix, 0);
        assert_eq!(s.splits[0].count, 2);
        assert_eq!(s.splits[1].frozen_prefix, 2);
        assert!(!s.splits[1].fp_cached);
        assert!(s.splits[2].fp_cached);
        assert_eq!(s.counters.iter().find(|(n, _)| n == "cache.hits").unwrap().1, 3);
        // Serve batches: sizes 1, 3, 3 -> 3 batches, 7 requests, 14 rows.
        assert_eq!(s.serve.batches, 3);
        assert_eq!(s.serve.requests, 7);
        assert_eq!(s.serve.rows, 14);
        assert_eq!(s.serve.batch_size_hist, vec![(1, 1), (3, 2)]);
        assert_eq!(s.serve.total_queue_wait_us, 30);
        assert!((s.serve.mean_batch_size() - 7.0 / 3.0).abs() < 1e-12);
        // Validation passes: one of them ran every batch whole.
        assert_eq!(
            s.validation,
            ValidationStat {
                passes: 3,
                batches: 12,
                served: 3,
                promoted: 1,
                recomputed: 4,
                total_us: s.validation.total_us,
            }
        );
        // Degradation counters flow into the serve section.
        assert_eq!(s.serve.shed, 2);
        // Resilience aggregates: counters plus the transition timeline.
        assert!(s.resilience.any());
        assert_eq!(s.resilience.watchdog_respawns, 2);
        assert_eq!(s.resilience.health_degradations, 1);
        assert_eq!(s.resilience.transitions.len(), 2);
        assert_eq!(s.resilience.transitions[0].edge, "degraded");
        assert_eq!(s.resilience.transitions[0].reason, "cache-quarantine");
        assert_eq!(s.resilience.transitions[1].level, 0);
        // Cache v2 aggregates from the store.* counters and gauges.
        assert!(s.cache_v2.any());
        assert_eq!(s.cache_v2.chunks_written, 10);
        assert_eq!(s.cache_v2.bytes_raw, 4000);
        assert_eq!(s.cache_v2.bytes_encoded, 1000);
        assert!((s.cache_v2.codec_ratio() - 4.0).abs() < 1e-12);
        assert_eq!(s.cache_v2.chunk_reads, 6);
        assert_eq!(s.cache_v2.evicted_chunks, 1);
        assert_eq!(s.cache_v2.corrupt_chunks, 1);
        assert_eq!(s.cache_v2.live_bytes, 900);
        assert_eq!(s.cache_v2.shard_files, 2);
    }

    #[test]
    fn render_includes_all_sections() {
        let s = summarize(&demo_trace()).unwrap();
        let text = render(&s);
        for section in [
            "== event kinds ==",
            "== freeze timeline ==",
            "== per-layer frozen time ==",
            "== observed iteration split ==",
            "== validation ==",
            "== serve batches ==",
            "== resilience ==",
            "== cache v2 ==",
            "== pool ==",
            "== counters ==",
        ] {
            assert!(text.contains(section), "missing {section}:\n{text}");
        }
        assert!(text.contains("froze -> prefix 2"));
        assert!(text.contains("cache.hits = 3"));
        assert!(text.contains("3 passes, 12 batches in "));
        assert!(text.contains(
            "us: 3 from a stored prefix output, 1 promoted, 4 recomputed, 4 through the whole network"
        ));
        assert!(text.contains("3 batches, 7 requests (14 rows), mean batch size 2.33"));
        assert!(text.contains("latency split: queue wait 30 us"));
        assert!(text.contains("shed at admission (overloaded): 2"));
        assert!(text.contains("watchdog: 2 respawns, 0 budgets exhausted"));
        assert!(text.contains("health degraded: cache-quarantine -> level 1"));
        assert!(text.contains("health recovered: cache-quarantine -> level 0"));
        assert!(text.contains("codec: 4000 raw -> 1000 encoded bytes (ratio 4.00x) over 10 chunks"));
        assert!(text.contains("footprint: 900 live bytes across 2 shard files"));
        assert!(text.contains(
            "1 jobs handed to the workers, 40 run inline (12 of them kept inline by the grain rule), 90 tasks"
        ));
    }

    #[test]
    fn quiet_trace_renders_empty_resilience_section() {
        let t = Telemetry::enabled();
        let _s = t.span("train_step").iteration(0);
        let s = summarize(&export_jsonl(&t)).unwrap();
        assert!(!s.resilience.any());
        let text = render(&s);
        assert!(text.contains("(no resilience events recorded)"));
        assert!(text.contains("(no pool occupancy recorded)"));
        assert!(text.contains("(no evaluate spans recorded)"));
    }

    #[test]
    fn summarize_rejects_invalid_input() {
        assert!(summarize("not json").is_err());
    }
}
