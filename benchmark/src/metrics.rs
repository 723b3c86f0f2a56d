//! The names, units and directions of every metric the benchmark reports.
//! `BENCHMARK.json` at the repository root lists exactly these (a test
//! compares them), and `README.md` defines each one.

/// An end-to-end metric, reported per workload.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    /// Share of the reference median by which the metric may worsen
    /// before a change counts as a regression. The wall-clock bounds are
    /// as wide as `BENCHMARK.json` allows because the sandbox host drifts by
    /// that much over minutes (README, "Bounds and host noise").
    pub bound: f64,
}

pub const END_TO_END: [EndToEnd; 8] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "train_s",
        unit: "s",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "samples_per_s",
        unit: "samples/s",
        better: "higher",
        bound: 0.25,
    },
    EndToEnd {
        name: "tta_s",
        unit: "s",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "step_ms_p50",
        unit: "ms",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "step_ms_p95",
        unit: "ms",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "val_metric",
        unit: "fraction",
        better: "higher",
        bound: 0.02,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MiB",
        better: "lower",
        bound: 0.10,
    },
];

/// A per-layer metric: `(name, unit, better)`. Layers are this
/// repository's crates; the prefix before the first dot names the layer.
pub type PerLayer = (&'static str, &'static str, &'static str);

/// Measured in situ, from one traced training run per workload.
pub const IN_SITU: [PerLayer; 51] = [
    ("trainer.step_ms_full", "ms", "lower"),
    ("trainer.step_ms_frozen", "ms", "lower"),
    ("trainer.step_ms_cached", "ms", "lower"),
    ("trainer.step_ms_probe", "ms", "lower"),
    ("trainer.frozen_step_share", "fraction", "higher"),
    ("trainer.cached_step_share", "fraction", "higher"),
    ("trainer.probe_step_share", "fraction", "lower"),
    ("trainer.active_param_fraction_mean", "fraction", "lower"),
    ("trainer.tta_epoch", "count", "lower"),
    ("trainer.unattributed_ms", "ms", "lower"),
    ("trainer.unattributed_share", "fraction", "lower"),
    ("data.materialize_ms_total", "ms", "lower"),
    ("data.materialize_calls", "count", "lower"),
    ("models.train_step_ms_total", "ms", "lower"),
    ("models.train_step_calls", "count", "lower"),
    ("models.train_step_from_ms_total", "ms", "lower"),
    ("models.train_step_from_calls", "count", "higher"),
    ("models.eval_batch_ms_total", "ms", "lower"),
    ("models.clone_ms_total", "ms", "lower"),
    ("models.clone_calls", "count", "lower"),
    ("nn.opt_step_ms_total", "ms", "lower"),
    ("nn.opt_step_calls", "count", "lower"),
    ("reference.capture_ms_total", "ms", "lower"),
    ("reference.captures", "count", "lower"),
    ("reference.refresh_ms_total", "ms", "lower"),
    ("reference.refreshes", "count", "lower"),
    ("serve.requests", "count", "lower"),
    ("serve.batches", "count", "lower"),
    ("serve.fallbacks", "count", "lower"),
    ("serve.queue_wait_us_mean", "us", "lower"),
    ("serve.exec_us_mean", "us", "lower"),
    ("freezer.evaluations", "count", "lower"),
    ("freezer.freezes", "count", "higher"),
    ("freezer.unfreezes", "count", "lower"),
    ("cache.hits", "count", "higher"),
    ("cache.misses", "count", "lower"),
    ("cache.hit_ratio", "fraction", "higher"),
    ("cache.disk_reads", "count", "lower"),
    ("cache.disk_mb_written", "MiB", "lower"),
    ("store.chunk_reads", "count", "lower"),
    ("store.chunks_written", "count", "lower"),
    ("store.codec_ratio", "ratio", "higher"),
    ("checkpoint.save_ms_total", "ms", "lower"),
    ("checkpoint.saves", "count", "lower"),
    ("tensor.pool_jobs", "count", "lower"),
    ("tensor.pool_inline_jobs", "count", "lower"),
    ("resil.health_level", "level", "lower"),
    ("resil.breaker_trips", "count", "lower"),
    ("obs.events", "count", "lower"),
    ("obs.dropped", "count", "lower"),
    ("obs.trace_overhead_pct", "%", "lower"),
];

/// Measured in isolation, by calling one layer's public functions on
/// shapes taken from the workloads.
pub const PROBES: [PerLayer; 28] = [
    ("tensor.matmul_us", "us", "lower"),
    ("tensor.conv2d_fwd_bwd_us", "us", "lower"),
    ("models.resnet56_step_full_ms", "ms", "lower"),
    ("models.resnet56_step_frozen_half_ms", "ms", "lower"),
    ("models.resnet56_step_cached_half_ms", "ms", "lower"),
    ("models.transformer_step_full_ms", "ms", "lower"),
    ("models.transformer_step_frozen_half_ms", "ms", "lower"),
    ("models.transformer_step_cached_half_ms", "ms", "lower"),
    ("nn.sgd_step_us", "us", "lower"),
    ("nn.adam_step_us", "us", "lower"),
    ("data.images_batch_us", "us", "lower"),
    ("data.translation_batch_us", "us", "lower"),
    ("reference.generate_ms", "ms", "lower"),
    ("reference.capture_inline_ms", "ms", "lower"),
    ("serve.probe_ms_p50", "ms", "lower"),
    ("serve.probe_ms_p95", "ms", "lower"),
    ("analysis.sp_loss_us", "us", "lower"),
    ("freezer.observe_us", "us", "lower"),
    ("cache.flat_put_ms", "ms", "lower"),
    ("cache.flat_get_disk_ms", "ms", "lower"),
    ("cache.flat_get_mem_ms", "ms", "lower"),
    ("cache.chunked_put_ms", "ms", "lower"),
    ("cache.chunked_get_disk_ms", "ms", "lower"),
    ("cache.flat_bytes_per_sample", "bytes", "lower"),
    ("cache.chunked_bytes_per_sample", "bytes", "lower"),
    ("checkpoint.save_ms", "ms", "lower"),
    ("checkpoint.load_ms", "ms", "lower"),
    ("checkpoint.bytes", "bytes", "lower"),
];

/// Every per-layer metric, in situ first.
pub fn per_layer() -> impl Iterator<Item = &'static PerLayer> {
    IN_SITU.iter().chain(PROBES.iter())
}

/// The unit of a per-layer metric.
pub fn unit_of(name: &str) -> Option<&'static str> {
    per_layer().find(|m| m.0 == name).map(|m| m.1)
}
