//! One training run in its own process: set up, train through
//! `EgeriaTrainer::train`, check the outputs, print one JSON line.

use crate::clocked::{ClockedDataset, ClockedModel, DataLog, ModelClock, Split, StepClock};
use crate::json::{self, Obj};
use crate::stats::{median, percentile, samples_beyond, Fnv};
use crate::workloads::{self, Built, Spec, BATCH_SIZE};
use egeria_core::checkpoint::CheckpointStore;
use egeria_core::trainer::{EgeriaTrainer, TrainReport};
use egeria_obs::{MetricsSnapshot, Telemetry, TraceEvent};
use egeria_tensor::ThreadPool;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

/// Ring capacity of the traced run; a run that overflows it has failed.
const TRACE_RING: usize = 1 << 20;

/// Set-up is repeated so that `setup_s` is a median: at least this often…
const MIN_SETUPS: usize = 2;
/// …and up to this often while the repeats stay under `SETUP_BUDGET_S`.
const MAX_SETUPS: usize = 31;
const SETUP_BUDGET_S: f64 = 1.0;

pub struct ChildArgs {
    pub spec: &'static Spec,
    pub seed: u64,
    /// A tenth of the epochs, one set-up, and only the checks that hold
    /// for a run too short to freeze or converge.
    pub smoke: bool,
    pub traced: bool,
    /// An empty directory owned by this run.
    pub scratch: PathBuf,
    /// Where the traced run writes `<workload>.trace.jsonl` and
    /// `<workload>.attribution.txt`.
    pub artefacts: Option<PathBuf>,
}

impl ChildArgs {
    pub fn epochs(&self) -> usize {
        if self.smoke {
            (self.spec.epochs / 10).max(2)
        } else {
            self.spec.epochs
        }
    }
}

/// What the traced run knows beyond the report.
struct Traced {
    telemetry: Telemetry,
    clock: Arc<ModelClock>,
}

/// Runs the child and returns the JSON line for the parent.
pub fn run(args: &ChildArgs) -> String {
    match run_inner(args) {
        Ok(line) => line,
        Err(e) => Obj::default()
            .str("workload", args.spec.name)
            .raw(
                "failures",
                &json::array([json::string(&format!("run error: {e}"))]),
            )
            .finish(),
    }
}

fn run_inner(args: &ChildArgs) -> Result<String, String> {
    let spec = args.spec;
    let epochs = args.epochs();

    // Set-up, several times over; the last one is trained.
    let mut setup_s = Vec::new();
    let setups_started = Instant::now();
    let built = loop {
        let dir = args.scratch.join(format!("setup{}", setup_s.len()));
        let start = Instant::now();
        let built = workloads::build(spec, args.seed, epochs, &dir).map_err(|e| e.to_string())?;
        setup_s.push(start.elapsed().as_secs_f64());
        let more = !args.smoke
            && (setup_s.len() < MIN_SETUPS
                || (setup_s.len() < MAX_SETUPS
                    && setups_started.elapsed().as_secs_f64() < SETUP_BUDGET_S));
        if !more {
            break built;
        }
    };
    let Built {
        model,
        train,
        val,
        optimizer,
        schedule,
        loader,
        val_loader,
        mut options,
    } = built;

    let batches = loader.batches_per_epoch();
    let val_batches = val_loader.batches_per_epoch();
    let log = DataLog::new(epochs * (batches + val_batches) + 16);
    let train = ClockedDataset::new(train, Split::Train, Arc::clone(&log));
    let val = ClockedDataset::new(val, Split::Val, Arc::clone(&log));

    let traced = args.traced.then(|| Traced {
        telemetry: Telemetry::with_ring_capacity(TRACE_RING),
        clock: Arc::new(ModelClock::default()),
    });
    let model = match &traced {
        Some(t) => {
            options.telemetry = t.telemetry.clone();
            Box::new(ClockedModel::new(model, Arc::clone(&t.clock)))
        }
        None => model,
    };
    let checkpoint_dir = options.checkpoint.as_ref().map(|c| c.dir.clone());

    let mut trainer = EgeriaTrainer::new(model, optimizer, schedule, options);
    let train_start_ns = log.now_ns();
    let result = trainer.train(&train, &loader, Some((&val, &val_loader)));
    let train_end_ns = log.now_ns();
    drop(trainer);
    let report = result.map_err(|e| format!("train() failed: {e}"))?;

    let train_s = (train_end_ns - train_start_ns) as f64 / 1e9;
    let stamps = log.stamps();
    let clock = StepClock::from_stamps(&stamps, train_end_ns);
    let step_ms: Vec<f64> = clock.step_ns.iter().map(|&ns| ns as f64 / 1e6).collect();

    let mut failures = Vec::new();
    let mut fail = |cond: bool, what: String| {
        if cond {
            failures.push(what);
        }
    };

    // Outputs every run must produce, however short.
    let expected_steps = epochs * batches;
    fail(
        report.iterations.len() != expected_steps || step_ms.len() != expected_steps,
        format!(
            "iterations {} and clocked steps {} != epochs x batches {expected_steps}",
            report.iterations.len(),
            step_ms.len()
        ),
    );
    fail(
        report.epochs.len() != epochs || clock.epoch_end_ns.len() != epochs,
        format!(
            "epoch records {} and clocked epochs {} != {epochs}",
            report.epochs.len(),
            clock.epoch_end_ns.len()
        ),
    );
    fail(
        report.epochs.iter().any(|e| {
            !e.train_loss.is_finite()
                || !e.val_loss.is_some_and(f32::is_finite)
                || !e.val_metric.is_some_and(f32::is_finite)
        }),
        "a training or validation loss is missing or not finite".into(),
    );
    fail(
        report.health_level != 0,
        format!(
            "health_level {} ({:?})",
            report.health_level, report.health_reasons
        ),
    );
    let cs = report.cache_stats;
    for (name, n) in [
        ("write_errors", cs.write_errors),
        ("corrupt_entries", cs.corrupt_entries),
        ("checkpoint_save_errors", report.checkpoint_save_errors),
        ("controller_restarts", report.controller_restarts),
    ] {
        fail(n != 0, format!("{name} = {n}"));
    }
    if let Some(dir) = &checkpoint_dir {
        let next = CheckpointStore::open(dir, 2)
            .ok()
            .and_then(|s| s.load_latest())
            .map(|c| c.next_epoch);
        fail(
            next != Some(epochs as u64),
            format!("last checkpoint loads with next_epoch {next:?}, expected {epochs}"),
        );
    }

    // Time to accuracy: the end of the first epoch at or below the target.
    let tta_epoch = report
        .epochs
        .iter()
        .position(|e| e.val_loss.is_some_and(|l| l <= spec.tta_target));
    let val_metric = report
        .epochs
        .last()
        .and_then(|e| e.val_metric)
        .unwrap_or(0.0) as f64;
    let freezes = report.events.iter().filter(|e| e.kind == "freeze").count();

    // Outputs a full-length run must reach.
    if !args.smoke {
        fail(
            tta_epoch.is_none(),
            format!("validation loss never reached {}", spec.tta_target),
        );
        fail(
            val_metric < spec.val_floor as f64,
            format!("val_metric {val_metric} under the floor {}", spec.val_floor),
        );
        fail(
            spec.expect_freeze && freezes == 0,
            "no freeze recorded".into(),
        );
        fail(
            spec.expect_cache_hits && cs.hits == 0,
            "no cached-FP hit recorded".into(),
        );
    }
    // In a smoke run the target may be out of reach: the whole run stands in.
    let tta_s = match tta_epoch.and_then(|e| clock.epoch_end_ns.get(e)) {
        Some(&end) => (end - train_start_ns) as f64 / 1e9,
        None => train_s,
    };

    // No step at all is already a failure above; the numbers go missing.
    let (step_p50, step_p95, beyond_p95) = if step_ms.is_empty() {
        (f64::NAN, f64::NAN, 0)
    } else {
        (
            median(&step_ms),
            percentile(&step_ms, 0.95),
            samples_beyond(step_ms.len(), 0.95),
        )
    };
    let mut out = Obj::default()
        .str("workload", spec.name)
        .int("seed", args.seed)
        .bool("traced", args.traced)
        .int("epochs", epochs as u64)
        .num("setup_s", median(&setup_s))
        .int("setup_samples", setup_s.len() as u64)
        .num("train_s", train_s)
        .num(
            "samples_per_s",
            (expected_steps * BATCH_SIZE) as f64 / train_s,
        )
        .num("tta_s", tta_s)
        .num("step_ms_p50", step_p50)
        .num("step_ms_p95", step_p95)
        .int("step_samples", step_ms.len() as u64)
        .int("step_samples_beyond_p95", beyond_p95 as u64)
        .num("val_metric", val_metric)
        .num("peak_rss_mb", peak_rss_mb())
        .str(
            "loss_fingerprint",
            &format!("{:016x}", fingerprint(&report)),
        )
        .int("tta_epoch", tta_epoch.map_or(0, |e| e as u64 + 1))
        .int("freezes", freezes as u64)
        .int("cache_hits", cs.hits as u64)
        .int("pool_threads", ThreadPool::global().threads() as u64)
        .str("simd", egeria_tensor::simd::detect().name());

    if let Some(t) = &traced {
        let (events, dropped) = t.telemetry.trace_events();
        fail(dropped != 0, format!("trace ring dropped {dropped} events"));
        let materialize_ns: Vec<u64> = stamps.iter().map(|s| s.dur_ns).collect();
        let layers = in_situ(
            &report,
            &step_ms,
            &materialize_ns,
            train_s,
            tta_epoch,
            &t.clock,
            &events,
            dropped,
            &t.telemetry.metrics_snapshot(),
        );
        if let Some(dir) = &args.artefacts {
            write_artefacts(dir, spec.name, &t.telemetry, &layers, train_s)
                .map_err(|e| format!("writing artefacts: {e}"))?;
        }
        let mut obj = Obj::default();
        for (name, value) in &layers {
            obj = obj.num(name, *value);
        }
        out = out.raw("layers", &obj.finish());
    }

    out = out.raw(
        "failures",
        &json::array(failures.iter().map(|f| json::string(f))),
    );
    Ok(out.finish())
}

/// FNV-1a over the bits of every epoch's losses and metric and over the
/// freeze events: equal exactly when the trajectory is.
pub fn fingerprint(report: &TrainReport) -> u64 {
    let mut h = Fnv::default();
    for e in &report.epochs {
        h.write(&e.train_loss.to_bits().to_le_bytes());
        h.write(&e.val_loss.unwrap_or(f32::NAN).to_bits().to_le_bytes());
        h.write(&e.val_metric.unwrap_or(f32::NAN).to_bits().to_le_bytes());
    }
    for e in &report.events {
        h.write(&(e.iteration as u64).to_le_bytes());
        h.write(e.kind.as_bytes());
        h.write(&(e.prefix as u64).to_le_bytes());
    }
    h.finish()
}

/// `VmHWM` of this process in MiB (0 where `/proc` is not available).
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

fn mean(values: impl Iterator<Item = f64>) -> f64 {
    let (sum, n) = values.fold((0.0, 0usize), |(s, n), v| (s + v, n + 1));
    if n == 0 {
        0.0
    } else {
        sum / n as f64
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// The in-situ per-layer metrics of the traced run, except
/// `obs.trace_overhead_pct`, which needs the untraced runs and is added by
/// the parent. The order is that of `metrics::IN_SITU`.
#[allow(clippy::too_many_arguments)]
fn in_situ(
    report: &TrainReport,
    step_ms: &[f64],
    materialize_ns: &[u64],
    train_s: f64,
    tta_epoch: Option<usize>,
    clock: &ModelClock,
    events: &[TraceEvent],
    dropped: u64,
    snap: &MetricsSnapshot,
) -> Vec<(&'static str, f64)> {
    // A step is a probe step when a plasticity evaluation ran in it, else
    // cached when the frozen prefix came from the cache, else frozen when
    // a prefix was frozen, else full.
    #[derive(PartialEq, Clone, Copy)]
    enum Kind {
        Full,
        Frozen,
        Cached,
        Probe,
    }
    let mut probe = vec![false; report.iterations.len()];
    for p in &report.plasticity {
        if let Some(slot) = probe.get_mut(p.iteration) {
            *slot = true;
        }
    }
    let kinds: Vec<Kind> = report
        .iterations
        .iter()
        .zip(&probe)
        .map(
            |(it, &probe)| match (probe, it.fp_cached, it.frozen_prefix > 0) {
                (true, _, _) => Kind::Probe,
                (_, true, _) => Kind::Cached,
                (_, _, true) => Kind::Frozen,
                _ => Kind::Full,
            },
        )
        .collect();
    let steps = kinds.len().max(1) as f64;
    let step_mean = |k: Kind| {
        mean(
            kinds
                .iter()
                .zip(step_ms)
                .filter(|(kind, _)| **kind == k)
                .map(|(_, ms)| *ms),
        )
    };
    let share =
        |pred: &dyn Fn(usize) -> bool| (0..kinds.len()).filter(|&i| pred(i)).count() as f64 / steps;

    let span_ms = |kind: &str| {
        events
            .iter()
            .filter(|e| e.kind == kind)
            .filter_map(|e| e.dur_us)
            .sum::<u64>() as f64
            / 1e3
    };
    let span_calls = |kind: &str| {
        events
            .iter()
            .filter(|e| e.kind == kind && e.dur_us.is_some())
            .count() as f64
    };
    let counter = |name: &str| snap.counter(name).unwrap_or(0) as f64;
    let histogram_mean = |name: &str| {
        snap.histograms
            .iter()
            .find(|h| h.name == name)
            .map_or(0.0, |h| ratio(h.sum as f64, h.count as f64))
    };

    let data_ms = materialize_ns.iter().sum::<u64>() as f64 / 1e6;
    let opt_ms = span_ms("opt_step");
    let refresh_ms = span_ms("reference_refresh");
    let save_ms = span_ms("checkpoint_save");
    let attributed_ms = data_ms
        + clock.train_step.ms()
        + clock.train_step_from.ms()
        + clock.reference_capture.ms()
        + refresh_ms
        + opt_ms
        + clock.eval_batch.ms()
        + save_ms;
    let train_ms = train_s * 1e3;
    let unattributed_ms = train_ms - attributed_ms;
    let cs = report.cache_stats;
    let pool = ThreadPool::global().stats();

    vec![
        ("trainer.step_ms_full", step_mean(Kind::Full)),
        ("trainer.step_ms_frozen", step_mean(Kind::Frozen)),
        ("trainer.step_ms_cached", step_mean(Kind::Cached)),
        ("trainer.step_ms_probe", step_mean(Kind::Probe)),
        (
            "trainer.frozen_step_share",
            share(&|i| report.iterations[i].frozen_prefix > 0),
        ),
        (
            "trainer.cached_step_share",
            share(&|i| report.iterations[i].fp_cached),
        ),
        ("trainer.probe_step_share", share(&|i| probe[i])),
        (
            "trainer.active_param_fraction_mean",
            mean(report.epochs.iter().map(|e| e.active_param_fraction as f64)),
        ),
        (
            "trainer.tta_epoch",
            tta_epoch.map_or(report.epochs.len(), |e| e + 1) as f64,
        ),
        ("trainer.unattributed_ms", unattributed_ms),
        (
            "trainer.unattributed_share",
            ratio(unattributed_ms, train_ms),
        ),
        ("data.materialize_ms_total", data_ms),
        ("data.materialize_calls", materialize_ns.len() as f64),
        ("models.train_step_ms_total", clock.train_step.ms()),
        ("models.train_step_calls", clock.train_step.calls() as f64),
        (
            "models.train_step_from_ms_total",
            clock.train_step_from.ms(),
        ),
        (
            "models.train_step_from_calls",
            clock.train_step_from.calls() as f64,
        ),
        ("models.eval_batch_ms_total", clock.eval_batch.ms()),
        ("models.clone_ms_total", clock.clone.ms()),
        ("models.clone_calls", clock.clone.calls() as f64),
        ("nn.opt_step_ms_total", opt_ms),
        ("nn.opt_step_calls", span_calls("opt_step")),
        ("reference.capture_ms_total", clock.reference_capture.ms()),
        ("reference.captures", clock.reference_capture.calls() as f64),
        ("reference.refresh_ms_total", refresh_ms),
        ("reference.refreshes", span_calls("reference_refresh")),
        ("serve.requests", counter("serve.requests")),
        ("serve.batches", counter("serve.batches")),
        ("serve.fallbacks", counter("serve.fallbacks")),
        (
            "serve.queue_wait_us_mean",
            histogram_mean("serve.queue_wait_us"),
        ),
        ("serve.exec_us_mean", histogram_mean("serve.exec_us")),
        ("freezer.evaluations", counter("freezer.evaluations")),
        ("freezer.freezes", counter("freezer.freezes")),
        ("freezer.unfreezes", counter("freezer.unfreezes")),
        ("cache.hits", cs.hits as f64),
        ("cache.misses", cs.misses as f64),
        (
            "cache.hit_ratio",
            ratio(cs.hits as f64, (cs.hits + cs.misses) as f64),
        ),
        ("cache.disk_reads", cs.disk_reads as f64),
        (
            "cache.disk_mb_written",
            cs.disk_bytes_written as f64 / (1024.0 * 1024.0),
        ),
        ("store.chunk_reads", counter("store.chunk_reads")),
        ("store.chunks_written", counter("store.chunks_written")),
        (
            "store.codec_ratio",
            ratio(counter("store.bytes_raw"), counter("store.bytes_encoded")),
        ),
        ("checkpoint.save_ms_total", save_ms),
        ("checkpoint.saves", counter("checkpoint.saves")),
        ("tensor.pool_jobs", pool.jobs as f64),
        ("tensor.pool_inline_jobs", pool.inline_jobs as f64),
        ("resil.health_level", report.health_level as f64),
        ("resil.breaker_trips", counter("resil.breaker.trips")),
        ("obs.events", events.len() as f64),
        ("obs.dropped", dropped as f64),
    ]
}

/// The rows of the step-attribution table: metric name and what it covers.
const ATTRIBUTION: [(&str, &str); 8] = [
    (
        "data.materialize_ms_total",
        "Dataset::materialize, train and validation",
    ),
    ("models.train_step_ms_total", "Model::train_step"),
    (
        "models.train_step_from_ms_total",
        "Model::train_step_from (cached FP)",
    ),
    (
        "reference.capture_ms_total",
        "capture_activation on reference copies",
    ),
    ("reference.refresh_ms_total", "reference_refresh spans"),
    ("nn.opt_step_ms_total", "opt_step spans"),
    (
        "models.eval_batch_ms_total",
        "Model::eval_batch (validation)",
    ),
    ("checkpoint.save_ms_total", "checkpoint_save spans"),
];

/// The step-attribution table: the named parts of `train()`'s wall time
/// and the remainder nothing at the trait boundaries explains.
pub fn attribution_table(workload: &str, layers: &[(&str, f64)], train_s: f64) -> String {
    let get = |name: &str| {
        layers
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(0.0, |(_, v)| *v)
    };
    let train_ms = train_s * 1e3;
    let mut out =
        format!("step attribution, {workload} (traced run, train() = {train_ms:.1} ms)\n");
    for (name, what) in ATTRIBUTION {
        let ms = get(name);
        out.push_str(&format!(
            "  {name:<34} {ms:>10.1} ms {:>6.1} %  {what}\n",
            100.0 * ratio(ms, train_ms)
        ));
    }
    out.push_str(&format!(
        "  {:<34} {:>10.1} ms {:>6.1} %  cache get/put, sp_loss, freezer, serve queueing, bookkeeping\n",
        "trainer.unattributed_ms",
        get("trainer.unattributed_ms"),
        100.0 * get("trainer.unattributed_share"),
    ));
    out
}

fn write_artefacts(
    dir: &Path,
    workload: &str,
    telemetry: &Telemetry,
    layers: &[(&str, f64)],
    train_s: f64,
) -> std::io::Result<()> {
    std::fs::create_dir_all(dir)?;
    std::fs::write(
        dir.join(format!("{workload}.trace.jsonl")),
        egeria_obs::export::export_jsonl(telemetry),
    )?;
    std::fs::write(
        dir.join(format!("{workload}.attribution.txt")),
        attribution_table(workload, layers, train_s),
    )
}
