//! Chaos soak: end-to-end training under randomized, seeded fault
//! schedules (DESIGN.md §5f).
//!
//! The contract being pinned, per chaos profile:
//!
//! - [`ChaosPlan::fallback_only`] covers only sites whose failure is
//!   absorbed by a **bit-identical** fallback (cache write → recompute,
//!   checkpoint write → skip). A run under this profile must
//!   reproduce the fault-free loss curve and freeze timeline bit-for-bit.
//! - [`ChaosPlan::full`] adds degradation-only sites (corrupt cache
//!   reads, failed captures). The contract drops to: the run completes
//!   without aborting or panicking, the loss stays finite, and every
//!   injected fault is accounted for by a degradation counter — never
//!   silently swallowed.
//! - Either way, teardown is clean: drops are bounded and no threads
//!   leak — and a sync-controller run spawns none to begin with.
//!
//! The master seed defaults to a fixed constant and can be overridden
//! with `EGERIA_CHAOS_SEED` (decimal or 0x-hex); every assertion also
//! runs at a derived sibling seed so one lucky schedule cannot hide a
//! broken fallback. Tests serialize on a file-local lock so the
//! thread-leak accounting sees only its own run.

use egeria_core::checkpoint::CheckpointOptions;
use egeria_core::config::{CacheStoreKind, ControllerMode};
use egeria_core::trainer::{EgeriaTrainer, Optimizer, TrainerOptions};
use egeria_core::{EgeriaConfig, Telemetry, TrainReport};
use egeria_data::images::{ImageDataConfig, SyntheticImages};
use egeria_data::{DataLoader, Dataset};
use egeria_models::resnet::{resnet_cifar, ResNetCifarConfig};
use egeria_models::Batch;
use egeria_nn::optim::Sgd;
use egeria_nn::sched::MultiStepDecay;
use egeria_resil::{ChaosPlan, FaultInjector, FaultSite, HealthMonitor};
use std::fmt::Write as _;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// Serializes the soak tests within this binary: each one measures thread
/// counts and drop latencies, which a concurrently-running sibling test
/// would pollute.
static SOAK_LOCK: Mutex<()> = Mutex::new(());

/// Queues for the soak lock, taking it even after a sibling soak panicked
/// while holding it (the lock guards no data), so one failing soak stays
/// one failure.
fn soak_turn() -> MutexGuard<'static, ()> {
    SOAK_LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

/// Fixed default master seed; override with `EGERIA_CHAOS_SEED`.
const BASE_SEED: u64 = 0xE6E1A;

fn chaos_seed() -> u64 {
    ChaosPlan::seed_from_env().unwrap_or(BASE_SEED)
}

/// `Threads:` from /proc/self/status (0 where unavailable — the leak
/// assertions degrade to no-ops off Linux).
fn thread_count() -> usize {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("Threads:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|n| n.parse().ok())
        })
        .unwrap_or(0)
}

/// The thread count a soak must return to. The process-lifetime tensor
/// pool is spawned first, so its workers are in the baseline even when no
/// training has run yet. The count is read until it holds still: the
/// harness starts the next test's thread a moment after the previous soak
/// released the lock, and a baseline read in between would take that
/// thread (parked on the lock for as long as this soak runs) for a leak.
fn baseline_thread_count() -> usize {
    egeria_tensor::ThreadPool::global();
    let mut count = thread_count();
    loop {
        std::thread::sleep(Duration::from_millis(20));
        let now = thread_count();
        if now == count {
            return count;
        }
        count = now;
    }
}

/// Spins until the process thread count returns to `baseline` (detached
/// worker threads may take a few scheduler quanta to fully exit after a
/// bounded drop).
fn assert_no_leaked_threads(baseline: usize, context: &str) {
    if baseline == 0 {
        return;
    }
    let mut now = thread_count();
    for _ in 0..300 {
        if now <= baseline {
            return;
        }
        std::thread::sleep(Duration::from_millis(5));
        now = thread_count();
    }
    panic!("{context}: {now} threads alive vs baseline {baseline} — leaked threads");
}

/// The soak's dataset, reading the process thread count each time it
/// hands out a batch: once per training step, on the training thread.
struct ThreadWatch {
    data: SyntheticImages,
    peak: AtomicUsize,
}

impl Dataset for ThreadWatch {
    fn len(&self) -> usize {
        self.data.len()
    }

    fn materialize(&self, indices: &[usize]) -> egeria_tensor::Result<Batch> {
        self.peak.fetch_max(thread_count(), Ordering::Relaxed);
        self.data.materialize(indices)
    }
}

struct SoakRun {
    report: TrainReport,
    /// The most threads alive at any training step of the run.
    peak_threads: usize,
    telemetry: Telemetry,
    faults: Option<Arc<FaultInjector>>,
    health: Arc<HealthMonitor>,
}

impl SoakRun {
    fn counter(&self, name: &str) -> u64 {
        self.telemetry.metrics_snapshot().counter(name).unwrap_or(0)
    }

    fn injected(&self, site: FaultSite) -> usize {
        self.faults.as_ref().map(|f| f.injected(site)).unwrap_or(0)
    }
}

/// One fixed-seed training run at golden-run scale (8 epochs, n=2 ResNet,
/// 64 synthetic samples) with checkpointing on, under an optional chaos
/// plan, on the flat cache store. Asserts the drop itself is bounded.
fn soak(plan: Option<&ChaosPlan>, controller: ControllerMode, tag: &str) -> SoakRun {
    soak_on(CacheStoreKind::Flat, plan, controller, tag)
}

fn soak_on(
    cache_store: CacheStoreKind,
    plan: Option<&ChaosPlan>,
    controller: ControllerMode,
    tag: &str,
) -> SoakRun {
    let telemetry = Telemetry::enabled();
    let health = HealthMonitor::new(telemetry.clone());
    let faults = plan.map(|p| {
        let f = FaultInjector::new();
        p.apply(&f);
        f
    });
    let ckpt_dir =
        std::env::temp_dir().join(format!("egeria_soak_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&ckpt_dir);

    let model = resnet_cifar(
        ResNetCifarConfig {
            n: 2,
            width: 4,
            classes: 4,
            ..Default::default()
        },
        7,
    );
    let mut trainer = EgeriaTrainer::new(
        Box::new(model),
        Optimizer::Sgd(Sgd::new(0.05, 0.9, 0.0)),
        Box::new(MultiStepDecay::new(0.05, 0.1, vec![5])),
        TrainerOptions {
            epochs: 8,
            egeria: Some(EgeriaConfig {
                n: 2,
                w: 3,
                s: 2,
                t: 5.0,
                bootstrap_rate: 0.9,
                reference_update_every: 4,
                controller,
                cache_store,
                ..Default::default()
            }),
            checkpoint: Some(CheckpointOptions {
                dir: ckpt_dir.clone(),
                every: 1,
                keep: 2,
            }),
            faults: faults.clone(),
            health: Some(Arc::clone(&health)),
            telemetry: telemetry.clone(),
            ..Default::default()
        },
    );
    let data = ThreadWatch {
        data: SyntheticImages::new(
            ImageDataConfig {
                samples: 64,
                classes: 4,
                size: 8,
                noise: 0.3,
                augment: true,
            },
            2,
        ),
        peak: AtomicUsize::new(0),
    };
    let loader = DataLoader::new(64, 16, 3, true);
    let report = trainer
        .train(&data, &loader, None)
        .expect("a chaos-soak run must degrade, not abort");

    let start = Instant::now();
    drop(trainer);
    let elapsed = start.elapsed();
    assert!(
        elapsed < Duration::from_millis(1500),
        "trainer drop must be bounded under chaos, took {elapsed:?}"
    );
    let _ = std::fs::remove_dir_all(&ckpt_dir);
    SoakRun {
        report,
        peak_threads: data.peak.into_inner(),
        telemetry,
        faults,
        health,
    }
}

/// Everything the bit-identity contract pins: per-epoch loss bits, the
/// frozen-prefix trajectory, and the freeze/unfreeze event timeline.
fn fingerprint(r: &TrainReport) -> String {
    let mut out = String::new();
    for e in &r.epochs {
        let _ = writeln!(
            out,
            "epoch {} loss 0x{:08x} frozen {}",
            e.epoch,
            e.train_loss.to_bits(),
            e.frozen_prefix
        );
    }
    for ev in &r.events {
        let _ = writeln!(out, "event iter {} {} prefix {}", ev.iteration, ev.kind, ev.prefix);
    }
    out
}

/// Faults at fallback-covered sites must be invisible in the training
/// outcome: loss curve and freeze timeline bit-identical to the
/// fault-free run, at the base seed and a sibling seed.
#[test]
fn fallback_covered_faults_preserve_loss_bit_identity() {
    let _guard = soak_turn();
    let clean = soak(None, ControllerMode::Sync, "clean");
    let golden = fingerprint(&clean.report);
    assert!(
        golden.contains("event iter"),
        "fault-free run froze nothing — the soak pins no interesting machinery:\n{golden}"
    );
    // Everything the chaos runs spawn must be gone again by the end.
    let baseline = baseline_thread_count();

    for (label, seed) in [
        ("base", chaos_seed()),
        ("sibling", ChaosPlan::sibling_seed(chaos_seed())),
    ] {
        let plan = ChaosPlan::fallback_only(seed);
        let run = soak(Some(&plan), ControllerMode::Sync, &format!("fb_{label}"));
        let total = run.faults.as_ref().unwrap().injected_total();
        assert!(
            total > 0,
            "{label} (seed {seed:#x}): schedule never fired — the soak tested nothing"
        );
        assert_eq!(
            fingerprint(&run.report),
            golden,
            "{label} (seed {seed:#x}): {total} fallback-covered faults changed the \
             training outcome — a fallback path is not bit-identical"
        );
        // The faults were real, and the degradation accounting saw them.
        assert_eq!(
            run.report.checkpoint_save_errors,
            run.injected(FaultSite::CheckpointWrite),
            "{label}: every injected checkpoint-write failure must surface in the report"
        );
    }

    assert_no_leaked_threads(baseline, "after fallback-profile soaks");
}

/// The reference probe is a direct call and a cache lookup a synchronous
/// read: a sync-controller run — started once the process-lifetime tensor
/// pool is up — has no thread of its own at any step on either cache
/// store, and so none to leave behind.
#[test]
fn sync_run_spawns_no_threads() {
    let _guard = soak_turn();
    let baseline = baseline_thread_count();
    for store in [CacheStoreKind::Flat, CacheStoreKind::Chunked] {
        let name = store.name();
        let run = soak_on(store, None, ControllerMode::Sync, &format!("threads_{name}"));
        let cache = run.report.cache_stats;
        assert!(
            run.report.reference_stats.forwards > 0 && cache.hits + cache.misses > 0,
            "{name}: the run never probed or never looked its cache up — nothing that \
             could have spawned was exercised"
        );
        if baseline > 0 {
            assert!(
                run.peak_threads <= baseline,
                "{name}: {} threads alive mid-run vs {baseline} before it",
                run.peak_threads
            );
            assert_eq!(thread_count(), baseline, "{name}: thread count after the run");
        }
    }
}

/// The full profile adds degradation-only sites. The run must complete
/// without aborting, keep the loss finite, account for every injected
/// fault in a degradation counter, and report a health state consistent
/// with its reasons — at two seeds.
#[test]
fn full_chaos_degrades_gracefully_and_never_aborts() {
    let _guard = soak_turn();
    let mut baseline = 0usize;

    for (label, seed) in [
        ("base", chaos_seed()),
        ("sibling", ChaosPlan::sibling_seed(chaos_seed())),
    ] {
        let plan = ChaosPlan::full(seed);
        let run = soak(Some(&plan), ControllerMode::Sync, &format!("full_{label}"));
        if baseline == 0 {
            // Taken after the first run so lazily-spawned process-lifetime
            // threads (if any) are excluded from the leak accounting.
            baseline = baseline_thread_count();
        }
        assert!(
            run.faults.as_ref().unwrap().injected_total() > 0,
            "{label} (seed {seed:#x}): full schedule never fired"
        );
        for e in &run.report.epochs {
            assert!(
                e.train_loss.is_finite(),
                "{label}: epoch {} loss {} — degradation corrupted the numerics",
                e.epoch,
                e.train_loss
            );
        }
        // Degradation-only sites must be visible, not swallowed.
        let capture_fires = run.injected(FaultSite::ReferenceCapture);
        if capture_fires > 0 {
            let surfaced =
                run.counter("reference.capture_errors") as usize + run.report.eval_skips;
            assert!(
                surfaced >= capture_fires,
                "{label}: {capture_fires} capture faults, only {surfaced} surfaced"
            );
        }
        if run.injected(FaultSite::CacheRead) > 0 {
            assert!(
                run.report.cache_stats.corrupt_entries > 0,
                "{label}: corrupt cache reads were not quarantined"
            );
        }
        // Health level and reasons agree.
        let level = run.report.health_level;
        assert!(level <= 2, "{label}: health level {level} out of range");
        assert_eq!(
            level > 0,
            !run.report.health_reasons.is_empty(),
            "{label}: health level {level} inconsistent with reasons {:?}",
            run.report.health_reasons
        );
        assert_eq!(u64::from(run.health.level()), u64::from(level));
    }

    assert_no_leaked_threads(baseline, "after full-profile soaks");
}

/// Degraded timelines are still deterministic: the same full-profile seed
/// replays to the identical loss curve, freeze timeline, and injected
/// fault counts (sync controller — async is load-dependent by design).
#[test]
fn full_chaos_run_is_reproducible_at_a_fixed_seed() {
    let _guard = soak_turn();
    let plan = ChaosPlan::full(chaos_seed());
    let a = soak(Some(&plan), ControllerMode::Sync, "repro_a");
    let b = soak(Some(&plan), ControllerMode::Sync, "repro_b");
    assert_eq!(
        fingerprint(&a.report),
        fingerprint(&b.report),
        "same seed, same profile: degraded runs must replay bit-identically"
    );
    for site in FaultSite::ALL {
        assert_eq!(
            a.injected(site),
            b.injected(site),
            "site {site:?} fired differently across identical replays"
        );
    }
}

/// The async controller under the full profile: controller-thread deaths
/// are respawned by the watchdog (capped), training completes, and
/// teardown stays clean. Timing-dependent by design, so only graceful
/// degradation — not bit-identity — is asserted.
#[test]
fn async_controller_survives_full_chaos() {
    let _guard = soak_turn();
    let plan = ChaosPlan::full(chaos_seed());
    let baseline = baseline_thread_count();
    let run = soak(Some(&plan), ControllerMode::Async, "async_full");
    for e in &run.report.epochs {
        assert!(e.train_loss.is_finite());
    }
    let deaths = run.injected(FaultSite::ControllerEval);
    assert!(
        run.report.controller_restarts <= 3,
        "controller respawns exceeded the watchdog budget"
    );
    if deaths > 0 {
        assert!(
            run.report.controller_restarts > 0 || run.counter("resil.watchdog.exhausted") > 0,
            "{deaths} controller deaths but no respawn and no exhaustion recorded"
        );
    }
    drop(run);
    assert_no_leaked_threads(baseline, "after async-controller soak");
}
