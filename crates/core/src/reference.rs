//! Reference-model lifecycle (§4.1.3).
//!
//! The reference is an int8-quantized snapshot of the training model,
//! regenerated periodically from the latest weights so stale references do
//! not amplify SGD fluctuations (Figure 7). Generation is timed so the
//! overhead report can check the paper's 0.5–1.5 s claim at paper scale
//! (ours is smaller, but the measurement plumbing is identical).

use crate::config::EgeriaConfig;
use egeria_models::{Batch, Model};
use egeria_obs::Telemetry;
use egeria_quant::{quantize_reference, Precision};
use egeria_resil::breaker::CircuitBreaker;
use egeria_resil::fault::{FaultInjector, FaultSite};
use egeria_resil::health::HealthMonitor;
use egeria_resil::retry::RetryPolicy;
use egeria_serve::{Clock, ProbeRequest, RealClock, ServeConfig, ServeEngine};
use egeria_tensor::{Result, Tensor, TensorError};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Consecutive serve failures before the probe breaker trips open.
const BREAKER_TRIP_AFTER: u32 = 3;
/// How long a tripped breaker stays open before a recovery probe (µs).
const BREAKER_COOLDOWN_US: u64 = 200_000;
/// Snapshot publishes: attempts and first-retry backoff (µs).
const PUBLISH_ATTEMPTS: u32 = 2;
const PUBLISH_BACKOFF_US: u64 = 200;

/// Statistics about reference-model maintenance.
#[derive(Debug, Clone, Copy, Default)]
pub struct ReferenceStats {
    /// How many times a reference was (re)generated.
    pub generations: usize,
    /// Total wall-clock time spent quantizing snapshots.
    pub total_generation_time: Duration,
    /// How many reference forward passes ran.
    pub forwards: usize,
}

/// Owns and refreshes the reference model.
///
/// When serving is enabled (`EGERIA_SERVE`, on by default), probe
/// captures route through an [`ServeEngine`]: each [`capture`](Self::capture)
/// becomes a submitted request executed against the latest published
/// snapshot, and [`generate`](Self::generate) publishes a new snapshot
/// version. Batched execution is bit-identical to the inline path
/// (DESIGN.md §5e), and any serve-side failure (overload, shutdown, no
/// snapshot) degrades gracefully to the inline forward, so training is
/// unaffected either way.
pub struct ReferenceManager {
    precision: Precision,
    reference: Option<Box<dyn Model>>,
    stats: ReferenceStats,
    telemetry: Telemetry,
    serve_requested: bool,
    serve: Option<Arc<ServeEngine>>,
    clock: Arc<dyn Clock>,
    faults: Option<Arc<FaultInjector>>,
    health: Option<Arc<HealthMonitor>>,
    breaker: Option<Arc<CircuitBreaker>>,
    // A publish failed and the registry still serves the previous
    // version. Probing stale weights risks exactly the mistimed freeze
    // the paper warns about, so serve routing is suspended (inline
    // fallback, bit-identical) until a publish succeeds.
    snapshot_stale: bool,
}

impl ReferenceManager {
    /// Creates a manager from the Egeria config. The serving path is
    /// decided by `EGERIA_SERVE` at construction; the engine itself is
    /// built lazily on first [`generate`](Self::generate) so it picks up
    /// the telemetry handle attached via
    /// [`set_telemetry`](Self::set_telemetry).
    pub fn new(cfg: &EgeriaConfig) -> Self {
        ReferenceManager {
            precision: cfg.reference_precision,
            reference: None,
            stats: ReferenceStats::default(),
            telemetry: Telemetry::disabled(),
            serve_requested: egeria_serve::serve_enabled(),
            serve: None,
            clock: RealClock::shared(),
            faults: None,
            health: None,
            breaker: None,
            snapshot_stale: false,
        }
    }

    /// Attaches a fault injector, consulted at the
    /// [`FaultSite::SnapshotPublish`] and [`FaultSite::ReferenceCapture`]
    /// sites and handed to the lazily built serve engine for its own
    /// sites. Call before the first [`generate`](Self::generate).
    pub fn set_faults(&mut self, faults: Arc<FaultInjector>) {
        self.faults = Some(faults);
    }

    /// Attaches a health monitor: breaker trips and stale snapshots
    /// degrade it, recoveries resolve it.
    pub fn set_health(&mut self, health: Arc<HealthMonitor>) {
        self.health = Some(health);
    }

    /// Replaces the clock driving the probe breaker and publish retries
    /// (tests pin breaker behavior on a `VirtualClock` this way). Call
    /// before the serve path is first exercised.
    pub fn set_clock(&mut self, clock: Arc<dyn Clock>) {
        self.clock = clock;
    }

    /// The circuit breaker guarding serve-routed probes, building it on
    /// first use so it picks up the attached clock/telemetry/health.
    fn breaker(&mut self) -> Arc<CircuitBreaker> {
        if self.breaker.is_none() {
            let mut b = CircuitBreaker::new(
                BREAKER_TRIP_AFTER,
                BREAKER_COOLDOWN_US,
                Arc::clone(&self.clock),
                self.telemetry.clone(),
            );
            if let Some(h) = &self.health {
                b = b.with_health(Arc::clone(h), "serve-breaker-open");
            }
            self.breaker = Some(Arc::new(b));
        }
        Arc::clone(self.breaker.as_ref().expect("just built"))
    }

    /// Replaces the serving engine (tests inject engines with virtual
    /// clocks or custom configs this way; it also force-enables the
    /// serving path regardless of `EGERIA_SERVE`). The current reference,
    /// if any, is published into the new engine.
    pub fn set_serve_engine(&mut self, engine: Arc<ServeEngine>) {
        self.serve_requested = true;
        self.serve = Some(engine);
        if self.reference.is_some() {
            self.publish_snapshot();
        }
    }

    /// The serving engine, if the serving path is active.
    pub fn serve_engine(&self) -> Option<&Arc<ServeEngine>> {
        self.serve.as_ref()
    }

    fn ensure_serve_engine(&mut self) -> Option<&Arc<ServeEngine>> {
        if !self.serve_requested {
            return None;
        }
        if self.serve.is_none() {
            self.serve = Some(Arc::new(ServeEngine::with_faults(
                ServeConfig::default(),
                Arc::clone(&self.clock),
                self.telemetry.clone(),
                self.faults.clone(),
                self.health.clone(),
            )));
        }
        self.serve.as_ref()
    }

    /// Publishes the current reference (already fake-quantized to serving
    /// precision) as the next snapshot version. A failed publish (after a
    /// bounded retry) marks the snapshot stale: the registry would answer
    /// probes with the *previous* reference's weights, so serve routing is
    /// suspended until a later publish succeeds.
    fn publish_snapshot(&mut self) {
        let precision = self.precision;
        let Some(model) = self.reference.as_ref().map(|r| r.clone_boxed()) else {
            return;
        };
        let faults = self.faults.clone();
        let clock = Arc::clone(&self.clock);
        let Some(engine) = self.ensure_serve_engine().map(Arc::clone) else {
            return;
        };
        let policy = RetryPolicy::new(PUBLISH_ATTEMPTS, PUBLISH_BACKOFF_US);
        let published: std::result::Result<u64, ()> = policy.run(clock.as_ref(), |_attempt| {
            if let Some(f) = &faults {
                if f.should_fail(FaultSite::SnapshotPublish) {
                    return Err(());
                }
            }
            Ok(engine.publish_prequantized(model.clone_boxed(), precision))
        });
        match published {
            Ok(_) => {
                if self.snapshot_stale {
                    self.snapshot_stale = false;
                    self.telemetry.counter("serve.snapshot_recoveries").inc();
                    if let Some(h) = &self.health {
                        h.resolve("serve-snapshot-stale");
                    }
                }
            }
            Err(()) => {
                self.snapshot_stale = true;
                self.telemetry.counter("serve.snapshot_publish_failures").inc();
                if let Some(h) = &self.health {
                    h.degrade("serve-snapshot-stale");
                }
            }
        }
    }

    /// Attaches a telemetry handle: refreshes become `reference_refresh`
    /// spans and `reference.generations` / `reference.forwards` counters
    /// mirror [`ReferenceStats`].
    pub fn set_telemetry(&mut self, telemetry: Telemetry) {
        self.telemetry = telemetry;
    }

    /// Whether a reference exists.
    pub fn is_ready(&self) -> bool {
        self.reference.is_some()
    }

    /// Generates (or regenerates) the reference from a snapshot of `model`.
    pub fn generate(&mut self, model: &dyn Model) -> Result<()> {
        let span = self.telemetry.span("reference_refresh");
        let start = Instant::now();
        self.reference = Some(quantize_reference(model, self.precision)?);
        self.stats.generations += 1;
        self.stats.total_generation_time += start.elapsed();
        self.telemetry.counter("reference.generations").inc();
        drop(span);
        self.publish_snapshot();
        Ok(())
    }

    /// Runs the reference forward to capture module `module`'s activation.
    ///
    /// With serving active this submits a probe to the engine (which may
    /// coalesce it with concurrent probes — bit-identical either way) and
    /// falls back to the inline forward on any serve-side failure.
    pub fn capture(&mut self, batch: &Batch, module: usize) -> Result<Tensor> {
        if self.reference.is_none() {
            return Err(TensorError::Numerical(
                "reference model not generated yet".into(),
            ));
        }
        self.stats.forwards += 1;
        self.telemetry.counter("reference.forwards").inc();
        if let Some(engine) = self.serve.clone() {
            if self.snapshot_stale {
                // The registry is serving the previous reference's
                // weights; probing it would risk a mistimed freeze.
                self.telemetry.counter("serve.stale_skips").inc();
                self.telemetry.counter("serve.fallbacks").inc();
            } else {
                let breaker = self.breaker();
                if breaker.allow() {
                    match engine.probe_blocking(batch, module) {
                        Ok(resp) => {
                            breaker.record_success();
                            return Ok(resp.activation);
                        }
                        Err(_) => {
                            breaker.record_failure();
                            self.telemetry.counter("serve.fallbacks").inc();
                            // A panicked worker respawns itself; this
                            // only reaps the finished thread in passing.
                            engine.supervise();
                        }
                    }
                } else {
                    self.telemetry.counter("serve.breaker_rejected").inc();
                    self.telemetry.counter("serve.fallbacks").inc();
                }
            }
        }
        self.inline_capture(batch, module)
    }

    /// The inline (non-serve) reference forward, with its injection site.
    fn inline_capture(&mut self, batch: &Batch, module: usize) -> Result<Tensor> {
        if let Some(f) = &self.faults {
            if f.should_fail(FaultSite::ReferenceCapture) {
                self.telemetry.counter("reference.capture_errors").inc();
                return Err(TensorError::Io(
                    "injected reference capture failure".into(),
                ));
            }
        }
        let r = self.reference.as_mut().expect("caller checked readiness");
        r.capture_activation(batch, module)
    }

    /// Captures several modules' activations for one batch, submitting all
    /// probes before waiting so the engine can pipeline them across its
    /// worker pool (and coalesce any that share a group). Falls back to
    /// inline forwards, preserving order, when serving is off or degraded.
    pub fn capture_many(&mut self, batch: &Batch, modules: &[usize]) -> Result<Vec<Tensor>> {
        if self.reference.is_none() {
            return Err(TensorError::Numerical(
                "reference model not generated yet".into(),
            ));
        }
        self.stats.forwards += modules.len();
        self.telemetry.counter("reference.forwards").add(modules.len() as u64);
        let mut out: Vec<Option<Tensor>> = vec![None; modules.len()];
        if let Some(engine) = self.serve.clone() {
            let route = if self.snapshot_stale {
                self.telemetry.counter("serve.stale_skips").inc();
                self.telemetry
                    .counter("serve.fallbacks")
                    .add(modules.len() as u64);
                false
            } else if !self.breaker().allow() {
                self.telemetry.counter("serve.breaker_rejected").inc();
                self.telemetry
                    .counter("serve.fallbacks")
                    .add(modules.len() as u64);
                false
            } else {
                true
            };
            if route {
                let tickets: Vec<_> = modules
                    .iter()
                    .map(|&m| {
                        engine.submit(ProbeRequest {
                            batch: batch.clone(),
                            module: m,
                            deadline: None,
                        })
                    })
                    .collect();
                engine.flush();
                let mut failures = 0usize;
                for (slot, ticket) in out.iter_mut().zip(tickets) {
                    if let Ok(t) = ticket {
                        match t.wait() {
                            Ok(resp) => *slot = Some(resp.activation),
                            Err(_) => failures += 1,
                        }
                    } else {
                        failures += 1;
                    }
                }
                let breaker = self.breaker();
                if failures == 0 {
                    breaker.record_success();
                } else {
                    breaker.record_failure();
                    self.telemetry.counter("serve.fallbacks").add(failures as u64);
                    engine.supervise();
                }
            }
        }
        let mut result = Vec::with_capacity(modules.len());
        for (&m, slot) in modules.iter().zip(out) {
            match slot {
                Some(t) => result.push(t),
                None => result.push(self.inline_capture(batch, m)?),
            }
        }
        Ok(result)
    }

    /// Maintenance statistics.
    pub fn stats(&self) -> ReferenceStats {
        self.stats
    }

    /// Exports the reference model's weights for checkpointing: parameter
    /// values keyed by name plus the positional non-parameter state
    /// buffers. `None` when no reference has been generated yet.
    ///
    /// The reference produced by [`quantize_reference`] is fake-quantized
    /// (f32 storage carrying the rounding error), so these tensors capture
    /// it exactly.
    pub fn export_reference(&self) -> Option<ReferenceSnapshot> {
        let r = self.reference.as_deref()?;
        Some(ReferenceSnapshot {
            params: r
                .params()
                .iter()
                .map(|p| (p.name.clone(), p.value.clone()))
                .collect(),
            state_buffers: r.state_buffers().iter().map(|t| (*t).clone()).collect(),
        })
    }

    /// Rebuilds the reference from an exported snapshot, using `template`
    /// (the training model) only for its architecture.
    ///
    /// This restores the *exact* reference that was active when the
    /// checkpoint was taken, which is what makes sync-mode resume
    /// trajectories match uninterrupted runs.
    pub fn restore_reference(
        &mut self,
        template: &dyn Model,
        snapshot: &ReferenceSnapshot,
    ) -> Result<()> {
        let mut r = template.clone_boxed();
        load_weights(
            r.as_mut(),
            &snapshot.params,
            &snapshot.state_buffers,
            "reference snapshot",
            "restore_reference",
        )?;
        r.unfreeze_all();
        self.reference = Some(r);
        // Serving must answer with the restored bits, not a stale version.
        self.publish_snapshot();
        Ok(())
    }
}

/// Loads saved weights into `model`: parameter values by name, non-parameter
/// state buffers (BatchNorm running statistics) by position. When counts
/// or names disagree the error names `source`, where the weights came from;
/// a shape mismatch carries the caller's `op`.
pub(crate) fn load_weights(
    model: &mut dyn Model,
    params: &[(String, Tensor)],
    state_buffers: &[Tensor],
    source: &str,
    op: &'static str,
) -> Result<()> {
    let mut dst_params = model.params_mut();
    if dst_params.len() != params.len() {
        return Err(TensorError::Corrupt(format!(
            "{source} has {} params, model has {}",
            params.len(),
            dst_params.len()
        )));
    }
    for p in dst_params.iter_mut() {
        let value = params
            .iter()
            .find(|(n, _)| *n == p.name)
            .map(|(_, v)| v)
            .ok_or_else(|| {
                TensorError::Corrupt(format!("{source} is missing parameter {:?}", p.name))
            })?;
        if value.dims() != p.value.dims() {
            return Err(TensorError::ShapeMismatch {
                op,
                lhs: p.value.dims().to_vec(),
                rhs: value.dims().to_vec(),
            });
        }
        p.value = value.clone();
    }
    drop(dst_params);
    let mut bufs = model.state_buffers_mut();
    if bufs.len() != state_buffers.len() {
        return Err(TensorError::Corrupt(format!(
            "{source} has {} state buffers, model has {}",
            state_buffers.len(),
            bufs.len()
        )));
    }
    for (dst, src) in bufs.iter_mut().zip(state_buffers.iter()) {
        if src.dims() != dst.dims() {
            return Err(TensorError::ShapeMismatch {
                op,
                lhs: dst.dims().to_vec(),
                rhs: src.dims().to_vec(),
            });
        }
        **dst = src.clone();
    }
    Ok(())
}

/// An exported reference model: parameter values by name plus positional
/// state buffers (BatchNorm running statistics).
#[derive(Debug, Clone)]
pub struct ReferenceSnapshot {
    /// Parameter values keyed by parameter name.
    pub params: Vec<(String, Tensor)>,
    /// Non-parameter state buffers in architecture order.
    pub state_buffers: Vec<Tensor>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use egeria_models::resnet::{resnet_cifar, ResNetCifarConfig};
    use egeria_models::{Input, Targets};
    use egeria_tensor::Rng;

    fn setup() -> (Box<dyn Model>, Batch) {
        let m = resnet_cifar(
            ResNetCifarConfig {
                n: 2,
                width: 4,
                classes: 4,
                ..Default::default()
            },
            1,
        );
        let mut rng = Rng::new(2);
        let batch = Batch {
            input: Input::Image(Tensor::randn(&[2, 3, 8, 8], &mut rng)),
            targets: Targets::Classes(vec![0, 1]),
            sample_ids: vec![0, 1],
        };
        (Box::new(m), batch)
    }

    #[test]
    fn capture_before_generate_errors() {
        let (_, batch) = setup();
        let mut r = ReferenceManager::new(&EgeriaConfig::default());
        assert!(!r.is_ready());
        assert!(r.capture(&batch, 0).is_err());
    }

    #[test]
    fn generate_then_capture_works() {
        let (m, batch) = setup();
        let mut r = ReferenceManager::new(&EgeriaConfig::default());
        r.generate(m.as_ref()).unwrap();
        assert!(r.is_ready());
        let a = r.capture(&batch, 0).unwrap();
        assert!(a.numel() > 0);
        assert_eq!(r.stats().generations, 1);
        assert_eq!(r.stats().forwards, 1);
    }

    #[test]
    fn serve_routed_capture_is_bit_identical_to_inline() {
        let (m, batch) = setup();
        for precision in [Precision::F32, Precision::Int8] {
            let cfg = EgeriaConfig { reference_precision: precision, ..Default::default() };
            // Inline baseline: a manager with no engine attached.
            let mut inline = ReferenceManager::new(&cfg);
            inline.serve_requested = false;
            inline.generate(m.as_ref()).unwrap();
            // Served: same reference, explicit engine.
            let mut served = ReferenceManager::new(&cfg);
            served.serve_requested = false;
            served.generate(m.as_ref()).unwrap();
            served.set_serve_engine(Arc::new(ServeEngine::new(
                ServeConfig::default(),
                RealClock::shared(),
                Telemetry::disabled(),
            )));
            for module in 0..3 {
                let a = inline.capture(&batch, module).unwrap();
                let b = served.capture(&batch, module).unwrap();
                assert_eq!(a.data(), b.data(), "{precision:?} module {module}");
            }
            assert_eq!(served.serve_engine().unwrap().registry().version(), 1);
        }
    }

    #[test]
    fn generate_publishes_a_new_snapshot_version() {
        let (m, _) = setup();
        let mut r = ReferenceManager::new(&EgeriaConfig::default());
        r.serve_requested = false;
        r.set_serve_engine(Arc::new(ServeEngine::new(
            ServeConfig::default(),
            RealClock::shared(),
            Telemetry::disabled(),
        )));
        r.generate(m.as_ref()).unwrap();
        r.generate(m.as_ref()).unwrap();
        assert_eq!(r.serve_engine().unwrap().registry().version(), 2);
    }

    #[test]
    fn capture_many_matches_sequential_captures() {
        let (m, batch) = setup();
        let mut r = ReferenceManager::new(&EgeriaConfig::default());
        r.serve_requested = false;
        r.generate(m.as_ref()).unwrap();
        r.set_serve_engine(Arc::new(ServeEngine::new(
            ServeConfig { workers: 2, ..ServeConfig::default() },
            RealClock::shared(),
            Telemetry::disabled(),
        )));
        let many = r.capture_many(&batch, &[0, 1, 2]).unwrap();
        let mut solo = ReferenceManager::new(&EgeriaConfig::default());
        solo.serve_requested = false;
        solo.generate(m.as_ref()).unwrap();
        for (module, act) in many.iter().enumerate() {
            let want = solo.capture(&batch, module).unwrap();
            assert_eq!(act.data(), want.data());
        }
        assert_eq!(r.stats().forwards, 3);
    }

    #[test]
    fn dead_engine_degrades_to_inline_capture() {
        let (m, batch) = setup();
        let mut r = ReferenceManager::new(&EgeriaConfig::default());
        r.serve_requested = false;
        r.generate(m.as_ref()).unwrap();
        // An engine with no snapshot published: every probe fails with
        // NoSnapshot and capture must fall back inline.
        let engine = Arc::new(ServeEngine::new(
            ServeConfig::default(),
            RealClock::shared(),
            Telemetry::disabled(),
        ));
        r.serve = Some(engine); // bypass set_serve_engine's publish
        let a = r.capture(&batch, 0).unwrap();
        assert!(a.numel() > 0);
    }

    #[test]
    fn breaker_trips_on_consecutive_serve_failures_then_recovers() {
        use egeria_serve::VirtualClock;
        let (m, batch) = setup();
        let t = Telemetry::enabled();
        let clock = VirtualClock::shared();
        let mut r = ReferenceManager::new(&EgeriaConfig::default());
        r.serve_requested = false;
        r.set_telemetry(t.clone());
        r.set_clock(Arc::clone(&clock) as Arc<dyn Clock>);
        r.generate(m.as_ref()).unwrap();
        // An engine with no snapshot: every probe fails with NoSnapshot.
        // Bypass set_serve_engine so nothing gets published.
        r.serve = Some(Arc::new(ServeEngine::new(
            ServeConfig::default(),
            RealClock::shared(),
            t.clone(),
        )));
        // Three consecutive failures trip the breaker; every capture
        // still succeeds via the inline fallback.
        for _ in 0..3 {
            assert!(r.capture(&batch, 0).is_ok());
        }
        // Tripped: the next capture skips serve entirely.
        assert!(r.capture(&batch, 0).is_ok());
        let snap = t.metrics_snapshot();
        assert_eq!(snap.counter("resil.breaker.trips"), Some(1));
        assert_eq!(snap.counter("serve.breaker_rejected"), Some(1));
        assert_eq!(snap.counter("serve.fallbacks"), Some(4));
        // Fix the engine (publish the reference), let the cooldown pass:
        // the half-open recovery probe succeeds and the breaker closes.
        r.serve_requested = true; // publish_snapshot is gated on the flag
        r.publish_snapshot();
        clock.advance_us(BREAKER_COOLDOWN_US);
        assert!(r.capture(&batch, 0).is_ok());
        let snap = t.metrics_snapshot();
        assert_eq!(snap.counter("resil.breaker.recoveries"), Some(1));
        // Closed again: serve routing resumed (no new fallbacks).
        assert!(r.capture(&batch, 0).is_ok());
        let snap = t.metrics_snapshot();
        assert_eq!(snap.counter("serve.fallbacks"), Some(4));
    }

    #[test]
    fn publish_retry_recovers_from_single_injected_failure() {
        use egeria_resil::FaultAction;
        let (m, _) = setup();
        let mut r = ReferenceManager::new(&EgeriaConfig::default());
        r.serve_requested = false;
        let faults = FaultInjector::new();
        r.set_faults(Arc::clone(&faults));
        r.set_serve_engine(Arc::new(ServeEngine::new(
            ServeConfig::default(),
            RealClock::shared(),
            Telemetry::disabled(),
        )));
        faults.arm(FaultSite::SnapshotPublish, 0, 1, FaultAction::Fail);
        r.generate(m.as_ref()).unwrap();
        assert!(!r.snapshot_stale, "one failure is absorbed by the retry");
        assert_eq!(r.serve_engine().unwrap().registry().version(), 1);
    }

    #[test]
    fn exhausted_publish_marks_stale_until_next_generate() {
        use egeria_resil::FaultAction;
        let (m, batch) = setup();
        let t = Telemetry::enabled();
        let mut r = ReferenceManager::new(&EgeriaConfig::default());
        r.serve_requested = false;
        r.set_telemetry(t.clone());
        let faults = FaultInjector::new();
        r.set_faults(Arc::clone(&faults));
        r.generate(m.as_ref()).unwrap();
        r.set_serve_engine(Arc::new(ServeEngine::new(
            ServeConfig::default(),
            RealClock::shared(),
            t.clone(),
        )));
        assert_eq!(r.serve_engine().unwrap().registry().version(), 1);
        // Both attempts of the next publish fail: stale.
        faults.arm(FaultSite::SnapshotPublish, 0, 2, FaultAction::Fail);
        r.generate(m.as_ref()).unwrap();
        assert!(r.snapshot_stale);
        assert_eq!(r.serve_engine().unwrap().registry().version(), 1);
        // Stale: captures skip serve (would answer with version-1 bits).
        assert!(r.capture(&batch, 0).is_ok());
        let snap = t.metrics_snapshot();
        assert_eq!(snap.counter("serve.stale_skips"), Some(1));
        assert_eq!(snap.counter("serve.snapshot_publish_failures"), Some(1));
        // The next generate publishes cleanly and routing resumes.
        r.generate(m.as_ref()).unwrap();
        assert!(!r.snapshot_stale);
        assert_eq!(r.serve_engine().unwrap().registry().version(), 2);
        let snap = t.metrics_snapshot();
        assert_eq!(snap.counter("serve.snapshot_recoveries"), Some(1));
    }

    #[test]
    fn injected_capture_fault_surfaces_typed_error_then_clears() {
        use egeria_resil::FaultAction;
        let (m, batch) = setup();
        let mut r = ReferenceManager::new(&EgeriaConfig::default());
        r.serve_requested = false;
        let faults = FaultInjector::new();
        r.set_faults(Arc::clone(&faults));
        r.generate(m.as_ref()).unwrap();
        faults.arm(FaultSite::ReferenceCapture, 0, 1, FaultAction::Fail);
        assert!(r.capture(&batch, 0).is_err());
        assert!(r.capture(&batch, 0).is_ok(), "plan exhausted: capture heals");
    }

    #[test]
    fn updated_reference_tracks_training_model() {
        // After the training model changes, an updated reference must match
        // the new weights rather than the old snapshot.
        let (mut m, batch) = setup();
        let mut r = ReferenceManager::new(&EgeriaConfig {
            reference_precision: Precision::F32,
            ..Default::default()
        });
        r.generate(m.as_ref()).unwrap();
        let before = r.capture(&batch, 1).unwrap();
        // Perturb the model.
        for p in m.params_mut() {
            p.value = p.value.add_scalar(0.05);
        }
        r.generate(m.as_ref()).unwrap();
        let after = r.capture(&batch, 1).unwrap();
        assert!(!before.allclose(&after, 1e-6));
        let live = m.capture_activation(&batch, 1).unwrap();
        assert!(live.allclose(&after, 1e-5));
    }
}
