//! The Egeria training loop (Figure 3's life cycle, end to end).
//!
//! [`EgeriaTrainer`] drives a [`Model`] over a [`Dataset`] with an optimizer
//! and LR schedule. With `egeria: Some(config)` the loop runs the full
//! knowledge-guided pipeline — bootstrap monitoring, reference generation
//! and refresh, periodic plasticity evaluation, Algorithm 1
//! freezing/unfreezing, and cached-FP (a synchronous lookup on the
//! training thread, in the step that needs the batch — probe steps
//! included — and for validation, a stored boundary per batch). With
//! `egeria: None` it is the vanilla baseline the paper compares against.
//! Either way it emits a [`TrainReport`] whose per-iteration records feed
//! the performance simulator.

use crate::bootstrap::BootstrapMonitor;
use crate::cache::{ActivationCache, CacheStats, ValidationBoundaries};
use crate::checkpoint::{CheckpointOptions, CheckpointStore, TrainerCheckpoint};
use crate::config::EgeriaConfig;
use crate::freezer::{FreezeEvent, FreezingEngine};
use crate::plasticity::PlasticityObservation;
use crate::reference::{load_weights, ReferenceManager, ReferenceStats};
use egeria_data::{DataLoader, Dataset};
use egeria_models::{Batch, Model, StepResult};
use egeria_nn::optim::{Adam, OptimizerState, Sgd};
use egeria_nn::sched::LrSchedule;
use egeria_obs::{ArgValue, Telemetry};
use egeria_resil::fault::{FaultInjector, FaultSite};
use egeria_resil::health::HealthMonitor;
use egeria_tensor::{Result, Tensor, TensorError};
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// The optimizer driving parameter updates.
pub enum Optimizer {
    /// SGD with momentum.
    Sgd(Sgd),
    /// Adam.
    Adam(Adam),
}

impl Optimizer {
    /// Sets the learning rate on the wrapped optimizer.
    pub fn set_lr(&mut self, lr: f32) {
        match self {
            Optimizer::Sgd(o) => o.set_lr(lr),
            Optimizer::Adam(o) => o.set_lr(lr),
        }
    }

    /// Applies one update to the given parameters.
    pub fn step(&mut self, params: &mut [&mut egeria_nn::Parameter]) -> Result<()> {
        match self {
            Optimizer::Sgd(o) => o.step(params),
            Optimizer::Adam(o) => o.step(params),
        }
    }

    /// Snapshots the optimizer state for checkpointing.
    pub fn export_state(&self, params: &[&egeria_nn::Parameter]) -> OptimizerState {
        match self {
            Optimizer::Sgd(o) => o.export_state(params),
            Optimizer::Adam(o) => o.export_state(params),
        }
    }

    /// Restores optimizer state from a checkpoint.
    pub fn load_state(&mut self, state: &OptimizerState, params: &[&egeria_nn::Parameter]) -> Result<()> {
        match self {
            Optimizer::Sgd(o) => o.load_state(state, params),
            Optimizer::Adam(o) => o.load_state(state, params),
        }
    }
}

/// Trainer options beyond model/optimizer/schedule.
pub struct TrainerOptions {
    /// Number of epochs.
    pub epochs: usize,
    /// Egeria configuration; `None` trains the vanilla baseline.
    pub egeria: Option<EgeriaConfig>,
    /// Whether the LR schedule is indexed by iteration (NLP convention) or
    /// epoch (CV convention).
    pub lr_per_iteration: bool,
    /// Directory for the activation cache. When omitted and caching is
    /// on, each run makes a temp dir of its own and removes it when it
    /// ends; a directory named here is never removed.
    pub cache_dir: Option<PathBuf>,
    /// Crash-consistent checkpointing; `None` disables it. When set, the
    /// trainer auto-resumes from the newest valid checkpoint in the
    /// directory before the first epoch.
    pub checkpoint: Option<CheckpointOptions>,
    /// Fault injector for robustness tests; `None` in production.
    pub faults: Option<Arc<FaultInjector>>,
    /// Health monitor aggregating degradation signals from the cache
    /// quarantine. One is created internally when omitted, so the report
    /// always carries a final health state.
    pub health: Option<Arc<HealthMonitor>>,
    /// Telemetry handle wired through the freezer, cache, and reference
    /// manager. The default disabled handle records nothing and costs one
    /// branch per instrumentation point.
    pub telemetry: Telemetry,
}

impl Default for TrainerOptions {
    fn default() -> Self {
        TrainerOptions {
            epochs: 10,
            egeria: None,
            lr_per_iteration: false,
            cache_dir: None,
            checkpoint: None,
            faults: None,
            health: None,
            telemetry: Telemetry::disabled(),
        }
    }
}

/// One epoch's summary.
#[derive(Debug, Clone, Copy)]
pub struct EpochRecord {
    /// Epoch index.
    pub epoch: usize,
    /// Mean training loss.
    pub train_loss: f32,
    /// Validation loss (`None` when the run has no validation set).
    pub val_loss: Option<f32>,
    /// Validation task metric (`None` when the run has no validation set).
    pub val_metric: Option<f32>,
    /// Learning rate in effect at the epoch start.
    pub lr: f32,
    /// Frozen prefix at the epoch end.
    pub frozen_prefix: usize,
    /// Fraction of parameters still trainable at the epoch end.
    pub active_param_fraction: f32,
}

/// One training iteration's cost-relevant facts (the simulator input).
#[derive(Debug, Clone, Copy)]
pub struct IterationRecord {
    /// Epoch index.
    pub epoch: u32,
    /// Frozen-prefix length during this iteration.
    pub frozen_prefix: u16,
    /// Whether the frozen prefix's forward pass was served from the cache
    /// (a hit, or a promotion that ran only the modules frozen since),
    /// probe steps included. The record does not say which: the compute
    /// accounting built on it (the scenario `compute_saved` column, the
    /// simulator's replay) counts a promoted step as skipping the whole
    /// prefix's forward, which overstates it by the forward of the modules
    /// frozen since its entry was computed.
    pub fp_cached: bool,
}

/// One plasticity evaluation, for trace figures.
#[derive(Debug, Clone, Copy)]
pub struct PlasticityPoint {
    /// Global iteration index the evaluation ran at.
    pub iteration: usize,
    /// Module under evaluation.
    pub module: usize,
    /// Raw SP-loss plasticity.
    pub raw: f32,
    /// Smoothed (Equation 2) value.
    pub smoothed: f32,
}

/// A freeze/unfreeze event for the decision-timeline figure.
#[derive(Debug, Clone)]
pub struct EventRecord {
    /// Global iteration index.
    pub iteration: usize,
    /// `"freeze"` or `"unfreeze"`.
    pub kind: String,
    /// Frozen-prefix length after the event.
    pub prefix: usize,
}

/// The full output of a training run.
#[derive(Debug, Clone, Default)]
pub struct TrainReport {
    /// Model name.
    pub model: String,
    /// Whether Egeria was active.
    pub egeria: bool,
    /// Per-epoch summaries.
    pub epochs: Vec<EpochRecord>,
    /// Per-iteration cost facts.
    pub iterations: Vec<IterationRecord>,
    /// Plasticity trace.
    pub plasticity: Vec<PlasticityPoint>,
    /// Freeze/unfreeze events.
    pub events: Vec<EventRecord>,
    /// Cache counters (zeroed when caching is off).
    pub cache_stats: CacheStats,
    /// Reference counters.
    pub reference_stats: ReferenceStats,
    /// Total bytes of input data materialized (for the cache-storage-ratio
    /// report).
    pub input_bytes: u64,
    /// Always 0: every run probes its reference inline on the training
    /// thread, so there is no controller thread to restart. The field stays
    /// because the `benchmark/` package reads it.
    pub controller_restarts: usize,
    /// Checkpoint saves that failed (training continued without them).
    pub checkpoint_save_errors: usize,
    /// The epoch training resumed from, if a checkpoint was loaded.
    pub resumed_from_epoch: Option<usize>,
    /// Plasticity evaluations skipped because the reference capture
    /// failed (degrading to "don't decide yet" instead of aborting).
    pub eval_skips: usize,
    /// Final health level: 0 healthy, 1 degraded, 2 critical.
    pub health_level: u8,
    /// Outstanding health reasons (critical first, then degraded) at the
    /// end of the run.
    pub health_reasons: Vec<String>,
}

/// The training harness.
pub struct EgeriaTrainer {
    model: Box<dyn Model>,
    optimizer: Optimizer,
    schedule: Box<dyn LrSchedule>,
    options: TrainerOptions,
}

/// The step a phase runs in: its global index and learning rate.
#[derive(Clone, Copy)]
struct Step {
    index: usize,
    lr: f32,
}

/// How one step runs its forward/backward pass (phase 1's verdict); the
/// default is the vanilla baseline's whole walk.
#[derive(Clone, Copy, Default)]
struct StepPath {
    /// Plasticity evaluation: module `front`'s activation is hooked for
    /// the probe.
    probe: Option<usize>,
    /// The frozen prefix whose output the step takes from the activation
    /// cache: a hit, a promotion of an earlier boundary, or a fill. `None`
    /// runs the whole walk.
    cached: Option<usize>,
}

/// Everything one Egeria-enabled run owns beyond the model and optimizer.
/// `train` holds it as `Option<EgeriaRun>`: the vanilla baseline has none
/// and its step stays a bare `train_step(&batch, None)`.
///
/// The loop body is six phases; what each may touch (DESIGN §5k):
/// 1. [`select_path`](Self::select_path) — reads only.
/// 2. `EgeriaTrainer::forward_backward` — model, cache.
/// 3. [`probe_plasticity`](Self::probe_plasticity) — reference; via the
///    fold: freezer, cache, model prefix, report.
/// 4. [`bootstrap_and_refresh`](Self::bootstrap_and_refresh) — bootstrap,
///    reference, `evals_since_ref_update`.
/// 5. `EgeriaTrainer::optimizer_step` — model parameters, optimizer.
/// 6. `EgeriaTrainer::save_checkpoint` — cache flush, checkpoint store.
struct EgeriaRun {
    /// This run's copy of the config.
    cfg: EgeriaConfig,
    bootstrap: BootstrapMonitor,
    freezer: FreezingEngine,
    cache: Option<ActivationCache>,
    /// Declared after `cache`, so the store closes before its files go.
    _own_cache_dir: Option<OwnCacheDir>,
    /// Probed inline on the training thread; not ready until the
    /// bootstrap stage ends.
    reference: ReferenceManager,
    evals_since_ref_update: usize,
    telemetry: Telemetry,
}

impl EgeriaRun {
    fn start(
        cfg: EgeriaConfig,
        model: &dyn Model,
        options: &TrainerOptions,
        health: Arc<HealthMonitor>,
    ) -> Result<Self> {
        let telemetry = options.telemetry.clone();
        let faults = options.faults.clone();
        let mut freezer = FreezingEngine::new(model.modules().len(), &cfg);
        freezer.set_telemetry(telemetry.clone());
        let mut own_cache_dir = None;
        let cache = if cfg.cache_fp {
            let dir = options.cache_dir.clone().unwrap_or_else(|| {
                let own = own_cache_dir.insert(OwnCacheDir(default_cache_dir(model.name())));
                own.0.clone()
            });
            let mut cache = ActivationCache::for_config(dir, &cfg)?;
            cache.set_faults(faults.clone());
            cache.set_telemetry(telemetry.clone());
            cache.set_health(Arc::clone(&health));
            Some(cache)
        } else {
            None
        };
        let mut reference = ReferenceManager::new(&cfg);
        reference.set_telemetry(telemetry.clone());
        if let Some(f) = faults {
            reference.set_faults(f);
        }
        Ok(EgeriaRun {
            cfg,
            bootstrap: BootstrapMonitor::new(cfg.w.max(4), cfg.bootstrap_rate),
            freezer,
            cache,
            _own_cache_dir: own_cache_dir,
            reference,
            evals_since_ref_update: 0,
            telemetry,
        })
    }

    /// Phase 1. `prefix` is the frozen prefix the step started with.
    fn select_path(&self, model: &dyn Model, prefix: usize, step: Step) -> StepPath {
        let probe = (self.bootstrap.is_done()
            && step.index.is_multiple_of(self.cfg.n)
            && self.reference.is_ready())
        .then(|| self.freezer.front());
        // A probe hooks an active module, which a resumed walk still runs.
        let cached = (prefix > 0
            && self.cache.is_some()
            && model.supports_cached_fp(prefix)
            && probe.is_none_or(|front| front >= prefix))
        .then_some(prefix);
        StepPath { probe, cached }
    }

    /// Phase 3. Captures the reference activation for the hooked training
    /// activation's batch, computes the SP loss and folds it now, before
    /// the optimizer step.
    fn probe_plasticity(
        &mut self,
        model: &mut dyn Model,
        batch: &Batch,
        front: usize,
        a_train: Tensor,
        report: &mut TrainReport,
        step: Step,
    ) -> Result<()> {
        match self.reference.capture(batch, front) {
            Ok(a_ref) => {
                let p = egeria_analysis::sp_loss(&a_train, &a_ref)?;
                self.fold_plasticity(model, report, step, p, front)?;
            }
            // A failed reference capture degrades to "don't decide yet":
            // the evaluation is skipped (freezing on missing knowledge is
            // the mistimed-freeze risk §4.2 warns about), training itself
            // never aborts.
            Err(e) => {
                eprintln!("egeria: reference capture failed; skipping evaluation: {e}");
                report.eval_skips += 1;
                self.telemetry.counter("trainer.eval_skips").inc();
            }
        }
        Ok(())
    }

    /// Folds one plasticity value into the freezer (which bumps the
    /// evaluation telemetry and runs the policy's LR-reboot guard exactly
    /// once), records the observation, applies the decision to the
    /// model/cache, and records the event.
    fn fold_plasticity(
        &mut self,
        model: &mut dyn Model,
        report: &mut TrainReport,
        step: Step,
        p: f32,
        module: usize,
    ) -> Result<()> {
        let (obs, event) = self.freezer.observe_value(p, step.lr)?;
        if let Some(o) = obs {
            record_plasticity(report, &self.telemetry, step.index, module, o);
        }
        match event {
            FreezeEvent::None => {}
            // Entries at the old boundary stay valid: the modules they
            // cover are still frozen, and lookups carry them forward.
            FreezeEvent::Froze(k) => model.freeze_prefix(k)?,
            FreezeEvent::Unfroze => {
                model.unfreeze_all();
                // The thawed weights will move, so every entry goes stale.
                if let Some(c) = self.cache.as_mut() {
                    c.invalidate();
                }
            }
        }
        record_event(
            report,
            &self.telemetry,
            step.index,
            event,
            model.frozen_prefix(),
            obs.map(|o| o.smoothed),
            self.freezer.policy_name(),
        );
        self.evals_since_ref_update += 1;
        Ok(())
    }

    /// Phase 4. Bootstrap monitoring runs at the same `n`-interval as
    /// evaluation; the step that ends the critical period generates the
    /// first reference. Afterwards the reference is refreshed from the
    /// current weights every `reference_update_every` folded evaluations.
    fn bootstrap_and_refresh(&mut self, model: &dyn Model, loss: f32, step: Step) -> Result<()> {
        if !self.bootstrap.is_done()
            && step.index.is_multiple_of(self.cfg.n)
            && self.bootstrap.observe(loss)
        {
            self.reference.generate(model)?;
        }
        let every = self.cfg.reference_update_every;
        if every > 0 && self.evals_since_ref_update >= every {
            self.reference.generate(model)?;
            self.evals_since_ref_update = 0;
        }
        Ok(())
    }

    /// Restores the Egeria half of a checkpoint; `model` already carries
    /// the restored weights and frozen prefix.
    fn restore(&mut self, ckpt: &TrainerCheckpoint, model: &dyn Model) -> Result<()> {
        if let Some(s) = ckpt.freezer.as_ref() {
            self.freezer.restore(s)?;
        }
        if let Some(s) = ckpt.bootstrap.as_ref() {
            self.bootstrap.restore(s);
        }
        // The bootstrap-completion transition that normally generates the
        // reference is latched and will never re-fire after restore, so the
        // reference is reconstructed here: the exact checkpointed one for
        // exact replay, or — for a checkpoint that carries none, as the
        // async-controller runs of earlier versions wrote — one regenerated
        // from the restored weights.
        if self.bootstrap.is_done() {
            match &ckpt.reference {
                Some(snap) => self.reference.restore_reference(model, snap)?,
                None => self.reference.generate(model)?,
            }
        }
        // Cache backend continuity: if the run that wrote this checkpoint
        // used a different cache backend, the on-disk layout in the cache
        // dir belongs to the other world (flat sample files vs chunked
        // shards). Invalidate so the resumed run starts from a clean cache.
        // (Either backend removes only the files of its own layout, so the
        // other layout's files stay behind, unread.) Otherwise adopt the
        // store only if it was persisted at this checkpoint's prefix: one
        // persisted at another was written after it (a later checkpoint
        // was lost), and its entries may come from weights this run never
        // had.
        if let Some(c) = self.cache.as_mut() {
            if c.store_kind().name() != ckpt.cache_store {
                eprintln!(
                    "egeria: cache backend changed across resume ({} -> {}); invalidating cache",
                    ckpt.cache_store,
                    c.store_kind().name()
                );
                c.invalidate();
            } else {
                c.resume_at(ckpt.frozen_prefix as usize);
            }
        }
        self.evals_since_ref_update = ckpt.evals_since_ref_update as usize;
        Ok(())
    }

    /// Drops the cache entries not at the newest boundary (both backends),
    /// then flushes the chunked store and tags its manifest, so the
    /// on-disk state stays consistent for a later resume. Failure is a
    /// degradation — the resume recomputes — never fatal.
    fn persist_cache(&mut self, when: &str) {
        if let Some(c) = self.cache.as_mut() {
            if let Err(e) = c.persist() {
                eprintln!("egeria: cache persist failed {when}: {e}; resume will recompute");
            }
        }
    }

    /// Run boundary: flush the cache so the reported disk-byte stats
    /// reflect what actually landed, and hand the counters to the report.
    fn finish(mut self, report: &mut TrainReport) {
        self.persist_cache("at end of training");
        if let Some(c) = &self.cache {
            report.cache_stats = c.stats();
        }
        report.reference_stats = self.reference.stats();
    }
}

impl EgeriaTrainer {
    /// Creates a trainer.
    pub fn new(
        model: Box<dyn Model>,
        optimizer: Optimizer,
        schedule: Box<dyn LrSchedule>,
        options: TrainerOptions,
    ) -> Self {
        EgeriaTrainer {
            model,
            optimizer,
            schedule,
            options,
        }
    }

    /// Access to the trained model after (or during) training.
    pub fn model(&self) -> &dyn Model {
        self.model.as_ref()
    }

    /// Runs the full training loop.
    ///
    /// `val` is evaluated after every epoch with its own loader, and must
    /// give the same input for an index every time it is materialized.
    /// With the activation cache on, each validation batch crosses the
    /// frozen prefix once per unfreeze cycle: while the prefix stays
    /// frozen, it is scored from its stored prefix output with
    /// `Model::eval_batch_from`. Those outputs are held in memory, never
    /// counted in the cache stats, and emptied with the cache on an
    /// unfreeze. The scores are the bits `eval_batch` gives.
    pub fn train(
        &mut self,
        train: &dyn Dataset,
        loader: &DataLoader,
        val: Option<(&dyn Dataset, &DataLoader)>,
    ) -> Result<TrainReport> {
        let telemetry = self.options.telemetry.clone();
        let health = self
            .options
            .health
            .clone()
            .unwrap_or_else(|| HealthMonitor::new(telemetry.clone()));
        let mut run = match self.options.egeria {
            Some(cfg) => Some(EgeriaRun::start(
                cfg,
                self.model.as_ref(),
                &self.options,
                Arc::clone(&health),
            )?),
            None => None,
        };
        let mut report = TrainReport {
            model: self.model.name().to_string(),
            egeria: run.is_some(),
            ..Default::default()
        };

        // Crash consistency: open the checkpoint store and resume from the
        // newest valid checkpoint before the first epoch.
        let mut store = match &self.options.checkpoint {
            Some(opts) => Some(
                CheckpointStore::open(&opts.dir, opts.keep)?
                    .with_faults(self.options.faults.clone()),
            ),
            None => None,
        };
        let (mut start_epoch, mut global_step) = (0usize, 0usize);
        if let Some(ckpt) = store.as_ref().and_then(|s| s.load_latest()) {
            self.resume_from(&ckpt, run.as_mut(), &mut report)?;
            start_epoch = ckpt.next_epoch as usize;
            global_step = ckpt.global_step as usize;
        }

        for epoch in start_epoch..self.options.epochs {
            let plans = loader.epoch_plan(epoch);
            let mut epoch_loss = 0.0f64;
            let mut epoch_batches = 0usize;
            let epoch_lr = self.lr_at(epoch, global_step);
            for plan in &plans {
                // Simulated mid-epoch crash (robustness tests): abort the
                // run exactly here, before any state for this step exists.
                if let Some(f) = &self.options.faults {
                    if f.should_fail(FaultSite::TrainStep) {
                        return Err(TensorError::Io(
                            "injected crash: training aborted mid-epoch".into(),
                        ));
                    }
                }
                let step = Step {
                    index: global_step,
                    lr: self.lr_at(epoch, global_step),
                };
                self.optimizer.set_lr(step.lr);
                let batch = train.materialize(&plan.indices)?;
                report.input_bytes += batch_input_bytes(&batch);
                let prefix = self.model.frozen_prefix();

                // Phase 1: pick the path.
                let path = run.as_ref().map_or_else(StepPath::default, |run| {
                    run.select_path(self.model.as_ref(), prefix, step)
                });
                let step_span = telemetry.span("train_step");
                // Phase 2: forward/backward.
                let (mut result, fp_cached) =
                    self.forward_backward(run.as_mut(), path, &batch, step)?;
                // Phases 3–4: fold plasticity, bootstrap/reference upkeep.
                if let Some(run) = run.as_mut() {
                    if let Some(front) = path.probe {
                        let a_train = result.captured.take().ok_or_else(|| {
                            TensorError::Numerical("capture hook returned nothing".into())
                        })?;
                        let model = self.model.as_mut();
                        run.probe_plasticity(model, &batch, front, a_train, &mut report, step)?;
                    }
                    run.bootstrap_and_refresh(self.model.as_ref(), result.loss, step)?;
                }
                // Phase 5: optimizer step.
                self.optimizer_step(step)?;
                drop(
                    step_span
                        .iteration(global_step as u64)
                        .arg("frozen_prefix", self.model.frozen_prefix() as u64)
                        .arg("fp_cached", fp_cached),
                );
                epoch_loss += result.loss as f64;
                epoch_batches += 1;
                report.iterations.push(IterationRecord {
                    epoch: epoch as u32,
                    frozen_prefix: self.model.frozen_prefix() as u16,
                    fp_cached,
                });
                global_step += 1;
            }

            let (val_loss, val_metric) = match &val {
                Some((vd, vl)) => {
                    let boundaries = run
                        .as_mut()
                        .and_then(|run| run.cache.as_mut())
                        .map(ActivationCache::validation);
                    let model = self.model.as_mut();
                    let span = telemetry.span("evaluate").iteration(global_step as u64);
                    let (l, m, tally) = validate(model, *vd, vl, boundaries)?;
                    drop(
                        span.arg("batches", tally.batches)
                            .arg("served", tally.served)
                            .arg("promoted", tally.promoted)
                            .arg("recomputed", tally.recomputed),
                    );
                    (Some(l), Some(m))
                }
                None => (None, None),
            };
            report.epochs.push(EpochRecord {
                epoch,
                train_loss: (epoch_loss / epoch_batches.max(1) as f64) as f32,
                val_loss,
                val_metric,
                lr: epoch_lr,
                frozen_prefix: self.model.frozen_prefix(),
                active_param_fraction: self.model.active_param_fraction(),
            });
            record_pool_occupancy(&telemetry, global_step);
            // Phase 6: epoch-boundary checkpoint.
            if let Some(s) = store.as_mut() {
                self.save_checkpoint(s, run.as_mut(), &mut report, epoch, global_step);
            }
        }
        if let Some(run) = run {
            run.finish(&mut report);
        }
        let health_state = health.state();
        report.health_level = health_state.level();
        report.health_reasons = match health_state {
            egeria_resil::HealthState::Healthy => Vec::new(),
            egeria_resil::HealthState::Degraded { reasons }
            | egeria_resil::HealthState::Critical { reasons } => {
                reasons.into_iter().map(str::to_string).collect()
            }
        };
        Ok(report)
    }

    /// The scheduled learning rate: indexed by iteration (NLP convention)
    /// or epoch (CV convention).
    fn lr_at(&self, epoch: usize, global_step: usize) -> f32 {
        self.schedule.lr(if self.options.lr_per_iteration {
            global_step
        } else {
            epoch
        })
    }

    /// Phase 2: the step's forward + loss + backward along `path`; returns
    /// the result and whether the frozen prefix's forward came from the
    /// cache.
    fn forward_backward(
        &mut self,
        run: Option<&mut EgeriaRun>,
        path: StepPath,
        batch: &Batch,
        step: Step,
    ) -> Result<(StepResult, bool)> {
        let cache = run.and_then(|run| Some((run.cache.as_mut()?, &run.telemetry)));
        match (path.cached, cache) {
            (Some(prefix), Some((cache, telemetry))) => {
                let model = self.model.as_mut();
                let (boundary, outcome) = frozen_boundary(model, cache, batch, prefix)?;
                if telemetry.is_enabled() {
                    telemetry.instant(
                        "cache_lookup",
                        Some(step.index as u64),
                        None,
                        vec![("outcome", ArgValue::Str(outcome))],
                    );
                }
                let r = model.train_step_from(batch, prefix, &boundary, path.probe)?;
                Ok((r, outcome != "miss"))
            }
            _ => Ok((self.model.train_step(batch, path.probe)?, false)),
        }
    }

    /// Phase 5: one optimizer update, then clear the gradients.
    fn optimizer_step(&mut self, step: Step) -> Result<()> {
        let _opt_span = self
            .options
            .telemetry
            .span("opt_step")
            .iteration(step.index as u64);
        let mut params = self.model.params_mut();
        self.optimizer.step(&mut params)?;
        drop(params);
        self.model.zero_grad();
        Ok(())
    }

    /// Phase 6: the epoch-boundary checkpoint, when one is due. A failed
    /// save is a logged degradation, never a training failure.
    fn save_checkpoint(
        &self,
        store: &mut CheckpointStore,
        mut run: Option<&mut EgeriaRun>,
        report: &mut TrainReport,
        epoch: usize,
        global_step: usize,
    ) {
        let every = self
            .options
            .checkpoint
            .as_ref()
            .map(|o| o.every.max(1))
            .unwrap_or(1);
        let due = (epoch + 1).is_multiple_of(every) || epoch + 1 == self.options.epochs;
        if !due {
            return;
        }
        // Flush the activation store alongside the model checkpoint so a
        // resumed run reopens a consistent cache.
        if let Some(run) = run.as_deref_mut() {
            run.persist_cache(&format!("at epoch {epoch}"));
        }
        let ckpt = self.build_checkpoint(run.as_deref(), report, epoch + 1, global_step);
        let telemetry = &self.options.telemetry;
        let _save_span = telemetry
            .span("checkpoint_save")
            .iteration(global_step as u64);
        if let Err(e) = store.save(&ckpt) {
            eprintln!("egeria: checkpoint save failed at epoch {epoch}: {e}");
            report.checkpoint_save_errors += 1;
            telemetry.counter("checkpoint.save_errors").inc();
        } else {
            telemetry.counter("checkpoint.saves").inc();
        }
    }

    /// Assembles the complete persistent state at an epoch boundary.
    fn build_checkpoint(
        &self,
        run: Option<&EgeriaRun>,
        report: &TrainReport,
        next_epoch: usize,
        global_step: usize,
    ) -> TrainerCheckpoint {
        let params = self.model.params();
        let optimizer = self.optimizer.export_state(&params);
        TrainerCheckpoint {
            model_name: self.model.name().to_string(),
            next_epoch: next_epoch as u64,
            global_step: global_step as u64,
            evals_since_ref_update: run.map_or(0, |r| r.evals_since_ref_update as u64),
            frozen_prefix: self.model.frozen_prefix() as u64,
            params: params
                .iter()
                .map(|p| (p.name.clone(), p.value.clone()))
                .collect(),
            state_buffers: self
                .model
                .state_buffers()
                .iter()
                .map(|t| (*t).clone())
                .collect(),
            optimizer,
            freezer: run.map(|r| r.freezer.snapshot()),
            bootstrap: run.map(|r| r.bootstrap.snapshot()),
            reference: run.and_then(|r| r.reference.export_reference()),
            epochs: report.epochs.clone(),
            iterations: report.iterations.clone(),
            plasticity: report.plasticity.clone(),
            events: report.events.clone(),
            input_bytes: report.input_bytes,
            cache_store: run
                .and_then(|r| r.cache.as_ref())
                .map(|c| c.store_kind().name().to_string())
                .unwrap_or_else(|| "flat".to_string()),
        }
    }

    /// Restores trainer state from a loaded checkpoint: model (parameters
    /// by name, state buffers by position, frozen prefix) and optimizer
    /// here, the Egeria machinery in [`EgeriaRun::restore`], and the report
    /// accumulators so the final report covers the whole run.
    fn resume_from(
        &mut self,
        ckpt: &TrainerCheckpoint,
        run: Option<&mut EgeriaRun>,
        report: &mut TrainReport,
    ) -> Result<()> {
        if ckpt.model_name != self.model.name() {
            return Err(TensorError::Corrupt(format!(
                "checkpoint is for model {:?}, trainer has {:?}",
                ckpt.model_name,
                self.model.name()
            )));
        }
        load_weights(
            self.model.as_mut(),
            &ckpt.params,
            &ckpt.state_buffers,
            "checkpoint",
            "resume",
        )?;
        self.model.zero_grad();
        self.model.unfreeze_all();
        if ckpt.frozen_prefix > 0 {
            self.model.freeze_prefix(ckpt.frozen_prefix as usize)?;
        }
        self.optimizer
            .load_state(&ckpt.optimizer, &self.model.params())?;
        if let Some(run) = run {
            run.restore(ckpt, self.model.as_ref())?;
        }
        report.epochs = ckpt.epochs.clone();
        report.iterations = ckpt.iterations.clone();
        report.plasticity = ckpt.plasticity.clone();
        report.events = ckpt.events.clone();
        report.input_bytes = ckpt.input_bytes;
        report.resumed_from_epoch = Some(ckpt.next_epoch as usize);
        Ok(())
    }
}

/// The output of the frozen prefix `0..prefix` for `batch`, so each
/// sample crosses a frozen module once per unfreeze cycle: the cached
/// boundary (`"hit"`), a cached earlier boundary carried forward over the
/// modules frozen since (`"promoted"`), or a fresh capture (`"miss"`). The
/// last two are put back at `prefix`. Frozen modules run in `Mode::Eval` on
/// every path, so all three give the same bits. Entries whose dims do not
/// fit the model (a reused `cache_dir`) are a miss, never an abort.
fn frozen_boundary(
    model: &mut dyn Model,
    cache: &mut ActivationCache,
    batch: &Batch,
    prefix: usize,
) -> Result<(Tensor, &'static str)> {
    // Asked only of a boundary this run has not computed, i.e. one a
    // resume adopted: its dims are the model's output of module `at - 1`.
    // The trainer never caches boundary 0 (the input), so nothing fits it.
    let geometry = |at: usize| match at.checked_sub(1) {
        Some(module) => Ok(model.capture_activation(batch, module)?.dims()[1..].to_vec()),
        None => Ok(Vec::new()),
    };
    let (boundary, outcome) = match cache.lookup(&batch.sample_ids, prefix, geometry)? {
        Some((act, at)) if at == prefix => return Ok((act, "hit")),
        Some((act, at)) => (model.forward_from(batch, at, &act, prefix)?, "promoted"),
        None => (model.capture_activation(batch, prefix - 1)?, "miss"),
    };
    cache.put_batch(&batch.sample_ids, &boundary, prefix)?;
    Ok((boundary, outcome))
}

/// Evaluates a model over a full dataset pass; returns `(loss, metric)`
/// averaged by sample count.
pub fn evaluate(model: &mut dyn Model, data: &dyn Dataset, loader: &DataLoader) -> Result<(f32, f32)> {
    let (loss, metric, _) = validate(model, data, loader, None)?;
    Ok((loss, metric))
}

/// How one validation pass scored its batches: `batches` in all; of them,
/// `served` from a stored boundary, `promoted` from one carried forward
/// over the modules frozen since, and `recomputed` from a fresh capture.
/// The rest ran the whole network.
#[derive(Default)]
struct ValidationTally {
    batches: u64,
    served: u64,
    promoted: u64,
    recomputed: u64,
}

/// The one evaluation loop behind [`evaluate`]. Given the cache's
/// validation boundaries, and while the model can resume at its frozen
/// prefix, each batch crosses that prefix once per unfreeze cycle: it is
/// scored with `eval_batch_from` from its stored boundary, from one
/// carried forward with `forward_from` (a promotion), or from a fresh
/// `capture_activation`; the last two are stored. Frozen modules run in
/// `Mode::Eval` on every path, so every batch scores the same bits as an
/// `eval_batch`.
fn validate(
    model: &mut dyn Model,
    data: &dyn Dataset,
    loader: &DataLoader,
    boundaries: Option<&mut ValidationBoundaries>,
) -> Result<(f32, f32, ValidationTally)> {
    let prefix = model.frozen_prefix();
    let mut boundaries = boundaries.filter(|_| prefix > 0 && model.supports_cached_fp(prefix));
    let mut tally = ValidationTally::default();
    let mut loss = 0.0f64;
    let mut metric = 0.0f64;
    let mut count = 0usize;
    for (slot, plan) in loader.epoch_plan(0).iter().enumerate() {
        let batch = data.materialize(&plan.indices)?;
        let r = match boundaries.as_deref_mut() {
            Some(table) => {
                let (mut promoted, mut recomputed) = (0, 0);
                let boundary =
                    table.at(slot, &batch.sample_ids, prefix, |stored| match stored {
                        Some((act, at)) => {
                            promoted = 1;
                            model.forward_from(&batch, at, act, prefix)
                        }
                        None => {
                            recomputed = 1;
                            model.capture_activation(&batch, prefix - 1)
                        }
                    })?;
                tally.promoted += promoted;
                tally.recomputed += recomputed;
                tally.served += 1 - promoted - recomputed;
                model.eval_batch_from(&batch, prefix, boundary)?
            }
            None => model.eval_batch(&batch)?,
        };
        tally.batches += 1;
        loss += r.loss as f64 * r.count as f64;
        metric += r.metric as f64 * r.count as f64;
        count += r.count;
    }
    let n = count.max(1) as f64;
    Ok(((loss / n) as f32, (metric / n) as f32, tally))
}

fn batch_input_bytes(batch: &egeria_models::Batch) -> u64 {
    match &batch.input {
        egeria_models::Input::Image(t) => (t.numel() * 4) as u64,
        egeria_models::Input::Tokens(ids) => {
            ids.iter().map(|s| s.len() * 8).sum::<usize>() as u64
        }
        egeria_models::Input::Seq2Seq { src, tgt } => {
            (src.iter().map(|s| s.len()).sum::<usize>()
                + tgt.iter().map(|s| s.len()).sum::<usize>()) as u64
                * 8
        }
    }
}

/// The cache directory a run made for itself (`cache_dir: None`), removed
/// when the run ends — after `finish` and after an error alike. A directory
/// the caller named is never wrapped in one.
struct OwnCacheDir(PathBuf);

impl Drop for OwnCacheDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// The activation-cache directory of one run whose options name none:
/// unique per run (process id + a process-wide run counter), so concurrent
/// trainers of one model never share `sample_<id>.act` files.
fn default_cache_dir(model_name: &str) -> PathBuf {
    static RUNS: AtomicUsize = AtomicUsize::new(0);
    std::env::temp_dir().join(format!(
        "egeria_cache_{}_{}_{}",
        std::process::id(),
        RUNS.fetch_add(1, Ordering::Relaxed),
        model_name
    ))
}

fn record_pool_occupancy(telemetry: &Telemetry, global_step: usize) {
    if !telemetry.is_enabled() {
        return;
    }
    let pool = egeria_tensor::ThreadPool::global().stats();
    telemetry.gauge("pool.jobs").set(pool.jobs as f64);
    telemetry.gauge("pool.tasks").set(pool.tasks as f64);
    telemetry.gauge("pool.inline_jobs").set(pool.inline_jobs as f64);
    telemetry.gauge("pool.small_jobs").set(pool.small_jobs as f64);
    telemetry.instant(
        "pool_occupancy",
        Some(global_step as u64),
        None,
        vec![
            ("jobs", ArgValue::U64(pool.jobs as u64)),
            ("tasks", ArgValue::U64(pool.tasks as u64)),
            ("inline_jobs", ArgValue::U64(pool.inline_jobs as u64)),
            ("small_jobs", ArgValue::U64(pool.small_jobs as u64)),
        ],
    );
}

fn record_plasticity(
    report: &mut TrainReport,
    telemetry: &Telemetry,
    iteration: usize,
    module: usize,
    obs: PlasticityObservation,
) {
    let PlasticityObservation { raw, smoothed, .. } = obs;
    report.plasticity.push(PlasticityPoint {
        iteration,
        module,
        raw,
        smoothed,
    });
    if telemetry.is_enabled() {
        telemetry.instant(
            "plasticity_probe",
            Some(iteration as u64),
            Some(module as u64),
            vec![
                ("raw", ArgValue::F64(raw as f64)),
                ("smoothed", ArgValue::F64(smoothed as f64)),
            ],
        );
    }
}

fn record_event(
    report: &mut TrainReport,
    telemetry: &Telemetry,
    iteration: usize,
    event: FreezeEvent,
    prefix: usize,
    value: Option<f32>,
    policy: &'static str,
) {
    let kind = match event {
        FreezeEvent::None => return,
        FreezeEvent::Froze(_) => "freeze",
        FreezeEvent::Unfroze => "unfreeze",
    };
    report.events.push(EventRecord {
        iteration,
        kind: kind.to_string(),
        prefix,
    });
    if telemetry.is_enabled() {
        let mut args = vec![
            (
                "action",
                ArgValue::Str(match event {
                    FreezeEvent::Froze(_) => "froze",
                    _ => "unfroze",
                }),
            ),
            ("frozen_prefix", ArgValue::U64(prefix as u64)),
            ("policy", ArgValue::Str(policy)),
        ];
        if let Some(v) = value {
            args.push(("value", ArgValue::F64(v as f64)));
        }
        telemetry.instant("freeze_decision", Some(iteration as u64), None, args);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::UnfreezePolicy;
    use egeria_data::images::{ImageDataConfig, SyntheticImages};
    use egeria_models::resnet::{resnet_cifar, ResNetCifarConfig};
    use egeria_nn::sched::MultiStepDecay;

    fn tiny_setup(egeria: Option<EgeriaConfig>, epochs: usize) -> (EgeriaTrainer, SyntheticImages, DataLoader) {
        let model = resnet_cifar(
            ResNetCifarConfig {
                n: 2,
                width: 4,
                classes: 4,
                ..Default::default()
            },
            7,
        );
        let data = SyntheticImages::new(
            ImageDataConfig {
                samples: 64,
                classes: 4,
                size: 8,
                noise: 0.3,
                augment: true,
            },
            11,
        );
        let loader = DataLoader::new(64, 16, 13, true);
        let trainer = EgeriaTrainer::new(
            Box::new(model),
            Optimizer::Sgd(Sgd::new(0.05, 0.9, 1e-4)),
            Box::new(MultiStepDecay::new(0.05, 0.1, vec![usize::MAX])),
            TrainerOptions {
                epochs,
                egeria,
                ..Default::default()
            },
        );
        (trainer, data, loader)
    }

    #[test]
    fn baseline_training_reduces_loss() {
        let (mut t, data, loader) = tiny_setup(None, 6);
        let report = t.train(&data, &loader, Some((&data, &loader))).unwrap();
        assert_eq!(report.epochs.len(), 6);
        let first = report.epochs.first().unwrap().train_loss;
        let last = report.epochs.last().unwrap().train_loss;
        assert!(last < first, "loss {first} → {last}");
        assert!(!report.egeria);
        assert!(report.iterations.iter().all(|i| i.frozen_prefix == 0 && !i.fp_cached));
    }

    #[test]
    fn egeria_training_freezes_and_caches() {
        let cfg = EgeriaConfig {
            n: 2,
            w: 3,
            s: 2,
            t: 5.0, // Permissive: even a steady trend counts as stationary.
            bootstrap_rate: 0.9,
            ..Default::default()
        };
        let (mut t, data, loader) = tiny_setup(Some(cfg), 10);
        let report = t.train(&data, &loader, None).unwrap();
        assert!(report.egeria);
        let max_prefix = report.iterations.iter().map(|i| i.frozen_prefix).max().unwrap();
        assert!(max_prefix >= 1, "nothing froze");
        assert!(
            report.iterations.iter().any(|i| i.fp_cached),
            "cache never hit"
        );
        assert!(!report.plasticity.is_empty());
        assert!(report
            .events
            .iter()
            .any(|e| e.kind == "freeze"), "no freeze events recorded");
    }

    #[test]
    fn frozen_prefix_is_monotonic_without_unfreeze() {
        let cfg = EgeriaConfig {
            n: 2,
            w: 3,
            s: 2,
            t: 5.0,
            bootstrap_rate: 0.9,
            unfreeze: UnfreezePolicy::Never,
            ..Default::default()
        };
        let (mut t, data, loader) = tiny_setup(Some(cfg), 8);
        let report = t.train(&data, &loader, None).unwrap();
        let prefixes: Vec<u16> = report.iterations.iter().map(|i| i.frozen_prefix).collect();
        for w in prefixes.windows(2) {
            assert!(w[1] >= w[0], "prefix shrank without an unfreeze event");
        }
    }

    /// A short sync run's `(reference generations, folded evaluations)`:
    /// inline, every reference forward is one capture whose value is folded.
    fn refresh_counts(reference_update_every: usize) -> (usize, usize) {
        let cfg = EgeriaConfig {
            n: 2,
            w: 3,
            s: 2,
            bootstrap_rate: 0.9,
            reference_update_every,
            cache_fp: false,
            ..Default::default()
        };
        let (mut t, data, loader) = tiny_setup(Some(cfg), 8);
        let report = t.train(&data, &loader, None).unwrap();
        assert_eq!(report.eval_skips, 0);
        let stats = report.reference_stats;
        assert!(stats.forwards >= 6, "only {} folds", stats.forwards);
        (stats.generations, stats.forwards)
    }

    #[test]
    fn updates_every_interval() {
        let (generations, folds) = refresh_counts(3);
        // The bootstrap transition's reference, then one per three folds.
        assert_eq!(generations, 1 + folds / 3);
    }

    #[test]
    fn zero_interval_never_updates() {
        // 0 = never refresh (Figure 7a's ablation).
        let (generations, _) = refresh_counts(0);
        assert_eq!(generations, 1);
    }

    #[test]
    fn lr_decay_triggers_unfreeze_event() {
        // Schedule decays 100× at epoch 4; modules frozen before must thaw.
        let model = resnet_cifar(
            ResNetCifarConfig {
                n: 2,
                width: 4,
                classes: 4,
                ..Default::default()
            },
            7,
        );
        let data = SyntheticImages::new(
            ImageDataConfig {
                samples: 64,
                classes: 4,
                size: 8,
                noise: 0.3,
                augment: true,
            },
            11,
        );
        let loader = DataLoader::new(64, 16, 13, true);
        let cfg = EgeriaConfig {
            n: 2,
            w: 3,
            s: 2,
            t: 5.0,
            bootstrap_rate: 0.9,
            ..Default::default()
        };
        let mut t = EgeriaTrainer::new(
            Box::new(model),
            Optimizer::Sgd(Sgd::new(0.05, 0.9, 1e-4)),
            Box::new(MultiStepDecay::new(0.05, 0.01, vec![4])),
            TrainerOptions {
                epochs: 8,
                egeria: Some(cfg),
                ..Default::default()
            },
        );
        let report = t.train(&data, &loader, None).unwrap();
        assert!(
            report.events.iter().any(|e| e.kind == "unfreeze"),
            "events: {:?}",
            report.events
        );
    }

    /// Everything a cross-read cache file would disturb: per-epoch loss
    /// bits, which steps were served from the cache, and the events.
    fn outcome(report: &TrainReport) -> String {
        let loss_bits: Vec<u32> = report
            .epochs
            .iter()
            .map(|e| e.train_loss.to_bits())
            .collect();
        let cached: Vec<bool> = report.iterations.iter().map(|i| i.fp_cached).collect();
        format!("{loss_bits:08x?} {cached:?} {:?}", report.events)
    }

    /// Regression: with `cache_dir: None` every trainer of one model in one
    /// process used `egeria_cache_<pid>_<model>`, so two at once read each
    /// other's `sample_<id>.act` files. resnet20 is this test's alone, so
    /// the leftover check cannot see a sibling test's live directory.
    #[test]
    fn concurrent_same_model_trainers_keep_their_caches_apart() {
        fn run(data_seed: u64) -> TrainReport {
            let model = resnet_cifar(
                ResNetCifarConfig {
                    n: 3,
                    width: 4,
                    classes: 4,
                    ..Default::default()
                },
                7,
            );
            let data = SyntheticImages::new(
                ImageDataConfig {
                    samples: 64,
                    classes: 4,
                    size: 8,
                    noise: 0.3,
                    augment: false,
                },
                data_seed,
            );
            let loader = DataLoader::new(64, 16, 13, true);
            let mut t = EgeriaTrainer::new(
                Box::new(model),
                Optimizer::Sgd(Sgd::new(0.05, 0.9, 1e-4)),
                Box::new(MultiStepDecay::new(0.05, 0.1, vec![usize::MAX])),
                TrainerOptions {
                    epochs: 24,
                    egeria: Some(EgeriaConfig {
                        n: 2,
                        w: 3,
                        s: 2,
                        t: 5.0,
                        bootstrap_rate: 0.9,
                        // One resident batch: hits come from the disk files.
                        cache_mem_batches: 1,
                        ..Default::default()
                    }),
                    ..Default::default()
                },
            );
            t.train(&data, &loader, None).unwrap()
        }
        let alone = [run(11), run(12)];
        assert!(
            alone[0].iterations.iter().any(|i| i.fp_cached),
            "the cache never hit"
        );
        let alone = alone.map(|r| outcome(&r));
        assert_ne!(alone[0], alone[1], "the two runs must differ to collide");
        let start = &std::sync::Barrier::new(2);
        let together = std::thread::scope(|s| {
            let go = |data_seed| {
                s.spawn(move || {
                    start.wait();
                    outcome(&run(data_seed))
                })
            };
            let (a, b) = (go(11), go(12));
            [a.join().unwrap(), b.join().unwrap()]
        });
        assert_eq!(together, alone);
        let mine = format!("egeria_cache_{}_", std::process::id());
        let left: Vec<String> = std::fs::read_dir(std::env::temp_dir())
            .unwrap()
            .flatten()
            .map(|e| e.file_name().to_string_lossy().into_owned())
            .filter(|n| n.starts_with(&mine) && n.ends_with("resnet20"))
            .collect();
        assert!(
            left.is_empty(),
            "runs left their cache directories: {left:?}"
        );
    }
}
