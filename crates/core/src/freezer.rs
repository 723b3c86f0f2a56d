//! Algorithm 1: the layer-freezing state machine.
//!
//! Tracks the frontmost active layer module, folds plasticity evaluations
//! into its history, advances the frozen prefix on a policy's decision, and
//! handles unfreezing with relaxed refreeze criteria. The decision rule
//! itself lives behind [`FreezePolicy`] (DESIGN §5i): the engine owns the
//! shared mechanics — trackers, front cursor, event log, telemetry, tail
//! guard — and delegates freeze/unfreeze/hold to the configured policy.

use crate::config::{EgeriaConfig, UnfreezePolicy};
use crate::plasticity::{PlasticityObservation, PlasticityTracker, TrackerSnapshot};
use crate::policy::{build_policy, FreezePolicy, PolicyAction, PolicyState, PostCtx, PreCtx};
use egeria_obs::Telemetry;
use egeria_tensor::{Result, Tensor};

/// The complete persistent state of a [`FreezingEngine`], exposed for
/// checkpointing. Restoring it (against the same config) reproduces the
/// engine's future freeze/unfreeze decisions exactly.
#[derive(Debug, Clone, PartialEq)]
pub struct FreezerSnapshot {
    /// Frontmost active module (frozen-prefix length).
    pub front: usize,
    /// LR recorded when the current freeze run started.
    pub lr_at_first_freeze: Option<f32>,
    /// Whether refreeze criteria are relaxed.
    pub relaxed: bool,
    /// Total evaluations folded so far.
    pub evaluations: usize,
    /// Event history `(evaluation index, event)`.
    pub events: Vec<(usize, FreezeEvent)>,
    /// Per-module tracker states, in module order.
    pub trackers: Vec<TrackerSnapshot>,
    /// The decision policy's own state (versioned; DESIGN §5i). Legacy
    /// format-v1 checkpoints decode to [`PolicyState::legacy`].
    pub policy: PolicyState,
}

/// A freezing decision produced by one plasticity evaluation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FreezeEvent {
    /// Nothing changed.
    None,
    /// The frontmost active module converged; the frozen prefix is now the
    /// contained value.
    Froze(usize),
    /// The LR-annealing rule fired; everything was unfrozen.
    Unfroze,
}

/// The per-model freezing engine.
pub struct FreezingEngine {
    trackers: Vec<PlasticityTracker>,
    front: usize,
    num_modules: usize,
    unfreeze: UnfreezePolicy,
    /// The freeze/unfreeze decision rule (DESIGN §5i).
    policy: Box<dyn FreezePolicy>,
    base: EgeriaConfig,
    /// LR recorded when the current freeze run started (first module
    /// frozen); cleared on unfreeze.
    lr_at_first_freeze: Option<f32>,
    /// Whether refreeze criteria are currently relaxed.
    relaxed: bool,
    /// History of events with the evaluation index they occurred at.
    events: Vec<(usize, FreezeEvent)>,
    evaluations: usize,
    /// Telemetry handle; excluded from snapshots (observability is not
    /// training state).
    telemetry: Telemetry,
}

impl FreezingEngine {
    /// Creates an engine for a model of `num_modules` layer modules,
    /// driven by the policy the config selects ([`EgeriaConfig::policy`]).
    pub fn new(num_modules: usize, cfg: &EgeriaConfig) -> Self {
        FreezingEngine::with_policy(num_modules, cfg, build_policy(cfg))
    }

    /// Creates an engine driven by an explicit policy instance (the A/B
    /// scenario harness injects policies directly).
    pub fn with_policy(
        num_modules: usize,
        cfg: &EgeriaConfig,
        policy: Box<dyn FreezePolicy>,
    ) -> Self {
        FreezingEngine {
            trackers: (0..num_modules)
                .map(|_| PlasticityTracker::new(cfg.w, cfg.s, cfg.t))
                .collect(),
            front: 0,
            num_modules,
            unfreeze: cfg.unfreeze,
            policy,
            base: *cfg,
            lr_at_first_freeze: None,
            relaxed: false,
            events: Vec::new(),
            evaluations: 0,
            telemetry: Telemetry::disabled(),
        }
    }

    /// The stable short name of the driving policy.
    pub fn policy_name(&self) -> &'static str {
        self.policy.name()
    }

    /// Attaches a telemetry handle: every plasticity evaluation bumps
    /// `freezer.evaluations`, and freeze/unfreeze decisions are recorded
    /// as `freeze_decision` instants carrying the triggering smoothed
    /// plasticity value.
    pub fn set_telemetry(&mut self, telemetry: Telemetry) {
        self.telemetry = telemetry;
    }

    /// The frontmost active module (== current frozen prefix length).
    pub fn front(&self) -> usize {
        self.front
    }

    /// Whether any module can still be frozen (the last module always
    /// stays active, per Algorithm 1's assertion).
    pub fn can_freeze(&self) -> bool {
        self.front + 1 < self.num_modules
    }

    /// Recorded freeze/unfreeze events `(evaluation index, event)`.
    pub fn events(&self) -> &[(usize, FreezeEvent)] {
        &self.events
    }

    /// The plasticity tracker of a module (for trace export).
    pub fn tracker(&self, module: usize) -> Option<&PlasticityTracker> {
        self.trackers.get(module)
    }

    /// Folds one plasticity evaluation of the frontmost active module and
    /// returns the resulting event plus the observation.
    ///
    /// `lr` is the current learning rate, consulted for the unfreeze rule
    /// *before* the plasticity logic (a decayed LR reboots training, so
    /// freezing on this evaluation would act on stale history).
    pub fn observe(
        &mut self,
        a_train: &Tensor,
        a_ref: &Tensor,
        lr: f32,
    ) -> Result<(Option<PlasticityObservation>, FreezeEvent)> {
        let p = egeria_analysis::sp_loss(a_train, a_ref)?;
        self.observe_value(p, lr)
    }

    /// Folds a precomputed plasticity value (the async-controller path,
    /// where the SP loss was computed on the controller thread).
    ///
    /// Decision order is part of the determinism contract (pinned by the
    /// golden run): bump the evaluation counter, ask the policy's
    /// *pre-observe* hook whether to abort into an unfreeze (the LR-reboot
    /// guard — the value is *not* folded, training restarts from fresh
    /// history), otherwise fold into the front tracker and act on the
    /// policy's *post-observe* decision. The tail guard is enforced here,
    /// not in policies: a `Freeze` against the last module is a hold.
    pub fn observe_value(
        &mut self,
        p: f32,
        lr: f32,
    ) -> Result<(Option<PlasticityObservation>, FreezeEvent)> {
        self.evaluations += 1;
        self.telemetry.counter("freezer.evaluations").inc();
        let pre = PreCtx {
            front: self.front,
            num_modules: self.num_modules,
            evaluations: self.evaluations,
            lr,
            lr_at_first_freeze: self.lr_at_first_freeze,
            relaxed: self.relaxed,
            unfreeze: self.unfreeze,
        };
        if self.front > 0 && self.policy.pre_observe(&pre) == PolicyAction::UnfreezeAll {
            self.unfreeze_now();
            return Ok((None, FreezeEvent::Unfroze));
        }
        let obs = self.trackers[self.front].observe_value(p)?;
        let can_freeze = self.can_freeze();
        let action = {
            let tracker = &self.trackers[self.front];
            let ctx = PostCtx {
                pre,
                obs: &obs,
                can_freeze,
                raw_history: tracker.raw_history(),
                smoothed_history: tracker.smoothed_history(),
            };
            self.policy.post_observe(&ctx)
        };
        match action {
            PolicyAction::Freeze if can_freeze => {
                if self.lr_at_first_freeze.is_none() {
                    self.lr_at_first_freeze = Some(lr);
                }
                self.front += 1;
                let event = FreezeEvent::Froze(self.front);
                self.events.push((self.evaluations, event));
                self.telemetry.counter("freezer.freezes").inc();
                self.telemetry.gauge("freezer.front").set(self.front as f64);
                self.policy.on_freeze(self.front, &obs);
                Ok((Some(obs), event))
            }
            PolicyAction::UnfreezeAll if self.front > 0 => {
                self.unfreeze_now();
                Ok((Some(obs), FreezeEvent::Unfroze))
            }
            _ => Ok((Some(obs), FreezeEvent::None)),
        }
    }

    /// Unconditionally unfreezes everything (also the entry point for
    /// custom cyclical-LR policies).
    pub fn unfreeze_now(&mut self) {
        self.front = 0;
        self.lr_at_first_freeze = None;
        self.relaxed = true;
        let (w, s) = self.base.relaxed_for_refreeze();
        for t in &mut self.trackers {
            t.relax(w, s);
        }
        self.events.push((self.evaluations, FreezeEvent::Unfroze));
        self.telemetry.counter("freezer.unfreezes").inc();
        self.telemetry.gauge("freezer.front").set(0.0);
        self.policy.on_unfreeze();
    }

    /// Whether refreeze criteria are currently relaxed.
    pub fn is_relaxed(&self) -> bool {
        self.relaxed
    }

    /// Serializable view of the engine for checkpointing.
    pub fn snapshot(&self) -> FreezerSnapshot {
        FreezerSnapshot {
            front: self.front,
            lr_at_first_freeze: self.lr_at_first_freeze,
            relaxed: self.relaxed,
            evaluations: self.evaluations,
            events: self.events.clone(),
            trackers: self.trackers.iter().map(|t| t.snapshot()).collect(),
            policy: self.policy.snapshot(),
        }
    }

    /// Restores a previously snapshotted state into this engine.
    ///
    /// The engine must have been built for the same module count (and the
    /// same config, though only the tracker criteria embedded in the
    /// snapshot are actually consulted afterwards).
    pub fn restore(&mut self, s: &FreezerSnapshot) -> Result<()> {
        if s.trackers.len() != self.num_modules || s.front > self.num_modules {
            return Err(egeria_tensor::TensorError::Corrupt(format!(
                "freezer snapshot covers {} modules (front {}), engine has {}",
                s.trackers.len(),
                s.front,
                self.num_modules
            )));
        }
        // Validate the policy state before mutating anything so a rejected
        // restore leaves the engine untouched.
        self.policy.restore(&s.policy)?;
        self.front = s.front;
        self.lr_at_first_freeze = s.lr_at_first_freeze;
        self.relaxed = s.relaxed;
        self.evaluations = s.evaluations;
        self.events = s.events.clone();
        self.trackers = s.trackers.iter().map(PlasticityTracker::from_snapshot).collect();
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use egeria_tensor::Rng;

    fn cfg() -> EgeriaConfig {
        EgeriaConfig {
            w: 4,
            s: 3,
            t: 1e-3,
            ..Default::default()
        }
    }

    fn stable_pair(rng: &mut Rng) -> (Tensor, Tensor) {
        let a = Tensor::randn(&[4, 8], rng);
        (a.clone(), a)
    }

    fn unstable_pair(rng: &mut Rng) -> (Tensor, Tensor) {
        (Tensor::randn(&[4, 8], rng), Tensor::randn(&[4, 8], rng))
    }

    #[test]
    fn stable_plasticity_freezes_front_module_first() {
        let mut e = FreezingEngine::new(4, &cfg());
        let mut rng = Rng::new(1);
        let mut first_freeze = None;
        for i in 0..20 {
            let (a, b) = stable_pair(&mut rng);
            let (_, ev) = e.observe(&a, &b, 0.1).unwrap();
            if let FreezeEvent::Froze(k) = ev {
                first_freeze.get_or_insert((i, k));
            }
        }
        let (_, k) = first_freeze.expect("stable plasticity must freeze");
        assert_eq!(k, 1, "front module must freeze first");
        assert!(e.front() >= 1);
    }

    #[test]
    fn unstable_plasticity_never_freezes() {
        let mut e = FreezingEngine::new(3, &cfg());
        let mut rng = Rng::new(2);
        for _ in 0..40 {
            let (a, b) = unstable_pair(&mut rng);
            let (_, ev) = e.observe(&a, &b, 0.1).unwrap();
            assert_eq!(ev, FreezeEvent::None);
        }
        assert_eq!(e.front(), 0);
    }

    #[test]
    fn last_module_is_never_frozen() {
        let mut e = FreezingEngine::new(2, &cfg());
        let mut rng = Rng::new(3);
        for _ in 0..30 {
            let (a, b) = stable_pair(&mut rng);
            let _ = e.observe(&a, &b, 0.1).unwrap();
        }
        assert_eq!(e.front(), 1, "prefix must stop before the last module");
        assert!(!e.can_freeze());
    }

    #[test]
    fn lr_decay_by_10x_unfreezes_everything() {
        let mut e = FreezingEngine::new(4, &cfg());
        let mut rng = Rng::new(4);
        // Freeze one module at lr=0.1.
        while e.front() == 0 {
            let (a, b) = stable_pair(&mut rng);
            let _ = e.observe(&a, &b, 0.1).unwrap();
        }
        // Mild decay: no unfreeze.
        let (a, b) = stable_pair(&mut rng);
        let (_, ev) = e.observe(&a, &b, 0.05).unwrap();
        assert_ne!(ev, FreezeEvent::Unfroze);
        // 10× decay: unfreeze fires.
        let (a, b) = stable_pair(&mut rng);
        let (_, ev) = e.observe(&a, &b, 0.01).unwrap();
        assert_eq!(ev, FreezeEvent::Unfroze);
        assert_eq!(e.front(), 0);
        assert!(e.is_relaxed());
    }

    #[test]
    fn refreeze_is_faster_after_relaxation() {
        let mut e = FreezingEngine::new(4, &cfg());
        let mut rng = Rng::new(5);
        let mut evals_to_first = 0;
        while e.front() == 0 {
            let (a, b) = stable_pair(&mut rng);
            let _ = e.observe(&a, &b, 0.1).unwrap();
            evals_to_first += 1;
        }
        // Trigger unfreeze.
        let (a, b) = stable_pair(&mut rng);
        let _ = e.observe(&a, &b, 0.001).unwrap();
        assert_eq!(e.front(), 0);
        let mut evals_to_refreeze = 0;
        while e.front() == 0 {
            let (a, b) = stable_pair(&mut rng);
            let _ = e.observe(&a, &b, 0.001).unwrap();
            evals_to_refreeze += 1;
        }
        assert!(
            evals_to_refreeze < evals_to_first,
            "refreeze ({evals_to_refreeze}) not faster than first freeze ({evals_to_first})"
        );
    }

    #[test]
    fn never_policy_ignores_lr() {
        let mut c = cfg();
        c.unfreeze = UnfreezePolicy::Never;
        let mut e = FreezingEngine::new(3, &c);
        let mut rng = Rng::new(6);
        while e.front() == 0 {
            let (a, b) = stable_pair(&mut rng);
            let _ = e.observe(&a, &b, 0.1).unwrap();
        }
        let (a, b) = stable_pair(&mut rng);
        let (_, ev) = e.observe(&a, &b, 1e-6).unwrap();
        assert_ne!(ev, FreezeEvent::Unfroze);
        assert!(e.front() >= 1);
    }

    #[test]
    fn events_are_recorded_in_order() {
        let mut e = FreezingEngine::new(4, &cfg());
        let mut rng = Rng::new(7);
        for _ in 0..40 {
            let (a, b) = stable_pair(&mut rng);
            let _ = e.observe(&a, &b, 0.1).unwrap();
        }
        let evs = e.events();
        assert!(!evs.is_empty());
        for w in evs.windows(2) {
            assert!(w[0].0 <= w[1].0);
        }
    }
}
