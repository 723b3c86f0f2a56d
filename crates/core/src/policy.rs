//! Pluggable freeze/unfreeze decision policies (DESIGN §5i).
//!
//! [`crate::freezer::FreezingEngine`] owns the mechanics every policy
//! shares — per-module plasticity trackers, the frozen-front cursor,
//! telemetry, and the tail-module guard — while a
//! [`FreezePolicy`] owns only the *decision rule*. One evaluation is folded
//! in two phases, mirroring Algorithm 1's ordering exactly:
//!
//! 1. [`FreezePolicy::pre_observe`] runs *before* the value enters the
//!    front tracker. Returning [`PolicyAction::UnfreezeAll`] here aborts
//!    the fold (the paper's LR-reboot guard: a decayed LR reboots training,
//!    so folding this evaluation would act on stale history).
//! 2. The engine folds the value into the front module's tracker.
//! 3. [`FreezePolicy::post_observe`] sees the resulting
//!    [`PlasticityObservation`] plus the tracker histories and emits
//!    freeze/unfreeze/hold.
//!
//! The engine enforces the global invariants no policy may break: the tail
//! module never freezes, and unfreezing below an empty front is a no-op.
//!
//! Policy state is checkpointed through the schema-free [`PolicyState`]
//! container; its one rule (the kind must match) and how its layout is
//! versioned are specified in DESIGN §5i.

use crate::config::{EgeriaConfig, PolicyKind, UnfreezePolicy};
use crate::plasticity::PlasticityObservation;
use egeria_tensor::{Result, TensorError};

/// Decision emitted by a policy for one plasticity evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PolicyAction {
    /// Keep the current frozen prefix.
    Hold,
    /// Advance the frozen front by one module (ignored when only the tail
    /// module remains active — the engine's tail guard).
    Freeze,
    /// Thaw every frozen module and relax the refreeze criteria (ignored
    /// when nothing is frozen).
    UnfreezeAll,
}

/// Engine state visible to a policy before the fold.
#[derive(Debug, Clone, Copy)]
pub struct PreCtx {
    /// Frontmost active module (current frozen-prefix length).
    pub front: usize,
    /// Total layer modules.
    pub num_modules: usize,
    /// 1-based index of this evaluation.
    pub evaluations: usize,
    /// Learning rate in effect for this evaluation.
    pub lr: f32,
    /// LR recorded when the current freeze run started.
    pub lr_at_first_freeze: Option<f32>,
    /// Whether refreeze criteria are currently relaxed.
    pub relaxed: bool,
    /// Configured unfreeze mode (§4.2.2) — policies honoring the built-in
    /// LR rule consult it; baselines ignore it.
    pub unfreeze: UnfreezePolicy,
}

/// Engine state visible to a policy after the fold.
pub struct PostCtx<'a> {
    /// The pre-fold engine state.
    pub pre: PreCtx,
    /// The observation the fold produced for the front module.
    pub obs: &'a PlasticityObservation,
    /// Whether a freeze is currently possible (tail guard).
    pub can_freeze: bool,
    /// The front module's raw SP-loss history, oldest first.
    pub raw_history: &'a [f32],
    /// The front module's smoothed (Equation 2) history, oldest first.
    pub smoothed_history: &'a [f32],
}

/// Serializable policy state for checkpointing.
///
/// The container is deliberately schema-free — two flat arrays plus a
/// `kind` header — so the checkpoint's shape does not change when a policy
/// gains state. `kind` must match the restoring policy's name exactly:
/// resuming a checkpoint under a different policy is a corruption error,
/// not a silent re-interpretation. The arrays' layout carries no version
/// of its own: a change to any policy's layout bumps the checkpoint's
/// [`crate::checkpoint::FORMAT_VERSION`], which reads only the version it
/// writes (DESIGN §5i).
#[derive(Debug, Clone, PartialEq)]
pub struct PolicyState {
    /// Policy kind name this state belongs to.
    pub kind: String,
    /// Float state, layout owned by the policy.
    pub scalars: Vec<f32>,
    /// Integer state, layout owned by the policy.
    pub counters: Vec<u64>,
}

impl PolicyState {
    /// Fresh state for a policy with no persistent fields.
    pub fn empty(kind: &str) -> Self {
        PolicyState {
            kind: kind.to_string(),
            scalars: Vec::new(),
            counters: Vec::new(),
        }
    }
}

/// Validates the `kind` header shared by every policy.
fn check_state(s: &PolicyState, kind: &str) -> Result<()> {
    if s.kind != kind {
        return Err(TensorError::Corrupt(format!(
            "policy state is for {:?}, engine runs {kind:?} — resume must use \
             the checkpointed policy",
            s.kind
        )));
    }
    Ok(())
}

/// The freeze/unfreeze decision rule driving a
/// [`crate::freezer::FreezingEngine`].
pub trait FreezePolicy: Send {
    /// The kind this policy was built from.
    fn kind(&self) -> PolicyKind;

    /// Stable short name (reports, fingerprints, checkpoints, telemetry).
    fn name(&self) -> &'static str {
        self.kind().name()
    }

    /// Whether the policy never emits [`PolicyAction::UnfreezeAll`] — the
    /// monotone-front contract the property tests pin.
    fn is_one_way(&self) -> bool;

    /// Decision hook before the value is folded into the front tracker.
    /// The only meaningful return here is `UnfreezeAll` (the LR-reboot
    /// guard); `Freeze` is ignored by the engine at this phase because no
    /// observation exists yet.
    fn pre_observe(&mut self, _ctx: &PreCtx) -> PolicyAction {
        PolicyAction::Hold
    }

    /// Decision hook after the fold.
    fn post_observe(&mut self, ctx: &PostCtx) -> PolicyAction;

    /// Notification that the engine froze a module (`new_front` is the
    /// frozen-prefix length after the event, `obs` the triggering
    /// observation).
    fn on_freeze(&mut self, _new_front: usize, _obs: &PlasticityObservation) {}

    /// Notification that the engine unfroze everything (policy-driven or
    /// via the external `unfreeze_now` hook).
    fn on_unfreeze(&mut self) {}

    /// Serializable view of the policy for checkpointing.
    fn snapshot(&self) -> PolicyState;

    /// Restores a previously snapshotted state.
    fn restore(&mut self, s: &PolicyState) -> Result<()>;
}

/// Builds the policy a config asks for.
pub fn build_policy(cfg: &EgeriaConfig) -> Box<dyn FreezePolicy> {
    match cfg.policy {
        PolicyKind::Paper => Box::new(PaperPolicy::new(cfg.unfreeze)),
        PolicyKind::Learned => Box::new(LearnedPolicy::new(cfg.w, cfg.s)),
        PolicyKind::Interval { every } => Box::new(IntervalPolicy::new(every)),
        PolicyKind::NeverFreeze => Box::new(NeverFreezePolicy),
        PolicyKind::RegressionAware => {
            Box::new(RegressionAwarePolicy::new(cfg.unfreeze))
        }
    }
}

// ---------------------------------------------------------------------------
// (a) Paper policy — Algorithm 1, bit-identical to the pre-trait freezer
// ---------------------------------------------------------------------------

/// The paper's plasticity/CUSUM policy: freeze when the front tracker
/// reports convergence (`S` consecutive sub-tolerance slopes), unfreeze on
/// the LR-annealing rule (LR decayed ≥10× since the freeze run started).
///
/// Stateless beyond the config: the stale counter lives in the tracker and
/// `lr_at_first_freeze` in the engine, exactly as before the refactor.
#[derive(Debug, Clone)]
pub struct PaperPolicy {
    unfreeze: UnfreezePolicy,
}

impl PaperPolicy {
    /// Creates the paper policy with the configured unfreeze mode.
    pub fn new(unfreeze: UnfreezePolicy) -> Self {
        PaperPolicy { unfreeze }
    }

    /// The LR-annealing unfreeze rule (§4.2.2), shared with the
    /// regression-aware variant.
    fn lr_reboot(ctx: &PreCtx, unfreeze: UnfreezePolicy) -> bool {
        if unfreeze != UnfreezePolicy::LrAnnealing || ctx.front == 0 {
            return false;
        }
        match ctx.lr_at_first_freeze {
            Some(lr0) => ctx.lr <= lr0 * 0.1 + f32::EPSILON,
            None => false,
        }
    }
}

impl FreezePolicy for PaperPolicy {
    fn kind(&self) -> PolicyKind {
        PolicyKind::Paper
    }

    fn is_one_way(&self) -> bool {
        self.unfreeze == UnfreezePolicy::Never
    }

    fn pre_observe(&mut self, ctx: &PreCtx) -> PolicyAction {
        if Self::lr_reboot(ctx, self.unfreeze) {
            PolicyAction::UnfreezeAll
        } else {
            PolicyAction::Hold
        }
    }

    fn post_observe(&mut self, ctx: &PostCtx) -> PolicyAction {
        if ctx.obs.converged {
            PolicyAction::Freeze
        } else {
            PolicyAction::Hold
        }
    }

    fn snapshot(&self) -> PolicyState {
        PolicyState::empty(self.name())
    }

    fn restore(&mut self, s: &PolicyState) -> Result<()> {
        check_state(s, self.name())
    }
}

// ---------------------------------------------------------------------------
// (b) Learned policy — SmartFRZ-style predictor over history features
// ---------------------------------------------------------------------------

/// SmartFRZ-style learned freeze predictor (PAPERS.md).
///
/// A fixed-weight logistic scorer over five plasticity-history features,
/// with an attention-style recency pooling of the smoothed window standing
/// in for SmartFRZ's attention encoder. The weights are constants distilled
/// offline from paper-policy decision traces — at run time the predictor is
/// pure deterministic arithmetic, which is what the fingerprint contract
/// requires. It typically freezes *earlier* than the CUSUM rule because a
/// half-full stale streak with a saturated history already scores above
/// threshold (the SmartFRZ claim: the learned signal needs fewer
/// confirmations than the interval heuristic).
#[derive(Debug, Clone)]
pub struct LearnedPolicy {
    w: usize,
    s: usize,
    /// Consecutive evaluations scored above threshold.
    hot: usize,
}

/// Logistic weights of the five features, then the bias. Distilled from
/// paper-policy traces; see `score` for the feature order.
const LEARNED_WEIGHTS: [f32; 6] = [-1.2, 1.6, 1.0, -0.7, -0.5, -1.1];

/// Above-threshold evaluations required before freezing.
const LEARNED_CONSECUTIVE: usize = 2;

/// Attention recency decay over the smoothed window.
const LEARNED_ATTN_DECAY: f32 = 0.5;

impl LearnedPolicy {
    /// Creates the predictor with the config's window/patience geometry.
    pub fn new(w: usize, s: usize) -> Self {
        LearnedPolicy {
            w: w.max(2),
            s: s.max(1),
            hot: 0,
        }
    }

    /// Deterministic feature extraction + logistic score in `[0, 1]`.
    fn score(&self, ctx: &PostCtx) -> f32 {
        let smoothed = ctx.smoothed_history;
        let raw = ctx.raw_history;
        let n = smoothed.len();
        let k = self.w.min(n);
        let eps = 1e-12f32;
        // Window standard deviation of the raw series — the SGD noise
        // floor every trend is measured against.
        let tail = &raw[raw.len() - raw.len().min(self.w)..];
        let mean = tail.iter().sum::<f32>() / tail.len().max(1) as f32;
        let var = tail
            .iter()
            .map(|v| {
                let d = v - mean;
                d * d
            })
            .sum::<f32>()
            / tail.len().max(1) as f32;
        let sd = var.max(0.0).sqrt().max(eps);
        // f0: trend-to-noise ratio of the fitted slope (capped).
        let span = k.saturating_sub(1) as f32;
        let f0 = match ctx.obs.slope {
            Some(sl) => (sl.abs() * span / sd).min(4.0),
            None => 4.0, // Too little history: maximally uncertain.
        };
        // f1: stale-streak fraction of the configured patience.
        let f1 = (ctx.obs.stale_count as f32 / self.s as f32).min(2.0);
        // f2: history saturation.
        let f2 = (n as f32 / self.w as f32).min(1.0);
        // f3: attention drift — recency-pooled smoothed context vs the
        // newest value; a converged curve has near-zero drift.
        let win = &smoothed[n - k..];
        let mut ctx_val = 0.0f32;
        let mut norm = 0.0f32;
        for (i, v) in win.iter().enumerate() {
            // Newest position gets weight 1, older decay geometrically.
            let a = (-(LEARNED_ATTN_DECAY) * (k - 1 - i) as f32).exp();
            ctx_val += a * v;
            norm += a;
        }
        let ctx_val = ctx_val / norm.max(eps);
        let last = *win.last().unwrap_or(&0.0);
        let f3 = ((ctx_val - last).abs() / sd).min(4.0);
        // f4: relative level change across the window.
        let first = *win.first().unwrap_or(&0.0);
        let f4 = ((last - first).abs() / (last.abs() + eps)).min(4.0);
        let z = LEARNED_WEIGHTS[0] * f0
            + LEARNED_WEIGHTS[1] * f1
            + LEARNED_WEIGHTS[2] * f2
            + LEARNED_WEIGHTS[3] * f3
            + LEARNED_WEIGHTS[4] * f4
            + LEARNED_WEIGHTS[5];
        1.0 / (1.0 + (-z).exp())
    }
}

impl FreezePolicy for LearnedPolicy {
    fn kind(&self) -> PolicyKind {
        PolicyKind::Learned
    }

    fn is_one_way(&self) -> bool {
        true
    }

    fn post_observe(&mut self, ctx: &PostCtx) -> PolicyAction {
        if self.score(ctx) > 0.5 {
            self.hot += 1;
        } else {
            self.hot = 0;
        }
        if self.hot >= LEARNED_CONSECUTIVE {
            PolicyAction::Freeze
        } else {
            PolicyAction::Hold
        }
    }

    fn on_freeze(&mut self, _new_front: usize, _obs: &PlasticityObservation) {
        // The next front module starts a fresh streak.
        self.hot = 0;
    }

    fn on_unfreeze(&mut self) {
        self.hot = 0;
    }

    fn snapshot(&self) -> PolicyState {
        PolicyState {
            kind: self.name().to_string(),
            scalars: Vec::new(),
            counters: vec![self.hot as u64],
        }
    }

    fn restore(&mut self, s: &PolicyState) -> Result<()> {
        check_state(s, self.name())?;
        self.hot = s.counters.first().copied().unwrap_or(0) as usize;
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// (c) Interval + never-freeze baselines
// ---------------------------------------------------------------------------

/// Periodic-interval baseline: freeze one module every `every` evaluations,
/// blind to plasticity (the literature's naive schedule Egeria's Figure 2
/// argues against).
#[derive(Debug, Clone)]
pub struct IntervalPolicy {
    every: usize,
}

impl IntervalPolicy {
    /// Creates the baseline with the given period (floored to 1).
    pub fn new(every: usize) -> Self {
        IntervalPolicy {
            every: every.max(1),
        }
    }
}

impl FreezePolicy for IntervalPolicy {
    fn kind(&self) -> PolicyKind {
        PolicyKind::Interval { every: self.every }
    }

    fn is_one_way(&self) -> bool {
        true
    }

    fn post_observe(&mut self, ctx: &PostCtx) -> PolicyAction {
        if ctx.pre.evaluations.is_multiple_of(self.every) {
            PolicyAction::Freeze
        } else {
            PolicyAction::Hold
        }
    }

    fn snapshot(&self) -> PolicyState {
        // The period is config, not state, but carrying it makes a
        // mismatched resume (same kind, different period) detectable.
        PolicyState {
            kind: self.name().to_string(),
            scalars: Vec::new(),
            counters: vec![self.every as u64],
        }
    }

    fn restore(&mut self, s: &PolicyState) -> Result<()> {
        check_state(s, self.name())?;
        if let Some(&every) = s.counters.first() {
            if every as usize != self.every {
                return Err(TensorError::Corrupt(format!(
                    "interval policy was checkpointed with period {every}, \
                     engine configured with {}",
                    self.every
                )));
            }
        }
        Ok(())
    }
}

/// Never-freeze baseline: the probe pipeline runs, nothing ever freezes.
#[derive(Debug, Clone, Copy)]
pub struct NeverFreezePolicy;

impl FreezePolicy for NeverFreezePolicy {
    fn kind(&self) -> PolicyKind {
        PolicyKind::NeverFreeze
    }

    fn is_one_way(&self) -> bool {
        true
    }

    fn post_observe(&mut self, _ctx: &PostCtx) -> PolicyAction {
        PolicyAction::Hold
    }

    fn snapshot(&self) -> PolicyState {
        PolicyState::empty(self.name())
    }

    fn restore(&mut self, s: &PolicyState) -> Result<()> {
        check_state(s, self.name())
    }
}

// ---------------------------------------------------------------------------
// (d) Regression-aware policy — paper rule + rebound-triggered unfreezing
// ---------------------------------------------------------------------------

/// The paper policy plus *regression-aware unfreezing* ("Rethinking the
/// Potential of Layer Freezing", PAPERS.md: one-way freezing leaves
/// accuracy on the table).
///
/// After each freeze the policy records the converged plasticity level and
/// watches the next [`REBOUND_WATCH_WINDOW`] reference probes. The probes
/// now address the successor module, whose activations are computed
/// *through* the frozen prefix — a prefix frozen prematurely (or regressed
/// by distribution shift) drags the successor's SP loss up, so a sustained
/// rebound above [`REBOUND_FACTOR`]× the freeze-time level is the
/// premature-freeze signature. On rebound the policy thaws everything; the
/// engine relaxes the refreeze criteria exactly as for an LR-annealing
/// unfreeze, so a *correct* freeze quickly re-establishes itself.
#[derive(Debug, Clone)]
pub struct RegressionAwarePolicy {
    paper: PaperPolicy,
    /// Smoothed plasticity at the most recent freeze.
    baseline: Option<f32>,
    /// Probes left in the current watch window.
    watch_left: usize,
    /// Consecutive rebound probes so far.
    hot: usize,
}

/// Rebound threshold relative to the freeze-time plasticity level.
pub const REBOUND_FACTOR: f32 = 1.15;

/// Consecutive above-threshold probes required to unfreeze.
pub const REBOUND_CONSECUTIVE: usize = 2;

/// Probes watched after each freeze before the decision is considered
/// settled.
pub const REBOUND_WATCH_WINDOW: usize = 8;

impl RegressionAwarePolicy {
    /// Creates the regression-aware variant with the configured unfreeze
    /// mode (the LR-annealing rule still applies on top of rebounds).
    pub fn new(unfreeze: UnfreezePolicy) -> Self {
        RegressionAwarePolicy {
            paper: PaperPolicy::new(unfreeze),
            baseline: None,
            watch_left: 0,
            hot: 0,
        }
    }
}

impl FreezePolicy for RegressionAwarePolicy {
    fn kind(&self) -> PolicyKind {
        PolicyKind::RegressionAware
    }

    fn is_one_way(&self) -> bool {
        false
    }

    fn pre_observe(&mut self, ctx: &PreCtx) -> PolicyAction {
        self.paper.pre_observe(ctx)
    }

    fn post_observe(&mut self, ctx: &PostCtx) -> PolicyAction {
        if ctx.pre.front > 0 && self.watch_left > 0 {
            self.watch_left -= 1;
            if let Some(base) = self.baseline {
                // An absolute epsilon keeps near-zero baselines (the
                // self-similar tail of a converged module) from turning
                // numerical dust into rebounds.
                if ctx.obs.smoothed > base * REBOUND_FACTOR + 1e-6 {
                    self.hot += 1;
                } else {
                    self.hot = 0;
                }
                if self.hot >= REBOUND_CONSECUTIVE {
                    return PolicyAction::UnfreezeAll;
                }
            }
        }
        self.paper.post_observe(ctx)
    }

    fn on_freeze(&mut self, _new_front: usize, obs: &PlasticityObservation) {
        self.baseline = Some(obs.smoothed);
        self.watch_left = REBOUND_WATCH_WINDOW;
        self.hot = 0;
    }

    fn on_unfreeze(&mut self) {
        self.baseline = None;
        self.watch_left = 0;
        self.hot = 0;
    }

    fn snapshot(&self) -> PolicyState {
        PolicyState {
            kind: self.name().to_string(),
            scalars: vec![self.baseline.unwrap_or(0.0)],
            counters: vec![
                self.baseline.is_some() as u64,
                self.watch_left as u64,
                self.hot as u64,
            ],
        }
    }

    fn restore(&mut self, s: &PolicyState) -> Result<()> {
        check_state(s, self.name())?;
        let has_base = s.counters.first().copied().unwrap_or(0) != 0;
        self.baseline = has_base.then(|| s.scalars.first().copied().unwrap_or(0.0));
        self.watch_left = s.counters.get(1).copied().unwrap_or(0) as usize;
        self.hot = s.counters.get(2).copied().unwrap_or(0) as usize;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plasticity::PlasticityTracker;

    fn drive(
        policy: &mut dyn FreezePolicy,
        tracker: &mut PlasticityTracker,
        values: &[f32],
    ) -> Vec<PolicyAction> {
        let mut out = Vec::new();
        for (i, &v) in values.iter().enumerate() {
            let pre = PreCtx {
                front: 0,
                num_modules: 4,
                evaluations: i + 1,
                lr: 0.1,
                lr_at_first_freeze: None,
                relaxed: false,
                unfreeze: UnfreezePolicy::LrAnnealing,
            };
            let obs = tracker.observe_value(v).unwrap();
            let ctx = PostCtx {
                pre,
                obs: &obs,
                can_freeze: true,
                raw_history: tracker.raw_history(),
                smoothed_history: tracker.smoothed_history(),
            };
            out.push(policy.post_observe(&ctx));
        }
        out
    }

    #[test]
    fn learned_policy_freezes_flat_series_earlier_than_paper_patience() {
        let (w, s) = (4, 4);
        let mut tracker = PlasticityTracker::new(w, s, 1e-3);
        let mut learned = LearnedPolicy::new(w, s);
        let flat = vec![0.5f32; 16];
        let actions = drive(&mut learned, &mut tracker, &flat);
        let learned_at = actions
            .iter()
            .position(|a| *a == PolicyAction::Freeze)
            .expect("learned policy must freeze a flat series");
        // The paper rule needs s=4 consecutive stale slopes after the
        // window fills; the predictor should pull the trigger sooner.
        let mut paper_tracker = PlasticityTracker::new(w, s, 1e-3);
        let mut converged_at = None;
        for (i, &v) in flat.iter().enumerate() {
            if paper_tracker.observe_value(v).unwrap().converged && converged_at.is_none() {
                converged_at = Some(i);
            }
        }
        assert!(
            learned_at <= converged_at.unwrap(),
            "learned froze at {learned_at}, paper at {converged_at:?}"
        );
    }

    #[test]
    fn learned_policy_holds_on_strong_trends() {
        let mut tracker = PlasticityTracker::new(5, 3, 1e-3);
        let mut learned = LearnedPolicy::new(5, 3);
        let falling: Vec<f32> = (0..24).map(|i| 20.0 - i as f32 * 0.8).collect();
        let actions = drive(&mut learned, &mut tracker, &falling);
        assert!(
            actions.iter().all(|a| *a == PolicyAction::Hold),
            "learned policy froze a strongly-trending series"
        );
    }

    #[test]
    fn interval_policy_fires_on_its_period_only() {
        let mut tracker = PlasticityTracker::new(3, 2, 1e-3);
        let mut p = IntervalPolicy::new(3);
        let noisy: Vec<f32> = (0..9).map(|i| (i * 37 % 11) as f32).collect();
        let actions = drive(&mut p, &mut tracker, &noisy);
        let freeze_at: Vec<usize> = actions
            .iter()
            .enumerate()
            .filter(|(_, a)| **a == PolicyAction::Freeze)
            .map(|(i, _)| i + 1)
            .collect();
        assert_eq!(freeze_at, vec![3, 6, 9]);
    }

    #[test]
    fn never_policy_never_freezes() {
        let mut tracker = PlasticityTracker::new(3, 1, 10.0);
        let mut p = NeverFreezePolicy;
        let actions = drive(&mut p, &mut tracker, &[1.0; 20]);
        assert!(actions.iter().all(|a| *a == PolicyAction::Hold));
    }

    #[test]
    fn regression_policy_unfreezes_on_rebound_within_watch_window() {
        let mut p = RegressionAwarePolicy::new(UnfreezePolicy::LrAnnealing);
        let obs = PlasticityObservation {
            raw: 0.4,
            smoothed: 0.4,
            slope: Some(0.0),
            stale_count: 3,
            converged: true,
        };
        p.on_freeze(1, &obs);
        let mut tracker = PlasticityTracker::new(3, 100, 1e-6);
        // Successor-module probes rebound far above the 0.4 baseline.
        let mut saw_unfreeze = false;
        for (i, v) in [1.0f32, 1.1, 1.2].iter().enumerate() {
            let o = tracker.observe_value(*v).unwrap();
            let pre = PreCtx {
                front: 1,
                num_modules: 4,
                evaluations: i + 1,
                lr: 0.1,
                lr_at_first_freeze: Some(0.1),
                relaxed: false,
                unfreeze: UnfreezePolicy::LrAnnealing,
            };
            let ctx = PostCtx {
                pre,
                obs: &o,
                can_freeze: true,
                raw_history: tracker.raw_history(),
                smoothed_history: tracker.smoothed_history(),
            };
            if p.post_observe(&ctx) == PolicyAction::UnfreezeAll {
                saw_unfreeze = true;
                break;
            }
        }
        assert!(saw_unfreeze, "rebound above factor×baseline must unfreeze");
    }

    #[test]
    fn regression_policy_ignores_rebound_after_watch_window() {
        let mut p = RegressionAwarePolicy::new(UnfreezePolicy::LrAnnealing);
        let obs = PlasticityObservation {
            raw: 0.4,
            smoothed: 0.4,
            slope: Some(0.0),
            stale_count: 3,
            converged: true,
        };
        p.on_freeze(1, &obs);
        // Exhaust the watch window with calm probes.
        let mut tracker = PlasticityTracker::new(3, 100, 1e-6);
        for i in 0..REBOUND_WATCH_WINDOW {
            let o = tracker.observe_value(0.35).unwrap();
            let pre = PreCtx {
                front: 1,
                num_modules: 4,
                evaluations: i + 1,
                lr: 0.1,
                lr_at_first_freeze: Some(0.1),
                relaxed: false,
                unfreeze: UnfreezePolicy::LrAnnealing,
            };
            let ctx = PostCtx {
                pre,
                obs: &o,
                can_freeze: true,
                raw_history: tracker.raw_history(),
                smoothed_history: tracker.smoothed_history(),
            };
            assert_ne!(p.post_observe(&ctx), PolicyAction::UnfreezeAll);
        }
        // A late spike no longer unfreezes: the decision is settled.
        for i in 0..4 {
            let o = tracker.observe_value(50.0).unwrap();
            let pre = PreCtx {
                front: 1,
                num_modules: 4,
                evaluations: REBOUND_WATCH_WINDOW + i + 1,
                lr: 0.1,
                lr_at_first_freeze: Some(0.1),
                relaxed: false,
                unfreeze: UnfreezePolicy::LrAnnealing,
            };
            let ctx = PostCtx {
                pre,
                obs: &o,
                can_freeze: true,
                raw_history: tracker.raw_history(),
                smoothed_history: tracker.smoothed_history(),
            };
            assert_ne!(p.post_observe(&ctx), PolicyAction::UnfreezeAll);
        }
    }

    #[test]
    fn snapshot_restore_round_trips_every_policy() {
        let cfgs = [
            PolicyKind::Paper,
            PolicyKind::Learned,
            PolicyKind::Interval { every: 7 },
            PolicyKind::NeverFreeze,
            PolicyKind::RegressionAware,
        ];
        for kind in cfgs {
            let cfg = EgeriaConfig {
                policy: kind,
                ..Default::default()
            };
            let a = build_policy(&cfg);
            let snap = a.snapshot();
            let mut b = build_policy(&cfg);
            b.restore(&snap).unwrap();
            assert_eq!(b.snapshot(), snap, "{} state drifted", kind.name());
        }
    }

    #[test]
    fn restore_rejects_kind_mismatch() {
        let mut paper = PaperPolicy::new(UnfreezePolicy::LrAnnealing);
        assert!(paper.restore(&PolicyState::empty("learned")).is_err());
        assert!(paper.restore(&PolicyState::empty("paper")).is_ok());
        let mut learned = LearnedPolicy::new(4, 4);
        assert!(learned.restore(&PolicyState::empty("paper")).is_err());
    }

    #[test]
    fn interval_restore_rejects_period_mismatch() {
        let mut p = IntervalPolicy::new(3);
        let other = IntervalPolicy::new(5).snapshot();
        assert!(p.restore(&other).is_err());
        let same = IntervalPolicy::new(3).snapshot();
        assert!(p.restore(&same).is_ok());
    }
}
