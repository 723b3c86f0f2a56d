//! Egeria configuration (the paper's four hyperparameters plus system
//! knobs).

use egeria_quant::Precision;

/// Which freeze/unfreeze decision policy drives the [`crate::freezer::FreezingEngine`]
/// (DESIGN §5i). The engine owns the per-module plasticity trackers and the
/// frozen front; the policy owns only the *decision rule*, so every variant
/// shares one probe pipeline and one determinism contract.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PolicyKind {
    /// The paper's plasticity/CUSUM policy (Algorithm 1): freeze on `S`
    /// consecutive sub-tolerance slopes, unfreeze on the LR-annealing rule.
    /// Bit-identical to the pre-trait freezer (pinned by the golden run).
    #[default]
    Paper,
    /// SmartFRZ-style learned predictor: a fixed-weight logistic scorer
    /// over attention-pooled plasticity-history features, distilled
    /// offline from paper-policy decision traces.
    Learned,
    /// Periodic-interval baseline: freeze one module every `every`
    /// plasticity evaluations, ignoring the plasticity values entirely.
    Interval {
        /// Evaluations between successive freezes.
        every: usize,
    },
    /// Never freeze anything: the vanilla baseline under the same probe
    /// schedule (isolates probe overhead from freezing benefit).
    NeverFreeze,
    /// The paper policy plus regression-aware *unfreezing*: when the
    /// reference-probe plasticity rebounds right after a freeze (the
    /// premature-freeze signature), thaw everything and refreeze with
    /// relaxed criteria.
    RegressionAware,
}

impl PolicyKind {
    /// Stable short name, used in reports, fingerprints, checkpoints, and
    /// telemetry decision instants.
    pub fn name(&self) -> &'static str {
        match self {
            PolicyKind::Paper => "paper",
            PolicyKind::Learned => "learned",
            PolicyKind::Interval { .. } => "interval",
            PolicyKind::NeverFreeze => "never",
            PolicyKind::RegressionAware => "regression",
        }
    }
}

/// Which backend the activation cache persists to (DESIGN §5j). Chunked,
/// the default, is the egeria-store chunk/shard layout; flat is the
/// original one-file-per-sample layout, kept as the bit-exactness
/// reference. Both are bit-exact under a lossless codec, so the golden run
/// pins the same fingerprint either way.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CacheStoreKind {
    /// One serialized tensor file per sample in a flat directory.
    Flat,
    /// Chunked + compressed + sharded store (`egeria-store`).
    #[default]
    Chunked,
}

impl CacheStoreKind {
    /// Stable short name, used in reports, checkpoints, and bench JSON.
    pub fn name(&self) -> &'static str {
        match self {
            CacheStoreKind::Flat => "flat",
            CacheStoreKind::Chunked => "chunked",
        }
    }
}

/// Unfreeze policy (§4.2.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UnfreezePolicy {
    /// LR-annealing rule: unfreeze all frozen layers when the LR has
    /// dropped by ≥10× since the frontmost module froze, halving `W` and
    /// `S` for refreezing.
    LrAnnealing,
    /// Cyclical schedules: user-customized unfreezing through
    /// [`crate::freezer::FreezingEngine::unfreeze_now`]; the built-in LR
    /// rule is disabled.
    Custom,
    /// Never unfreeze (ablation).
    Never,
}

/// The Egeria hyperparameters and system options.
#[derive(Debug, Clone, Copy)]
pub struct EgeriaConfig {
    /// `n`: plasticity-evaluation (and bootstrap-monitoring) interval in
    /// iterations.
    pub n: usize,
    /// `W`: history window for smoothing and the linear fit.
    pub w: usize,
    /// `S`: consecutive sub-tolerance slopes required to freeze (defaults
    /// to `W` per the paper).
    pub s: usize,
    /// `T`: plasticity slope tolerance as a trend-to-variation ratio: the
    /// window is stationary when the fitted trend's total change stays
    /// under `T`× the window's standard deviation.
    pub t: f32,
    /// Bootstrapping exit threshold: relative loss-change rate (the paper
    /// sets this "permissively" to 10%).
    pub bootstrap_rate: f32,
    /// Reference precision (int8 default; f32 fallback for sensitive
    /// models).
    pub reference_precision: Precision,
    /// Refresh the reference from the latest snapshot every this many
    /// plasticity evaluations (0 = never update; Figure 7's ablation).
    pub reference_update_every: usize,
    /// Unfreeze policy.
    pub unfreeze: UnfreezePolicy,
    /// Whether the frozen-prefix forward pass is replaced by the activation
    /// cache (§4.3).
    pub cache_fp: bool,
    /// In-memory cache window, in batches (the paper keeps 5).
    pub cache_mem_batches: usize,
    /// Freeze/unfreeze decision policy (DESIGN §5i).
    pub policy: PolicyKind,
    /// Activation-cache backend (DESIGN §5j).
    pub cache_store: CacheStoreKind,
}

impl Default for EgeriaConfig {
    fn default() -> Self {
        EgeriaConfig {
            n: 20,
            w: 15,
            s: 15,
            t: 1.0,
            bootstrap_rate: 0.10,
            reference_precision: Precision::Int8,
            reference_update_every: 10,
            unfreeze: UnfreezePolicy::LrAnnealing,
            cache_fp: true,
            cache_mem_batches: 5,
            policy: PolicyKind::Paper,
            cache_store: CacheStoreKind::Chunked,
        }
    }
}

impl EgeriaConfig {
    /// Sets `W` (and `S = W`, the paper's default coupling).
    pub fn with_window(mut self, w: usize) -> Self {
        self.w = w;
        self.s = w;
        self
    }

    /// Halved-criteria variant used for refreezing after an unfreeze
    /// (§4.2.2: "halve the counter and history buffer for refreezing").
    pub fn relaxed_for_refreeze(&self) -> (usize, usize) {
        ((self.w / 2).max(2), (self.s / 2).max(1))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_couples_s_to_w() {
        let c = EgeriaConfig::default();
        assert_eq!(c.s, c.w);
        assert!(c.bootstrap_rate > 0.0 && c.bootstrap_rate < 1.0);
    }

    #[test]
    fn with_window_keeps_coupling() {
        let c = EgeriaConfig::default().with_window(7);
        assert_eq!(c.w, 7);
        assert_eq!(c.s, 7);
    }

    #[test]
    fn defaults_are_the_paper_policy_on_the_chunked_store() {
        let c = EgeriaConfig::default();
        assert_eq!(c.policy, PolicyKind::Paper);
        assert_eq!(c.cache_store, CacheStoreKind::Chunked);
        assert_eq!(CacheStoreKind::Flat.name(), "flat");
        assert_eq!(CacheStoreKind::Chunked.name(), "chunked");
    }

    #[test]
    fn refreeze_criteria_are_halved_and_floored() {
        let c = EgeriaConfig::default().with_window(10);
        assert_eq!(c.relaxed_for_refreeze(), (5, 5));
        let tiny = EgeriaConfig::default().with_window(2);
        let (w, s) = tiny.relaxed_for_refreeze();
        assert!(w >= 2 && s >= 1);
    }
}
