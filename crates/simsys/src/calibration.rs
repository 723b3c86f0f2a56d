//! Calibration check: recorded trace timelines vs the simulator's model.
//!
//! The reproduction trains width-reduced models on CPU, so absolute
//! iteration times cannot be compared against the simulated V100 numbers.
//! What *can* be compared is the shape of the iteration-time split: how
//! much faster an iteration gets when a prefix is frozen, and faster still
//! when the frozen prefix's forward pass is served from the cache. The
//! telemetry layer records observed per-`(frozen_prefix, fp_cached)` mean
//! step durations; this module costs the same settings through
//! [`iteration_time`] and reports the
//! relative disagreement.

use crate::arch::ArchSpec;
use crate::device::ClusterSpec;
use crate::iteration::{iteration_time, CommPolicy, IterationSetting};

/// One observed iteration-split bucket, extracted from a recorded trace
/// (mean duration of `train_step` spans sharing a freezing state).
#[derive(Debug, Clone, Copy)]
pub struct ObservedSplit {
    /// Frozen-prefix length during these steps.
    pub frozen_prefix: usize,
    /// Whether the frozen prefix's forward pass came from the cache.
    pub fp_cached: bool,
    /// Number of steps observed in this state.
    pub steps: usize,
    /// Mean observed step duration (seconds).
    pub mean_seconds: f64,
}

/// Predicted-vs-observed comparison for one freezing state.
#[derive(Debug, Clone, Copy)]
pub struct CalibrationRow {
    /// Frozen-prefix length.
    pub frozen_prefix: usize,
    /// Whether cached-FP was active.
    pub fp_cached: bool,
    /// Steps observed in this state.
    pub steps: usize,
    /// Observed step time relative to the baseline state.
    pub observed_ratio: f64,
    /// Simulated step time relative to the baseline state.
    pub predicted_ratio: f64,
    /// `|observed - predicted| / predicted`.
    pub rel_error: f64,
}

/// The full calibration comparison.
#[derive(Debug, Clone)]
pub struct CalibrationReport {
    /// The baseline state ratios are taken against (least-frozen split).
    pub baseline_prefix: usize,
    /// Whether the baseline state had cached-FP active.
    pub baseline_cached: bool,
    /// Per-state comparisons, baseline first.
    pub rows: Vec<CalibrationRow>,
    /// Largest relative error across non-baseline rows (0 when there is
    /// nothing to compare).
    pub max_rel_error: f64,
}

impl CalibrationReport {
    /// Renders the comparison as an aligned text table.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str("== calibration: observed vs simulated iteration split ==\n");
        out.push_str(&format!(
            "baseline: prefix {} cached {}\n",
            self.baseline_prefix, self.baseline_cached
        ));
        out.push_str("prefix cached  steps  observed  predicted  rel_error\n");
        for r in &self.rows {
            out.push_str(&format!(
                "{:>6} {:>6} {:>6}  {:>8.4}  {:>9.4}  {:>9.4}\n",
                r.frozen_prefix, r.fp_cached, r.steps, r.observed_ratio, r.predicted_ratio,
                r.rel_error
            ));
        }
        out.push_str(&format!("max_rel_error: {:.4}\n", self.max_rel_error));
        out
    }
}

/// Compares observed split timings against the simulator's prediction for
/// the same architecture and cluster.
///
/// Ratios are taken against the least-frozen observed state (ties broken
/// toward uncached), which makes the comparison robust to the absolute
/// speed difference between the measurement host and the simulated
/// testbed. Returns `None` when `observed` is empty or the baseline mean
/// is not positive.
pub fn calibrate(
    arch: &ArchSpec,
    cluster: &ClusterSpec,
    batch_size: usize,
    policy: CommPolicy,
    observed: &[ObservedSplit],
) -> Option<CalibrationReport> {
    let mut splits: Vec<ObservedSplit> = observed
        .iter()
        .copied()
        .filter(|s| s.steps > 0 && s.mean_seconds.is_finite() && s.mean_seconds > 0.0)
        .collect();
    if splits.is_empty() {
        return None;
    }
    splits.sort_by_key(|s| (s.frozen_prefix, s.fp_cached));
    let base = splits[0];
    let predict = |s: &ObservedSplit| {
        iteration_time(
            arch,
            cluster,
            IterationSetting {
                frozen_prefix: s.frozen_prefix,
                fp_cached: s.fp_cached,
                batch_size,
            },
            policy,
        )
        .total
    };
    let base_pred = predict(&base);
    if base_pred <= 0.0 {
        return None;
    }
    let mut rows = Vec::with_capacity(splits.len());
    let mut max_rel_error = 0.0f64;
    for s in &splits {
        let observed_ratio = s.mean_seconds / base.mean_seconds;
        let predicted_ratio = predict(s) / base_pred;
        let rel_error = if predicted_ratio > 0.0 {
            (observed_ratio - predicted_ratio).abs() / predicted_ratio
        } else {
            f64::INFINITY
        };
        if !(s.frozen_prefix == base.frozen_prefix && s.fp_cached == base.fp_cached)
            && rel_error > max_rel_error
        {
            max_rel_error = rel_error;
        }
        rows.push(CalibrationRow {
            frozen_prefix: s.frozen_prefix,
            fp_cached: s.fp_cached,
            steps: s.steps,
            observed_ratio,
            predicted_ratio,
            rel_error,
        });
    }
    Some(CalibrationReport {
        baseline_prefix: base.frozen_prefix,
        baseline_cached: base.fp_cached,
        rows,
        max_rel_error,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arch::{FlopsModel, PaperScale};

    fn spec() -> ArchSpec {
        ArchSpec::scaled(
            "resnet50",
            &[100, 200, 400, 800],
            Some(&[4, 4, 4, 4]),
            FlopsModel::PerBlockUniform,
            PaperScale::resnet50_imagenet(),
        )
    }

    fn obs(prefix: usize, cached: bool, steps: usize, mean: f64) -> ObservedSplit {
        ObservedSplit {
            frozen_prefix: prefix,
            fp_cached: cached,
            steps,
            mean_seconds: mean,
        }
    }

    #[test]
    fn empty_observations_yield_none() {
        let r = calibrate(
            &spec(),
            &ClusterSpec::v100_cluster(1),
            32,
            CommPolicy::Vanilla,
            &[],
        );
        assert!(r.is_none());
        let r = calibrate(
            &spec(),
            &ClusterSpec::v100_cluster(1),
            32,
            CommPolicy::Vanilla,
            &[obs(0, false, 0, 1.0), obs(0, false, 4, 0.0)],
        );
        assert!(r.is_none());
    }

    #[test]
    fn perfectly_matching_observations_have_zero_error() {
        // Feed the simulator's own predictions back as observations: every
        // ratio must match exactly.
        let arch = spec();
        let cluster = ClusterSpec::v100_cluster(1);
        let settings = [(0usize, false), (2, false), (2, true)];
        let observed: Vec<ObservedSplit> = settings
            .iter()
            .map(|&(p, c)| {
                let t = iteration_time(
                    &arch,
                    &cluster,
                    IterationSetting {
                        frozen_prefix: p,
                        fp_cached: c,
                        batch_size: 32,
                    },
                    CommPolicy::Vanilla,
                );
                obs(p, c, 10, t.total)
            })
            .collect();
        let r = calibrate(&arch, &cluster, 32, CommPolicy::Vanilla, &observed).unwrap();
        assert_eq!(r.baseline_prefix, 0);
        assert!(!r.baseline_cached);
        assert_eq!(r.rows.len(), 3);
        assert!(r.max_rel_error < 1e-12, "max_rel_error {}", r.max_rel_error);
        for row in &r.rows {
            assert!((row.observed_ratio - row.predicted_ratio).abs() < 1e-12);
        }
    }

    #[test]
    fn disagreement_is_reported_relative_to_prediction() {
        let arch = spec();
        let cluster = ClusterSpec::v100_cluster(1);
        let base = iteration_time(
            &arch,
            &cluster,
            IterationSetting {
                frozen_prefix: 0,
                fp_cached: false,
                batch_size: 32,
            },
            CommPolicy::Vanilla,
        )
        .total;
        let frozen_pred = iteration_time(
            &arch,
            &cluster,
            IterationSetting {
                frozen_prefix: 2,
                fp_cached: false,
                batch_size: 32,
            },
            CommPolicy::Vanilla,
        )
        .total;
        // Observe the frozen state 50% slower than the model predicts.
        let observed = [
            obs(0, false, 10, base),
            obs(2, false, 10, frozen_pred * 1.5),
        ];
        let r = calibrate(&arch, &cluster, 32, CommPolicy::Vanilla, &observed).unwrap();
        assert!((r.max_rel_error - 0.5).abs() < 1e-9, "{}", r.max_rel_error);
        let rendered = r.render();
        assert!(rendered.contains("max_rel_error"));
        assert!(rendered.contains("observed"));
    }

    #[test]
    fn baseline_is_least_frozen_uncached_state() {
        let arch = spec();
        let cluster = ClusterSpec::v100_cluster(1);
        let observed = [
            obs(2, true, 5, 0.5),
            obs(1, false, 5, 0.9),
            obs(1, true, 5, 0.7),
        ];
        let r = calibrate(&arch, &cluster, 32, CommPolicy::Vanilla, &observed).unwrap();
        assert_eq!(r.baseline_prefix, 1);
        assert!(!r.baseline_cached);
        assert!((r.rows[0].observed_ratio - 1.0).abs() < 1e-12);
    }
}
