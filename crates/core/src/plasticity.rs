//! Per-module plasticity tracking (Equations 1–2 and the windowed linear
//! fit of Algorithm 1).

use egeria_analysis::series::{moving_average, window_slope, window_std};
use egeria_analysis::sp_loss;
use egeria_tensor::{Result, Tensor};

/// The outcome of folding one plasticity measurement into a module's
/// history.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PlasticityObservation {
    /// The raw SP loss `P_i`.
    pub raw: f32,
    /// The moving-average value appended to the history (Equation 2).
    pub smoothed: f32,
    /// The slope of the window linear fit, when ≥2 smoothed points exist.
    pub slope: Option<f32>,
    /// Consecutive evaluations with `|slope| < T` so far.
    pub stale_count: usize,
    /// Whether the freeze criterion (`stale_count ≥ S`) is met.
    pub converged: bool,
}

/// The persistent history of a [`PlasticityTracker`], exposed for
/// checkpointing. Restored under the same criteria, it reproduces the
/// tracker's future decisions exactly. The criteria are not part of it:
/// they follow from the config (see [`crate::freezer::FreezerSnapshot`]).
#[derive(Debug, Clone, PartialEq)]
pub struct TrackerSnapshot {
    /// Raw SP-loss history.
    pub raw: Vec<f32>,
    /// Smoothed (Equation 2) history.
    pub smoothed: Vec<f32>,
    /// Consecutive sub-tolerance evaluations so far.
    pub stale: usize,
}

/// Plasticity history of one layer module.
#[derive(Debug, Clone)]
pub struct PlasticityTracker {
    raw: Vec<f32>,
    smoothed: Vec<f32>,
    stale: usize,
    w: usize,
    s: usize,
    t: f32,
}

impl PlasticityTracker {
    /// Creates a tracker with window `w`, stale threshold `s`, tolerance
    /// `t`.
    pub fn new(w: usize, s: usize, t: f32) -> Self {
        PlasticityTracker {
            raw: Vec::new(),
            smoothed: Vec::new(),
            stale: 0,
            w: w.max(1),
            s: s.max(1),
            t,
        }
    }

    /// Folds one raw plasticity value into the history.
    pub fn observe_value(&mut self, p: f32) -> Result<PlasticityObservation> {
        self.raw.push(p);
        let smoothed = moving_average(&self.raw, self.w)?;
        self.smoothed.push(smoothed);
        let slope = window_slope(&self.smoothed, self.w);
        // Algorithm 1 line 10: `s < T` on the fitted slope, with two
        // refinements over the paper's plain comparison. (1) The magnitude
        // is used, so an anomalous steep *decrease* also counts as
        // still-changing. (2) The tolerance is a *trend-to-variation*
        // ratio: the total predicted change of the *smoothed* curve over
        // the window, `|slope|·(W−1)`, is compared against `T` times the
        // *raw* window's standard deviation (the SGD noise floor of
        // Equation 2's input). A consistent trend therefore blocks freezing
        // regardless of the curve's absolute magnitude, while trendless
        // noise of any size counts as stationary — this makes one default
        // `T` portable across models whose SP-loss scales differ by orders
        // of magnitude (the paper re-tunes an absolute T per task
        // instead).
        let std = window_std(&self.raw, self.w);
        if let (Some(sl), Some(sd)) = (slope, std) {
            let span = self.w.min(self.smoothed.len()).saturating_sub(1) as f32;
            // A hard zero std means a perfectly flat (converged) curve.
            let stationary = sl.abs() * span <= self.t * sd.max(f32::EPSILON);
            if stationary {
                self.stale += 1;
            } else {
                self.stale = 0;
            }
        }
        Ok(PlasticityObservation {
            raw: p,
            smoothed,
            slope,
            stale_count: self.stale,
            converged: self.stale >= self.s,
        })
    }

    /// Computes the SP-loss plasticity of a pair of activations and folds
    /// it in (Equation 1 + Equation 2 in one step).
    pub fn observe(&mut self, a_train: &Tensor, a_ref: &Tensor) -> Result<PlasticityObservation> {
        let p = sp_loss(a_train, a_ref)?;
        self.observe_value(p)
    }

    /// The raw plasticity history.
    pub fn raw_history(&self) -> &[f32] {
        &self.raw
    }

    /// The smoothed plasticity history (`pList` in Algorithm 1).
    pub fn smoothed_history(&self) -> &[f32] {
        &self.smoothed
    }

    /// Serializable history of the tracker for checkpointing.
    pub fn snapshot(&self) -> TrackerSnapshot {
        TrackerSnapshot {
            raw: self.raw.clone(),
            smoothed: self.smoothed.clone(),
            stale: self.stale,
        }
    }

    /// Rebuilds a tracker from a [`TrackerSnapshot`] under window `w`,
    /// stale threshold `s` and tolerance `t` (as [`PlasticityTracker::new`]).
    pub fn from_snapshot(h: &TrackerSnapshot, w: usize, s: usize, t: f32) -> Self {
        PlasticityTracker {
            raw: h.raw.clone(),
            smoothed: h.smoothed.clone(),
            stale: h.stale,
            ..PlasticityTracker::new(w, s, t)
        }
    }

    /// Resets the stale counter and (optionally) relaxes the window for
    /// refreezing after an unfreeze event.
    pub fn relax(&mut self, w: usize, s: usize) {
        self.w = w.max(1);
        self.s = s.max(1);
        self.stale = 0;
        // History restarts: the unfrozen module is training again.
        self.raw.clear();
        self.smoothed.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flat_series_converges_after_s_evaluations() {
        let mut t = PlasticityTracker::new(4, 3, 1e-3);
        let mut converged_at = None;
        for i in 0..12 {
            let o = t.observe_value(0.5).unwrap();
            if o.converged && converged_at.is_none() {
                converged_at = Some(i);
            }
        }
        // Slope needs ≥2 points, then 3 consecutive stale evaluations.
        let at = converged_at.expect("flat series must converge");
        assert!((3..=6).contains(&at), "converged at {at}");
    }

    #[test]
    fn falling_series_does_not_converge() {
        let mut t = PlasticityTracker::new(5, 3, 1e-3);
        for i in 0..20 {
            let o = t.observe_value(10.0 - i as f32 * 0.5).unwrap();
            assert!(!o.converged, "converged on a falling series at {i}");
        }
    }

    #[test]
    fn noise_is_smoothed_out() {
        // Alternating values whose moving average is flat.
        let mut t = PlasticityTracker::new(6, 4, 5e-2);
        let mut converged = false;
        for i in 0..30 {
            let v = if i % 2 == 0 { 1.0 } else { 1.1 };
            converged |= t.observe_value(v).unwrap().converged;
        }
        assert!(converged, "smoothing failed to flatten alternating noise");
    }

    #[test]
    fn spike_resets_the_stale_counter() {
        let mut t = PlasticityTracker::new(3, 5, 1e-3);
        for _ in 0..4 {
            let _ = t.observe_value(1.0).unwrap();
        }
        let before = t.stale;
        assert!(before > 0);
        // A large spike flips the recent slope above tolerance.
        let o = t.observe_value(5.0).unwrap();
        assert_eq!(o.stale_count, 0);
    }

    #[test]
    fn relax_clears_history_and_shrinks_window() {
        let mut t = PlasticityTracker::new(10, 10, 1e-3);
        for _ in 0..5 {
            let _ = t.observe_value(1.0).unwrap();
        }
        t.relax(5, 5);
        assert!(t.raw_history().is_empty());
        assert_eq!(t.w, 5);
        assert_eq!(t.s, 5);
        assert_eq!(t.stale, 0);
    }

    #[test]
    fn observe_uses_sp_loss() {
        use egeria_tensor::Rng;
        let mut rng = Rng::new(1);
        let a = Tensor::randn(&[4, 8], &mut rng);
        let mut t = PlasticityTracker::new(3, 3, 1e-4);
        let o = t.observe(&a, &a).unwrap();
        assert!(o.raw < 1e-10);
        let b = Tensor::randn(&[4, 8], &mut rng);
        let o2 = t.observe(&a, &b).unwrap();
        assert!(o2.raw > 0.0);
    }
}
