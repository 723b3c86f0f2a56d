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
use egeria_resil::fault::{FaultInjector, FaultSite};
use egeria_tensor::{Result, Tensor, TensorError};
use std::sync::Arc;
use std::time::{Duration, Instant};

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

/// Owns and refreshes the reference model: one quantized copy, probed by
/// a direct forward on the training thread.
pub struct ReferenceManager {
    precision: Precision,
    reference: Option<Box<dyn Model>>,
    stats: ReferenceStats,
    telemetry: Telemetry,
    faults: Option<Arc<FaultInjector>>,
}

impl ReferenceManager {
    /// Creates a manager from the Egeria config.
    pub fn new(cfg: &EgeriaConfig) -> Self {
        ReferenceManager {
            precision: cfg.reference_precision,
            reference: None,
            stats: ReferenceStats::default(),
            telemetry: Telemetry::disabled(),
            faults: None,
        }
    }

    /// Attaches a fault injector, consulted at the
    /// [`FaultSite::ReferenceCapture`] site.
    pub fn set_faults(&mut self, faults: Arc<FaultInjector>) {
        self.faults = Some(faults);
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
        let _span = self.telemetry.span("reference_refresh");
        let start = Instant::now();
        self.reference = Some(quantize_reference(model, self.precision)?);
        self.stats.generations += 1;
        self.stats.total_generation_time += start.elapsed();
        self.telemetry.counter("reference.generations").inc();
        Ok(())
    }

    /// Runs the reference forward to capture module `module`'s activation.
    /// A failure (injected at [`FaultSite::ReferenceCapture`], or a real
    /// forward error) is the caller's cue to skip the evaluation.
    pub fn capture(&mut self, batch: &Batch, module: usize) -> Result<Tensor> {
        let Some(reference) = self.reference.as_mut() else {
            return Err(TensorError::Numerical(
                "reference model not generated yet".into(),
            ));
        };
        self.stats.forwards += 1;
        self.telemetry.counter("reference.forwards").inc();
        if let Some(f) = &self.faults {
            if f.should_fail(FaultSite::ReferenceCapture) {
                self.telemetry.counter("reference.capture_errors").inc();
                return Err(TensorError::Io("injected reference capture failure".into()));
            }
        }
        reference.capture_activation(batch, module)
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
    use egeria_models::{EvalResult, Input, ModuleMeta, StepResult, Targets};
    use egeria_nn::Parameter;
    use egeria_tensor::Rng;
    use std::sync::atomic::{AtomicUsize, Ordering};

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

    /// Delegates to `inner`; every `clone_boxed` anywhere in the family
    /// (the original or any copy made from it) bumps the shared counter.
    struct CountingModel {
        inner: Box<dyn Model>,
        clones: Arc<AtomicUsize>,
    }

    impl Model for CountingModel {
        fn name(&self) -> &str {
            self.inner.name()
        }
        fn modules(&self) -> Vec<ModuleMeta> {
            self.inner.modules()
        }
        fn frozen_prefix(&self) -> usize {
            self.inner.frozen_prefix()
        }
        fn freeze_prefix(&mut self, k: usize) -> Result<()> {
            self.inner.freeze_prefix(k)
        }
        fn unfreeze_all(&mut self) {
            self.inner.unfreeze_all()
        }
        fn train_step(&mut self, batch: &Batch, capture: Option<usize>) -> Result<StepResult> {
            self.inner.train_step(batch, capture)
        }
        fn eval_batch(&mut self, batch: &Batch) -> Result<EvalResult> {
            self.inner.eval_batch(batch)
        }
        fn eval_batch_from(
            &mut self,
            batch: &Batch,
            start: usize,
            activation: &Tensor,
        ) -> Result<EvalResult> {
            self.inner.eval_batch_from(batch, start, activation)
        }
        fn capture_activation(&mut self, batch: &Batch, module: usize) -> Result<Tensor> {
            self.inner.capture_activation(batch, module)
        }
        fn params(&self) -> Vec<&Parameter> {
            self.inner.params()
        }
        fn params_mut(&mut self) -> Vec<&mut Parameter> {
            self.inner.params_mut()
        }
        fn zero_grad(&mut self) {
            self.inner.zero_grad()
        }
        fn clone_boxed(&self) -> Box<dyn Model> {
            self.clones.fetch_add(1, Ordering::Relaxed);
            Box::new(CountingModel {
                inner: self.inner.clone_boxed(),
                clones: Arc::clone(&self.clones),
            })
        }
    }

    #[test]
    fn generate_clones_once_and_capture_never_clones() {
        let (inner, batch) = setup();
        let clones = Arc::new(AtomicUsize::new(0));
        let m = CountingModel {
            inner,
            clones: Arc::clone(&clones),
        };
        let mut r = ReferenceManager::new(&EgeriaConfig::default());
        for generation in 1..=3 {
            r.generate(&m).unwrap();
            assert_eq!(clones.load(Ordering::Relaxed), generation);
            for module in 0..3 {
                r.capture(&batch, module).unwrap();
            }
            assert_eq!(clones.load(Ordering::Relaxed), generation);
        }
    }

    #[test]
    fn injected_capture_fault_surfaces_typed_error_then_clears() {
        use egeria_resil::FaultAction;
        let (m, batch) = setup();
        let mut r = ReferenceManager::new(&EgeriaConfig::default());
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
