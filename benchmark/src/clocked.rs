//! Timing decorators at the `Model` and `Dataset` trait boundaries.
//!
//! The benchmark measures the trainer from outside: nothing under
//! `crates/` is instrumented for it. `ClockedDataset` gives the step and
//! epoch clock of every run; `ClockedModel` is used by the traced run only.

use egeria_data::Dataset;
use egeria_models::{Batch, EvalResult, Model, ModuleMeta, StepResult};
use egeria_nn::Parameter;
use egeria_tensor::{Result, Tensor};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Which dataset a `materialize` call went to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Split {
    Train,
    Val,
}

/// One `materialize` call: when it started and how long it took, in
/// nanoseconds since the log was created.
#[derive(Debug, Clone, Copy)]
pub struct Stamp {
    pub split: Split,
    pub start_ns: u64,
    pub dur_ns: u64,
}

/// The `materialize` calls of the train and validation datasets of one
/// run, in call order.
pub struct DataLog {
    origin: Instant,
    stamps: Mutex<Vec<Stamp>>,
}

impl DataLog {
    /// `capacity` stamps are reserved up front so that logging does not
    /// reallocate inside the timed loop.
    pub fn new(capacity: usize) -> Arc<Self> {
        Arc::new(DataLog {
            origin: Instant::now(),
            stamps: Mutex::new(Vec::with_capacity(capacity)),
        })
    }

    /// Nanoseconds since the log was created.
    pub fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    pub fn stamps(&self) -> Vec<Stamp> {
        self.stamps.lock().expect("data log poisoned").clone()
    }
}

/// A `Dataset` that logs one stamp per `materialize` and otherwise
/// delegates.
pub struct ClockedDataset {
    inner: Box<dyn Dataset>,
    split: Split,
    log: Arc<DataLog>,
}

impl ClockedDataset {
    pub fn new(inner: Box<dyn Dataset>, split: Split, log: Arc<DataLog>) -> Self {
        ClockedDataset { inner, split, log }
    }
}

impl Dataset for ClockedDataset {
    fn len(&self) -> usize {
        self.inner.len()
    }

    fn is_empty(&self) -> bool {
        self.inner.is_empty()
    }

    fn materialize(&self, indices: &[usize]) -> Result<Batch> {
        let start_ns = self.log.now_ns();
        let batch = self.inner.materialize(indices);
        let dur_ns = self.log.now_ns() - start_ns;
        self.log
            .stamps
            .lock()
            .expect("data log poisoned")
            .push(Stamp {
                split: self.split,
                start_ns,
                dur_ns,
            });
        batch
    }
}

/// Step and epoch boundaries read off a [`DataLog`]: consecutive train
/// calls delimit steps, the first validation call after them closes the
/// epoch's last step, and the next train call (or `end_ns`, the return of
/// `train()`) closes the epoch.
pub struct StepClock {
    /// Wall time of every step, in call order, in nanoseconds.
    pub step_ns: Vec<u64>,
    /// End of every epoch (validation and checkpoint included), in
    /// nanoseconds since the log was created.
    pub epoch_end_ns: Vec<u64>,
}

impl StepClock {
    pub fn from_stamps(stamps: &[Stamp], end_ns: u64) -> StepClock {
        let mut step_ns = Vec::new();
        let mut epoch_end_ns = Vec::new();
        for (i, s) in stamps.iter().enumerate() {
            let next = stamps.get(i + 1);
            let next_start = next.map_or(end_ns, |n| n.start_ns);
            match (s.split, next.map(|n| n.split)) {
                (Split::Train, _) => step_ns.push(next_start - s.start_ns),
                (Split::Val, Some(Split::Train)) | (Split::Val, None) => {
                    epoch_end_ns.push(next_start)
                }
                (Split::Val, Some(Split::Val)) => {}
            }
        }
        StepClock {
            step_ns,
            epoch_end_ns,
        }
    }
}

/// Busy time and call count of one `Model` method.
#[derive(Default)]
pub struct Timer {
    ns: AtomicU64,
    calls: AtomicU64,
}

impl Timer {
    fn time<T>(&self, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = f();
        // Statistics only: nothing is published through these counters.
        self.ns
            .fetch_add(start.elapsed().as_nanos() as u64, Ordering::Relaxed);
        self.calls.fetch_add(1, Ordering::Relaxed);
        out
    }

    pub fn ms(&self) -> f64 {
        self.ns.load(Ordering::Relaxed) as f64 / 1e6
    }

    pub fn calls(&self) -> u64 {
        self.calls.load(Ordering::Relaxed)
    }
}

/// Timers shared by a [`ClockedModel`] and all of its clones.
#[derive(Default)]
pub struct ModelClock {
    pub train_step: Timer,
    pub train_step_from: Timer,
    pub eval_batch: Timer,
    pub clone: Timer,
    /// `capture_activation` on clones: the reference model's forward,
    /// inline or on a serve worker.
    pub reference_capture: Timer,
}

/// Whether a [`ClockedModel`] is the model under training or a copy made
/// through `clone_boxed` (the trainer only copies to make references).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Role {
    Primary,
    Reference,
}

/// A `Model` that times the methods a train step is made of and
/// delegates everything, defaults included, to the wrapped model.
pub struct ClockedModel {
    inner: Box<dyn Model>,
    role: Role,
    clock: Arc<ModelClock>,
}

impl ClockedModel {
    pub fn new(inner: Box<dyn Model>, clock: Arc<ModelClock>) -> Self {
        ClockedModel {
            inner,
            role: Role::Primary,
            clock,
        }
    }
}

impl Model for ClockedModel {
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
        let inner = &mut self.inner;
        self.clock
            .train_step
            .time(|| inner.train_step(batch, capture))
    }

    fn supports_cached_fp(&self, prefix: usize) -> bool {
        self.inner.supports_cached_fp(prefix)
    }

    fn train_step_from(
        &mut self,
        batch: &Batch,
        prefix: usize,
        prefix_activation: &Tensor,
        capture: Option<usize>,
    ) -> Result<StepResult> {
        let inner = &mut self.inner;
        self.clock
            .train_step_from
            .time(|| inner.train_step_from(batch, prefix, prefix_activation, capture))
    }

    fn eval_batch(&mut self, batch: &Batch) -> Result<EvalResult> {
        let inner = &mut self.inner;
        self.clock.eval_batch.time(|| inner.eval_batch(batch))
    }

    fn capture_activation(&mut self, batch: &Batch, module: usize) -> Result<Tensor> {
        let inner = &mut self.inner;
        match self.role {
            Role::Primary => inner.capture_activation(batch, module),
            Role::Reference => self
                .clock
                .reference_capture
                .time(|| inner.capture_activation(batch, module)),
        }
    }

    fn params(&self) -> Vec<&Parameter> {
        self.inner.params()
    }

    fn params_mut(&mut self) -> Vec<&mut Parameter> {
        self.inner.params_mut()
    }

    fn state_buffers(&self) -> Vec<&Tensor> {
        self.inner.state_buffers()
    }

    fn state_buffers_mut(&mut self) -> Vec<&mut Tensor> {
        self.inner.state_buffers_mut()
    }

    fn zero_grad(&mut self) {
        self.inner.zero_grad()
    }

    fn clone_boxed(&self) -> Box<dyn Model> {
        let inner = self.clock.clone.time(|| self.inner.clone_boxed());
        Box::new(ClockedModel {
            inner,
            role: Role::Reference,
            clock: Arc::clone(&self.clock),
        })
    }

    fn param_count(&self) -> usize {
        self.inner.param_count()
    }

    fn active_param_fraction(&self) -> f32 {
        self.inner.active_param_fraction()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use egeria_models::{Input, Targets};
    use egeria_tensor::TensorError;

    /// A model whose every method answers with a value no default gives.
    struct Fake {
        prefix: usize,
        params: Vec<Parameter>,
        buffers: Vec<Tensor>,
        zeroed: usize,
    }

    fn fake() -> Fake {
        Fake {
            prefix: 0,
            params: vec![Parameter::new("w", Tensor::zeros(&[3]))],
            buffers: vec![Tensor::zeros(&[5])],
            zeroed: 0,
        }
    }

    impl Model for Fake {
        fn name(&self) -> &str {
            "fake"
        }
        fn modules(&self) -> Vec<ModuleMeta> {
            vec![ModuleMeta {
                name: "m0".into(),
                param_count: 3,
            }]
        }
        fn frozen_prefix(&self) -> usize {
            self.prefix
        }
        fn freeze_prefix(&mut self, k: usize) -> Result<()> {
            self.prefix = k;
            Ok(())
        }
        fn unfreeze_all(&mut self) {
            self.prefix = 0;
        }
        fn train_step(&mut self, _: &Batch, capture: Option<usize>) -> Result<StepResult> {
            Ok(StepResult {
                loss: 1.5,
                captured: None,
                modules_backpropped: capture.unwrap_or(40),
            })
        }
        fn supports_cached_fp(&self, prefix: usize) -> bool {
            prefix == 3
        }
        fn train_step_from(
            &mut self,
            _: &Batch,
            prefix: usize,
            _: &Tensor,
            _: Option<usize>,
        ) -> Result<StepResult> {
            Ok(StepResult {
                loss: 2.5,
                captured: None,
                modules_backpropped: prefix,
            })
        }
        fn eval_batch(&mut self, _: &Batch) -> Result<EvalResult> {
            Ok(EvalResult {
                loss: 3.5,
                metric: 0.75,
                count: 9,
            })
        }
        fn capture_activation(&mut self, _: &Batch, module: usize) -> Result<Tensor> {
            Ok(Tensor::zeros(&[module]))
        }
        fn params(&self) -> Vec<&Parameter> {
            self.params.iter().collect()
        }
        fn params_mut(&mut self) -> Vec<&mut Parameter> {
            self.params.iter_mut().collect()
        }
        fn state_buffers(&self) -> Vec<&Tensor> {
            self.buffers.iter().collect()
        }
        fn state_buffers_mut(&mut self) -> Vec<&mut Tensor> {
            self.buffers.iter_mut().collect()
        }
        fn zero_grad(&mut self) {
            self.zeroed += 1;
        }
        fn clone_boxed(&self) -> Box<dyn Model> {
            Box::new(Fake {
                prefix: self.prefix,
                ..fake()
            })
        }
        fn param_count(&self) -> usize {
            77
        }
        fn active_param_fraction(&self) -> f32 {
            0.25
        }
    }

    fn batch() -> Batch {
        Batch {
            input: Input::Tokens(vec![vec![1]]),
            targets: Targets::Classes(vec![0]),
            sample_ids: vec![0],
        }
    }

    #[test]
    fn clocked_model_delegates_every_method() {
        let clock = Arc::new(ModelClock::default());
        let mut m = ClockedModel::new(Box::new(fake()), Arc::clone(&clock));
        let b = batch();
        assert_eq!(m.name(), "fake");
        assert_eq!(m.modules().len(), 1);
        m.freeze_prefix(2).unwrap();
        assert_eq!(m.frozen_prefix(), 2);
        m.unfreeze_all();
        assert_eq!(m.frozen_prefix(), 0);
        assert_eq!(m.train_step(&b, Some(4)).unwrap().modules_backpropped, 4);
        assert!(m.supports_cached_fp(3) && !m.supports_cached_fp(2));
        let from = m
            .train_step_from(&b, 6, &Tensor::zeros(&[1]), None)
            .unwrap();
        assert_eq!((from.loss, from.modules_backpropped), (2.5, 6));
        assert_eq!(m.eval_batch(&b).unwrap().count, 9);
        assert_eq!(m.capture_activation(&b, 7).unwrap().dims(), &[7]);
        assert_eq!(m.params().len(), 1);
        assert_eq!(m.params_mut()[0].name, "w");
        assert_eq!(m.state_buffers()[0].dims(), &[5]);
        assert_eq!(m.state_buffers_mut().len(), 1);
        m.zero_grad();
        assert_eq!(m.param_count(), 77);
        assert_eq!(m.active_param_fraction(), 0.25);
        assert_eq!(
            (
                clock.train_step.calls(),
                clock.train_step_from.calls(),
                clock.eval_batch.calls()
            ),
            (1, 1, 1)
        );
    }

    #[test]
    fn clones_are_reference_copies_and_share_the_clock() {
        let clock = Arc::new(ModelClock::default());
        let mut primary = ClockedModel::new(Box::new(fake()), Arc::clone(&clock));
        primary.freeze_prefix(1).unwrap();
        let b = batch();
        // A capture on the model under training is not a reference capture.
        primary.capture_activation(&b, 1).unwrap();
        assert_eq!(clock.reference_capture.calls(), 0);
        let mut copy = primary.clone_boxed();
        assert_eq!(clock.clone.calls(), 1);
        assert_eq!(copy.frozen_prefix(), 1);
        copy.capture_activation(&b, 1).unwrap();
        // A copy of a copy is still a reference copy.
        copy.clone_boxed().capture_activation(&b, 1).unwrap();
        assert_eq!(clock.reference_capture.calls(), 2);
        assert_eq!(clock.clone.calls(), 2);
    }

    struct FakeData;

    impl Dataset for FakeData {
        fn len(&self) -> usize {
            0
        }
        fn is_empty(&self) -> bool {
            // Deliberately at odds with `len`: only delegation gives this.
            false
        }
        fn materialize(&self, indices: &[usize]) -> Result<Batch> {
            match indices {
                [] => Err(TensorError::Numerical("empty".into())),
                _ => Ok(batch()),
            }
        }
    }

    #[test]
    fn clocked_dataset_delegates_and_stamps_every_call() {
        let log = DataLog::new(4);
        let train = ClockedDataset::new(Box::new(FakeData), Split::Train, Arc::clone(&log));
        let val = ClockedDataset::new(Box::new(FakeData), Split::Val, Arc::clone(&log));
        assert_eq!(train.len(), 0);
        assert!(!train.is_empty());
        assert!(train.materialize(&[0]).is_ok());
        assert!(val.materialize(&[]).is_err());
        let stamps = log.stamps();
        assert_eq!(
            stamps.iter().map(|s| s.split).collect::<Vec<_>>(),
            [Split::Train, Split::Val]
        );
        assert!(stamps[0].start_ns + stamps[0].dur_ns <= stamps[1].start_ns);
    }

    #[test]
    fn step_clock_reads_steps_and_epochs_off_the_stamps() {
        let s = |split, start_ns| Stamp {
            split,
            start_ns,
            dur_ns: 1,
        };
        // Two epochs of two steps and two validation batches each.
        let stamps = [
            s(Split::Train, 10),
            s(Split::Train, 30),
            s(Split::Val, 60),
            s(Split::Val, 65),
            s(Split::Train, 100),
            s(Split::Train, 140),
            s(Split::Val, 190),
            s(Split::Val, 195),
        ];
        let clock = StepClock::from_stamps(&stamps, 250);
        assert_eq!(clock.step_ns, [20, 30, 40, 50]);
        assert_eq!(clock.epoch_end_ns, [100, 250]);
    }
}
