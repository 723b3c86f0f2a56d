//! Data-parallel distributed training (in-process).
//!
//! The paper evaluates Egeria under data-parallel training with all-reduce
//! gradient synchronization (§6.1). This module implements the *semantics*
//! of that setup — `k` model replicas, sharded batches, gradient averaging,
//! identical updates — with replicas living in one process. Wall-clock
//! behaviour of the cluster comes from `egeria-simsys`; this module
//! guarantees the algorithmic part: replicas stay bit-identical, frozen
//! modules are excluded from synchronization, and `k`-worker training
//! equals single-worker training on the concatenated batch.

use egeria_data::loader::BatchPlan;
use egeria_data::{DataLoader, Dataset};
use egeria_models::Model;
use egeria_nn::optim::Sgd;
use egeria_tensor::{Result, Tensor, TensorError};

/// A data-parallel worker group over identical model replicas.
pub struct DataParallel {
    replicas: Vec<Box<dyn Model>>,
    /// Gradient bytes that crossed the (emulated) network so far.
    sync_bytes: u64,
    /// Gradient bytes *skipped* thanks to frozen modules.
    skipped_bytes: u64,
}

impl DataParallel {
    /// Replicates a model `workers` times (weights copied exactly).
    pub fn new(model: &dyn Model, workers: usize) -> Result<Self> {
        if workers == 0 {
            return Err(TensorError::Numerical("need at least one worker".into()));
        }
        let replicas = (0..workers).map(|_| model.clone_boxed()).collect();
        Ok(DataParallel {
            replicas,
            sync_bytes: 0,
            skipped_bytes: 0,
        })
    }

    /// Number of workers.
    pub fn workers(&self) -> usize {
        self.replicas.len()
    }

    /// The rank-0 replica (reference for evaluation/snapshotting).
    pub fn primary(&self) -> &dyn Model {
        self.replicas[0].as_ref()
    }

    /// Applies a freeze decision to every replica (the controller's
    /// broadcast in Figure 5).
    pub fn freeze_prefix(&mut self, k: usize) -> Result<()> {
        for r in &mut self.replicas {
            r.freeze_prefix(k)?;
        }
        Ok(())
    }

    /// Unfreezes every replica.
    pub fn unfreeze_all(&mut self) {
        for r in &mut self.replicas {
            r.unfreeze_all();
        }
    }

    /// Bytes synchronized / skipped so far.
    pub fn traffic(&self) -> (u64, u64) {
        (self.sync_bytes, self.skipped_bytes)
    }

    /// Runs one data-parallel iteration: each worker computes gradients on
    /// its shard, gradients are all-reduced (averaged), and the shared
    /// optimizer updates every replica identically. Frozen parameters are
    /// excluded from synchronization (their would-be traffic is counted as
    /// skipped). Returns the mean loss over workers.
    pub fn step(
        &mut self,
        shards: &[egeria_models::Batch],
        optimizer: &mut Sgd,
    ) -> Result<f32> {
        if shards.len() != self.replicas.len() {
            return Err(TensorError::ShapeMismatch {
                op: "data_parallel step",
                lhs: vec![self.replicas.len()],
                rhs: vec![shards.len()],
            });
        }
        let mut loss = 0.0f32;
        for (r, shard) in self.replicas.iter_mut().zip(shards.iter()) {
            loss += r.train_step(shard, None)?.loss;
        }
        loss /= self.replicas.len() as f32;
        // All-reduce: average gradients parameter-by-parameter across
        // replicas. Parameter lists are index-aligned because every replica
        // is a clone of the same architecture.
        let workers = self.replicas.len();
        let n_params = self.replicas[0].params().len();
        for p_idx in 0..n_params {
            // Skip frozen parameters entirely (the paper's reduced sync
            // traffic).
            let (requires_grad, numel) = {
                let p = self.replicas[0].params()[p_idx];
                (p.requires_grad, p.numel())
            };
            if !requires_grad {
                self.skipped_bytes += (numel * 4 * 2 * (workers - 1) / workers.max(1)) as u64;
                continue;
            }
            let mut sum: Option<Tensor> = None;
            for r in &self.replicas {
                if let Some(g) = &r.params()[p_idx].grad {
                    match &mut sum {
                        Some(acc) => acc.axpy_inplace(1.0, g)?,
                        None => sum = Some(g.clone()),
                    }
                }
            }
            if let Some(mut avg) = sum {
                avg.scale_inplace(1.0 / workers as f32);
                self.sync_bytes += (avg.numel() * 4 * 2 * (workers - 1) / workers.max(1)) as u64;
                for r in &mut self.replicas {
                    let mut params = r.params_mut();
                    params[p_idx].grad = Some(avg.clone());
                }
            }
        }
        // Identical update on every replica (same averaged gradients, same
        // optimizer hyperparameters; per-replica momentum state is keyed by
        // parameter id so each replica keeps its own — but since gradients
        // are identical, states stay in lockstep).
        for r in &mut self.replicas {
            optimizer.step(&mut r.params_mut())?;
            r.zero_grad();
        }
        Ok(loss)
    }

    /// Trains for `epochs` over a sharded loader; returns per-epoch mean
    /// losses.
    pub fn train_epochs(
        &mut self,
        data: &dyn Dataset,
        loader: &DataLoader,
        optimizer: &mut Sgd,
        epochs: usize,
    ) -> Result<Vec<f32>> {
        let workers = self.workers();
        let mut losses = Vec::with_capacity(epochs);
        for epoch in 0..epochs {
            let plans = loader.epoch_plan(epoch);
            let mut epoch_loss = 0.0f32;
            let mut steps = 0;
            // Workers take consecutive batches as their shards of one
            // global step.
            for group in plans.chunks(workers) {
                if group.len() < workers {
                    break;
                }
                let shards: Vec<egeria_models::Batch> = group
                    .iter()
                    .map(|p: &BatchPlan| data.materialize(&p.indices))
                    .collect::<Result<_>>()?;
                epoch_loss += self.step(&shards, optimizer)?;
                steps += 1;
            }
            losses.push(epoch_loss / steps.max(1) as f32);
        }
        Ok(losses)
    }

    /// Checks that all replicas hold bit-identical parameters (a
    /// correctness invariant of data-parallel training).
    pub fn replicas_in_sync(&self) -> bool {
        let reference = self.replicas[0].params();
        self.replicas[1..].iter().all(|r| {
            r.params()
                .iter()
                .zip(reference.iter())
                .all(|(a, b)| a.value == b.value)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use egeria_models::resnet::{resnet_cifar, ResNetCifarConfig};
    use egeria_models::{Batch, Input, Targets};
    use egeria_tensor::Rng;

    fn model() -> impl Model {
        resnet_cifar(
            ResNetCifarConfig {
                n: 2,
                width: 4,
                classes: 4,
                ..Default::default()
            },
            77,
        )
    }

    fn batch(seed: u64, b: usize) -> Batch {
        let mut rng = Rng::new(seed);
        Batch {
            input: Input::Image(Tensor::randn(&[b, 3, 8, 8], &mut rng)),
            targets: Targets::Classes((0..b).map(|i| i % 4).collect()),
            sample_ids: (0..b as u64).collect(),
        }
    }

    #[test]
    fn replicas_stay_in_sync_across_steps() {
        let m = model();
        let mut dp = DataParallel::new(&m, 3).unwrap();
        let mut opt = Sgd::new(0.05, 0.9, 0.0);
        for step in 0..4 {
            let shards = vec![batch(step * 3, 4), batch(step * 3 + 1, 4), batch(step * 3 + 2, 4)];
            let loss = dp.step(&shards, &mut opt).unwrap();
            assert!(loss.is_finite());
            assert!(dp.replicas_in_sync(), "replicas diverged at step {step}");
        }
        assert!(dp.traffic().0 > 0);
    }

    #[test]
    fn two_workers_equal_one_worker_on_concatenated_batch() {
        // Gradient averaging over equal shards == gradient of the mean loss
        // on the concatenated batch, so parameters must match (momentum-free
        // SGD keeps the comparison exact).
        let m = model();
        let mut dp = DataParallel::new(&m, 2).unwrap();
        let mut single = m.clone_boxed();
        let mut opt_dp = Sgd::new(0.05, 0.0, 0.0);
        let mut opt_single = Sgd::new(0.05, 0.0, 0.0);
        // BatchNorm sees different per-shard statistics than the full
        // batch, so use shards drawn identically — shard stats equal full
        // stats only when the shards are the same batch. Use identical
        // shard contents for an exact check.
        let shard = batch(9, 4);
        for _ in 0..3 {
            let _ = dp.step(&[shard.clone(), shard.clone()], &mut opt_dp).unwrap();
            let _ = single.train_step(&shard, None).unwrap();
            opt_single.step(&mut single.params_mut()).unwrap();
            single.zero_grad();
        }
        for (a, b) in dp.primary().params().iter().zip(single.params().iter()) {
            assert!(
                a.value.allclose(&b.value, 1e-5),
                "parameter {} diverged from single-worker training",
                a.name
            );
        }
    }

    #[test]
    fn frozen_modules_skip_synchronization() {
        let m = model();
        let mut dp = DataParallel::new(&m, 2).unwrap();
        let mut opt = Sgd::new(0.05, 0.0, 0.0);
        let shard = batch(5, 4);
        let _ = dp.step(&[shard.clone(), shard.clone()], &mut opt).unwrap();
        let (sync_full, skipped_before) = dp.traffic();
        assert_eq!(skipped_before, 0);
        dp.freeze_prefix(1).unwrap();
        let _ = dp.step(&[shard.clone(), shard], &mut opt).unwrap();
        let (sync_after, skipped_after) = dp.traffic();
        assert!(skipped_after > 0, "frozen prefix produced no skipped traffic");
        assert!(sync_after - sync_full < sync_full, "sync traffic did not shrink");
        assert!(dp.replicas_in_sync());
    }

    #[test]
    fn train_epochs_reduces_loss_with_sharded_loader() {
        use egeria_data::images::{ImageDataConfig, SyntheticImages};
        let data = SyntheticImages::new(
            ImageDataConfig {
                samples: 64,
                classes: 4,
                size: 8,
                noise: 0.3,
                augment: true,
            },
            3,
        );
        let loader = DataLoader::new(64, 8, 1, true);
        let m = model();
        let mut dp = DataParallel::new(&m, 2).unwrap();
        let mut opt = Sgd::new(0.05, 0.9, 1e-4);
        let losses = dp.train_epochs(&data, &loader, &mut opt, 6).unwrap();
        assert!(losses.last().unwrap() < losses.first().unwrap());
        assert!(dp.replicas_in_sync());
    }

    #[test]
    fn zero_workers_rejected() {
        let m = model();
        assert!(DataParallel::new(&m, 0).is_err());
    }
}
