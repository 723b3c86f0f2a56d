//! Dataset trait and the known-future data loader.

use egeria_models::Batch;
use egeria_tensor::{Result, Rng};

/// A deterministic dataset that can materialize any subset of its samples
/// into a [`Batch`].
///
/// Implementations must be *stateless*: `materialize` called twice with the
/// same indices returns identical batches, including any augmentation.
pub trait Dataset: Send {
    /// Number of samples.
    fn len(&self) -> usize;

    /// Whether the dataset is empty.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Builds the batch for the given sample indices.
    fn materialize(&self, indices: &[usize]) -> Result<Batch>;
}

/// A mini-batch plan: the sample indices of one iteration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BatchPlan {
    /// Epoch the plan belongs to.
    pub epoch: usize,
    /// Iteration index within the epoch.
    pub step: usize,
    /// Dataset indices of the batch.
    pub indices: Vec<usize>,
}

/// Shuffling data loader with an up-front per-epoch order.
///
/// The entire epoch's batch sequence is derivable from `(seed, epoch)`, so
/// [`DataLoader::epoch_plan`] can be consulted arbitrarily far ahead of the
/// training loop.
pub struct DataLoader {
    len: usize,
    batch_size: usize,
    seed: u64,
    drop_last: bool,
}

impl DataLoader {
    /// Creates a loader over a dataset of `len` samples.
    pub fn new(len: usize, batch_size: usize, seed: u64, drop_last: bool) -> Self {
        DataLoader {
            len,
            batch_size: batch_size.max(1),
            seed,
            drop_last,
        }
    }

    /// Number of batches per epoch.
    pub fn batches_per_epoch(&self) -> usize {
        if self.drop_last {
            self.len / self.batch_size
        } else {
            self.len.div_ceil(self.batch_size)
        }
    }

    /// Batch size.
    pub fn batch_size(&self) -> usize {
        self.batch_size
    }

    /// Shuffle seed. Together with the epoch index this fully determines
    /// every batch plan, which is what makes checkpoint/resume exact: a
    /// resumed run rebuilds the identical plans without any cursor state.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The full, deterministic batch plan of an epoch.
    pub fn epoch_plan(&self, epoch: usize) -> Vec<BatchPlan> {
        let mut rng = Rng::new(self.seed).derive(epoch as u64);
        let order = rng.permutation(self.len);
        let mut plans = Vec::with_capacity(self.batches_per_epoch());
        for (step, chunk) in order.chunks(self.batch_size).enumerate() {
            if self.drop_last && chunk.len() < self.batch_size {
                break;
            }
            plans.push(BatchPlan {
                epoch,
                step,
                indices: chunk.to_vec(),
            });
        }
        plans
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn epoch_plan_is_deterministic() {
        let l = DataLoader::new(100, 16, 7, true);
        assert_eq!(l.epoch_plan(3), l.epoch_plan(3));
        assert_ne!(l.epoch_plan(3), l.epoch_plan(4));
    }

    #[test]
    fn plan_covers_dataset_without_repeats() {
        let l = DataLoader::new(50, 8, 1, false);
        let plans = l.epoch_plan(0);
        let mut all: Vec<usize> = plans.iter().flat_map(|p| p.indices.clone()).collect();
        all.sort_unstable();
        assert_eq!(all, (0..50).collect::<Vec<_>>());
    }

    #[test]
    fn drop_last_truncates_ragged_batch() {
        let l = DataLoader::new(50, 8, 1, true);
        assert_eq!(l.batches_per_epoch(), 6);
        assert!(l.epoch_plan(0).iter().all(|p| p.indices.len() == 8));
        let l2 = DataLoader::new(50, 8, 1, false);
        assert_eq!(l2.batches_per_epoch(), 7);
    }

    #[test]
    fn different_epochs_shuffle_differently() {
        let l = DataLoader::new(32, 32, 5, true);
        let e0 = &l.epoch_plan(0)[0].indices;
        let e1 = &l.epoch_plan(1)[0].indices;
        assert_ne!(e0, e1);
    }
}
