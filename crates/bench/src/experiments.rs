//! Shared experiment runners built on the workload registry
//! (`egeria_scenarios::registry`).

use crate::workloads::arch_spec;
use egeria_core::trainer::{evaluate, TrainReport};
use egeria_scenarios::registry::{build, Built, Recipe};
use egeria_simsys::tta::IterTrace;
use egeria_simsys::ArchSpec;
use egeria_tensor::Result;

/// The output of one training run plus its paper-scale cost spec.
pub struct RunOutput {
    /// Training report (metrics, traces, events).
    pub report: TrainReport,
    /// Paper-scale architecture spec matching the trace's module indices.
    pub arch: ArchSpec,
    /// Batch size used.
    pub batch_size: usize,
}

/// Trains a Table 1 entry end to end and returns the report + cost spec.
pub fn run_workload(recipe: &Recipe) -> Result<RunOutput> {
    let built = build(recipe)?;
    let arch = arch_spec(recipe.name, built.model.as_ref());
    Ok(RunOutput {
        report: built.train()?,
        arch,
        batch_size: recipe.batch_size,
    })
}

/// Trains a built entry for one epoch without Egeria: the LR from the
/// schedule at `epoch` (indexed per epoch), then an optimizer step per
/// batch.
pub fn train_epoch(w: &mut Built, epoch: usize) -> Result<()> {
    w.optimizer.set_lr(w.schedule.lr(epoch));
    for plan in w.loader.epoch_plan(epoch) {
        let batch = w.train.materialize(&plan.indices)?;
        let _ = w.model.train_step(&batch, None)?;
        w.optimizer.step(&mut w.model.params_mut())?;
        w.model.zero_grad();
    }
    Ok(())
}

/// The built model's metric on its entry's validation set.
///
/// # Panics
/// When the entry holds no validation set (every Table 1 entry does).
pub fn val_metric(w: &mut Built) -> Result<f32> {
    let (val, loader) = w.val.as_ref().expect("entry holds a validation set");
    Ok(evaluate(w.model.as_mut(), val.as_ref(), loader)?.1)
}

/// Converts a report's iteration records into the simulator's trace type.
pub fn trace_of(report: &TrainReport) -> Vec<IterTrace> {
    report
        .iterations
        .iter()
        .map(|i| IterTrace {
            epoch: i.epoch,
            frozen_prefix: i.frozen_prefix,
            fp_cached: i.fp_cached,
        })
        .collect()
}

/// The per-epoch validation metric series (None where not evaluated).
pub fn metric_series(report: &TrainReport) -> Vec<Option<f32>> {
    report.epochs.iter().map(|e| e.val_metric).collect()
}

/// Running-best transform of a metric series: epoch `e` carries the
/// highest value seen up to `e` (every registry metric is
/// higher-is-better). Time-to-accuracy on small validation sets is
/// jittery; the paper's convergence targets are effectively monotone, so
/// TTA is extracted from the running best.
pub fn running_best(series: &[Option<f32>]) -> Vec<Option<f32>> {
    let mut best: Option<f32> = None;
    series
        .iter()
        .map(|m| {
            if let Some(v) = m {
                best = Some(best.map_or(*v, |b| b.max(*v)));
            }
            best
        })
        .collect()
}

/// Epoch-tagged model snapshots, the final model, and the shared probe batch
/// returned by [`train_with_snapshots`].
pub type SnapshotRun = (
    Vec<(usize, Box<dyn egeria_models::Model>)>,
    Box<dyn egeria_models::Model>,
    egeria_models::Batch,
);

/// Manually trains an entry for its epochs (no Egeria, LR indexed per
/// epoch), returning model snapshots at the requested epoch boundaries plus the final model
/// and a fixed probe batch (the first `probe_batch` training samples) for
/// activation analysis. Used by the post hoc PWCCA / SP-loss figures.
pub fn train_with_snapshots(
    recipe: &Recipe,
    snap_epochs: &[usize],
    probe_batch: usize,
) -> Result<SnapshotRun> {
    let mut w = build(recipe)?;
    let probe = w
        .train
        .materialize(&(0..probe_batch.min(w.train.len())).collect::<Vec<_>>())?;
    let epochs = recipe.epochs;
    let mut snaps = Vec::new();
    for epoch in 0..epochs {
        if snap_epochs.contains(&epoch) {
            snaps.push((epoch, w.model.clone_boxed()));
        }
        train_epoch(&mut w, epoch)?;
        if snap_epochs.contains(&(epoch + 1)) && epoch + 1 == epochs {
            snaps.push((epochs, w.model.clone_boxed()));
        }
    }
    Ok((snaps, w.model, probe))
}

/// The best (final-plateau) metric of a run: the median of the last three
/// evaluated epochs, robust to single-epoch noise.
pub fn converged_metric(report: &TrainReport) -> f32 {
    let mut vals: Vec<f32> = report
        .epochs
        .iter()
        .rev()
        .filter_map(|e| e.val_metric)
        .take(3)
        .collect();
    if vals.is_empty() {
        return 0.0;
    }
    vals.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
    vals[vals.len() / 2]
}
