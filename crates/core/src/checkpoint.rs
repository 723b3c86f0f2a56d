//! Crash-consistent checkpoint/resume for the Egeria training pipeline.
//!
//! A checkpoint captures *everything* the trainer needs to continue a run
//! as if it had never stopped: model parameters (by name) and BatchNorm
//! running statistics, optimizer slots, the freezing state machine
//! (frozen prefix, per-module plasticity histories, event log), the
//! bootstrap monitor, the active reference-model snapshot, and the report
//! accumulators. The LR schedule and data order need no cursor state —
//! both are pure functions of `(seed, epoch/step)`.
//!
//! On-disk container (little-endian), format version 3:
//!
//! ```text
//! magic        u32  = 0x4B434745 ("EGCK")
//! version      u8   = 3
//! payload_len  u64
//! crc32        u32  (IEEE CRC-32 of the payload)
//! payload      (the encoded TrainerCheckpoint)
//! ```
//!
//! Version history: v2 added the freeze-policy state block
//! ([`crate::policy::PolicyState`]) to the freezer section. v3 appended
//! the activation-cache backend kind (`cache_store`) so a resumed run can
//! detect a backend switch and start from an empty cache instead of
//! reading the other layout's files. Older files are still
//! decodable — v1 freezer state upgrades with [`PolicyState::legacy`]
//! (those runs were always paper-policy driven), and v≤2 upgrades with
//! `cache_store = "flat"` (the only backend that existed).
//!
//! Atomicity protocol: the file is written to `<name>.tmp`, fsynced, then
//! renamed over the final name — a crash mid-save leaves at most a stale
//! `.tmp`, never a half-written checkpoint under the real name. Loading
//! scans the directory newest-first and falls back past any file whose
//! magic, version, length, or checksum fails, so a corrupted latest
//! checkpoint silently yields the previous one.

use crate::bootstrap::BootstrapSnapshot;
use crate::freezer::{FreezeEvent, FreezerSnapshot};
use crate::plasticity::TrackerSnapshot;
use crate::policy::PolicyState;
use crate::reference::ReferenceSnapshot;
use crate::trainer::{EpochRecord, EventRecord, IterationRecord, PlasticityPoint};
use egeria_nn::optim::OptimizerState;
use egeria_resil::fault::{FaultAction, FaultInjector, FaultSite};
use egeria_tensor::wire::{self, put_f32, put_string, put_u32, put_u64, put_u8, Reader};
use egeria_tensor::{serialize, Result, Tensor, TensorError};
use std::fs;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Magic number of checkpoint files ("EGCK").
pub const MAGIC: u32 = 0x4B43_4745;

/// Current checkpoint container version.
pub const FORMAT_VERSION: u8 = 3;

/// Oldest container version this binary still decodes.
pub const MIN_FORMAT_VERSION: u8 = 1;

/// Checkpointing options for the trainer.
#[derive(Debug, Clone)]
pub struct CheckpointOptions {
    /// Directory the checkpoints live in (created if missing).
    pub dir: PathBuf,
    /// Save every this many epochs (1 = every epoch).
    pub every: usize,
    /// How many checkpoint files to retain (older ones are deleted).
    pub keep: usize,
}

impl CheckpointOptions {
    /// Checkpoint into `dir` every epoch, keeping the 3 most recent files.
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        CheckpointOptions {
            dir: dir.into(),
            every: 1,
            keep: 3,
        }
    }
}

/// The complete persistent trainer state.
#[derive(Debug, Clone)]
pub struct TrainerCheckpoint {
    /// Model name, validated on resume.
    pub model_name: String,
    /// First epoch the resumed run should execute.
    pub next_epoch: u64,
    /// Global iteration counter at the epoch boundary.
    pub global_step: u64,
    /// Evaluations since the last reference refresh.
    pub evals_since_ref_update: u64,
    /// Frozen-prefix length.
    pub frozen_prefix: u64,
    /// Model parameters keyed by name.
    pub params: Vec<(String, Tensor)>,
    /// Non-parameter model state (BatchNorm running statistics), in
    /// architecture order.
    pub state_buffers: Vec<Tensor>,
    /// Optimizer state (kind, LR, step count, name-keyed slots).
    pub optimizer: OptimizerState,
    /// Freezing-engine state (`None` when Egeria is off).
    pub freezer: Option<FreezerSnapshot>,
    /// Bootstrap-monitor state (`None` when Egeria is off).
    pub bootstrap: Option<BootstrapSnapshot>,
    /// The active reference model (`None` before bootstrap completes, and
    /// in async mode, where the controller thread owns the reference — the
    /// resumed run regenerates it from the restored weights).
    pub reference: Option<ReferenceSnapshot>,
    /// Per-epoch report records accumulated so far.
    pub epochs: Vec<EpochRecord>,
    /// Per-iteration report records accumulated so far.
    pub iterations: Vec<IterationRecord>,
    /// Plasticity trace accumulated so far.
    pub plasticity: Vec<PlasticityPoint>,
    /// Freeze/unfreeze events accumulated so far.
    pub events: Vec<EventRecord>,
    /// Input bytes accumulated so far.
    pub input_bytes: u64,
    /// Activation-cache backend name (`"flat"` / `"chunked"`) the run was
    /// using; a resumed run on a different backend invalidates its cache
    /// instead of reading a foreign layout. v≤2 files decode as `"flat"`.
    pub cache_store: String,
}

// ---------------------------------------------------------------------------
// Payload encoding
// ---------------------------------------------------------------------------

fn put_bool(out: &mut Vec<u8>, v: bool) {
    put_u8(out, v as u8);
}

fn put_tensor(out: &mut Vec<u8>, t: &Tensor) {
    let bytes = serialize::to_bytes(t);
    put_u64(out, bytes.len() as u64);
    out.extend_from_slice(&bytes);
}

fn put_f32_vec(out: &mut Vec<u8>, v: &[f32]) {
    put_u64(out, v.len() as u64);
    for &x in v {
        put_f32(out, x);
    }
}

fn put_opt_f32(out: &mut Vec<u8>, v: Option<f32>) {
    match v {
        Some(x) => {
            put_u8(out, 1);
            put_f32(out, x);
        }
        None => put_u8(out, 0),
    }
}

fn put_named_tensors(out: &mut Vec<u8>, v: &[(String, Tensor)]) {
    put_u64(out, v.len() as u64);
    for (name, t) in v {
        put_string(out, name);
        put_tensor(out, t);
    }
}

fn put_tracker(out: &mut Vec<u8>, t: &TrackerSnapshot) {
    put_f32_vec(out, &t.raw);
    put_f32_vec(out, &t.smoothed);
    put_u64(out, t.stale as u64);
    put_u64(out, t.w as u64);
    put_u64(out, t.s as u64);
    put_f32(out, t.t);
}

fn put_policy_state(out: &mut Vec<u8>, p: &PolicyState) {
    put_string(out, &p.kind);
    put_u32(out, p.version);
    put_f32_vec(out, &p.scalars);
    put_u64(out, p.counters.len() as u64);
    for &c in &p.counters {
        put_u64(out, c);
    }
}

fn encode_payload(ckpt: &TrainerCheckpoint, version: u8, out: &mut Vec<u8>) {
    put_string(out, &ckpt.model_name);
    put_u64(out, ckpt.next_epoch);
    put_u64(out, ckpt.global_step);
    put_u64(out, ckpt.evals_since_ref_update);
    put_u64(out, ckpt.frozen_prefix);
    put_named_tensors(out, &ckpt.params);
    put_u64(out, ckpt.state_buffers.len() as u64);
    for t in &ckpt.state_buffers {
        put_tensor(out, t);
    }
    // Optimizer.
    put_string(out, &ckpt.optimizer.kind);
    put_f32(out, ckpt.optimizer.lr);
    put_u64(out, ckpt.optimizer.step_count);
    put_u64(out, ckpt.optimizer.slots.len() as u64);
    for (slot, tensors) in &ckpt.optimizer.slots {
        put_string(out, slot);
        put_named_tensors(out, tensors);
    }
    // Freezer.
    match &ckpt.freezer {
        None => put_u8(out, 0),
        Some(f) => {
            put_u8(out, 1);
            put_u64(out, f.front as u64);
            put_opt_f32(out, f.lr_at_first_freeze);
            put_bool(out, f.relaxed);
            put_u64(out, f.evaluations as u64);
            put_u64(out, f.events.len() as u64);
            for (at, ev) in &f.events {
                put_u64(out, *at as u64);
                match ev {
                    FreezeEvent::None => put_u8(out, 0),
                    FreezeEvent::Froze(k) => {
                        put_u8(out, 1);
                        put_u64(out, *k as u64);
                    }
                    FreezeEvent::Unfroze => put_u8(out, 2),
                }
            }
            put_u64(out, f.trackers.len() as u64);
            for t in &f.trackers {
                put_tracker(out, t);
            }
            if version >= 2 {
                put_policy_state(out, &f.policy);
            }
        }
    }
    // Bootstrap.
    match &ckpt.bootstrap {
        None => put_u8(out, 0),
        Some(b) => {
            put_u8(out, 1);
            put_f32_vec(out, &b.losses);
            put_bool(out, b.done);
        }
    }
    // Reference.
    match &ckpt.reference {
        None => put_u8(out, 0),
        Some(r) => {
            put_u8(out, 1);
            put_named_tensors(out, &r.params);
            put_u64(out, r.state_buffers.len() as u64);
            for t in &r.state_buffers {
                put_tensor(out, t);
            }
        }
    }
    // Report accumulators.
    put_u64(out, ckpt.epochs.len() as u64);
    for e in &ckpt.epochs {
        put_u64(out, e.epoch as u64);
        put_f32(out, e.train_loss);
        put_opt_f32(out, e.val_loss);
        put_opt_f32(out, e.val_metric);
        put_f32(out, e.lr);
        put_u64(out, e.frozen_prefix as u64);
        put_f32(out, e.active_param_fraction);
    }
    put_u64(out, ckpt.iterations.len() as u64);
    for i in &ckpt.iterations {
        put_u32(out, i.epoch);
        put_u32(out, i.frozen_prefix as u32);
        put_bool(out, i.fp_cached);
    }
    put_u64(out, ckpt.plasticity.len() as u64);
    for p in &ckpt.plasticity {
        put_u64(out, p.iteration as u64);
        put_u64(out, p.module as u64);
        put_f32(out, p.raw);
        put_f32(out, p.smoothed);
    }
    put_u64(out, ckpt.events.len() as u64);
    for e in &ckpt.events {
        put_u64(out, e.iteration as u64);
        put_string(out, &e.kind);
        put_u64(out, e.prefix as u64);
    }
    put_u64(out, ckpt.input_bytes);
    if version >= 3 {
        put_string(out, &ckpt.cache_store);
    }
}

// ---------------------------------------------------------------------------
// Payload decoding (over the shared bounded reader; corruption surfaces as
// Err, never a panic)
// ---------------------------------------------------------------------------

/// A `u64` count, then that many items. `min_bytes` is a lower bound on one
/// item's encoding, so the count is bounded by the bytes remaining before
/// anything is allocated for it.
fn list<T>(
    r: &mut Reader,
    min_bytes: usize,
    what: &str,
    mut item: impl FnMut(&mut Reader) -> Result<T>,
) -> Result<Vec<T>> {
    let n = r.u64(what)?;
    let n = r.count(n, min_bytes, what)?;
    let mut v = Vec::with_capacity(n);
    for _ in 0..n {
        v.push(item(r)?);
    }
    Ok(v)
}

fn flag(r: &mut Reader, what: &str) -> Result<bool> {
    Ok(r.u8(what)? != 0)
}

fn opt_f32(r: &mut Reader, what: &str) -> Result<Option<f32>> {
    Ok(match r.u8(what)? {
        0 => None,
        _ => Some(r.f32(what)?),
    })
}

fn f32_vec(r: &mut Reader, what: &str) -> Result<Vec<f32>> {
    let n = r.u64(what)?;
    r.f32s(n, what)
}

fn tensor(r: &mut Reader, what: &str) -> Result<Tensor> {
    let n = r.u64(what)?;
    let n = r.count(n, 1, what)?;
    serialize::from_bytes(r.take(n, what)?)
}

fn tensors(r: &mut Reader, what: &str) -> Result<Vec<Tensor>> {
    list(r, 8, what, |r| tensor(r, what))
}

fn named_tensors(r: &mut Reader, what: &str) -> Result<Vec<(String, Tensor)>> {
    list(r, 12, what, |r| Ok((r.string(what)?, tensor(r, what)?)))
}

fn tracker(r: &mut Reader) -> Result<TrackerSnapshot> {
    Ok(TrackerSnapshot {
        raw: f32_vec(r, "tracker.raw")?,
        smoothed: f32_vec(r, "tracker.smoothed")?,
        stale: r.u64("tracker.stale")? as usize,
        w: r.u64("tracker.w")? as usize,
        s: r.u64("tracker.s")? as usize,
        t: r.f32("tracker.t")?,
    })
}

fn policy_state(r: &mut Reader) -> Result<PolicyState> {
    Ok(PolicyState {
        kind: r.string("policy.kind")?,
        version: r.u32("policy.version")?,
        scalars: f32_vec(r, "policy.scalars")?,
        counters: list(r, 8, "policy.counters", |r| r.u64("policy.counter"))?,
    })
}

fn freeze_event(r: &mut Reader) -> Result<(usize, FreezeEvent)> {
    let at = r.u64("freezer.event.at")? as usize;
    let ev = match r.u8("freezer.event.kind")? {
        0 => FreezeEvent::None,
        1 => FreezeEvent::Froze(r.u64("freezer.event.k")? as usize),
        2 => FreezeEvent::Unfroze,
        other => return Err(r.corrupt(format_args!("unknown freeze event tag {other}"))),
    };
    Ok((at, ev))
}

fn decode_payload(r: &mut Reader, version: u8) -> Result<TrainerCheckpoint> {
    let model_name = r.string("model_name")?;
    let next_epoch = r.u64("next_epoch")?;
    let global_step = r.u64("global_step")?;
    let evals_since_ref_update = r.u64("evals_since_ref_update")?;
    let frozen_prefix = r.u64("frozen_prefix")?;
    let params = named_tensors(r, "params")?;
    let state_buffers = tensors(r, "state_buffers")?;
    let optimizer = OptimizerState {
        kind: r.string("optimizer.kind")?,
        lr: r.f32("optimizer.lr")?,
        step_count: r.u64("optimizer.step_count")?,
        slots: list(r, 12, "optimizer.slots", |r| {
            Ok((
                r.string("optimizer.slot")?,
                named_tensors(r, "optimizer.slot_tensors")?,
            ))
        })?,
    };
    let freezer = match r.u8("freezer.tag")? {
        0 => None,
        _ => Some(FreezerSnapshot {
            front: r.u64("freezer.front")? as usize,
            lr_at_first_freeze: opt_f32(r, "freezer.lr_at_first_freeze")?,
            relaxed: flag(r, "freezer.relaxed")?,
            evaluations: r.u64("freezer.evaluations")? as usize,
            events: list(r, 9, "freezer.events", freeze_event)?,
            trackers: list(r, 44, "freezer.trackers", tracker)?,
            // v1 predates the policy framework; those runs were always
            // paper-policy driven, so the upgrade is lossless.
            policy: if version >= 2 {
                policy_state(r)?
            } else {
                PolicyState::legacy()
            },
        }),
    };
    let bootstrap = match r.u8("bootstrap.tag")? {
        0 => None,
        _ => Some(BootstrapSnapshot {
            losses: f32_vec(r, "bootstrap.losses")?,
            done: flag(r, "bootstrap.done")?,
        }),
    };
    let reference = match r.u8("reference.tag")? {
        0 => None,
        _ => Some(ReferenceSnapshot {
            params: named_tensors(r, "reference.params")?,
            state_buffers: tensors(r, "reference.state_buffers")?,
        }),
    };
    let epochs = list(r, 30, "epochs", |r| {
        Ok(EpochRecord {
            epoch: r.u64("epoch.epoch")? as usize,
            train_loss: r.f32("epoch.train_loss")?,
            val_loss: opt_f32(r, "epoch.val_loss")?,
            val_metric: opt_f32(r, "epoch.val_metric")?,
            lr: r.f32("epoch.lr")?,
            frozen_prefix: r.u64("epoch.frozen_prefix")? as usize,
            active_param_fraction: r.f32("epoch.active_param_fraction")?,
        })
    })?;
    let iterations = list(r, 9, "iterations", |r| {
        Ok(IterationRecord {
            epoch: r.u32("iter.epoch")?,
            frozen_prefix: r.u32("iter.frozen_prefix")? as u16,
            fp_cached: flag(r, "iter.fp_cached")?,
        })
    })?;
    let plasticity = list(r, 24, "plasticity", |r| {
        Ok(PlasticityPoint {
            iteration: r.u64("plast.iteration")? as usize,
            module: r.u64("plast.module")? as usize,
            raw: r.f32("plast.raw")?,
            smoothed: r.f32("plast.smoothed")?,
        })
    })?;
    let events = list(r, 20, "events", |r| {
        Ok(EventRecord {
            iteration: r.u64("event.iteration")? as usize,
            kind: r.string("event.kind")?,
            prefix: r.u64("event.prefix")? as usize,
        })
    })?;
    let input_bytes = r.u64("input_bytes")?;
    // v≤2 predates the chunked backend; those runs were always flat.
    let cache_store = if version >= 3 {
        r.string("cache_store")?
    } else {
        "flat".to_string()
    };
    Ok(TrainerCheckpoint {
        model_name,
        next_epoch,
        global_step,
        evals_since_ref_update,
        frozen_prefix,
        params,
        state_buffers,
        optimizer,
        freezer,
        bootstrap,
        reference,
        epochs,
        iterations,
        plasticity,
        events,
        input_bytes,
        cache_store,
    })
}

/// Serializes a checkpoint into the versioned, checksummed container.
pub fn to_bytes(ckpt: &TrainerCheckpoint) -> Vec<u8> {
    to_bytes_versioned(ckpt, FORMAT_VERSION)
}

/// Serializes with an explicit container version (old versions drop the
/// fields they predate). Only the current version is written in production;
/// this exists so backward-compat decoding stays testable.
fn to_bytes_versioned(ckpt: &TrainerCheckpoint, version: u8) -> Vec<u8> {
    wire::frame(MAGIC, version, 0, |out| encode_payload(ckpt, version, out))
}

/// Deserializes a checkpoint, validating magic, version, length, and CRC
/// before interpreting any payload byte.
pub fn from_bytes(buf: &[u8]) -> Result<TrainerCheckpoint> {
    let versions = MIN_FORMAT_VERSION..=FORMAT_VERSION;
    let (version, mut r) = wire::unframe("checkpoint", buf, MAGIC, versions)?;
    let ckpt = decode_payload(&mut r, version)?;
    // By path: egeria-lint resolves a `.finish()` method call by name alone
    // and would route this decode root through `EgeriaRun::finish`.
    Reader::finish(r)?;
    Ok(ckpt)
}

/// Manages a directory of rolling checkpoints.
pub struct CheckpointStore {
    dir: PathBuf,
    keep: usize,
    faults: Option<Arc<FaultInjector>>,
    /// Save failures survived so far (degradation counter).
    pub save_errors: usize,
}

impl CheckpointStore {
    /// Opens (creating if needed) a checkpoint directory.
    pub fn open(dir: impl Into<PathBuf>, keep: usize) -> Result<Self> {
        let dir = dir.into();
        fs::create_dir_all(&dir)?;
        Ok(CheckpointStore {
            dir,
            keep: keep.max(1),
            faults: None,
            save_errors: 0,
        })
    }

    /// Attaches a fault injector (testing).
    pub fn with_faults(mut self, faults: Option<Arc<FaultInjector>>) -> Self {
        self.faults = faults;
        self
    }

    fn path_of(&self, epoch: u64) -> PathBuf {
        self.dir.join(format!("ckpt-{epoch:08}.egck"))
    }

    /// Epochs that currently have a checkpoint file, ascending.
    pub fn saved_epochs(&self) -> Vec<u64> {
        let mut epochs: Vec<u64> = match fs::read_dir(&self.dir) {
            Ok(entries) => entries
                .flatten()
                .filter_map(|e| parse_epoch(&e.path()))
                .collect(),
            Err(_) => Vec::new(),
        };
        epochs.sort_unstable();
        epochs
    }

    /// Atomically writes a checkpoint for the epoch it covers
    /// (`next_epoch − 1`), then prunes beyond the retention window.
    ///
    /// A *failed* save still leaves the directory invariants intact: its
    /// temp file is removed, stale `.egck.tmp` leftovers (a crashed
    /// earlier process) are swept, and keep-N retention is re-enforced —
    /// repeated failures must not grow the directory.
    pub fn save(&mut self, ckpt: &TrainerCheckpoint) -> Result<PathBuf> {
        let epoch = ckpt.next_epoch.saturating_sub(1);
        let mut bytes = to_bytes(ckpt);
        // The injected failure fires *after* the temp file exists (below),
        // so tests exercise the cleanup path a real mid-write error takes.
        let mut injected_fail = false;
        match self.faults.as_ref().and_then(|f| f.check(FaultSite::CheckpointWrite)) {
            Some(FaultAction::Fail) => injected_fail = true,
            Some(FaultAction::CorruptBytes) if bytes.len() > wire::FRAME_HEADER_LEN => {
                // Corrupt the payload region so the CRC check trips on load.
                let mid = wire::FRAME_HEADER_LEN + (bytes.len() - wire::FRAME_HEADER_LEN) / 2;
                bytes[mid] ^= 0x20;
            }
            _ => {}
        }
        let final_path = self.path_of(epoch);
        let tmp_path = final_path.with_extension("egck.tmp");
        let written = write_and_rename(&bytes, &tmp_path, &final_path, injected_fail);
        if written.is_err() {
            let _ = fs::remove_file(&tmp_path);
        }
        self.sweep_stale_tmp();
        self.prune();
        written?;
        Ok(final_path)
    }

    /// Removes leftover `.egck.tmp` files (a crash between create and
    /// rename, or an earlier process that died mid-save).
    fn sweep_stale_tmp(&self) {
        if let Ok(entries) = fs::read_dir(&self.dir) {
            for e in entries.flatten() {
                let path = e.path();
                let is_tmp = path
                    .file_name()
                    .and_then(|n| n.to_str())
                    .map(|n| n.ends_with(".egck.tmp"))
                    .unwrap_or(false);
                if is_tmp {
                    let _ = fs::remove_file(&path);
                }
            }
        }
    }

    /// Retention: drop the oldest checkpoint files beyond `keep`.
    fn prune(&self) {
        let epochs = self.saved_epochs();
        if epochs.len() > self.keep {
            for &old in &epochs[..epochs.len() - self.keep] {
                let _ = fs::remove_file(self.path_of(old));
            }
        }
    }

    /// Loads the newest valid checkpoint, skipping (and reporting) corrupt
    /// or unreadable files. Returns `None` when no valid checkpoint exists.
    pub fn load_latest(&self) -> Option<TrainerCheckpoint> {
        let mut epochs = self.saved_epochs();
        epochs.reverse();
        for epoch in epochs {
            let path = self.path_of(epoch);
            match self.load_file(&path) {
                Ok(ckpt) => return Some(ckpt),
                Err(e) => {
                    eprintln!(
                        "egeria: skipping checkpoint {}: {e}",
                        path.display()
                    );
                }
            }
        }
        None
    }

    fn load_file(&self, path: &Path) -> Result<TrainerCheckpoint> {
        let mut bytes = fs::read(path)?;
        if let Some(FaultAction::CorruptBytes) = self
            .faults
            .as_ref()
            .and_then(|f| f.check(FaultSite::CheckpointRead))
        {
            FaultInjector::corrupt(&mut bytes);
        }
        from_bytes(&bytes)
    }
}

/// Create-write-fsync-rename, failing (after the temp file exists) when
/// the injected fault fired — so error handling covers the same states a
/// real mid-write failure leaves behind.
fn write_and_rename(
    bytes: &[u8],
    tmp_path: &Path,
    final_path: &Path,
    injected_fail: bool,
) -> Result<()> {
    let mut f = fs::File::create(tmp_path)?;
    f.write_all(bytes)?;
    f.sync_all()?;
    drop(f);
    if injected_fail {
        return Err(TensorError::Io("injected checkpoint write failure".into()));
    }
    fs::rename(tmp_path, final_path)?;
    Ok(())
}

fn parse_epoch(path: &Path) -> Option<u64> {
    let name = path.file_name()?.to_str()?;
    let rest = name.strip_prefix("ckpt-")?.strip_suffix(".egck")?;
    rest.parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_checkpoint() -> TrainerCheckpoint {
        TrainerCheckpoint {
            model_name: "toy".into(),
            next_epoch: 3,
            global_step: 12,
            evals_since_ref_update: 2,
            frozen_prefix: 1,
            params: vec![
                ("w".into(), Tensor::from_vec(vec![1.0, -2.0], &[2]).unwrap()),
                ("b".into(), Tensor::scalar(0.5)),
            ],
            state_buffers: vec![Tensor::ones(&[2])],
            optimizer: OptimizerState {
                kind: "sgd".into(),
                lr: 0.05,
                step_count: 12,
                slots: vec![(
                    "velocity".into(),
                    vec![("w".into(), Tensor::zeros(&[2]))],
                )],
            },
            freezer: Some(FreezerSnapshot {
                front: 1,
                lr_at_first_freeze: Some(0.05),
                relaxed: false,
                evaluations: 6,
                events: vec![(4, FreezeEvent::Froze(1)), (6, FreezeEvent::Unfroze)],
                trackers: vec![TrackerSnapshot {
                    raw: vec![0.5, 0.4],
                    smoothed: vec![0.5, 0.45],
                    stale: 1,
                    w: 3,
                    s: 2,
                    t: 1.0,
                }],
                policy: PolicyState {
                    kind: "regression".into(),
                    version: 1,
                    scalars: vec![0.4],
                    counters: vec![1, 7, 0],
                },
            }),
            bootstrap: Some(BootstrapSnapshot {
                losses: vec![2.0, 1.0, 0.9],
                done: true,
            }),
            reference: Some(ReferenceSnapshot {
                params: vec![("w".into(), Tensor::from_vec(vec![1.0, -2.0], &[2]).unwrap())],
                state_buffers: vec![],
            }),
            epochs: vec![EpochRecord {
                epoch: 0,
                train_loss: 1.5,
                val_loss: Some(1.6),
                val_metric: None,
                lr: 0.05,
                frozen_prefix: 0,
                active_param_fraction: 1.0,
            }],
            iterations: vec![IterationRecord {
                epoch: 0,
                frozen_prefix: 0,
                fp_cached: false,
            }],
            plasticity: vec![PlasticityPoint {
                iteration: 4,
                module: 0,
                raw: 0.5,
                smoothed: 0.5,
            }],
            events: vec![EventRecord {
                iteration: 4,
                kind: "freeze".into(),
                prefix: 1,
            }],
            input_bytes: 4096,
            cache_store: "chunked".into(),
        }
    }

    fn assert_round_trip(a: &TrainerCheckpoint, b: &TrainerCheckpoint) {
        assert_eq!(a.model_name, b.model_name);
        assert_eq!(a.next_epoch, b.next_epoch);
        assert_eq!(a.global_step, b.global_step);
        assert_eq!(a.frozen_prefix, b.frozen_prefix);
        assert_eq!(a.params.len(), b.params.len());
        for ((na, ta), (nb, tb)) in a.params.iter().zip(b.params.iter()) {
            assert_eq!(na, nb);
            assert_eq!(ta, tb);
        }
        assert_eq!(a.state_buffers, b.state_buffers);
        assert_eq!(a.optimizer.kind, b.optimizer.kind);
        assert_eq!(a.optimizer.step_count, b.optimizer.step_count);
        assert_eq!(a.freezer, b.freezer);
        assert_eq!(a.bootstrap, b.bootstrap);
        assert_eq!(
            a.reference.as_ref().map(|r| r.params.len()),
            b.reference.as_ref().map(|r| r.params.len())
        );
        assert_eq!(a.epochs.len(), b.epochs.len());
        assert_eq!(a.iterations.len(), b.iterations.len());
        assert_eq!(a.plasticity.len(), b.plasticity.len());
        assert_eq!(a.events.len(), b.events.len());
        assert_eq!(a.input_bytes, b.input_bytes);
        assert_eq!(a.cache_store, b.cache_store);
    }

    #[test]
    fn round_trip_is_exact() {
        let c = tiny_checkpoint();
        let back = from_bytes(&to_bytes(&c)).unwrap();
        assert_round_trip(&c, &back);
    }

    #[test]
    fn format_v1_checkpoints_decode_with_legacy_policy_state() {
        let c = tiny_checkpoint();
        let v1_bytes = to_bytes_versioned(&c, 1);
        let back = from_bytes(&v1_bytes).unwrap();
        // Everything except the policy block survives; the freezer state
        // upgrades with the legacy (paper, version-0) policy state.
        assert_eq!(back.model_name, c.model_name);
        let f = back.freezer.expect("freezer section survives");
        let orig = c.freezer.unwrap();
        assert_eq!(f.front, orig.front);
        assert_eq!(f.events, orig.events);
        assert_eq!(f.trackers, orig.trackers);
        assert_eq!(f.policy, PolicyState::legacy());
    }

    #[test]
    fn format_v2_checkpoints_decode_as_flat_cache_store() {
        let c = tiny_checkpoint();
        let v2_bytes = to_bytes_versioned(&c, 2);
        let back = from_bytes(&v2_bytes).unwrap();
        // Everything up to the v3 field survives; the backend kind
        // upgrades to the only one v2 runs could have used.
        assert_eq!(back.model_name, c.model_name);
        assert_eq!(back.freezer, c.freezer);
        assert_eq!(back.input_bytes, c.input_bytes);
        assert_eq!(back.cache_store, "flat");
    }

    #[test]
    fn future_format_versions_are_rejected() {
        let bytes = to_bytes_versioned(&tiny_checkpoint(), FORMAT_VERSION + 1);
        assert!(from_bytes(&bytes).is_err());
    }

    /// `(length, crc32)` of every on-disk format's encoding of a fixed
    /// value, recorded at the parent commit 8d3c159 — before the five
    /// formats moved onto `egeria_tensor::wire` — so neither today's bytes
    /// nor the legacy-decode fixtures (checkpoint v1, v2) can drift.
    #[test]
    fn on_disk_bytes_are_unchanged_from_parent() {
        use egeria_store::chunk::ChunkBlock;
        use egeria_store::codec::{StoreCodec, Transform};
        use egeria_store::manifest::{Manifest, ManifestEntry};
        let pin = |bytes: &[u8]| (bytes.len(), wire::crc32(bytes));
        // The manifest ends in its own CRC (a CRC over that is a constant):
        // pin the body, whose CRC is the trailer.
        let pin_body = |bytes: &[u8]| pin(&bytes[..bytes.len() - 4]);

        let data = (0..24).map(|i| i as f32 * 0.37 - 4.0).collect();
        let t = Tensor::from_vec(data, &[2, 3, 4]).unwrap();
        assert_eq!(pin(&serialize::to_bytes(&t)), (141, 0xb70b_e059), "tensor");
        let scalar = serialize::to_bytes(&Tensor::scalar(7.0));
        assert_eq!(pin(&scalar), (25, 0x3146_0920), "scalar");
        let exact = Transform::Exact.encode_sample(&t).unwrap();
        assert_eq!(pin(&exact), (141, 0xb70b_e059), "exact record");
        let f16 = Transform::F16.encode_sample(&t).unwrap();
        assert_eq!(pin(&f16), (76, 0xac1e_5a24), "f16 record");
        let int8 = Transform::Int8.encode_sample(&t).unwrap();
        assert_eq!(pin(&int8), (56, 0xbc26_96bf), "int8 record");

        let c = tiny_checkpoint();
        assert_eq!(pin(&to_bytes(&c)), (722, 0x986a_e1d5), "checkpoint v3");
        let (v2, v1) = (to_bytes_versioned(&c, 2), to_bytes_versioned(&c, 1));
        assert_eq!(pin(&v2), (711, 0x8f51_1fc3), "checkpoint v2");
        assert_eq!(pin(&v1), (649, 0x5502_7de7), "checkpoint v1");

        let records = [(0u16, exact), (5, Vec::new()), (63, f16)];
        let block = ChunkBlock {
            transform: Transform::F16,
            base_id: 640,
            chunk_samples: 64,
            records: records.into_iter().collect(),
        };
        assert_eq!(pin(&block.encode()), (253, 0xa05a_7931), "chunk block");

        let mut m = Manifest::empty(StoreCodec::Lossless, 64, 16);
        m.clock = 42;
        m.valid_prefix = Some(3);
        m.shard_lens.insert(0, 1000);
        m.shard_lens.insert(7, 50);
        let entry = ManifestEntry {
            shard: 0,
            offset: 0,
            len: 600,
            raw_len: 2400,
            crc: 0xDEAD_BEEF,
            samples: 64,
            last_access: 41,
        };
        m.chunks.insert(2, entry);
        let tail = ManifestEntry {
            shard: 7,
            offset: 10,
            len: 40,
            ..entry
        };
        m.chunks.insert(112, tail);
        assert_eq!(pin_body(&m.encode()), (143, 0xc610_88a7), "manifest");
        m.valid_prefix = None;
        assert_eq!(pin_body(&m.encode()), (143, 0xda0a_e629), "no prefix");
    }

    #[test]
    fn every_single_byte_flip_is_detected() {
        let bytes = to_bytes(&tiny_checkpoint());
        for i in 0..bytes.len() {
            let mut bad = bytes.clone();
            bad[i] ^= 0x08;
            assert!(
                from_bytes(&bad).is_err(),
                "flip at byte {i} went undetected"
            );
        }
    }

    #[test]
    fn truncation_is_detected_at_every_length() {
        let bytes = to_bytes(&tiny_checkpoint());
        for keep in 0..bytes.len() {
            assert!(
                from_bytes(&bytes[..keep]).is_err(),
                "truncation to {keep} bytes went undetected"
            );
        }
    }

    fn tmp_dir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!(
            "egeria_ckpt_test_{tag}_{}",
            std::process::id()
        ));
        let _ = fs::remove_dir_all(&d);
        d
    }

    #[test]
    fn store_saves_and_loads_latest() {
        let mut store = CheckpointStore::open(tmp_dir("latest"), 3).unwrap();
        let mut c = tiny_checkpoint();
        for epoch in 1..=4u64 {
            c.next_epoch = epoch;
            store.save(&c).unwrap();
        }
        let latest = store.load_latest().unwrap();
        assert_eq!(latest.next_epoch, 4);
    }

    #[test]
    fn retention_prunes_oldest() {
        let mut store = CheckpointStore::open(tmp_dir("prune"), 2).unwrap();
        let mut c = tiny_checkpoint();
        for epoch in 1..=5u64 {
            c.next_epoch = epoch;
            store.save(&c).unwrap();
        }
        assert_eq!(store.saved_epochs(), vec![3, 4]);
    }

    #[test]
    fn corrupt_latest_falls_back_to_previous() {
        let dir = tmp_dir("fallback");
        let mut store = CheckpointStore::open(&dir, 3).unwrap();
        let mut c = tiny_checkpoint();
        c.next_epoch = 1;
        store.save(&c).unwrap();
        c.next_epoch = 2;
        let latest_path = store.save(&c).unwrap();
        // Flip a payload byte of the newest file on disk.
        let mut bytes = fs::read(&latest_path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xFF;
        fs::write(&latest_path, &bytes).unwrap();
        let loaded = store.load_latest().unwrap();
        assert_eq!(loaded.next_epoch, 1, "must fall back past the corrupt file");
    }

    #[test]
    fn truncated_latest_falls_back_to_previous() {
        let dir = tmp_dir("truncated");
        let mut store = CheckpointStore::open(&dir, 3).unwrap();
        let mut c = tiny_checkpoint();
        c.next_epoch = 1;
        store.save(&c).unwrap();
        c.next_epoch = 2;
        let latest_path = store.save(&c).unwrap();
        let bytes = fs::read(&latest_path).unwrap();
        fs::write(&latest_path, &bytes[..bytes.len() / 3]).unwrap();
        let loaded = store.load_latest().unwrap();
        assert_eq!(loaded.next_epoch, 1);
    }

    #[test]
    fn injected_write_failure_surfaces_as_io_error() {
        let faults = FaultInjector::new();
        faults.arm(FaultSite::CheckpointWrite, 0, 1, FaultAction::Fail);
        let mut store = CheckpointStore::open(tmp_dir("wfail"), 3)
            .unwrap()
            .with_faults(Some(faults.clone()));
        let err = store.save(&tiny_checkpoint()).unwrap_err();
        assert!(matches!(err, TensorError::Io(_)));
        // The next save (fault window exhausted) succeeds.
        assert!(store.save(&tiny_checkpoint()).is_ok());
    }

    #[test]
    fn injected_corruption_is_caught_on_load() {
        let faults = FaultInjector::new();
        faults.arm(FaultSite::CheckpointWrite, 1, 1, FaultAction::CorruptBytes);
        let mut store = CheckpointStore::open(tmp_dir("wcorrupt"), 3)
            .unwrap()
            .with_faults(Some(faults.clone()));
        let mut c = tiny_checkpoint();
        c.next_epoch = 1;
        store.save(&c).unwrap(); // clean
        c.next_epoch = 2;
        store.save(&c).unwrap(); // corrupted on the way to disk
        let loaded = store.load_latest().unwrap();
        assert_eq!(loaded.next_epoch, 1, "corrupt save must be skipped");
    }

    #[test]
    fn repeated_failed_saves_leak_no_temp_files_and_keep_retention() {
        let dir = tmp_dir("noleak");
        let faults = FaultInjector::new();
        let mut store = CheckpointStore::open(&dir, 2)
            .unwrap()
            .with_faults(Some(faults.clone()));
        let mut c = tiny_checkpoint();
        // Seed three good saves: keep=2 retains epochs 1 and 2.
        for epoch in 1..=3u64 {
            c.next_epoch = epoch;
            store.save(&c).unwrap();
        }
        assert_eq!(store.saved_epochs(), vec![1, 2]);
        // Four consecutive failed saves must not grow the directory: no
        // temp files leak and the retention window is unchanged.
        faults.arm(FaultSite::CheckpointWrite, 0, 4, FaultAction::Fail);
        for epoch in 4..=7u64 {
            c.next_epoch = epoch;
            assert!(store.save(&c).is_err());
        }
        let entries: Vec<String> = fs::read_dir(&dir)
            .unwrap()
            .flatten()
            .map(|e| e.file_name().into_string().unwrap())
            .collect();
        assert!(
            entries.iter().all(|n| !n.ends_with(".tmp")),
            "leaked temp files: {entries:?}"
        );
        assert_eq!(entries.len(), 2, "directory grew: {entries:?}");
        assert_eq!(store.saved_epochs(), vec![1, 2]);
        // A stale tmp from a crashed earlier process is swept by the next
        // save, which also succeeds (the fault window is exhausted).
        fs::write(dir.join("ckpt-99999999.egck.tmp"), b"junk").unwrap();
        c.next_epoch = 8;
        store.save(&c).unwrap();
        assert!(!dir.join("ckpt-99999999.egck.tmp").exists());
        assert_eq!(store.saved_epochs(), vec![2, 7]);
    }

    #[test]
    fn empty_store_loads_nothing() {
        let store = CheckpointStore::open(tmp_dir("empty"), 3).unwrap();
        assert!(store.load_latest().is_none());
    }
}
