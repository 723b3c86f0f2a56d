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
use bytes::BufMut;
use egeria_nn::optim::OptimizerState;
use egeria_resil::fault::{FaultAction, FaultInjector, FaultSite};
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

const HEADER_LEN: usize = 4 + 1 + 8 + 4;

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
    out.put_u8(v as u8);
}

fn put_string(out: &mut Vec<u8>, s: &str) {
    out.put_u32_le(s.len() as u32);
    out.put_slice(s.as_bytes());
}

fn put_tensor(out: &mut Vec<u8>, t: &Tensor) {
    let bytes = serialize::to_bytes(t);
    out.put_u64_le(bytes.len() as u64);
    out.put_slice(&bytes);
}

fn put_f32_vec(out: &mut Vec<u8>, v: &[f32]) {
    out.put_u64_le(v.len() as u64);
    for &x in v {
        out.put_f32_le(x);
    }
}

fn put_opt_f32(out: &mut Vec<u8>, v: Option<f32>) {
    match v {
        Some(x) => {
            out.put_u8(1);
            out.put_f32_le(x);
        }
        None => out.put_u8(0),
    }
}

fn put_named_tensors(out: &mut Vec<u8>, v: &[(String, Tensor)]) {
    out.put_u64_le(v.len() as u64);
    for (name, t) in v {
        put_string(out, name);
        put_tensor(out, t);
    }
}

fn put_tracker(out: &mut Vec<u8>, t: &TrackerSnapshot) {
    put_f32_vec(out, &t.raw);
    put_f32_vec(out, &t.smoothed);
    out.put_u64_le(t.stale as u64);
    out.put_u64_le(t.w as u64);
    out.put_u64_le(t.s as u64);
    out.put_f32_le(t.t);
}

fn put_policy_state(out: &mut Vec<u8>, p: &PolicyState) {
    put_string(out, &p.kind);
    out.put_u32_le(p.version);
    put_f32_vec(out, &p.scalars);
    out.put_u64_le(p.counters.len() as u64);
    for &c in &p.counters {
        out.put_u64_le(c);
    }
}

fn encode_payload(ckpt: &TrainerCheckpoint, version: u8) -> Vec<u8> {
    let mut out = Vec::new();
    put_string(&mut out, &ckpt.model_name);
    out.put_u64_le(ckpt.next_epoch);
    out.put_u64_le(ckpt.global_step);
    out.put_u64_le(ckpt.evals_since_ref_update);
    out.put_u64_le(ckpt.frozen_prefix);
    put_named_tensors(&mut out, &ckpt.params);
    out.put_u64_le(ckpt.state_buffers.len() as u64);
    for t in &ckpt.state_buffers {
        put_tensor(&mut out, t);
    }
    // Optimizer.
    put_string(&mut out, &ckpt.optimizer.kind);
    out.put_f32_le(ckpt.optimizer.lr);
    out.put_u64_le(ckpt.optimizer.step_count);
    out.put_u64_le(ckpt.optimizer.slots.len() as u64);
    for (slot, tensors) in &ckpt.optimizer.slots {
        put_string(&mut out, slot);
        put_named_tensors(&mut out, tensors);
    }
    // Freezer.
    match &ckpt.freezer {
        None => out.put_u8(0),
        Some(f) => {
            out.put_u8(1);
            out.put_u64_le(f.front as u64);
            put_opt_f32(&mut out, f.lr_at_first_freeze);
            put_bool(&mut out, f.relaxed);
            out.put_u64_le(f.evaluations as u64);
            out.put_u64_le(f.events.len() as u64);
            for (at, ev) in &f.events {
                out.put_u64_le(*at as u64);
                match ev {
                    FreezeEvent::None => out.put_u8(0),
                    FreezeEvent::Froze(k) => {
                        out.put_u8(1);
                        out.put_u64_le(*k as u64);
                    }
                    FreezeEvent::Unfroze => out.put_u8(2),
                }
            }
            out.put_u64_le(f.trackers.len() as u64);
            for t in &f.trackers {
                put_tracker(&mut out, t);
            }
            if version >= 2 {
                put_policy_state(&mut out, &f.policy);
            }
        }
    }
    // Bootstrap.
    match &ckpt.bootstrap {
        None => out.put_u8(0),
        Some(b) => {
            out.put_u8(1);
            put_f32_vec(&mut out, &b.losses);
            put_bool(&mut out, b.done);
        }
    }
    // Reference.
    match &ckpt.reference {
        None => out.put_u8(0),
        Some(r) => {
            out.put_u8(1);
            put_named_tensors(&mut out, &r.params);
            out.put_u64_le(r.state_buffers.len() as u64);
            for t in &r.state_buffers {
                put_tensor(&mut out, t);
            }
        }
    }
    // Report accumulators.
    out.put_u64_le(ckpt.epochs.len() as u64);
    for e in &ckpt.epochs {
        out.put_u64_le(e.epoch as u64);
        out.put_f32_le(e.train_loss);
        put_opt_f32(&mut out, e.val_loss);
        put_opt_f32(&mut out, e.val_metric);
        out.put_f32_le(e.lr);
        out.put_u64_le(e.frozen_prefix as u64);
        out.put_f32_le(e.active_param_fraction);
    }
    out.put_u64_le(ckpt.iterations.len() as u64);
    for i in &ckpt.iterations {
        out.put_u32_le(i.epoch);
        out.put_u32_le(i.frozen_prefix as u32);
        put_bool(&mut out, i.fp_cached);
    }
    out.put_u64_le(ckpt.plasticity.len() as u64);
    for p in &ckpt.plasticity {
        out.put_u64_le(p.iteration as u64);
        out.put_u64_le(p.module as u64);
        out.put_f32_le(p.raw);
        out.put_f32_le(p.smoothed);
    }
    out.put_u64_le(ckpt.events.len() as u64);
    for e in &ckpt.events {
        out.put_u64_le(e.iteration as u64);
        put_string(&mut out, &e.kind);
        out.put_u64_le(e.prefix as u64);
    }
    out.put_u64_le(ckpt.input_bytes);
    if version >= 3 {
        put_string(&mut out, &ckpt.cache_store);
    }
    out
}

// ---------------------------------------------------------------------------
// Payload decoding (bounds-checked; corruption surfaces as Err, never panic)
// ---------------------------------------------------------------------------

struct Reader<'a> {
    buf: &'a [u8],
}

impl<'a> Reader<'a> {
    fn corrupt(what: &str) -> TensorError {
        TensorError::Corrupt(format!("checkpoint payload truncated at {what}"))
    }

    fn take(&mut self, n: usize, what: &str) -> Result<&'a [u8]> {
        if self.buf.len() < n {
            return Err(Self::corrupt(what));
        }
        let (head, tail) = self.buf.split_at(n);
        self.buf = tail;
        Ok(head)
    }

    fn u8(&mut self, what: &str) -> Result<u8> {
        Ok(self.take(1, what)?[0])
    }

    fn bool(&mut self, what: &str) -> Result<bool> {
        Ok(self.u8(what)? != 0)
    }

    fn u32(&mut self, what: &str) -> Result<u32> {
        let b = self.take(4, what)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    fn u64(&mut self, what: &str) -> Result<u64> {
        let b = self.take(8, what)?;
        Ok(u64::from_le_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }

    fn f32(&mut self, what: &str) -> Result<f32> {
        let b = self.take(4, what)?;
        Ok(f32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    /// A length field used to pre-allocate: capped by the bytes actually
    /// remaining so a corrupt length cannot trigger a huge allocation.
    fn len(&mut self, what: &str) -> Result<usize> {
        let n = self.u64(what)? as usize;
        if n > self.buf.len() {
            return Err(Self::corrupt(what));
        }
        Ok(n)
    }

    fn string(&mut self, what: &str) -> Result<String> {
        let n = self.u32(what)? as usize;
        let bytes = self.take(n, what)?;
        String::from_utf8(bytes.to_vec())
            .map_err(|_| TensorError::Corrupt(format!("invalid utf-8 in {what}")))
    }

    fn opt_f32(&mut self, what: &str) -> Result<Option<f32>> {
        Ok(match self.u8(what)? {
            0 => None,
            _ => Some(self.f32(what)?),
        })
    }

    fn f32_vec(&mut self, what: &str) -> Result<Vec<f32>> {
        let n = self.len(what)?;
        let mut v = Vec::with_capacity(n.min(self.buf.len() / 4 + 1));
        for _ in 0..n {
            v.push(self.f32(what)?);
        }
        Ok(v)
    }

    fn tensor(&mut self, what: &str) -> Result<Tensor> {
        let n = self.u64(what)? as usize;
        let bytes = self.take(n, what)?;
        serialize::from_bytes(bytes)
    }

    fn named_tensors(&mut self, what: &str) -> Result<Vec<(String, Tensor)>> {
        let n = self.len(what)?;
        let mut v = Vec::new();
        for _ in 0..n {
            let name = self.string(what)?;
            let t = self.tensor(what)?;
            v.push((name, t));
        }
        Ok(v)
    }

    fn tracker(&mut self) -> Result<TrackerSnapshot> {
        Ok(TrackerSnapshot {
            raw: self.f32_vec("tracker.raw")?,
            smoothed: self.f32_vec("tracker.smoothed")?,
            stale: self.u64("tracker.stale")? as usize,
            w: self.u64("tracker.w")? as usize,
            s: self.u64("tracker.s")? as usize,
            t: self.f32("tracker.t")?,
        })
    }

    fn policy_state(&mut self) -> Result<PolicyState> {
        let kind = self.string("policy.kind")?;
        let version = self.u32("policy.version")?;
        let scalars = self.f32_vec("policy.scalars")?;
        let n = self.len("policy.counters")?;
        let mut counters = Vec::new();
        for _ in 0..n {
            counters.push(self.u64("policy.counter")?);
        }
        Ok(PolicyState {
            kind,
            version,
            scalars,
            counters,
        })
    }
}

fn decode_payload(payload: &[u8], version: u8) -> Result<TrainerCheckpoint> {
    let mut r = Reader { buf: payload };
    let model_name = r.string("model_name")?;
    let next_epoch = r.u64("next_epoch")?;
    let global_step = r.u64("global_step")?;
    let evals_since_ref_update = r.u64("evals_since_ref_update")?;
    let frozen_prefix = r.u64("frozen_prefix")?;
    let params = r.named_tensors("params")?;
    let n_bufs = r.len("state_buffers")?;
    let mut state_buffers = Vec::new();
    for _ in 0..n_bufs {
        state_buffers.push(r.tensor("state_buffer")?);
    }
    let kind = r.string("optimizer.kind")?;
    let lr = r.f32("optimizer.lr")?;
    let step_count = r.u64("optimizer.step_count")?;
    let n_slots = r.len("optimizer.slots")?;
    let mut slots = Vec::new();
    for _ in 0..n_slots {
        let slot = r.string("optimizer.slot")?;
        let tensors = r.named_tensors("optimizer.slot_tensors")?;
        slots.push((slot, tensors));
    }
    let optimizer = OptimizerState {
        kind,
        lr,
        step_count,
        slots,
    };
    let freezer = match r.u8("freezer.tag")? {
        0 => None,
        _ => {
            let front = r.u64("freezer.front")? as usize;
            let lr_at_first_freeze = r.opt_f32("freezer.lr_at_first_freeze")?;
            let relaxed = r.bool("freezer.relaxed")?;
            let evaluations = r.u64("freezer.evaluations")? as usize;
            let n_events = r.len("freezer.events")?;
            let mut events = Vec::new();
            for _ in 0..n_events {
                let at = r.u64("freezer.event.at")? as usize;
                let ev = match r.u8("freezer.event.kind")? {
                    0 => FreezeEvent::None,
                    1 => FreezeEvent::Froze(r.u64("freezer.event.k")? as usize),
                    2 => FreezeEvent::Unfroze,
                    other => {
                        return Err(TensorError::Corrupt(format!(
                            "unknown freeze event tag {other}"
                        )))
                    }
                };
                events.push((at, ev));
            }
            let n_trackers = r.len("freezer.trackers")?;
            let mut trackers = Vec::new();
            for _ in 0..n_trackers {
                trackers.push(r.tracker()?);
            }
            // v1 predates the policy framework; those runs were always
            // paper-policy driven, so the upgrade is lossless.
            let policy = if version >= 2 {
                r.policy_state()?
            } else {
                PolicyState::legacy()
            };
            Some(FreezerSnapshot {
                front,
                lr_at_first_freeze,
                relaxed,
                evaluations,
                events,
                trackers,
                policy,
            })
        }
    };
    let bootstrap = match r.u8("bootstrap.tag")? {
        0 => None,
        _ => Some(BootstrapSnapshot {
            losses: r.f32_vec("bootstrap.losses")?,
            done: r.bool("bootstrap.done")?,
        }),
    };
    let reference = match r.u8("reference.tag")? {
        0 => None,
        _ => {
            let params = r.named_tensors("reference.params")?;
            let n = r.len("reference.state_buffers")?;
            let mut state_buffers = Vec::new();
            for _ in 0..n {
                state_buffers.push(r.tensor("reference.state_buffer")?);
            }
            Some(ReferenceSnapshot {
                params,
                state_buffers,
            })
        }
    };
    let n_epochs = r.len("epochs")?;
    let mut epochs = Vec::new();
    for _ in 0..n_epochs {
        epochs.push(EpochRecord {
            epoch: r.u64("epoch.epoch")? as usize,
            train_loss: r.f32("epoch.train_loss")?,
            val_loss: r.opt_f32("epoch.val_loss")?,
            val_metric: r.opt_f32("epoch.val_metric")?,
            lr: r.f32("epoch.lr")?,
            frozen_prefix: r.u64("epoch.frozen_prefix")? as usize,
            active_param_fraction: r.f32("epoch.active_param_fraction")?,
        });
    }
    let n_iters = r.len("iterations")?;
    let mut iterations = Vec::new();
    for _ in 0..n_iters {
        iterations.push(IterationRecord {
            epoch: r.u32("iter.epoch")?,
            frozen_prefix: r.u32("iter.frozen_prefix")? as u16,
            fp_cached: r.bool("iter.fp_cached")?,
        });
    }
    let n_plast = r.len("plasticity")?;
    let mut plasticity = Vec::new();
    for _ in 0..n_plast {
        plasticity.push(PlasticityPoint {
            iteration: r.u64("plast.iteration")? as usize,
            module: r.u64("plast.module")? as usize,
            raw: r.f32("plast.raw")?,
            smoothed: r.f32("plast.smoothed")?,
        });
    }
    let n_events = r.len("events")?;
    let mut events = Vec::new();
    for _ in 0..n_events {
        events.push(EventRecord {
            iteration: r.u64("event.iteration")? as usize,
            kind: r.string("event.kind")?,
            prefix: r.u64("event.prefix")? as usize,
        });
    }
    let input_bytes = r.u64("input_bytes")?;
    // v≤2 predates the chunked backend; those runs were always flat.
    let cache_store = if version >= 3 {
        r.string("cache_store")?
    } else {
        "flat".to_string()
    };
    if !r.buf.is_empty() {
        return Err(TensorError::Corrupt(format!(
            "{} trailing bytes after checkpoint payload",
            r.buf.len()
        )));
    }
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
    let payload = encode_payload(ckpt, version);
    let mut out = Vec::with_capacity(HEADER_LEN + payload.len());
    out.put_u32_le(MAGIC);
    out.put_u8(version);
    out.put_u64_le(payload.len() as u64);
    out.put_u32_le(serialize::crc32(&payload));
    out.put_slice(&payload);
    out
}

/// Deserializes a checkpoint, validating magic, version, length, and CRC
/// before interpreting any payload byte.
pub fn from_bytes(buf: &[u8]) -> Result<TrainerCheckpoint> {
    let mut r = Reader { buf };
    if buf.len() < HEADER_LEN {
        return Err(TensorError::Corrupt(
            "checkpoint shorter than header".into(),
        ));
    }
    let magic = r.u32("magic")?;
    if magic != MAGIC {
        return Err(TensorError::Corrupt(format!(
            "bad checkpoint magic {magic:#x}"
        )));
    }
    let version = r.u8("version")?;
    if !(MIN_FORMAT_VERSION..=FORMAT_VERSION).contains(&version) {
        return Err(TensorError::Corrupt(format!(
            "unsupported checkpoint version {version} \
             (expected {MIN_FORMAT_VERSION}..={FORMAT_VERSION})"
        )));
    }
    let payload_len = r.u64("payload_len")?;
    let expected_crc = r.u32("crc32")?;
    if r.buf.len() as u64 != payload_len {
        return Err(TensorError::Corrupt(format!(
            "checkpoint payload is {} bytes, header declares {}",
            r.buf.len(),
            payload_len
        )));
    }
    let actual_crc = serialize::crc32(r.buf);
    if actual_crc != expected_crc {
        return Err(TensorError::Corrupt(format!(
            "checkpoint checksum mismatch: stored {expected_crc:#010x}, computed {actual_crc:#010x}"
        )));
    }
    decode_payload(r.buf, version)
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
            Some(FaultAction::CorruptBytes) if bytes.len() > HEADER_LEN => {
                // Corrupt the payload region so the CRC check trips on load.
                let mid = HEADER_LEN + (bytes.len() - HEADER_LEN) / 2;
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
