//! Activation caching (§4.3).
//!
//! Frozen-prefix output activations are serialized to disk keyed by sample
//! id, and a hash table of the most recent batches stays "in GPU memory" (a
//! bounded in-process map here). Lookups are synchronous, on the training
//! thread: the paper pairs the cache with a prefetcher, but a disk read
//! here is ~0.15 ms per batch against 4–18 ms cached steps (DESIGN §5j),
//! so there is nothing for a second thread to hide.
//!
//! Every entry records the **boundary** it was computed at: the frozen
//! prefix whose output it is. Frozen weights do not move until an
//! unfreeze, so an entry stays valid when the prefix advances past its
//! boundary: [`ActivationCache::lookup`] hands it back with its boundary
//! and the trainer carries it forward over the newly frozen modules (a
//! promotion) instead of recomputing the whole prefix. Only
//! [`ActivationCache::invalidate`] empties the cache — on an unfreeze, and
//! on a resume that changed backend. What an earlier process left on disk
//! is read only by a resume that adopts it
//! ([`ActivationCache::resume_at`]); a fresh run clears it at its first
//! put. Every such reset also empties the validation set's boundaries
//! (`ValidationBoundaries`): one slot per validation batch, held in
//! memory only and never counted in [`CacheStats`].
//!
//! The cache is that memory window over **one disk layer** with two
//! layouts (DESIGN §5j): **chunked** (the default) delegates to
//! [`egeria_store::ChunkStore`] — chunk grid, codec chain, sharded files,
//! capacity-bounded eviction; **flat** writes one serialized tensor file
//! per sample (the original layout, kept as the bit-exactness reference).
//! A lossless chunked cache is bit-exact with the flat one, and both
//! honour the same degradation matrix: cache trouble is a miss +
//! recompute, never an abort. The layout is picked by
//! [`crate::config::EgeriaConfig::cache_store`].

use crate::config::CacheStoreKind;
use egeria_obs::Telemetry;
use egeria_resil::fault::{FaultAction, FaultInjector, FaultSite};
use egeria_resil::health::HealthMonitor;
use egeria_store::{ChunkStore, StoreConfig, StoreStats};
use egeria_tensor::{serialize, Result, Tensor, TensorError};
use std::collections::{HashMap, VecDeque};
use std::fs;
use std::path::PathBuf;
use std::sync::Arc;

/// Cache performance counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Batch lookups fully served from memory or disk, promotions
    /// included.
    pub hits: usize,
    /// Hits whose entries sat at an earlier boundary than the lookup's
    /// prefix, so the trainer carried them forward.
    pub promotions: usize,
    /// Batch lookups with at least one missing sample.
    pub misses: usize,
    /// Samples currently resident in memory.
    pub mem_entries: usize,
    /// Cumulative bytes ever written to disk (monotonic; survives
    /// invalidation). The write-volume counter.
    pub disk_bytes_written: u64,
    /// Bytes currently live on disk: decremented on delete, invalidate,
    /// quarantine, and eviction. The number a capacity bound is enforced
    /// against — the old single `disk_bytes` conflated this with the
    /// cumulative counter and never went down.
    pub disk_bytes_live: u64,
    /// Samples loaded from disk by a lookup.
    pub disk_reads: usize,
    /// Disk writes that failed (ENOSPC etc.); the entry stays
    /// memory-resident and training continues.
    pub write_errors: usize,
    /// Corrupt on-disk entries detected (bad magic/length/checksum); each
    /// is deleted and recomputed on the next full forward.
    pub corrupt_entries: usize,
}

impl CacheStats {
    /// Whether any degradation (failed write or corrupt entry) occurred.
    pub fn degraded(&self) -> bool {
        self.write_errors > 0 || self.corrupt_entries > 0
    }
}

/// On-disk + in-memory activation cache keyed by sample id.
///
/// Disk trouble never stops training: a failed write keeps the entry
/// memory-resident and counts [`CacheStats::write_errors`]; a corrupt or
/// unreadable on-disk entry is deleted, counted in
/// [`CacheStats::corrupt_entries`], and reported as a miss so the trainer
/// recomputes the activation.
pub struct ActivationCache {
    disk: Disk,
    mem: HashMap<u64, Tensor>,
    /// Batch-granularity eviction queue: the ids of the most recent batches.
    recent: VecDeque<Vec<u64>>,
    mem_batches: usize,
    /// The boundary each entry this process put (in memory or on disk)
    /// was computed at.
    bounds: HashMap<u64, usize>,
    /// The boundary of the entries a resume took over from a persisted
    /// store, which `bounds` does not list: an id absent from `bounds` is
    /// read at this boundary, and never read when it is `None`.
    adopted: Option<usize>,
    /// The boundary of the newest put since the last reset, or the one a
    /// resume adopted — what a persisted store is tagged with; `None`
    /// until then.
    valid_prefix: Option<usize>,
    /// The trailing dims (past the batch axis) of the entries at each
    /// boundary: recorded by every put, and for a boundary only an adopted
    /// store holds, asked of the lookup's caller once.
    geometry: HashMap<usize, Vec<usize>>,
    stats: CacheStats,
    /// The validation set's boundaries: memory only, never persisted or
    /// counted, and emptied with everything else by `reset`.
    validation: ValidationBoundaries,
    faults: Option<Arc<FaultInjector>>,
    telemetry: Telemetry,
    health: Option<Arc<HealthMonitor>>,
}

/// The frozen prefix's output on each validation batch, one slot per
/// batch of the validation pass, so that validation crosses the prefix
/// once per unfreeze cycle. A slot holds its batch's sample ids, the
/// boundary it was computed at and the activation. It is keyed by batch
/// position rather than sample id, so it needs no namespace apart from
/// the training entries (both number their samples from 0), and it rests
/// on a validation input being a pure function of its index.
#[derive(Default)]
pub(crate) struct ValidationBoundaries {
    slots: Vec<Option<ValidationSlot>>,
}

struct ValidationSlot {
    ids: Vec<u64>,
    boundary: usize,
    activation: Tensor,
}

impl ValidationBoundaries {
    /// Validation batch `slot`'s activation at boundary `prefix`, the
    /// batch holding samples `ids`. A slot that holds this batch at
    /// `prefix` is served as it is. Otherwise `compute` makes the
    /// activation and it is stored in the slot's place: `compute` gets
    /// the slot's activation and boundary when it holds this batch at an
    /// earlier boundary (to carry forward), and `None` when it is empty,
    /// holds other samples or a later boundary.
    pub(crate) fn at(
        &mut self,
        slot: usize,
        ids: &[u64],
        prefix: usize,
        compute: impl FnOnce(Option<(&Tensor, usize)>) -> Result<Tensor>,
    ) -> Result<&Tensor> {
        if self.slots.len() <= slot {
            self.slots.resize_with(slot + 1, || None);
        }
        let kept = match self.slots[slot].take() {
            Some(s) if s.ids == ids && s.boundary == prefix => s,
            stored => {
                let earlier = stored
                    .as_ref()
                    .filter(|s| s.ids == ids && s.boundary < prefix)
                    .map(|s| (&s.activation, s.boundary));
                ValidationSlot {
                    ids: ids.to_vec(),
                    boundary: prefix,
                    activation: compute(earlier)?,
                }
            }
        };
        Ok(&self.slots[slot].insert(kept).activation)
    }

    fn clear(&mut self) {
        self.slots.clear();
    }
}

/// The disk layer under the memory window: where entries live once they
/// leave it. Every verb is total — disk trouble comes back as a value.
enum Disk {
    /// One `sample_{id}.act` file per sample.
    Flat(FlatDir),
    /// The egeria-store chunk/shard layout.
    Chunked(Box<ChunkStore>),
}

/// The flat layout's state: its directory and byte accounting.
struct FlatDir {
    dir: PathBuf,
    /// Per-id on-disk entry sizes, so a delete decrements `live` exactly.
    sizes: HashMap<u64, u64>,
    written: u64,
    live: u64,
}

impl FlatDir {
    fn path_of(&self, id: u64) -> PathBuf {
        self.dir.join(format!("sample_{id}.act"))
    }

    fn remove(&mut self, id: u64) {
        let _ = fs::remove_file(self.path_of(id));
        self.live -= self.sizes.remove(&id).unwrap_or(0);
    }
}

/// What a disk lookup produced.
enum DiskFetch {
    Got(Tensor),
    Absent,
    /// The entry (flat) or its chunk (chunked) failed validation and was
    /// quarantined, so the next full forward refills the slot instead of
    /// failing forever.
    Corrupt,
}

impl Disk {
    /// Writes one sample's entry.
    fn put(&mut self, id: u64, sample: &Tensor) -> Result<()> {
        match self {
            Disk::Flat(flat) => {
                let bytes = serialize::to_bytes(sample);
                fs::write(flat.path_of(id), &bytes)?;
                let len = bytes.len() as u64;
                flat.written += len;
                // An overwrite's old copy is gone.
                flat.live = flat.live + len - flat.sizes.insert(id, len).unwrap_or(0);
                Ok(())
            }
            Disk::Chunked(store) => store.put(id, sample),
        }
    }

    /// Reads one sample's entry. An armed [`FaultSite::CacheRead`] is
    /// consumed only when bytes actually came off disk: flat corrupts the
    /// bytes it decodes, chunked quarantines the slot.
    fn get(&mut self, id: u64, faults: Option<&FaultInjector>) -> DiskFetch {
        let injected = || {
            let fired = faults.and_then(|f| f.check(FaultSite::CacheRead));
            matches!(fired, Some(FaultAction::CorruptBytes))
        };
        match self {
            Disk::Flat(flat) => {
                let Ok(mut bytes) = fs::read(flat.path_of(id)) else {
                    return DiskFetch::Absent;
                };
                if injected() {
                    FaultInjector::corrupt(&mut bytes);
                }
                match serialize::from_bytes(&bytes) {
                    Ok(t) => DiskFetch::Got(t),
                    Err(_) => {
                        flat.remove(id);
                        DiskFetch::Corrupt
                    }
                }
            }
            Disk::Chunked(store) => {
                let before = store.stats().corrupt_chunks;
                let got = store.get(id);
                if store.stats().corrupt_chunks > before {
                    // The store quarantined the chunk itself.
                    return DiskFetch::Corrupt;
                }
                match got {
                    Some(_) if injected() => {
                        store.delete_samples(&[id]);
                        DiskFetch::Corrupt
                    }
                    Some(t) => DiskFetch::Got(t),
                    None => DiskFetch::Absent,
                }
            }
        }
    }

    /// Removes the given samples' entries, leaving their neighbours.
    fn delete(&mut self, ids: &[u64]) {
        match self {
            Disk::Flat(flat) => ids.iter().for_each(|&id| flat.remove(id)),
            Disk::Chunked(store) => store.delete_samples(ids),
        }
    }

    /// Removes every entry.
    fn clear(&mut self) {
        match self {
            Disk::Flat(flat) => {
                // Only this layout's files — those an earlier process left
                // included — and nothing else a caller-named directory holds.
                for entry in fs::read_dir(&flat.dir).into_iter().flatten().flatten() {
                    let name = entry.file_name();
                    let id = name
                        .to_str()
                        .and_then(|n| n.strip_prefix("sample_")?.strip_suffix(".act"));
                    if id.is_some_and(|id| id.parse::<u64>().is_ok()) {
                        let _ = fs::remove_file(entry.path());
                    }
                }
                flat.sizes.clear();
                flat.live = 0;
            }
            Disk::Chunked(store) => store.clear(),
        }
    }

    /// Makes what was put durable, every entry computed at boundary
    /// `prefix` (chunked: tag + flush + manifest save; flat writes through
    /// and records no boundary, so a no-op). Returns how many writes were
    /// lost.
    fn persist(&mut self, prefix: Option<usize>) -> Result<usize> {
        match self {
            Disk::Flat(_) => Ok(0),
            Disk::Chunked(store) => {
                store.set_valid_prefix(prefix.map(|p| p as u64));
                store.persist()
            }
        }
    }

    /// The boundary a persisted store was tagged with (chunked); `None`
    /// on flat, whose layout records none.
    fn persisted_prefix(&self) -> Option<usize> {
        match self {
            Disk::Flat(_) => None,
            Disk::Chunked(store) => store.valid_prefix().map(|p| p as usize),
        }
    }

    /// `(bytes ever written, bytes live now)`.
    fn footprint(&self) -> (u64, u64) {
        match self {
            Disk::Flat(flat) => (flat.written, flat.live),
            Disk::Chunked(store) => {
                let s = store.stats();
                (s.bytes_encoded, s.live_bytes)
            }
        }
    }

    /// The chunked store mirrors its own counters under `store.`.
    fn set_telemetry(&mut self, telemetry: &Telemetry) {
        if let Disk::Chunked(store) = self {
            store.set_telemetry(telemetry.clone());
        }
    }
}

impl ActivationCache {
    fn over(disk: Disk, mem_batches: usize) -> Self {
        ActivationCache {
            disk,
            mem: HashMap::new(),
            recent: VecDeque::new(),
            mem_batches: mem_batches.max(1),
            bounds: HashMap::new(),
            adopted: None,
            valid_prefix: None,
            geometry: HashMap::new(),
            stats: CacheStats::default(),
            validation: ValidationBoundaries::default(),
            faults: None,
            telemetry: Telemetry::disabled(),
            health: None,
        }
    }

    /// Creates a **flat-backend** cache rooted at `dir` (created if
    /// missing), keeping the most recent `mem_batches` batches in memory.
    pub fn new(dir: impl Into<PathBuf>, mem_batches: usize) -> Result<Self> {
        let dir = dir.into();
        fs::create_dir_all(&dir)?;
        let flat = FlatDir {
            dir,
            sizes: HashMap::new(),
            written: 0,
            live: 0,
        };
        Ok(Self::over(Disk::Flat(flat), mem_batches))
    }

    /// Creates a **chunked-backend** cache over an [`egeria_store`]
    /// chunk/shard store rooted at `dir`. What the store holds is served
    /// only once [`resume_at`](Self::resume_at) adopts it. A corrupt
    /// manifest left in the directory degrades to an empty store and
    /// counts one `corrupt_entries` (the degraded-open row of the matrix).
    pub fn with_store(
        dir: impl Into<PathBuf>,
        mem_batches: usize,
        store_cfg: StoreConfig,
    ) -> Result<Self> {
        let store = ChunkStore::open(dir, store_cfg)?;
        let corrupt = store.stats().corrupt_chunks as usize;
        let mut cache = Self::over(Disk::Chunked(Box::new(store)), mem_batches);
        // Nothing is attached yet: `set_telemetry` / `set_health` mirror
        // this count when they are.
        cache.stats.corrupt_entries += corrupt;
        cache.sync_disk_stats();
        Ok(cache)
    }

    /// Builds the cache a config asks for: its backend (the chunked one
    /// with the default store geometry and lossless codec) and memory
    /// window. The trainer's entry point.
    pub fn for_config(
        dir: impl Into<PathBuf>,
        cfg: &crate::config::EgeriaConfig,
    ) -> Result<Self> {
        match cfg.cache_store {
            CacheStoreKind::Flat => ActivationCache::new(dir, cfg.cache_mem_batches),
            CacheStoreKind::Chunked => {
                ActivationCache::with_store(dir, cfg.cache_mem_batches, StoreConfig::default())
            }
        }
    }

    /// Which backend this cache runs on.
    pub fn store_kind(&self) -> CacheStoreKind {
        match &self.disk {
            Disk::Flat(_) => CacheStoreKind::Flat,
            Disk::Chunked(_) => CacheStoreKind::Chunked,
        }
    }

    /// Chunked-backend store counters (`None` on the flat backend).
    pub fn store_stats(&self) -> Option<StoreStats> {
        match &self.disk {
            Disk::Flat(_) => None,
            Disk::Chunked(store) => Some(store.stats()),
        }
    }

    /// Drops every entry computed at a boundary other than
    /// [`valid_prefix`](Self::valid_prefix), then flushes pending store
    /// writes and saves the store manifest tagged with that boundary
    /// (chunked backend; flat has nothing to save). Called at checkpoint
    /// boundaries, so a resumed run reopens a store whose entries all sit
    /// at its one tagged boundary. Both backends drop alike, so their
    /// counters stay equal. Adopted entries are not listed one by one, so
    /// while they may sit at an older boundary the store is tagged with
    /// none, and a resume from it recomputes.
    pub fn persist(&mut self) -> Result<()> {
        if let Some(v) = self.valid_prefix {
            let mut stale: Vec<u64> = self
                .bounds
                .iter()
                .filter(|&(_, &b)| b != v)
                .map(|(&id, _)| id)
                .collect();
            if !stale.is_empty() {
                stale.sort_unstable();
                self.forget(&stale);
            }
        }
        let tag = match self.adopted {
            Some(a) if Some(a) != self.valid_prefix => None,
            _ => self.valid_prefix,
        };
        let failed = self.disk.persist(tag)?;
        if failed > 0 {
            self.stats.write_errors += failed;
            self.telemetry
                .counter("cache.write_errors")
                .add(failed as u64);
        }
        self.sync_disk_stats();
        Ok(())
    }

    /// Attaches a health monitor: a quarantined entry marks the cache
    /// degraded; the next clean hit resolves it (the slot was refilled).
    /// Corruption counted before the monitor was attached (a degraded
    /// open) and not yet answered by a hit degrades it here.
    pub fn set_health(&mut self, health: Arc<HealthMonitor>) {
        if self.stats.corrupt_entries > 0 && self.stats.hits == 0 {
            health.degrade("cache-quarantine");
        }
        self.health = Some(health);
    }

    /// Attaches a telemetry handle; cache counters (`cache.hits`,
    /// `cache.promotions`, `cache.misses`, `cache.corrupt_entries`,
    /// `cache.write_errors`)
    /// mirror [`CacheStats`] into its registry, starting with the
    /// corruption a degraded open counted before any handle was attached.
    /// On the chunked backend the store mirrors its own counters under the
    /// `store.` prefix.
    pub fn set_telemetry(&mut self, telemetry: Telemetry) {
        if !self.telemetry.is_enabled() && self.stats.corrupt_entries > 0 {
            telemetry
                .counter("cache.corrupt_entries")
                .add(self.stats.corrupt_entries as u64);
        }
        self.disk.set_telemetry(&telemetry);
        self.telemetry = telemetry;
    }

    fn count_hit(&mut self) {
        self.stats.hits += 1;
        self.telemetry.counter("cache.hits").inc();
        // A clean hit means the quarantined slots (if any) were refilled.
        if let Some(h) = &self.health {
            h.resolve("cache-quarantine");
        }
    }

    fn count_promotion(&mut self) {
        self.stats.promotions += 1;
        self.telemetry.counter("cache.promotions").inc();
    }

    fn count_miss(&mut self) {
        self.stats.misses += 1;
        self.telemetry.counter("cache.misses").inc();
    }

    /// One quarantine: a corrupt flat entry, a corrupt chunk (counted once
    /// however many of its samples a lookup touches — they read as absent
    /// afterwards), or one shape-audit failure.
    fn count_corrupt(&mut self) {
        self.stats.corrupt_entries += 1;
        self.telemetry.counter("cache.corrupt_entries").inc();
        if let Some(h) = &self.health {
            h.degrade("cache-quarantine");
        }
    }

    /// Attaches a fault injector (testing): [`FaultSite::CacheWrite`] makes
    /// entry writes fail, [`FaultSite::CacheRead`] corrupts the bytes read
    /// back from disk.
    pub fn set_faults(&mut self, faults: Option<Arc<FaultInjector>>) {
        self.faults = faults;
    }

    /// Refreshes the disk-footprint stats from the disk layer's accounting.
    fn sync_disk_stats(&mut self) {
        (self.stats.disk_bytes_written, self.stats.disk_bytes_live) = self.disk.footprint();
    }

    /// The boundary the newest entries were put at, or the one
    /// [`resume_at`](Self::resume_at) adopted (`None` before either since
    /// an open or an invalidation); the one boundary
    /// [`persist`](Self::persist) keeps.
    pub fn valid_prefix(&self) -> Option<usize> {
        self.valid_prefix
    }

    /// Invalidates everything (called on an unfreeze: the cached
    /// activations were produced by weights that are about to move).
    pub fn invalidate(&mut self) {
        self.reset();
    }

    /// Takes over what an earlier process persisted, for a run resumed at
    /// frozen prefix `prefix`: a store tagged with that boundary is served
    /// as computed there; anything else (another tag, an untagged or flat
    /// store, or puts already made here) is dropped. A run that never
    /// calls this — a fresh one — reads nothing it did not put.
    pub fn resume_at(&mut self, prefix: usize) {
        let tag = self.disk.persisted_prefix();
        if self.valid_prefix.is_none() && tag == Some(prefix) {
            self.adopted = tag;
            self.valid_prefix = tag;
        } else {
            self.reset();
        }
    }

    /// The validation set's stored boundaries. They live and die with
    /// the cache's entries: every reset empties them.
    pub(crate) fn validation(&mut self) -> &mut ValidationBoundaries {
        &mut self.validation
    }

    /// Empties memory and disk, the validation boundaries included.
    fn reset(&mut self) {
        self.validation.clear();
        self.mem.clear();
        self.recent.clear();
        self.bounds.clear();
        self.adopted = None;
        self.valid_prefix = None;
        self.geometry.clear();
        self.disk.clear();
        self.stats.mem_entries = 0;
        self.sync_disk_stats();
    }

    /// Removes the given samples' entries from memory and disk.
    fn forget(&mut self, ids: &[u64]) {
        self.disk.delete(ids);
        for id in ids {
            self.mem.remove(id);
            self.bounds.remove(id);
        }
        self.stats.mem_entries = self.mem.len();
        self.sync_disk_stats();
    }

    /// Stores one batch's frozen-prefix activation, computed at boundary
    /// `prefix`. Entries at other boundaries stay; the first put after an
    /// open or an invalidation clears what an earlier process left in the
    /// directory.
    ///
    /// Disk-write failures (ENOSPC and friends) are *not* errors: the
    /// entry stays memory-resident, its disk copy from any older boundary
    /// is deleted, `write_errors` is counted, and the next lookup after
    /// eviction simply misses and recomputes. Only caller bugs (batch/id
    /// mismatch) return `Err`.
    pub fn put_batch(&mut self, ids: &[u64], activation: &Tensor, prefix: usize) -> Result<()> {
        if self.valid_prefix.is_none() {
            self.reset();
        }
        self.valid_prefix = Some(prefix);
        let b = *activation.dims().first().ok_or(TensorError::ShapeMismatch {
            op: "cache put",
            lhs: activation.dims().to_vec(),
            rhs: vec![ids.len()],
        })?;
        if b != ids.len() {
            return Err(TensorError::ShapeMismatch {
                op: "cache put",
                lhs: activation.dims().to_vec(),
                rhs: vec![ids.len()],
            });
        }
        let tail = &activation.dims()[1..];
        if self.geometry.get(&prefix).map(Vec::as_slice) != Some(tail) {
            self.geometry.insert(prefix, tail.to_vec());
        }
        for (row, &id) in ids.iter().enumerate() {
            let sample = activation.narrow(0, row, 1)?;
            // The injected-write-failure check runs *before* any disk
            // write, so `write_errors` counts are backend-independent (the
            // golden run pins them).
            let injected_fail = self
                .faults
                .as_ref()
                .map(|f| f.should_fail(FaultSite::CacheWrite))
                .unwrap_or(false);
            let write = if injected_fail {
                Err(TensorError::Io("injected cache write failure".into()))
            } else {
                self.disk.put(id, &sample)
            };
            if let Err(e) = write {
                if self.stats.write_errors == 0 {
                    eprintln!(
                        "egeria: cache write failed ({e}); continuing without disk persistence"
                    );
                }
                self.stats.write_errors += 1;
                self.telemetry.counter("cache.write_errors").inc();
                // The older boundary's entry must not answer for this one.
                self.disk.delete(&[id]);
            }
            self.bounds.insert(id, prefix);
            self.mem.insert(id, sample);
        }
        self.sync_disk_stats();
        self.recent.push_back(ids.to_vec());
        while self.recent.len() > self.mem_batches {
            if let Some(old) = self.recent.pop_front() {
                for id in old {
                    // An id may appear in a newer resident batch; only evict
                    // if no other recent batch holds it.
                    if !self.recent.iter().any(|b| b.contains(&id)) {
                        self.mem.remove(&id);
                    }
                }
            }
        }
        self.stats.mem_entries = self.mem.len();
        Ok(())
    }

    /// Fetches a whole batch computed at exactly boundary `prefix`; `None`
    /// (a miss) if any sample is absent from both memory and disk, corrupt
    /// on disk, shape-inconsistent, or computed at another boundary. A
    /// corrupt or mismatched entry is quarantined so the subsequent
    /// recompute refills it — cache trouble degrades to a miss, never an
    /// error, and a hit is counted only once the batch has actually been
    /// assembled (a lookup that ends in recompute must read as a miss;
    /// DESIGN.md §5a).
    pub fn get_batch(&mut self, ids: &[u64], prefix: usize) -> Result<Option<Tensor>> {
        Ok(self.fetch(ids, prefix, true, |_| Ok(None))?.map(|(batch, _)| batch))
    }

    /// The trainer's lookup for a step at frozen prefix `prefix`: the
    /// batch together with the boundary it was computed at, which every
    /// entry of the batch shares and which is at most `prefix`. A boundary
    /// below `prefix` is a promotion — the caller carries the activation
    /// forward and puts it back — counted as a hit and a promotion. The
    /// rest is [`get_batch`](Self::get_batch)'s miss and degradation rule.
    ///
    /// `model_geometry(b)` gives the model's trailing dims at boundary
    /// `b`. It is called only for a boundary no put has shown this cache —
    /// one that only an adopted store holds — and only once per such
    /// boundary. A batch whose dims differ from the boundary's (a store
    /// another model left) empties the cache: one corrupt entry and a miss.
    pub fn lookup(
        &mut self,
        ids: &[u64],
        prefix: usize,
        model_geometry: impl FnOnce(usize) -> Result<Vec<usize>>,
    ) -> Result<Option<(Tensor, usize)>> {
        self.fetch(ids, prefix, false, |at| model_geometry(at).map(Some))
    }

    fn fetch(
        &mut self,
        ids: &[u64],
        prefix: usize,
        exact: bool,
        model_geometry: impl FnOnce(usize) -> Result<Option<Vec<usize>>>,
    ) -> Result<Option<(Tensor, usize)>> {
        // One shared boundary, settled before any disk read.
        let bound = |id: &u64| self.bounds.get(id).copied().or(self.adopted);
        let at = ids.first().and_then(bound).filter(|&b| {
            (b == prefix || (!exact && b < prefix)) && ids.iter().all(|id| bound(id) == Some(b))
        });
        let Some(at) = at else {
            self.count_miss();
            return Ok(None);
        };
        let mut parts: Vec<Tensor> = Vec::with_capacity(ids.len());
        let mut disk_ids: Vec<u64> = Vec::new();
        let mut expected_tail: Option<Vec<usize>> = None;
        for &id in ids {
            let (part, from_disk) = if let Some(t) = self.mem.get(&id) {
                (t.clone(), false)
            } else {
                match self.disk.get(id, self.faults.as_deref()) {
                    DiskFetch::Got(t) => {
                        self.stats.disk_reads += 1;
                        (t, true)
                    }
                    DiskFetch::Absent => {
                        self.count_miss();
                        return Ok(None);
                    }
                    DiskFetch::Corrupt => {
                        eprintln!(
                            "egeria: corrupt cache entry for sample {id}; deleted, will recompute"
                        );
                        self.count_corrupt();
                        self.sync_disk_stats();
                        self.count_miss();
                        return Ok(None);
                    }
                }
            };
            if from_disk {
                disk_ids.push(id);
            }
            // Shape audit before assembly: every entry must be one sample
            // (`[1, ...]`) with the same trailing dims. A stale on-disk
            // entry from a different geometry deserializes fine but would
            // fail `concat` — which used to abort training *after* a hit
            // had already been counted.
            let dims = part.dims().to_vec();
            let shape_ok = dims.first() == Some(&1)
                && expected_tail
                    .as_deref()
                    .map(|t| t == &dims[1..])
                    .unwrap_or(true);
            if !shape_ok {
                // Which disk entry carries the stale geometry is not
                // identifiable from the parts alone (the first one read
                // sets the expectation), so quarantine every disk-sourced
                // part of this lookup; the recompute rewrites the whole
                // batch. Memory-resident parts were written by this
                // process at this prefix and are dropped only if the
                // offender is resident itself.
                if !from_disk {
                    self.mem.remove(&id);
                }
                self.forget(&disk_ids);
                self.count_corrupt();
                eprintln!(
                    "egeria: shape-mismatched cache entry in batch lookup (sample {id}); quarantined, will recompute"
                );
                self.count_miss();
                return Ok(None);
            }
            expected_tail.get_or_insert_with(|| dims[1..].to_vec());
            parts.push(part);
        }
        // The parts agree with each other; they must also fit the boundary.
        if let Some(tail) = expected_tail {
            let fits = match self.geometry.get(&at) {
                Some(known) => *known == tail,
                None => match model_geometry(at)? {
                    Some(model) if model == tail => {
                        self.geometry.insert(at, model);
                        true
                    }
                    Some(_) => false,
                    None => true,
                },
            };
            if !fits {
                eprintln!(
                    "egeria: cached activations at boundary {at} have dims {tail:?}, \
                     which do not fit the model; cache dropped, will recompute"
                );
                self.reset();
                self.count_corrupt();
                self.count_miss();
                return Ok(None);
            }
        }
        let views: Vec<&Tensor> = parts.iter().collect();
        match Tensor::concat(&views, 0) {
            Ok(batch) => {
                self.count_hit();
                if at < prefix {
                    self.count_promotion();
                }
                Ok(Some((batch, at)))
            }
            // Unreachable given the shape audit above, but the degradation
            // matrix still applies: assembly trouble is a miss + recompute.
            Err(_) => {
                self.count_miss();
                Ok(None)
            }
        }
    }

    /// Performance counters.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use egeria_tensor::Rng;

    /// The trailing dims every test model here has at every boundary.
    fn model_dims(_: usize) -> Result<Vec<usize>> {
        Ok(vec![2])
    }

    fn tmp_dir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("egeria_cache_test_{tag}_{}", std::process::id()));
        let _ = fs::remove_dir_all(&d);
        d
    }

    /// Where a flat cache keeps sample `id`.
    fn path_of(c: &ActivationCache, id: u64) -> PathBuf {
        match &c.disk {
            Disk::Flat(flat) => flat.path_of(id),
            Disk::Chunked(_) => panic!("not a flat cache"),
        }
    }

    #[test]
    fn put_then_get_round_trips() {
        let mut c = ActivationCache::new(tmp_dir("rt"), 5).unwrap();
        let mut rng = Rng::new(1);
        let act = Tensor::randn(&[3, 2, 4, 4], &mut rng);
        c.put_batch(&[10, 20, 30], &act, 2).unwrap();
        let got = c.get_batch(&[10, 20, 30], 2).unwrap().unwrap();
        assert_eq!(got, act);
        // Different order reassembles correctly.
        let reordered = c.get_batch(&[30, 10, 20], 2).unwrap().unwrap();
        assert_eq!(reordered.narrow(0, 0, 1).unwrap(), act.narrow(0, 2, 1).unwrap());
    }

    #[test]
    fn miss_on_unknown_sample() {
        let mut c = ActivationCache::new(tmp_dir("miss"), 5).unwrap();
        let act = Tensor::ones(&[1, 2]);
        c.put_batch(&[1], &act, 0).unwrap();
        assert!(c.get_batch(&[2], 0).unwrap().is_none());
        assert_eq!(c.stats().misses, 1);
    }

    #[test]
    fn entries_outlive_a_prefix_advance_until_invalidated() {
        let tele = Telemetry::enabled();
        let mut c = ActivationCache::new(tmp_dir("prefix"), 5).unwrap();
        c.set_telemetry(tele.clone());
        let one = Tensor::ones(&[1, 2]);
        c.put_batch(&[1], &one, 1).unwrap();
        c.put_batch(&[2], &one, 2).unwrap();
        // `get_batch` wants the exact boundary; `lookup` takes any at or
        // below the prefix and says which.
        assert!(c.get_batch(&[1], 1).unwrap().is_some());
        assert!(c.get_batch(&[1], 2).unwrap().is_none());
        assert_eq!(c.lookup(&[1], 2, model_dims).unwrap(), Some((one.clone(), 1)));
        assert_eq!(c.lookup(&[2], 2, model_dims).unwrap(), Some((one.clone(), 2)));
        // Never a boundary past the prefix, never a batch of mixed ones.
        assert!(c.lookup(&[2], 1, model_dims).unwrap().is_none());
        assert!(c.lookup(&[1, 2], 2, model_dims).unwrap().is_none());
        let s = c.stats();
        assert_eq!((s.hits, s.promotions, s.misses), (3, 1, 3));
        let snap = tele.metrics_snapshot();
        assert_eq!(snap.counter("cache.promotions"), Some(1));
        assert_eq!(snap.counter("cache.hits"), Some(3));
        c.invalidate();
        assert!(c.lookup(&[1], 2, model_dims).unwrap().is_none());
        assert!(c.lookup(&[2], 2, model_dims).unwrap().is_none());
    }

    #[test]
    fn validation_boundaries_are_uncounted_and_die_with_the_entries() {
        let mut c = ActivationCache::new(tmp_dir("validation"), 5).unwrap();
        // What each `at` handed its `compute`, or `served` when it was not
        // called; `compute` answers with the boundary it was asked for.
        let ask = |c: &mut ActivationCache, slot, ids: &[u64], prefix| {
            let mut seen = String::from("served");
            let act = c
                .validation()
                .at(slot, ids, prefix, |stored| {
                    seen = format!("{:?}", stored.map(|(t, at)| (t.data()[0], at)));
                    Ok(Tensor::full(&[2, 1], prefix as f32))
                })
                .unwrap();
            assert_eq!(act.data(), [prefix as f32; 2]);
            seen
        };
        assert_eq!(ask(&mut c, 1, &[4, 5], 2), "None");
        assert_eq!(ask(&mut c, 1, &[4, 5], 2), "served");
        // An advance carries the stored boundary forward and keeps it.
        assert_eq!(ask(&mut c, 1, &[4, 5], 3), "Some((2.0, 2))");
        assert_eq!(ask(&mut c, 1, &[4, 5], 3), "served");
        // Other samples in the slot, or a later boundary, are no answer.
        assert_eq!(ask(&mut c, 1, &[4, 6], 3), "None");
        assert_eq!(ask(&mut c, 1, &[4, 6], 2), "None");
        assert_eq!(ask(&mut c, 0, &[4, 5], 2), "None");
        assert_eq!(c.stats(), CacheStats::default());
        c.invalidate();
        assert_eq!(ask(&mut c, 1, &[4, 6], 2), "None");
        // A resume starts from none: the slots are never persisted.
        c.resume_at(2);
        assert_eq!(ask(&mut c, 1, &[4, 6], 2), "None");
    }

    #[test]
    fn flat_clear_spares_files_it_did_not_write() {
        // A caller-named cache directory is never removed, and neither is
        // anything in it that is not a flat entry.
        let dir = tmp_dir("bystander");
        let mut c = ActivationCache::new(&dir, 5).unwrap();
        let foreign = [dir.join("notes.txt"), dir.join("sample_7.act.bak")];
        for f in &foreign {
            fs::write(f, b"not the cache's").unwrap();
        }
        let act = Tensor::ones(&[1, 2]);
        c.put_batch(&[1], &act, 1).unwrap();
        c.invalidate();
        assert!(!path_of(&c, 1).exists());
        c.put_batch(&[1], &act, 1).unwrap();
        c.put_batch(&[2], &act, 2).unwrap(); // prefix change
        assert!(
            path_of(&c, 1).exists(),
            "an advance keeps the old boundary's entry"
        );
        c.persist().unwrap();
        assert!(
            !path_of(&c, 1).exists(),
            "persist drops the old boundary's entry"
        );
        assert!(path_of(&c, 2).exists());
        for f in &foreign {
            assert!(f.exists(), "{} was removed", f.display());
        }
    }

    #[test]
    fn memory_window_evicts_but_disk_persists() {
        let mut c = ActivationCache::new(tmp_dir("evict"), 2).unwrap();
        let act = Tensor::ones(&[1, 2]);
        for id in 0..6u64 {
            c.put_batch(&[id], &act, 0).unwrap();
        }
        assert!(c.stats().mem_entries <= 2);
        // Six distinct writes: written is cumulative, live matches because
        // nothing has been deleted yet.
        let per_entry = c.stats().disk_bytes_written / 6;
        assert!(per_entry > 0);
        assert_eq!(c.stats().disk_bytes_written, per_entry * 6);
        assert_eq!(c.stats().disk_bytes_live, c.stats().disk_bytes_written);
        // Evicted entries still load from disk.
        let got = c.get_batch(&[0], 0).unwrap();
        assert!(got.is_some());
        assert!(c.stats().disk_reads >= 1);
        // Quarantining one entry decrements live but never written: the
        // old single `disk_bytes` counter conflated the two and only ever
        // grew.
        fs::write(path_of(&c, 0), b"garbage").unwrap();
        assert!(c.get_batch(&[0], 0).unwrap().is_none());
        assert_eq!(c.stats().disk_bytes_live, per_entry * 5);
        assert_eq!(c.stats().disk_bytes_written, per_entry * 6);
        // Invalidation empties the disk: live drops to zero, written is
        // still the cumulative write volume.
        c.invalidate();
        assert_eq!(c.stats().disk_bytes_live, 0);
        assert_eq!(c.stats().disk_bytes_written, per_entry * 6);
        // Overwriting an id counts the fresh bytes once in live.
        c.put_batch(&[1], &act, 0).unwrap();
        c.put_batch(&[1], &act, 0).unwrap();
        assert_eq!(c.stats().disk_bytes_live, per_entry);
        assert_eq!(c.stats().disk_bytes_written, per_entry * 8);
    }

    #[test]
    fn rejects_mismatched_ids_and_batch() {
        let mut c = ActivationCache::new(tmp_dir("shape"), 2).unwrap();
        let act = Tensor::ones(&[2, 2]);
        assert!(c.put_batch(&[1], &act, 0).is_err());
    }

    #[test]
    fn corrupt_disk_entry_degrades_to_miss_and_recompute() {
        let mut c = ActivationCache::new(tmp_dir("corrupt"), 1).unwrap();
        let act = Tensor::ones(&[1, 4]);
        c.put_batch(&[5], &act, 0).unwrap();
        // Evict from memory so the next get goes to disk.
        c.put_batch(&[6], &act, 0).unwrap();
        // Flip a byte of the on-disk entry.
        let path = path_of(&c, 5);
        let mut bytes = fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xFF;
        fs::write(&path, &bytes).unwrap();
        // Corruption is detected, the entry quarantined, and the lookup is
        // a plain miss (Ok(None)), not an error.
        let got = c.get_batch(&[5], 0).unwrap();
        assert!(got.is_none());
        assert_eq!(c.stats().corrupt_entries, 1);
        assert!(c.stats().degraded());
        assert!(!path.exists(), "corrupt entry must be deleted");
        // Refill (the trainer's recompute) and read back cleanly.
        c.put_batch(&[5], &act, 0).unwrap();
        assert!(c.get_batch(&[5], 0).unwrap().is_some());
    }

    #[test]
    fn injected_read_corruption_degrades_to_miss() {
        let mut c = ActivationCache::new(tmp_dir("faultread"), 1).unwrap();
        let faults = FaultInjector::new();
        faults.arm(FaultSite::CacheRead, 0, 1, FaultAction::CorruptBytes);
        c.set_faults(Some(faults.clone()));
        let act = Tensor::ones(&[1, 4]);
        c.put_batch(&[1], &act, 0).unwrap();
        c.put_batch(&[2], &act, 0).unwrap(); // evict 1 from memory
        assert!(c.get_batch(&[1], 0).unwrap().is_none());
        assert_eq!(c.stats().corrupt_entries, 1);
        assert_eq!(faults.injected(FaultSite::CacheRead), 1);
        // Fault window exhausted: refill and the cache works again.
        c.put_batch(&[1], &act, 0).unwrap();
        assert!(c.get_batch(&[1], 0).unwrap().is_some());
    }

    #[test]
    fn write_failure_keeps_training_alive_via_memory() {
        let mut c = ActivationCache::new(tmp_dir("faultwrite"), 2).unwrap();
        let faults = FaultInjector::new();
        // Every write fails: the disk is "full" for the whole test.
        faults.arm(FaultSite::CacheWrite, 0, usize::MAX, FaultAction::Fail);
        c.set_faults(Some(faults));
        let act = Tensor::ones(&[1, 4]);
        c.put_batch(&[1], &act, 0).unwrap(); // Ok despite the dead disk
        assert!(c.stats().write_errors >= 1);
        // Memory-resident entry still serves hits.
        assert!(c.get_batch(&[1], 0).unwrap().is_some());
        // After eviction the entry is gone (never reached disk): a miss,
        // not an error.
        c.put_batch(&[2], &act, 0).unwrap();
        c.put_batch(&[3], &act, 0).unwrap();
        assert!(c.get_batch(&[1], 0).unwrap().is_none());
    }

    #[test]
    fn stale_shape_mismatched_disk_entry_is_a_miss_not_an_abort() {
        // The audited bug class: an on-disk entry left behind by a run
        // with a different activation geometry deserializes fine but
        // cannot be concatenated with its batch. Before the shape audit
        // this aborted training via the concat error *after* counting a
        // hit; the degradation matrix (DESIGN.md §5a) requires a
        // quarantine + miss + recompute, with counters to match.
        let tele = Telemetry::enabled();
        let mut c = ActivationCache::new(tmp_dir("stale"), 1).unwrap();
        c.set_telemetry(tele.clone());
        let act = Tensor::ones(&[2, 4]);
        c.put_batch(&[1, 2], &act, 0).unwrap();
        c.put_batch(&[9], &Tensor::ones(&[1, 4]), 0).unwrap(); // evict 1, 2
        // Overwrite sample 1 on disk with a differently-shaped tensor, as
        // a stale file from another geometry would be.
        let stale = serialize::to_bytes(&Tensor::ones(&[1, 7]));
        fs::write(path_of(&c, 1), &stale).unwrap();
        let got = c.get_batch(&[1, 2], 0).unwrap();
        assert!(got.is_none(), "mismatched entry must degrade to a miss");
        assert_eq!(c.stats().hits, 0, "no hit may be counted for a recompute");
        assert_eq!(c.stats().misses, 1);
        assert_eq!(c.stats().corrupt_entries, 1);
        assert!(!path_of(&c, 1).exists(), "stale entry must be quarantined");
        // Telemetry counters mirror the stats exactly.
        let snap = tele.metrics_snapshot();
        assert_eq!(snap.counter("cache.hits"), None);
        assert_eq!(snap.counter("cache.misses"), Some(1));
        assert_eq!(snap.counter("cache.corrupt_entries"), Some(1));
        // Recompute refills the slot and the next lookup is a real hit.
        c.put_batch(&[1, 2], &act, 0).unwrap();
        assert!(c.get_batch(&[1, 2], 0).unwrap().is_some());
        assert_eq!(c.stats().hits, 1);
        assert_eq!(tele.metrics_snapshot().counter("cache.hits"), Some(1));
    }

    #[test]
    fn degradation_matrix_counters_match_stats() {
        // Pin the §5a matrix end to end: every degraded path counts a
        // miss (never a hit) and mirrors into telemetry.
        let tele = Telemetry::enabled();
        let mut c = ActivationCache::new(tmp_dir("matrix"), 1).unwrap();
        c.set_telemetry(tele.clone());
        let act = Tensor::ones(&[1, 4]);
        // Row 1: absent entry → miss.
        assert!(c.get_batch(&[404], 0).unwrap().is_none());
        // Row 2: corrupt on-disk bytes → quarantine + miss.
        c.put_batch(&[404], &act, 0).unwrap();
        c.put_batch(&[5], &act, 0).unwrap(); // evict 404 from memory
        fs::write(path_of(&c, 404), b"garbage").unwrap();
        assert!(c.get_batch(&[404], 0).unwrap().is_none());
        // Row 3: write failure → entry memory-resident, training alive.
        let faults = FaultInjector::new();
        faults.arm(FaultSite::CacheWrite, 0, 1, FaultAction::Fail);
        c.set_faults(Some(faults));
        c.put_batch(&[6], &act, 0).unwrap();
        let s = c.stats();
        assert_eq!((s.hits, s.misses, s.corrupt_entries, s.write_errors), (0, 2, 1, 1));
        let snap = tele.metrics_snapshot();
        assert_eq!(snap.counter("cache.misses"), Some(2));
        assert_eq!(snap.counter("cache.corrupt_entries"), Some(1));
        assert_eq!(snap.counter("cache.write_errors"), Some(1));
        assert_eq!(snap.counter("cache.hits"), None);
    }

    #[test]
    fn quarantine_degrades_health_and_clean_hit_resolves_it() {
        let t = Telemetry::enabled();
        let health = HealthMonitor::new(t.clone());
        let mut c = ActivationCache::new(tmp_dir("healthq"), 1).unwrap();
        c.set_health(Arc::clone(&health));
        let act = Tensor::ones(&[1, 4]);
        c.put_batch(&[1], &act, 0).unwrap();
        c.put_batch(&[2], &act, 0).unwrap(); // evict 1 from memory
        fs::write(path_of(&c, 1), b"garbage").unwrap();
        assert!(c.get_batch(&[1], 0).unwrap().is_none());
        assert_eq!(health.level(), 1, "quarantine degrades health");
        // Recompute refills the slot; the clean hit resolves the tag.
        c.put_batch(&[1], &act, 0).unwrap();
        assert!(c.get_batch(&[1], 0).unwrap().is_some());
        assert_eq!(health.level(), 0);
    }

    fn chunked_cache(tag: &str, mem_batches: usize) -> ActivationCache {
        let cfg = StoreConfig {
            chunk_samples: 4,
            chunks_per_shard: 2,
            ..StoreConfig::default()
        };
        ActivationCache::with_store(tmp_dir(tag), mem_batches, cfg).unwrap()
    }

    #[test]
    fn chunked_put_then_get_round_trips() {
        let mut c = chunked_cache("ck_rt", 5);
        assert_eq!(c.store_kind(), CacheStoreKind::Chunked);
        let mut rng = Rng::new(1);
        let act = Tensor::randn(&[3, 2, 4, 4], &mut rng);
        c.put_batch(&[10, 20, 30], &act, 2).unwrap();
        let got = c.get_batch(&[10, 20, 30], 2).unwrap().unwrap();
        assert_eq!(got, act, "lossless chunked reads must be bit-exact");
        assert_eq!(c.stats().hits, 1);
    }

    #[test]
    fn chunked_survives_reopen_and_reads_from_disk() {
        let dir = tmp_dir("ck_reopen");
        let cfg = StoreConfig {
            chunk_samples: 4,
            chunks_per_shard: 2,
            ..StoreConfig::default()
        };
        let mut rng = Rng::new(3);
        let act = Tensor::randn(&[2, 3], &mut rng);
        {
            let mut c = ActivationCache::with_store(&dir, 5, cfg).unwrap();
            c.put_batch(&[1, 2], &act, 1).unwrap();
            c.persist().unwrap();
            assert!(c.stats().disk_bytes_live > 0);
            assert_eq!(c.stats().disk_bytes_written, c.stats().disk_bytes_live);
        }
        // A fresh open serves nothing an earlier process left.
        let mut c = ActivationCache::with_store(&dir, 5, cfg).unwrap();
        assert_eq!(c.valid_prefix(), None);
        assert!(c.lookup(&[1, 2], 1, model_dims).unwrap().is_none());
        // A resume at the tagged prefix adopts the entries, so a
        // same-prefix put does NOT invalidate them.
        c.resume_at(1);
        assert_eq!(c.valid_prefix(), Some(1));
        assert!(c.stats().disk_bytes_live > 0, "inherited bytes count as live");
        c.put_batch(&[3], &Tensor::ones(&[1, 3]), 1).unwrap();
        let got = c.get_batch(&[1, 2], 1).unwrap().unwrap();
        assert_eq!(got, act);
        assert_eq!(c.stats().disk_reads, 2);
    }

    #[test]
    fn chunked_corrupt_shard_quarantines_chunk_and_degrades_to_miss() {
        let dir = tmp_dir("ck_corrupt");
        let cfg = StoreConfig {
            chunk_samples: 4,
            chunks_per_shard: 2,
            ..StoreConfig::default()
        };
        let act = Tensor::ones(&[1, 8]);
        {
            let mut c = ActivationCache::with_store(&dir, 1, cfg).unwrap();
            // ids 0..4 land in chunk 0, ids 4..8 in chunk 1.
            for id in 0..8u64 {
                c.put_batch(&[id], &act, 0).unwrap();
            }
            c.persist().unwrap();
        }
        // Reopen so reads go to the shard file, not the store's decoded
        // block cache.
        let mut c = ActivationCache::with_store(&dir, 1, cfg).unwrap();
        c.resume_at(0);
        let live_before = c.stats().disk_bytes_live;
        // Flip bytes in the middle of the shard file.
        let shard = dir.join("shard_00000.egs");
        let mut bytes = fs::read(&shard).unwrap();
        let mid = bytes.len() / 2;
        let end = (mid + 8).min(bytes.len());
        for b in &mut bytes[mid..end] {
            *b ^= 0xFF;
        }
        fs::write(&shard, &bytes).unwrap();
        // One of the two chunks is hit; its lookup is a miss, the chunk is
        // quarantined (counted once), and live bytes shrink. The other
        // chunk's samples still read back — chunk granularity, not
        // whole-cache.
        let mut missed: Vec<u64> = Vec::new();
        let mut hits = 0;
        for id in 0..8u64 {
            match c.get_batch(&[id], 0).unwrap() {
                Some(t) => {
                    assert_eq!(t, act);
                    hits += 1;
                }
                None => missed.push(id),
            }
        }
        assert_eq!(missed.len(), 4, "exactly one 4-sample chunk is lost");
        assert_eq!(hits, 4);
        assert_eq!(c.stats().corrupt_entries, 1, "one corrupt chunk counts once");
        assert!(c.stats().degraded());
        assert!(c.stats().disk_bytes_live < live_before);
        // Refill the lost samples (the trainer's recompute) and recover.
        for &id in &missed {
            c.put_batch(&[id], &act, 0).unwrap();
        }
        c.persist().unwrap();
        for id in 0..8u64 {
            assert!(c.get_batch(&[id], 0).unwrap().is_some());
        }
    }

    #[test]
    fn degraded_open_reaches_telemetry_and_health_once_attached() {
        let dir = tmp_dir("ck_badmanifest");
        fs::create_dir_all(&dir).unwrap();
        fs::write(dir.join(egeria_store::manifest::MANIFEST_FILE), b"garbage").unwrap();
        let mut c = ActivationCache::with_store(&dir, 1, StoreConfig::default()).unwrap();
        assert_eq!(c.stats().corrupt_entries, 1);
        // The open ran before anything could be attached.
        let tele = Telemetry::enabled();
        let health = HealthMonitor::new(tele.clone());
        c.set_telemetry(tele.clone());
        c.set_health(Arc::clone(&health));
        let snap = tele.metrics_snapshot();
        assert_eq!(snap.counter("cache.corrupt_entries"), Some(1));
        assert_eq!(snap.counter("store.corrupt_chunks"), Some(1));
        assert_eq!(health.level(), 1, "a degraded open degrades cache-quarantine");
        // The first clean hit resolves it, as after any quarantine.
        let act = Tensor::ones(&[1, 4]);
        c.put_batch(&[1], &act, 0).unwrap();
        assert!(c.get_batch(&[1], 0).unwrap().is_some());
        assert_eq!(health.level(), 0);
    }

    #[test]
    fn chunked_clear_spares_files_it_did_not_write() {
        // The chunked twin of `flat_clear_spares_files_it_did_not_write`:
        // an invalidation, a corrupt-manifest reopen and a codec-change
        // reopen each remove the store's shards and manifest and nothing
        // else.
        let dir = tmp_dir("ck_bystander");
        let cfg = StoreConfig {
            chunk_samples: 4,
            chunks_per_shard: 2,
            ..StoreConfig::default()
        };
        let manifest = dir.join(egeria_store::manifest::MANIFEST_FILE);
        let shards = || -> Vec<String> {
            let names = fs::read_dir(&dir).unwrap().flatten();
            let mut names: Vec<String> = names
                .map(|e| e.file_name().to_string_lossy().into_owned())
                .filter(|n| {
                    let digits = n.strip_prefix("shard_").and_then(|s| s.strip_suffix(".egs"));
                    digits.is_some_and(|d| d.bytes().all(|b| b.is_ascii_digit()))
                })
                .collect();
            names.sort();
            names
        };
        let mut c = ActivationCache::with_store(&dir, 5, cfg).unwrap();
        let foreign = ["notes.txt", "shard_00000.egs.bak", "shard_x.egs", "manifest.egm.orig"];
        let foreign = foreign.map(|f| dir.join(f));
        for f in &foreign {
            fs::write(f, b"not the store's").unwrap();
        }
        let act = Tensor::ones(&[1, 2]);
        c.put_batch(&[1], &act, 1).unwrap();
        c.persist().unwrap();
        assert_eq!(shards(), ["shard_00000.egs"]);
        c.invalidate();
        assert!(shards().is_empty(), "invalidate removes the store's shards");
        c.put_batch(&[2], &act, 2).unwrap();
        c.persist().unwrap();
        drop(c);
        fs::write(&manifest, b"garbage").unwrap();
        let mut c = ActivationCache::with_store(&dir, 5, cfg).unwrap();
        assert_eq!(c.stats().corrupt_entries, 1);
        assert!(shards().is_empty() && !manifest.exists(), "a degraded open starts empty");
        c.put_batch(&[3], &act, 2).unwrap();
        c.persist().unwrap();
        drop(c);
        let recoded = StoreConfig {
            codec: egeria_store::StoreCodec::Raw,
            ..cfg
        };
        let c = ActivationCache::with_store(&dir, 5, recoded).unwrap();
        assert!(shards().is_empty(), "undecodable shards of the old codec must go");
        assert_eq!(c.stats().corrupt_entries, 0);
        for f in &foreign {
            assert!(f.exists(), "{} was removed", f.display());
        }
    }

    #[test]
    fn chunked_reopen_serves_only_the_persisted_boundary() {
        // A persisted store carries one boundary tag for all its entries,
        // so `persist` must drop entries computed at any other: a reopened
        // store would serve them as if computed at the tagged one.
        let dir = tmp_dir("ck_prefix");
        let cfg = StoreConfig {
            chunk_samples: 4,
            chunks_per_shard: 2,
            ..StoreConfig::default()
        };
        let (one, two) = (Tensor::ones(&[1, 2]), Tensor::full(&[1, 2], 2.0));
        {
            let mut c = ActivationCache::with_store(&dir, 5, cfg).unwrap();
            c.put_batch(&[1, 5], &Tensor::concat(&[&one, &one], 0).unwrap(), 1)
                .unwrap();
            c.persist().unwrap();
            // The prefix advances: 5 is carried forward, 1 is not yet.
            c.put_batch(&[5], &two, 2).unwrap();
            assert_eq!(c.lookup(&[1], 2, model_dims).unwrap(), Some((one.clone(), 1)));
            c.persist().unwrap();
            assert!(c.lookup(&[1], 2, model_dims).unwrap().is_none(), "persist dropped it");
            let st = c.store_stats().unwrap();
            assert_eq!(st.live_bytes, c.stats().disk_bytes_live);
        }
        {
            let mut c = ActivationCache::with_store(&dir, 5, cfg).unwrap();
            c.resume_at(2);
            assert_eq!(c.valid_prefix(), Some(2));
            assert!(c.lookup(&[1], 2, model_dims).unwrap().is_none());
            assert_eq!(c.lookup(&[5], 2, model_dims).unwrap(), Some((two.clone(), 2)));
            assert_eq!(c.stats().disk_reads, 1);
            // Another advance: the adopted 5 still promotes, but it is not
            // listed, so this persist cannot drop it and tags nothing.
            c.put_batch(&[6], &two, 3).unwrap();
            assert_eq!(c.lookup(&[5], 3, model_dims).unwrap(), Some((two.clone(), 2)));
            c.persist().unwrap();
        }
        let mut c = ActivationCache::with_store(&dir, 5, cfg).unwrap();
        assert_eq!(c.disk.persisted_prefix(), None);
        c.resume_at(3);
        assert!(c.lookup(&[6], 3, model_dims).unwrap().is_none());
        assert!(c.lookup(&[5], 3, model_dims).unwrap().is_none());
    }

    #[test]
    fn adopted_entries_of_another_geometry_empty_the_cache() {
        // A caller-named dir another model filled: the tag and grid match,
        // the dims do not. The first lookup asks the model once, finds the
        // mismatch, and drops everything: one corrupt entry and a miss.
        let dir = tmp_dir("ck_geometry");
        let cfg = StoreConfig {
            chunk_samples: 4,
            chunks_per_shard: 2,
            ..StoreConfig::default()
        };
        {
            let mut c = ActivationCache::with_store(&dir, 5, cfg).unwrap();
            c.put_batch(&[1, 2], &Tensor::ones(&[2, 3]), 1).unwrap();
            c.persist().unwrap();
        }
        let mut c = ActivationCache::with_store(&dir, 5, cfg).unwrap();
        c.resume_at(1);
        let mut asked = Vec::new();
        let got = c
            .lookup(&[1, 2], 1, |at| {
                asked.push(at);
                model_dims(at)
            })
            .unwrap();
        assert!(got.is_none());
        assert_eq!(asked, [1]);
        let s = c.stats();
        assert_eq!((s.hits, s.misses, s.corrupt_entries), (0, 1, 1));
        assert_eq!(s.disk_bytes_live, 0);
        assert_eq!(c.valid_prefix(), None);
        // Entries of the model's own geometry are served as before, and a
        // boundary a put has shown is never asked about again.
        c.put_batch(&[1, 2], &Tensor::ones(&[2, 2]), 1).unwrap();
        let never = |_: usize| -> Result<Vec<usize>> { panic!("geometry is known") };
        assert!(c.lookup(&[1, 2], 1, never).unwrap().is_some());
    }

    #[test]
    fn failed_write_never_serves_an_older_boundary() {
        // A write that fails leaves the sample's older-boundary entry on
        // disk unless it is deleted; once memory evicts the new copy, a
        // lookup would read it as the new boundary's.
        let chunked = StoreConfig {
            chunk_samples: 4,
            chunks_per_shard: 2,
            ..StoreConfig::default()
        };
        for store in [None, Some(chunked)] {
            let dir = tmp_dir("failed_write");
            let mut c = match store {
                None => ActivationCache::new(&dir, 1).unwrap(),
                Some(cfg) => ActivationCache::with_store(&dir, 1, cfg).unwrap(),
            };
            let faults = FaultInjector::new();
            c.set_faults(Some(faults.clone()));
            c.put_batch(&[1], &Tensor::ones(&[1, 2]), 1).unwrap();
            c.persist().unwrap();
            faults.arm(FaultSite::CacheWrite, 0, 1, FaultAction::Fail);
            c.put_batch(&[1], &Tensor::full(&[1, 2], 2.0), 2).unwrap();
            assert_eq!(c.stats().write_errors, 1);
            c.put_batch(&[2], &Tensor::ones(&[1, 2]), 2).unwrap(); // evicts 1
            assert!(c.lookup(&[1], 2, model_dims).unwrap().is_none(), "{:?}", c.store_kind());
        }
    }

    #[test]
    fn chunked_injected_faults_match_flat_counters() {
        // The injected write fault fires before the backend write, and the
        // injected read corruption consumes per entry read — so the
        // golden-run counters are backend-independent.
        let mut c = chunked_cache("ck_fault", 1);
        let faults = FaultInjector::new();
        faults.arm(FaultSite::CacheWrite, 0, 1, FaultAction::Fail);
        faults.arm(FaultSite::CacheRead, 0, 1, FaultAction::CorruptBytes);
        c.set_faults(Some(faults.clone()));
        let act = Tensor::ones(&[1, 4]);
        c.put_batch(&[1], &act, 0).unwrap(); // write fault: memory-only
        assert_eq!(c.stats().write_errors, 1);
        assert!(c.get_batch(&[1], 0).unwrap().is_some(), "memory still serves");
        c.put_batch(&[2], &act, 0).unwrap(); // evicts 1 from memory
        c.persist().unwrap();
        // id 2 is on disk; the armed read fault corrupts it on the way in.
        c.put_batch(&[3], &act, 0).unwrap(); // evicts 2 from memory
        assert!(c.get_batch(&[2], 0).unwrap().is_none());
        assert_eq!(c.stats().corrupt_entries, 1);
        assert_eq!(faults.injected(FaultSite::CacheRead), 1);
    }

}
