//! Activation caching (§4.3).
//!
//! Frozen-prefix output activations are serialized to disk keyed by sample
//! id, and a hash table of the most recent batches stays "in GPU memory" (a
//! bounded in-process map here). Lookups are synchronous, on the training
//! thread: the paper pairs the cache with a prefetcher, but a disk read
//! here is ~0.15 ms per batch against 4–18 ms cached steps (DESIGN §5j),
//! so there is nothing for a second thread to hide.
//!
//! The cache is that memory window over **one disk layer** with two
//! layouts (DESIGN §5j): **flat** writes one serialized tensor file per
//! sample (the original layout), **chunked** delegates to
//! [`egeria_store::ChunkStore`] — chunk grid, codec chain, sharded files,
//! capacity-bounded eviction. A lossless chunked cache is bit-exact with
//! the flat one, and both honour the same degradation matrix: cache
//! trouble is a miss + recompute, never an abort. The layout is picked by
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
    /// Batch lookups fully served from memory or disk.
    pub hits: usize,
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
    /// Frozen-prefix length the cached activations were computed at; a
    /// change invalidates everything.
    valid_prefix: Option<usize>,
    stats: CacheStats,
    faults: Option<Arc<FaultInjector>>,
    telemetry: Telemetry,
    health: Option<Arc<HealthMonitor>>,
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

    /// Removes every entry; what is written next belongs to `prefix`
    /// (which only the chunked layout can record).
    fn clear(&mut self, prefix: Option<usize>) {
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
            Disk::Chunked(store) => {
                store.clear();
                store.set_valid_prefix(prefix.map(|p| p as u64));
            }
        }
    }

    /// Makes what was put durable (chunked: flush + manifest save; flat
    /// writes through, so a no-op). Returns how many writes were lost.
    fn persist(&mut self) -> Result<usize> {
        match self {
            Disk::Flat(_) => Ok(0),
            Disk::Chunked(store) => Ok(store.persist()?.failed),
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
            valid_prefix: None,
            stats: CacheStats::default(),
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
    /// chunk/shard store rooted at `dir`. A corrupt manifest left in the
    /// directory degrades to an empty store and counts one
    /// `corrupt_entries` (the degraded-open row of the matrix).
    pub fn with_store(
        dir: impl Into<PathBuf>,
        mem_batches: usize,
        store_cfg: StoreConfig,
    ) -> Result<Self> {
        let store = ChunkStore::open(dir, store_cfg)?;
        // Adopt the persisted prefix: a resumed run whose frozen prefix
        // matches keeps its cached activations instead of wiping them on
        // the first put (flat can't do this — its layout stores no prefix
        // — so resume always recomputes there).
        let valid_prefix = store.valid_prefix().map(|p| p as usize);
        let degraded_open = store.recovered_corrupt_manifest();
        let mut cache = Self::over(Disk::Chunked(Box::new(store)), mem_batches);
        cache.valid_prefix = valid_prefix;
        if degraded_open {
            // Nothing is attached yet: `set_telemetry` / `set_health`
            // mirror this count when they are.
            cache.stats.corrupt_entries += 1;
        }
        cache.sync_disk_stats();
        Ok(cache)
    }

    /// Builds the cache a config asks for (backend, codec, disk cap). The
    /// trainer's entry point.
    pub fn for_config(
        dir: impl Into<PathBuf>,
        cfg: &crate::config::EgeriaConfig,
    ) -> Result<Self> {
        match cfg.cache_store {
            CacheStoreKind::Flat => ActivationCache::new(dir, cfg.cache_mem_batches),
            CacheStoreKind::Chunked => {
                let store_cfg = StoreConfig {
                    codec: cfg.cache_codec,
                    disk_cap_bytes: cfg.cache_disk_mb.map(|mb| mb * 1024 * 1024),
                    ..StoreConfig::default()
                };
                ActivationCache::with_store(dir, cfg.cache_mem_batches, store_cfg)
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

    /// Flushes pending store writes and saves the store manifest (chunked
    /// backend; a no-op on flat). Called at checkpoint boundaries so a
    /// resumed run reopens a consistent store.
    pub fn persist(&mut self) -> Result<()> {
        let failed = self.disk.persist()?;
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
    /// `cache.misses`, `cache.corrupt_entries`, `cache.write_errors`)
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

    /// The frozen-prefix length current entries are valid for.
    pub fn valid_prefix(&self) -> Option<usize> {
        self.valid_prefix
    }

    /// Invalidates everything (called when the frozen prefix changes: the
    /// cached activations were produced by a different sub-network).
    pub fn invalidate(&mut self) {
        self.reset(None);
    }

    /// Empties memory and disk; what is put next is valid for `prefix`.
    fn reset(&mut self, prefix: Option<usize>) {
        self.mem.clear();
        self.recent.clear();
        self.valid_prefix = prefix;
        self.disk.clear(prefix);
        self.stats.mem_entries = 0;
        self.sync_disk_stats();
    }

    /// Stores one batch's frozen-prefix activation, computed at prefix
    /// length `prefix`. Invalidates the cache first if the prefix changed.
    ///
    /// Disk-write failures (ENOSPC and friends) are *not* errors: the
    /// entry stays memory-resident, `write_errors` is counted, and the
    /// next lookup after eviction simply misses and recomputes. Only
    /// caller bugs (batch/id mismatch) return `Err`.
    pub fn put_batch(&mut self, ids: &[u64], activation: &Tensor, prefix: usize) -> Result<()> {
        if self.valid_prefix != Some(prefix) {
            self.reset(Some(prefix));
        }
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
            }
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

    /// Fetches a whole batch; `None` (a miss) if any sample is absent from
    /// both memory and disk, corrupt on disk, shape-inconsistent, or the
    /// cache is valid for a different prefix. A corrupt or mismatched
    /// entry is quarantined so the subsequent recompute refills it —
    /// cache trouble degrades to a miss, never an error, and a hit is
    /// counted only once the batch has actually been assembled (a lookup
    /// that ends in recompute must read as a miss; DESIGN.md §5a).
    pub fn get_batch(&mut self, ids: &[u64], prefix: usize) -> Result<Option<Tensor>> {
        if self.valid_prefix != Some(prefix) {
            self.count_miss();
            return Ok(None);
        }
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
                self.disk.delete(&disk_ids);
                self.sync_disk_stats();
                for did in &disk_ids {
                    self.mem.remove(did);
                }
                self.count_corrupt();
                eprintln!(
                    "egeria: shape-mismatched cache entry in batch lookup (sample {id}); quarantined, will recompute"
                );
                self.count_miss();
                self.stats.mem_entries = self.mem.len();
                return Ok(None);
            }
            expected_tail.get_or_insert_with(|| dims[1..].to_vec());
            parts.push(part);
        }
        let views: Vec<&Tensor> = parts.iter().collect();
        match Tensor::concat(&views, 0) {
            Ok(batch) => {
                self.count_hit();
                Ok(Some(batch))
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
    fn prefix_change_invalidates() {
        let mut c = ActivationCache::new(tmp_dir("prefix"), 5).unwrap();
        let act = Tensor::ones(&[1, 2]);
        c.put_batch(&[1], &act, 1).unwrap();
        assert!(c.get_batch(&[1], 1).unwrap().is_some());
        // Asking at a different prefix misses.
        assert!(c.get_batch(&[1], 2).unwrap().is_none());
        // Writing at the new prefix wipes the old entries.
        c.put_batch(&[2], &act, 2).unwrap();
        assert!(c.get_batch(&[1], 2).unwrap().is_none());
        assert!(c.get_batch(&[2], 2).unwrap().is_some());
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
        assert!(!path_of(&c, 1).exists(), "the old prefix's entry must go");
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
        let mut c = ActivationCache::with_store(&dir, 5, cfg).unwrap();
        // The store's manifest carries the prefix across restarts, so a
        // same-prefix put does NOT invalidate the inherited entries.
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
        // an invalidation, a prefix change, a corrupt-manifest reopen and a
        // codec-change reopen each remove the store's shards and manifest
        // and nothing else.
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
        c.put_batch(&[1], &act, 1).unwrap();
        c.persist().unwrap();
        c.put_batch(&[2], &act, 2).unwrap(); // prefix change
        assert!(shards().is_empty(), "the old prefix's shard must go");
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
    fn chunked_prefix_change_invalidates_store() {
        let mut c = chunked_cache("ck_prefix", 5);
        let act = Tensor::ones(&[1, 2]);
        c.put_batch(&[1], &act, 1).unwrap();
        c.persist().unwrap();
        assert!(c.stats().disk_bytes_live > 0);
        c.put_batch(&[2], &act, 2).unwrap();
        assert!(c.get_batch(&[1], 2).unwrap().is_none());
        assert!(c.get_batch(&[2], 2).unwrap().is_some());
        let st = c.store_stats().unwrap();
        assert_eq!(st.live_bytes, c.stats().disk_bytes_live);
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
