//! The chunked, compressed, sharded activation store.
//!
//! [`ChunkStore`] owns a directory laid out as
//!
//! ```text
//! manifest.egm      CRC'd index (see `manifest`)
//! shard_00000.egs   append-only bag of encoded chunk blocks
//! shard_00001.egs   ...
//! ```
//!
//! Sample ids map onto a fixed grid: chunk `id / chunk_samples`, slot
//! `id % chunk_samples`, shard `chunk / chunks_per_shard`. Puts land in a
//! bounded dirty buffer of in-memory chunks; a flush encodes each dirty
//! chunk through the codec chain (merging slots already on disk), appends
//! it to its shard, and repoints the manifest. Rewritten extents become
//! garbage inside the shard until compaction folds the shard down to its
//! live chunks.
//!
//! Degradation contract (mirrors the flat cache, at chunk granularity):
//! a chunk that cannot be materialized — unreadable extent, CRC mismatch,
//! codec or block decode failure — is **quarantined**: its manifest entry
//! is dropped, `corrupt_chunks` counts one, its samples read as misses,
//! and nothing aborts. A corrupt manifest degrades the whole store to
//! empty the same way at open.
//!
//! Eviction: when live on-disk bytes exceed the configured cap, whole
//! chunks leave in least-recently-accessed order, driven by a logical
//! access clock (never wall-clock — reopening a store on another day must
//! not reorder evictions). A shard whose last live chunk leaves is
//! deleted outright.

use crate::chunk::ChunkBlock;
use crate::codec::{ByteCodec, StoreCodec, Transform};
use crate::manifest::{Manifest, ManifestEntry, MANIFEST_FILE};
use egeria_obs::Telemetry;
use egeria_tensor::wire::crc32;
use egeria_tensor::{Result, Tensor, TensorError};
use std::collections::BTreeMap;
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

/// Store geometry and policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StoreConfig {
    /// Codec chain applied to every chunk.
    pub codec: StoreCodec,
    /// Sample ids per grid cell.
    pub chunk_samples: u16,
    /// Grid cells per shard file.
    pub chunks_per_shard: u16,
    /// Live on-disk byte cap; `None` is unbounded.
    pub disk_cap_bytes: Option<u64>,
    /// Dirty chunks buffered before an automatic flush.
    pub dirty_chunk_cap: usize,
}

impl Default for StoreConfig {
    fn default() -> Self {
        StoreConfig {
            codec: StoreCodec::Lossless,
            chunk_samples: 64,
            chunks_per_shard: 16,
            disk_cap_bytes: None,
            dirty_chunk_cap: 32,
        }
    }
}

/// Counters and level gauges, snapshotted by [`ChunkStore::stats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StoreStats {
    /// Chunk blocks written (initial writes and rewrites).
    pub chunks_written: u64,
    /// Pre-codec block bytes across all writes.
    pub bytes_raw: u64,
    /// Post-codec bytes across all writes (what hit the disk).
    pub bytes_encoded: u64,
    /// Chunk blocks read and decoded from shards.
    pub chunk_reads: u64,
    /// Chunks evicted by the capacity bound.
    pub evicted_chunks: u64,
    /// Encoded bytes those evictions released.
    pub evicted_bytes: u64,
    /// Chunks quarantined for corruption (plus 1 for a corrupt manifest).
    pub corrupt_chunks: u64,
    /// Shard compactions performed.
    pub compactions: u64,
    /// Chunk flushes that failed at the I/O layer.
    pub write_errors: u64,
    /// Live (referenced) on-disk bytes right now.
    pub live_bytes: u64,
    /// Shard files right now.
    pub shard_files: u64,
}

impl StoreStats {
    /// Compression ratio achieved so far (raw / encoded); 1.0 when nothing
    /// has been written.
    pub fn codec_ratio(&self) -> f64 {
        if self.bytes_encoded == 0 {
            1.0
        } else {
            self.bytes_raw as f64 / self.bytes_encoded as f64
        }
    }
}

/// What a flush did; failures are counts, not errors (training goes on).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FlushOutcome {
    /// Chunks successfully written.
    pub written: usize,
    /// Chunks dropped because their shard append failed.
    pub failed: usize,
}

/// Compact a shard once garbage exceeds live bytes and the file is at
/// least this large.
const COMPACT_MIN_BYTES: u64 = 4096;
/// Decoded chunk blocks kept hot for repeated slot lookups.
const BLOCK_CACHE_CAP: usize = 8;

/// The store. Not internally locked and it owns no threads: its one
/// caller (the activation cache) holds it exclusively and reads extents
/// synchronously.
pub struct ChunkStore {
    dir: PathBuf,
    cfg: StoreConfig,
    transform: Transform,
    byte_codec: ByteCodec,
    manifest: Manifest,
    /// chunk id → slot → encoded record; unflushed writes.
    dirty: BTreeMap<u64, BTreeMap<u16, Vec<u8>>>,
    /// Small LRU of decoded blocks (chunk id, slot → record).
    block_cache: Vec<(u64, BTreeMap<u16, Vec<u8>>)>,
    stats: StoreStats,
    telemetry: Telemetry,
    /// Whether open found a manifest it had to throw away.
    recovered_corrupt_manifest: bool,
}

impl ChunkStore {
    /// Opens (or creates) a store rooted at `dir`.
    ///
    /// A readable manifest whose codec/grid matches `cfg` is adopted, so
    /// chunks survive a reopen. A mismatched manifest wipes the store
    /// (a config change, not corruption); a corrupt manifest wipes it too
    /// *and* counts one `corrupt_chunks` — the degraded-open row of the
    /// degradation matrix.
    pub fn open(dir: impl Into<PathBuf>, cfg: StoreConfig) -> Result<ChunkStore> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)?;
        let (transform, byte_codec) = cfg.codec.stages();
        let chunk_samples = cfg.chunk_samples.max(1);
        let chunks_per_shard = cfg.chunks_per_shard.max(1);
        let mut recovered = false;
        let manifest = match Manifest::load(&dir) {
            Ok(Some(m))
                if m.codec == cfg.codec
                    && m.chunk_samples == chunk_samples
                    && m.chunks_per_shard == chunks_per_shard =>
            {
                m
            }
            Ok(Some(_)) => {
                // Config changed: the old blocks are undecodable under the
                // new chain. Start over.
                wipe_dir(&dir);
                Manifest::empty(cfg.codec, chunk_samples, chunks_per_shard)
            }
            Ok(None) => Manifest::empty(cfg.codec, chunk_samples, chunks_per_shard),
            Err(e) => {
                eprintln!("egeria: corrupt store manifest ({e}); starting empty");
                recovered = true;
                wipe_dir(&dir);
                Manifest::empty(cfg.codec, chunk_samples, chunks_per_shard)
            }
        };
        let mut store = ChunkStore {
            dir,
            cfg: StoreConfig {
                chunk_samples,
                chunks_per_shard,
                ..cfg
            },
            transform,
            byte_codec,
            manifest,
            dirty: BTreeMap::new(),
            block_cache: Vec::new(),
            stats: StoreStats::default(),
            telemetry: Telemetry::disabled(),
            recovered_corrupt_manifest: recovered,
        };
        if recovered {
            // No handle is attached yet; `set_telemetry` mirrors the count.
            store.count_corrupt_chunk();
        }
        store.sync_level_stats();
        Ok(store)
    }

    /// Attaches a telemetry handle; store counters use the `store.`
    /// prefix (`store.chunks_written`, `store.bytes_raw`,
    /// `store.bytes_encoded`, `store.chunk_reads`, `store.evicted_chunks`,
    /// `store.evicted_bytes`, `store.corrupt_chunks`,
    /// `store.compactions`, `store.write_errors`). The corruption a
    /// degraded open counted before any handle was attached is mirrored
    /// here.
    pub fn set_telemetry(&mut self, telemetry: Telemetry) {
        if !self.telemetry.is_enabled() && self.stats.corrupt_chunks > 0 {
            telemetry
                .counter("store.corrupt_chunks")
                .add(self.stats.corrupt_chunks);
        }
        self.telemetry = telemetry;
    }

    /// Whether open had to discard a corrupt manifest.
    pub fn recovered_corrupt_manifest(&self) -> bool {
        self.recovered_corrupt_manifest
    }

    /// The store's configuration.
    pub fn config(&self) -> &StoreConfig {
        &self.cfg
    }

    /// Frozen-prefix tag persisted in the manifest.
    pub fn valid_prefix(&self) -> Option<u64> {
        self.manifest.valid_prefix
    }

    /// Sets the frozen-prefix tag (persisted at the next manifest save).
    pub fn set_valid_prefix(&mut self, prefix: Option<u64>) {
        self.manifest.valid_prefix = prefix;
    }

    /// Counter snapshot.
    pub fn stats(&self) -> StoreStats {
        self.stats
    }

    fn chunk_of(&self, id: u64) -> u64 {
        id / self.cfg.chunk_samples as u64
    }

    fn slot_of(&self, id: u64) -> u16 {
        (id % self.cfg.chunk_samples as u64) as u16
    }

    fn shard_of(&self, chunk: u64) -> u32 {
        (chunk / self.cfg.chunks_per_shard as u64) as u32
    }

    fn shard_path(&self, shard: u32) -> PathBuf {
        self.dir.join(format!("shard_{shard:05}.egs"))
    }

    fn tick(&mut self) -> u64 {
        self.manifest.clock += 1;
        self.manifest.clock
    }

    /// Stores one sample tensor. Sits in the dirty buffer until a flush;
    /// an overfull buffer flushes automatically.
    pub fn put(&mut self, id: u64, t: &Tensor) -> Result<()> {
        let rec = self.transform.encode_sample(t)?;
        let chunk = self.chunk_of(id);
        let slot = self.slot_of(id);
        self.dirty.entry(chunk).or_default().insert(slot, rec);
        // The on-disk copy (if any) is stale for this slot now.
        self.block_cache.retain(|(c, _)| *c != chunk);
        if self.dirty.len() > self.cfg.dirty_chunk_cap {
            self.flush();
        }
        Ok(())
    }

    /// Fetches one sample; `None` on a miss. A chunk that fails to
    /// materialize is quarantined (visible in `corrupt_chunks`) and its
    /// samples read as misses.
    pub fn get(&mut self, id: u64) -> Option<Tensor> {
        let chunk = self.chunk_of(id);
        let slot = self.slot_of(id);
        if let Some(rec) = self.dirty.get(&chunk).and_then(|slots| slots.get(&slot)) {
            let rec = rec.clone();
            return self.decode_record(chunk, &rec);
        }
        let slots = self.materialize_chunk(chunk)?;
        let rec = slots.get(&slot)?.clone();
        self.touch(chunk);
        self.decode_record(chunk, &rec)
    }

    /// Removes specific samples (the shape-audit quarantine path): their
    /// chunks are read back, the slots dropped, and the chunks rewritten,
    /// so innocent neighbours survive.
    pub fn delete_samples(&mut self, ids: &[u64]) {
        let mut by_chunk: BTreeMap<u64, Vec<u16>> = BTreeMap::new();
        for &id in ids {
            by_chunk.entry(self.chunk_of(id)).or_default().push(self.slot_of(id));
        }
        for (chunk, slots) in by_chunk {
            if let Some(dirty) = self.dirty.get_mut(&chunk) {
                for s in &slots {
                    dirty.remove(s);
                }
                if dirty.is_empty() {
                    self.dirty.remove(&chunk);
                }
            }
            if self.manifest.chunks.contains_key(&chunk) {
                // A `None` materialize means the chunk was already
                // quarantined; nothing to re-stage.
                if let Some(mut block_slots) = self.materialize_chunk(chunk) {
                    for s in &slots {
                        block_slots.remove(s);
                    }
                    self.drop_entry(chunk);
                    if !block_slots.is_empty() {
                        // Re-stage the survivors; next flush rewrites.
                        self.dirty.insert(chunk, block_slots);
                    }
                }
            }
            self.block_cache.retain(|(c, _)| *c != chunk);
        }
        self.sync_level_stats();
    }

    /// Drops everything: dirty buffer, manifest, every file the store wrote
    /// into its directory. The unfreeze-path invalidation lands here.
    pub fn clear(&mut self) {
        self.dirty.clear();
        self.block_cache.clear();
        wipe_dir(&self.dir);
        self.manifest = Manifest::empty(
            self.cfg.codec,
            self.cfg.chunk_samples,
            self.cfg.chunks_per_shard,
        );
        self.sync_level_stats();
    }

    /// Writes every dirty chunk to its shard. I/O failures drop the chunk
    /// (counted, stderr-noted) rather than erroring — the activation is
    /// still memory-resident upstream and a later lookup just misses.
    /// Enforces the disk cap and compacts garbage-heavy shards after.
    pub fn flush(&mut self) -> FlushOutcome {
        let mut outcome = FlushOutcome::default();
        let dirty = std::mem::take(&mut self.dirty);
        for (chunk, mut slots) in dirty {
            // Merge slots already on disk (dirty wins on conflict).
            if self.manifest.chunks.contains_key(&chunk) {
                if let Some(existing) = self.materialize_chunk(chunk) {
                    for (slot, rec) in existing {
                        slots.entry(slot).or_insert(rec);
                    }
                }
                self.drop_entry(chunk);
            }
            match self.write_chunk(chunk, &slots) {
                Ok(()) => {
                    outcome.written += 1;
                    self.cache_block(chunk, slots);
                }
                Err(e) => {
                    if outcome.failed == 0 {
                        eprintln!("egeria: store flush failed for chunk {chunk} ({e}); dropping");
                    }
                    outcome.failed += 1;
                    self.stats.write_errors += 1;
                    self.telemetry.counter("store.write_errors").inc();
                }
            }
        }
        self.enforce_cap();
        self.compact_garbage();
        self.sync_level_stats();
        outcome
    }

    /// Flushes and saves the manifest: the store's checkpoint boundary.
    pub fn persist(&mut self) -> Result<FlushOutcome> {
        let outcome = self.flush();
        self.manifest.save(&self.dir)?;
        Ok(outcome)
    }

    // ---- internals --------------------------------------------------------

    fn decode_record(&mut self, chunk: u64, rec: &[u8]) -> Option<Tensor> {
        match self.transform.decode_sample(rec) {
            Ok(t) => Some(t),
            Err(e) => {
                // A record that fails to decode despite a good CRC means
                // the chunk can't be trusted; quarantine it whole.
                self.quarantine_chunk(chunk, &e);
                None
            }
        }
    }

    /// Returns the chunk's slot map from the block cache or disk; `None`
    /// when absent or quarantined-just-now.
    fn materialize_chunk(&mut self, chunk: u64) -> Option<BTreeMap<u16, Vec<u8>>> {
        if let Some((_, slots)) = self.block_cache.iter().find(|(c, _)| *c == chunk) {
            return Some(slots.clone());
        }
        let entry = *self.manifest.chunks.get(&chunk)?;
        let loaded = read_extent(&self.shard_path(entry.shard), entry.offset, entry.len)
            .and_then(|b| self.validate_block(chunk, &b));
        match loaded {
            Ok(slots) => {
                self.cache_block(chunk, slots.clone());
                Some(slots)
            }
            Err(e) => {
                self.quarantine_chunk(chunk, &e);
                None
            }
        }
    }

    /// CRC-checks and decodes an encoded block fetched for `chunk`.
    fn validate_block(&mut self, chunk: u64, encoded: &[u8]) -> Result<BTreeMap<u16, Vec<u8>>> {
        let entry = self
            .manifest
            .chunks
            .get(&chunk)
            .ok_or_else(|| TensorError::Corrupt(format!("store: chunk {chunk} vanished")))?;
        let actual = crc32(encoded);
        if actual != entry.crc {
            return Err(TensorError::Corrupt(format!(
                "store: chunk {chunk} crc mismatch (stored {:#010x}, computed {actual:#010x})",
                entry.crc
            )));
        }
        let raw = self.byte_codec.decode(encoded)?;
        let block = ChunkBlock::decode(&raw)?;
        let base = chunk * self.cfg.chunk_samples as u64;
        if block.base_id != base
            || block.chunk_samples != self.cfg.chunk_samples
            || block.transform != self.transform
        {
            return Err(TensorError::Corrupt(format!(
                "store: chunk {chunk} block header disagrees with the grid"
            )));
        }
        self.stats.chunk_reads += 1;
        self.telemetry.counter("store.chunk_reads").inc();
        Ok(block.records)
    }

    fn cache_block(&mut self, chunk: u64, slots: BTreeMap<u16, Vec<u8>>) {
        self.block_cache.retain(|(c, _)| *c != chunk);
        self.block_cache.push((chunk, slots));
        if self.block_cache.len() > BLOCK_CACHE_CAP {
            self.block_cache.remove(0);
        }
    }

    fn touch(&mut self, chunk: u64) {
        let tick = self.tick();
        if let Some(e) = self.manifest.chunks.get_mut(&chunk) {
            e.last_access = tick;
        }
    }

    /// Encodes and appends one chunk block, then repoints the manifest.
    fn write_chunk(&mut self, chunk: u64, slots: &BTreeMap<u16, Vec<u8>>) -> Result<()> {
        let block = ChunkBlock {
            transform: self.transform,
            base_id: chunk * self.cfg.chunk_samples as u64,
            chunk_samples: self.cfg.chunk_samples,
            records: slots.clone(),
        };
        let raw = block.encode();
        let encoded = self.byte_codec.encode(&raw);
        let crc = crc32(&encoded);
        let shard = self.shard_of(chunk);
        let offset = self.manifest.shard_lens.get(&shard).copied().unwrap_or(0);
        let mut f = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(self.shard_path(shard))?;
        f.write_all(&encoded)?;
        let tick = self.tick();
        self.manifest.shard_lens.insert(shard, offset + encoded.len() as u64);
        self.manifest.chunks.insert(
            chunk,
            ManifestEntry {
                shard,
                offset,
                len: encoded.len() as u32,
                raw_len: raw.len() as u32,
                crc,
                samples: slots.len() as u16,
                last_access: tick,
            },
        );
        self.stats.chunks_written += 1;
        self.stats.bytes_raw += raw.len() as u64;
        self.stats.bytes_encoded += encoded.len() as u64;
        self.telemetry.counter("store.chunks_written").inc();
        self.telemetry.counter("store.bytes_raw").add(raw.len() as u64);
        self.telemetry.counter("store.bytes_encoded").add(encoded.len() as u64);
        Ok(())
    }

    fn count_corrupt_chunk(&mut self) {
        self.stats.corrupt_chunks += 1;
        self.telemetry.counter("store.corrupt_chunks").inc();
    }

    /// Drops a chunk that failed to materialize. Its samples are gone
    /// (miss + recompute upstream); neighbours in other chunks are not.
    fn quarantine_chunk(&mut self, chunk: u64, why: &TensorError) {
        eprintln!("egeria: quarantining store chunk {chunk} ({why})");
        self.drop_entry(chunk);
        self.block_cache.retain(|(c, _)| *c != chunk);
        self.count_corrupt_chunk();
        self.sync_level_stats();
    }

    /// Removes a manifest entry, deleting its shard file if nothing live
    /// remains inside.
    fn drop_entry(&mut self, chunk: u64) {
        if let Some(e) = self.manifest.chunks.remove(&chunk) {
            if self.manifest.shard_live_bytes(e.shard) == 0 {
                let _ = std::fs::remove_file(self.shard_path(e.shard));
                self.manifest.shard_lens.remove(&e.shard);
            }
        }
    }

    /// LRU eviction down to the configured live-byte cap.
    fn enforce_cap(&mut self) {
        let Some(cap) = self.cfg.disk_cap_bytes else {
            return;
        };
        let mut live = self.manifest.live_bytes();
        while live > cap {
            // Oldest logical access wins; chunk id breaks ties so the
            // order is total and deterministic.
            let Some((&victim, entry)) = self
                .manifest
                .chunks
                .iter()
                .min_by_key(|(id, e)| (e.last_access, **id))
            else {
                break;
            };
            let freed = entry.len as u64;
            self.drop_entry(victim);
            self.block_cache.retain(|(c, _)| *c != victim);
            live -= freed;
            self.stats.evicted_chunks += 1;
            self.stats.evicted_bytes += freed;
            self.telemetry.counter("store.evicted_chunks").inc();
            self.telemetry.counter("store.evicted_bytes").add(freed);
        }
    }

    /// Rewrites shards whose garbage outweighs their live bytes.
    fn compact_garbage(&mut self) {
        let shards: Vec<u32> = self.manifest.shard_lens.keys().copied().collect();
        for shard in shards {
            let total = self.manifest.shard_lens[&shard];
            let live = self.manifest.shard_live_bytes(shard);
            if total < COMPACT_MIN_BYTES || total - live <= live {
                continue;
            }
            if let Err(e) = self.compact_shard(shard) {
                // Compaction is an optimization; a failure leaves the
                // shard as it was.
                eprintln!("egeria: shard {shard} compaction failed ({e}); keeping as-is");
            }
        }
    }

    fn compact_shard(&mut self, shard: u32) -> Result<()> {
        let chunks: Vec<u64> = self
            .manifest
            .chunks
            .iter()
            .filter(|(_, e)| e.shard == shard)
            .map(|(&c, _)| c)
            .collect();
        // Pull the encoded extents (already validated by CRC below).
        let mut keep: Vec<(u64, Vec<u8>)> = Vec::with_capacity(chunks.len());
        for &chunk in &chunks {
            let e = self.manifest.chunks[&chunk];
            let bytes = read_extent(&self.shard_path(shard), e.offset, e.len)?;
            if crc32(&bytes) != e.crc {
                self.quarantine_chunk(chunk, &TensorError::Corrupt("crc mismatch during compaction".into()));
                continue;
            }
            keep.push((chunk, bytes));
        }
        let tmp = self.dir.join(format!("shard_{shard:05}.egs.tmp"));
        let mut f = std::fs::File::create(&tmp)?;
        let mut offset = 0u64;
        let mut new_offsets: Vec<(u64, u64)> = Vec::with_capacity(keep.len());
        for (chunk, bytes) in &keep {
            f.write_all(bytes)?;
            new_offsets.push((*chunk, offset));
            offset += bytes.len() as u64;
        }
        drop(f);
        if keep.is_empty() {
            let _ = std::fs::remove_file(&tmp);
            let _ = std::fs::remove_file(self.shard_path(shard));
            self.manifest.shard_lens.remove(&shard);
            return Ok(());
        }
        std::fs::rename(&tmp, self.shard_path(shard))?;
        for (chunk, off) in new_offsets {
            if let Some(e) = self.manifest.chunks.get_mut(&chunk) {
                e.offset = off;
            }
        }
        self.manifest.shard_lens.insert(shard, offset);
        self.stats.compactions += 1;
        self.telemetry.counter("store.compactions").inc();
        Ok(())
    }

    fn sync_level_stats(&mut self) {
        self.stats.live_bytes = self.manifest.live_bytes();
        self.stats.shard_files = self.manifest.shard_lens.len() as u64;
        self.telemetry.gauge("store.live_bytes").set(self.stats.live_bytes as f64);
        self.telemetry.gauge("store.shard_files").set(self.stats.shard_files as f64);
    }
}

/// Reads one extent of a shard file, validating that the file actually
/// contains it.
fn read_extent(path: &Path, offset: u64, len: u32) -> Result<Vec<u8>> {
    let mut f = std::fs::File::open(path)?;
    let file_len = f.metadata()?.len();
    let end = offset + len as u64;
    if end > file_len {
        return Err(TensorError::Corrupt(format!(
            "shard {}: extent [{offset}, {end}) past file end {file_len}",
            path.display()
        )));
    }
    f.seek(SeekFrom::Start(offset))?;
    let mut buf = vec![0u8; len as usize];
    f.read_exact(&mut buf)?;
    Ok(buf)
}

/// Deletes the store's own files directly inside `dir` — shards, the
/// manifest and the temp files either is rewritten through — whichever
/// process wrote them. A corrupt manifest cannot list its shards, so they
/// are recognised by name; nothing else a caller-named directory holds is
/// touched.
fn wipe_dir(dir: &Path) {
    for entry in std::fs::read_dir(dir).into_iter().flatten().flatten() {
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        let stem = name.strip_suffix(".tmp").unwrap_or(name);
        let shard = stem
            .strip_prefix("shard_")
            .and_then(|s| s.strip_suffix(".egs"))
            .is_some_and(|n| n.parse::<u32>().is_ok());
        if shard || stem == MANIFEST_FILE {
            let _ = std::fs::remove_file(entry.path());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use egeria_tensor::Rng;

    fn tmp_dir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("egeria-store-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        d
    }

    fn small_cfg() -> StoreConfig {
        StoreConfig {
            chunk_samples: 4,
            chunks_per_shard: 2,
            dirty_chunk_cap: 64,
            ..StoreConfig::default()
        }
    }

    fn sample(seed: u64) -> Tensor {
        let mut rng = Rng::new(seed);
        Tensor::randn(&[1, 6], &mut rng)
    }

    #[test]
    fn put_get_round_trips_across_flush() {
        let mut s = ChunkStore::open(tmp_dir("rt"), small_cfg()).unwrap();
        let tensors: Vec<Tensor> = (0..10).map(sample).collect();
        for (i, t) in tensors.iter().enumerate() {
            s.put(i as u64, t).unwrap();
        }
        // Served from the dirty buffer before any flush.
        assert_eq!(s.get(3).unwrap(), tensors[3]);
        s.flush();
        assert!(s.dirty.is_empty());
        for (i, t) in tensors.iter().enumerate() {
            assert_eq!(s.get(i as u64).as_ref(), Some(t), "id {i}");
        }
        assert!(s.get(99).is_none());
        assert!(s.stats().live_bytes > 0);
    }

    #[test]
    fn lossless_survives_reopen() {
        let dir = tmp_dir("reopen");
        let t = sample(7);
        {
            let mut s = ChunkStore::open(&dir, small_cfg()).unwrap();
            s.put(5, &t).unwrap();
            s.persist().unwrap();
        }
        let mut s = ChunkStore::open(&dir, small_cfg()).unwrap();
        assert!(!s.recovered_corrupt_manifest());
        let got = s.get(5).unwrap();
        assert_eq!(got.dims(), t.dims());
        for (a, b) in got.data().iter().zip(t.data()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn config_change_wipes_instead_of_misreading() {
        let dir = tmp_dir("cfgchange");
        {
            let mut s = ChunkStore::open(&dir, small_cfg()).unwrap();
            s.put(1, &sample(1)).unwrap();
            s.persist().unwrap();
        }
        let mut s = ChunkStore::open(
            &dir,
            StoreConfig {
                codec: StoreCodec::Int8,
                ..small_cfg()
            },
        )
        .unwrap();
        assert!(s.get(1).is_none());
        assert_eq!(s.stats().corrupt_chunks, 0, "a config change is not corruption");
    }

    #[test]
    fn merge_rewrite_keeps_older_slots() {
        let mut s = ChunkStore::open(tmp_dir("merge"), small_cfg()).unwrap();
        let a = sample(1);
        let b = sample(2);
        s.put(0, &a).unwrap();
        s.flush();
        s.put(1, &b).unwrap(); // same chunk, different slot
        s.flush();
        assert_eq!(s.get(0).unwrap(), a, "slot 0 must survive the rewrite");
        assert_eq!(s.get(1).unwrap(), b);
    }

    #[test]
    fn eviction_respects_cap_and_lru_order() {
        let mut s = ChunkStore::open(
            tmp_dir("evict"),
            StoreConfig {
                disk_cap_bytes: Some(1), // everything must go
                ..small_cfg()
            },
        )
        .unwrap();
        for i in 0..8u64 {
            s.put(i, &sample(i)).unwrap();
        }
        s.flush();
        let st = s.stats();
        assert_eq!(st.live_bytes, 0, "cap of 1 byte evicts every chunk");
        assert!(st.evicted_chunks >= 2);
        assert!(st.evicted_bytes > 0);
        assert_eq!(st.shard_files, 0, "empty shards are deleted");
        assert!(s.get(0).is_none());
    }

    #[test]
    fn lru_evicts_least_recently_touched_first() {
        let mut s = ChunkStore::open(tmp_dir("lru"), small_cfg()).unwrap();
        for i in 0..8u64 {
            s.put(i, &sample(i)).unwrap();
        }
        s.flush(); // chunks 0 and 1 exist
        let _ = s.get(1); // touch chunk 0's sibling? id 1 is chunk 0
        let _ = s.get(6); // chunk 1
        let _ = s.get(2); // chunk 0 — now chunk 0 is the most recent
        let live = s.manifest.live_bytes();
        s.cfg.disk_cap_bytes = Some(live - 1); // force exactly one eviction
        s.enforce_cap();
        assert!(s.get(6).is_none(), "chunk 1 (older access) must be evicted");
        assert!(s.get(2).is_some(), "chunk 0 (newer access) must survive");
    }

    #[test]
    fn corrupt_shard_quarantines_only_its_chunk() {
        let dir = tmp_dir("corruptshard");
        let mut s = ChunkStore::open(&dir, small_cfg()).unwrap();
        for i in 0..8u64 {
            s.put(i, &sample(i)).unwrap(); // chunks 0,1 → shard 0
        }
        s.put(100, &sample(100)).unwrap(); // chunk 25 → shard 12
        s.flush();
        // Flip a byte in chunk 0's extent.
        let e0 = s.manifest.chunks[&0];
        let path = s.shard_path(e0.shard);
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[e0.offset as usize + 3] ^= 0xFF;
        std::fs::write(&path, &bytes).unwrap();
        s.block_cache.clear();
        assert!(s.get(0).is_none(), "corrupt chunk reads as a miss");
        assert_eq!(s.stats().corrupt_chunks, 1);
        // Sibling chunk in the same shard and the other shard both live.
        assert!(s.get(5).is_some(), "chunk 1 shares the shard and survives");
        assert!(s.get(100).is_some(), "other shard untouched");
        // The same miss again does not double-count: the entry is gone.
        assert!(s.get(0).is_none());
        assert_eq!(s.stats().corrupt_chunks, 1);
    }

    #[test]
    fn truncated_shard_quarantines_on_read() {
        let dir = tmp_dir("truncshard");
        let mut s = ChunkStore::open(&dir, small_cfg()).unwrap();
        for i in 0..8u64 {
            s.put(i, &sample(i)).unwrap();
        }
        s.flush();
        let e1 = s.manifest.chunks[&1];
        let path = s.shard_path(e1.shard);
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..e1.offset as usize + 2]).unwrap();
        s.block_cache.clear();
        assert!(s.get(5).is_none(), "chunk 1 extends past the truncation");
        assert_eq!(s.stats().corrupt_chunks, 1);
    }

    #[test]
    fn corrupt_manifest_degrades_to_empty_store() {
        let dir = tmp_dir("corruptmanifest");
        {
            let mut s = ChunkStore::open(&dir, small_cfg()).unwrap();
            s.put(1, &sample(1)).unwrap();
            s.persist().unwrap();
        }
        let path = dir.join(MANIFEST_FILE);
        let mut bytes = std::fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xFF;
        std::fs::write(&path, &bytes).unwrap();
        let mut s = ChunkStore::open(&dir, small_cfg()).unwrap();
        assert!(s.recovered_corrupt_manifest());
        assert_eq!(s.stats().corrupt_chunks, 1, "degraded open counts once");
        // The open ran before a handle could be attached; attaching mirrors it.
        let tele = Telemetry::enabled();
        s.set_telemetry(tele.clone());
        assert_eq!(tele.metrics_snapshot().counter("store.corrupt_chunks"), Some(1));
        assert!(s.get(1).is_none());
        // The store still works after the degraded open.
        s.put(1, &sample(1)).unwrap();
        s.persist().unwrap();
        assert!(s.get(1).is_some());
    }

    #[test]
    fn delete_samples_spares_neighbours() {
        let mut s = ChunkStore::open(tmp_dir("delsample"), small_cfg()).unwrap();
        for i in 0..4u64 {
            s.put(i, &sample(i)).unwrap(); // all in chunk 0
        }
        s.flush();
        s.delete_samples(&[1, 2]);
        s.flush();
        assert!(s.get(1).is_none());
        assert!(s.get(2).is_none());
        assert!(s.get(0).is_some(), "neighbour slots survive");
        assert!(s.get(3).is_some());
        assert_eq!(s.stats().corrupt_chunks, 0, "precise delete is not corruption");
    }

    #[test]
    fn clear_wipes_disk_and_state() {
        let dir = tmp_dir("clear");
        let mut s = ChunkStore::open(&dir, small_cfg()).unwrap();
        for i in 0..8u64 {
            s.put(i, &sample(i)).unwrap();
        }
        s.persist().unwrap();
        assert!(s.stats().live_bytes > 0);
        s.clear();
        assert_eq!(s.stats().live_bytes, 0);
        assert_eq!(s.stats().shard_files, 0);
        assert!(s.get(0).is_none());
        let leftovers: Vec<_> = std::fs::read_dir(&dir).unwrap().flatten().collect();
        assert!(leftovers.is_empty(), "no files may survive a clear");
    }

    #[test]
    fn compaction_folds_garbage_heavy_shards() {
        let mut s = ChunkStore::open(tmp_dir("compact"), small_cfg()).unwrap();
        // Chunk 1 stays put while chunk 0 (same shard) is rewritten over
        // and over: every rewrite strands chunk 0's previous extent as
        // garbage in shard 0. (A shard whose *only* chunk is rewritten
        // self-cleans — the file is deleted and recreated — so garbage
        // only builds next to a live neighbour.)
        for slot in 4..8u64 {
            s.put(slot, &sample(slot)).unwrap();
        }
        for round in 0..30u64 {
            for slot in 0..4u64 {
                s.put(slot, &sample(round * 4 + slot)).unwrap();
            }
            s.flush();
        }
        let st = s.stats();
        assert!(st.compactions >= 1, "garbage must trigger compaction");
        let total: u64 = s.manifest.shard_lens.values().sum();
        let live = s.manifest.live_bytes();
        // Per shard, garbage is either ≤ live bytes or under the
        // COMPACT_MIN_BYTES floor that makes tiny shards not worth it.
        assert!(
            total <= live * 2 + COMPACT_MIN_BYTES,
            "post-compaction garbage stays bounded (total {total}, live {live})"
        );
        // Data still reads back.
        for slot in 0..4u64 {
            assert_eq!(s.get(slot).unwrap(), sample(29 * 4 + slot));
        }
    }

    #[test]
    fn file_count_stays_bounded() {
        let mut s = ChunkStore::open(tmp_dir("files"), StoreConfig::default()).unwrap();
        for i in 0..1000u64 {
            s.put(i, &sample(i)).unwrap();
        }
        s.persist().unwrap();
        // 1000 samples / 64 per chunk / 16 chunks per shard → 1 shard.
        assert_eq!(s.stats().shard_files, 1);
        let files = std::fs::read_dir(&s.dir).unwrap().flatten().count();
        assert!(files <= 2, "shard + manifest only, got {files}");
    }

    #[test]
    fn codec_ratio_tracks_raw_vs_encoded() {
        let mut s = ChunkStore::open(tmp_dir("ratio"), small_cfg()).unwrap();
        // Constant tensors compress extremely well.
        for i in 0..16u64 {
            s.put(i, &Tensor::ones(&[1, 64])).unwrap();
        }
        s.flush();
        let st = s.stats();
        assert!(st.bytes_raw > st.bytes_encoded);
        assert!(st.codec_ratio() > 2.0, "ratio {}", st.codec_ratio());
    }
}
