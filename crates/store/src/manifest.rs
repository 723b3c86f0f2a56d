//! The CRC'd manifest: the store's single source of truth for what lives
//! where.
//!
//! Shard files are append-only bags of encoded chunk blocks; nothing in a
//! shard is self-describing enough to enumerate. The manifest maps every
//! live chunk to its extent (shard, offset, len) together with the CRC of
//! the encoded bytes, the pre-codec size (for codec-ratio telemetry), the
//! populated sample count, and the logical last-access tick that drives
//! LRU eviction.
//!
//! ## File format (`manifest.egm`)
//!
//! ```text
//! magic            u32 LE   "EGMF"
//! version          u8       1
//! codec            u8       StoreCodec::id
//! chunk_samples    u16 LE
//! chunks_per_shard u16 LE
//! clock            u64 LE   logical access clock high-water mark
//! valid_prefix     u8 flag + u64 LE (cache prefix the data belongs to)
//! chunk_count      u32 LE
//!   per chunk: chunk_id u64, shard u32, offset u64, len u32,
//!              raw_len u32, crc u32, samples u16, last_access u64
//! shard_count      u32 LE
//!   per shard: shard u32, file_len u64
//! crc              u32 LE   crc32 of everything above
//! ```
//!
//! Chunks and shards serialize from `BTreeMap`s, so identical state
//! always produces identical bytes. Writes go through a temp file +
//! rename so a crash mid-save leaves the previous manifest intact; a
//! corrupt or missing manifest degrades to an empty store (the cache
//! counts one corrupt entry and recomputes), never an abort.

use crate::codec::StoreCodec;
use egeria_tensor::wire::{crc32, put_u16, put_u32, put_u64, put_u8, Reader};
use egeria_tensor::Result;
use std::collections::BTreeMap;
use std::path::Path;

/// `"EGMF"` little-endian.
pub const MANIFEST_MAGIC: u32 = 0x464D_4745;
/// Current manifest layout version.
pub const MANIFEST_VERSION: u8 = 1;
/// Manifest file name inside the store directory.
pub const MANIFEST_FILE: &str = "manifest.egm";

impl StoreCodec {
    /// Stable one-byte id for the manifest header.
    pub fn id(&self) -> u8 {
        match self {
            StoreCodec::Lossless => 0,
            StoreCodec::Raw => 1,
            StoreCodec::F16 => 2,
            StoreCodec::Int8 => 3,
        }
    }

    /// Inverse of [`StoreCodec::id`].
    pub fn from_id(id: u8) -> Option<StoreCodec> {
        match id {
            0 => Some(StoreCodec::Lossless),
            1 => Some(StoreCodec::Raw),
            2 => Some(StoreCodec::F16),
            3 => Some(StoreCodec::Int8),
            _ => None,
        }
    }
}

/// Where one chunk's encoded block lives, plus its accounting.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ManifestEntry {
    /// Shard file the extent lives in.
    pub shard: u32,
    /// Byte offset of the encoded block inside the shard.
    pub offset: u64,
    /// Encoded (on-disk) length in bytes.
    pub len: u32,
    /// Decoded block length in bytes (codec-ratio telemetry).
    pub raw_len: u32,
    /// CRC-32 of the encoded bytes.
    pub crc: u32,
    /// Populated sample slots in the block.
    pub samples: u16,
    /// Logical clock tick of the most recent put/get touching the chunk.
    pub last_access: u64,
}

/// The in-memory manifest.
#[derive(Debug, Clone, PartialEq)]
pub struct Manifest {
    /// Codec every block in this store was written with.
    pub codec: StoreCodec,
    /// Grid cell width (sample ids per chunk).
    pub chunk_samples: u16,
    /// Grid cells per shard file.
    pub chunks_per_shard: u16,
    /// Logical access clock; monotonic across saves.
    pub clock: u64,
    /// Frozen-prefix the cached activations belong to, if pinned.
    pub valid_prefix: Option<u64>,
    /// chunk_id → extent.
    pub chunks: BTreeMap<u64, ManifestEntry>,
    /// shard id → current file length (includes garbage from rewrites).
    pub shard_lens: BTreeMap<u32, u64>,
}

impl Manifest {
    /// An empty manifest for a fresh store.
    pub fn empty(codec: StoreCodec, chunk_samples: u16, chunks_per_shard: u16) -> Manifest {
        Manifest {
            codec,
            chunk_samples,
            chunks_per_shard,
            clock: 0,
            valid_prefix: None,
            chunks: BTreeMap::new(),
            shard_lens: BTreeMap::new(),
        }
    }

    /// Live (referenced) bytes across all shards.
    pub fn live_bytes(&self) -> u64 {
        self.chunks.values().map(|e| e.len as u64).sum()
    }

    /// Live bytes inside one shard.
    pub fn shard_live_bytes(&self, shard: u32) -> u64 {
        self.chunks
            .values()
            .filter(|e| e.shard == shard)
            .map(|e| e.len as u64)
            .sum()
    }

    /// Serializes the manifest, CRC trailer included.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(64 + self.chunks.len() * 42 + self.shard_lens.len() * 12);
        put_u32(&mut out, MANIFEST_MAGIC);
        put_u8(&mut out, MANIFEST_VERSION);
        put_u8(&mut out, self.codec.id());
        put_u16(&mut out, self.chunk_samples);
        put_u16(&mut out, self.chunks_per_shard);
        put_u64(&mut out, self.clock);
        put_u8(&mut out, self.valid_prefix.is_some() as u8);
        put_u64(&mut out, self.valid_prefix.unwrap_or(0));
        put_u32(&mut out, self.chunks.len() as u32);
        for (&id, e) in &self.chunks {
            put_u64(&mut out, id);
            put_u32(&mut out, e.shard);
            put_u64(&mut out, e.offset);
            put_u32(&mut out, e.len);
            put_u32(&mut out, e.raw_len);
            put_u32(&mut out, e.crc);
            put_u16(&mut out, e.samples);
            put_u64(&mut out, e.last_access);
        }
        put_u32(&mut out, self.shard_lens.len() as u32);
        for (&shard, &len) in &self.shard_lens {
            put_u32(&mut out, shard);
            put_u64(&mut out, len);
        }
        let crc = crc32(&out);
        put_u32(&mut out, crc);
        out
    }

    /// Parses and validates a serialized manifest.
    pub fn decode(bytes: &[u8]) -> Result<Manifest> {
        let mut whole = Reader::new("manifest", bytes);
        let body = whole.take(bytes.len().saturating_sub(4), "body")?;
        let stored = whole.u32("crc")?;
        let actual = crc32(body);
        if stored != actual {
            return Err(whole.corrupt(format_args!(
                "crc mismatch (stored {stored:#010x}, computed {actual:#010x})"
            )));
        }
        let mut r = Reader::new("manifest", body);
        r.header(MANIFEST_MAGIC, MANIFEST_VERSION..=MANIFEST_VERSION)?;
        let cid = r.u8("codec")?;
        let codec = StoreCodec::from_id(cid)
            .ok_or_else(|| r.corrupt(format_args!("unknown codec {cid}")))?;
        let chunk_samples = r.u16("chunk_samples")?;
        let chunks_per_shard = r.u16("chunks_per_shard")?;
        if chunk_samples == 0 || chunks_per_shard == 0 {
            return Err(r.corrupt("zero-sized grid"));
        }
        let clock = r.u64("clock")?;
        let has_prefix = r.u8("prefix flag")?;
        let prefix_val = r.u64("prefix")?;
        let valid_prefix = match has_prefix {
            0 => None,
            1 => Some(prefix_val),
            f => return Err(r.corrupt(format_args!("bad prefix flag {f}"))),
        };
        let chunk_count = r.u32("chunk count")?;
        let mut chunks = BTreeMap::new();
        for _ in 0..chunk_count {
            let id = r.u64("chunk id")?;
            let e = ManifestEntry {
                shard: r.u32("shard")?,
                offset: r.u64("offset")?,
                len: r.u32("len")?,
                raw_len: r.u32("raw_len")?,
                crc: r.u32("crc")?,
                samples: r.u16("samples")?,
                last_access: r.u64("last_access")?,
            };
            if chunks.insert(id, e).is_some() {
                return Err(r.corrupt(format_args!("duplicate chunk {id}")));
            }
        }
        let shard_count = r.u32("shard count")?;
        let mut shard_lens = BTreeMap::new();
        for _ in 0..shard_count {
            let shard = r.u32("shard id")?;
            let len = r.u64("shard len")?;
            if shard_lens.insert(shard, len).is_some() {
                return Err(r.corrupt(format_args!("duplicate shard {shard}")));
            }
        }
        // Cross-check extents against the shard table so a manifest that
        // passed its CRC but disagrees with itself is still rejected.
        for (&id, e) in &chunks {
            let shard_len = shard_lens.get(&e.shard).copied().ok_or_else(|| {
                r.corrupt(format_args!("chunk {id} in unknown shard {}", e.shard))
            })?;
            let end = e.offset.checked_add(e.len.into());
            if end.is_none_or(|end| end > shard_len) {
                return Err(r.corrupt(format_args!(
                    "chunk {id} extent past end of shard {}",
                    e.shard
                )));
            }
        }
        r.finish()?;
        Ok(Manifest {
            codec,
            chunk_samples,
            chunks_per_shard,
            clock,
            valid_prefix,
            chunks,
            shard_lens,
        })
    }

    /// Atomically writes the manifest (temp file + rename).
    pub fn save(&self, dir: &Path) -> Result<()> {
        let tmp = dir.join("manifest.egm.tmp");
        let dst = dir.join(MANIFEST_FILE);
        std::fs::write(&tmp, self.encode())?;
        std::fs::rename(&tmp, &dst)?;
        Ok(())
    }

    /// Loads a manifest from the store directory. `Ok(None)` when no
    /// manifest exists (fresh store); `Err(Corrupt)` when one exists but
    /// fails validation — the caller quarantines and starts empty.
    pub fn load(dir: &Path) -> Result<Option<Manifest>> {
        let path = dir.join(MANIFEST_FILE);
        match std::fs::read(&path) {
            Ok(bytes) => Ok(Some(Manifest::decode(&bytes)?)),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(None),
            Err(e) => Err(e.into()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_manifest() -> Manifest {
        let mut m = Manifest::empty(StoreCodec::Lossless, 64, 16);
        m.clock = 42;
        m.valid_prefix = Some(3);
        m.shard_lens.insert(0, 1000);
        m.shard_lens.insert(7, 50);
        m.chunks.insert(
            2,
            ManifestEntry {
                shard: 0,
                offset: 0,
                len: 600,
                raw_len: 2400,
                crc: 0xDEAD_BEEF,
                samples: 64,
                last_access: 41,
            },
        );
        m.chunks.insert(
            112,
            ManifestEntry {
                shard: 7,
                offset: 10,
                len: 40,
                raw_len: 100,
                crc: 1,
                samples: 3,
                last_access: 42,
            },
        );
        m
    }

    #[test]
    fn round_trips() {
        let m = sample_manifest();
        assert_eq!(Manifest::decode(&m.encode()).unwrap(), m);
        let empty = Manifest::empty(StoreCodec::Int8, 32, 8);
        assert_eq!(Manifest::decode(&empty.encode()).unwrap(), empty);
    }

    #[test]
    fn live_byte_accounting() {
        let m = sample_manifest();
        assert_eq!(m.live_bytes(), 640);
        assert_eq!(m.shard_live_bytes(0), 600);
        assert_eq!(m.shard_live_bytes(7), 40);
        assert_eq!(m.shard_live_bytes(99), 0);
    }

    #[test]
    fn crc_catches_any_flip() {
        let enc = sample_manifest().encode();
        for i in 0..enc.len() {
            let mut bad = enc.clone();
            bad[i] ^= 0x01;
            assert!(Manifest::decode(&bad).is_err(), "flip at byte {i} accepted");
        }
    }

    #[test]
    fn extent_past_shard_end_rejected() {
        let mut m = sample_manifest();
        m.chunks.get_mut(&112).unwrap().len = 100;
        let enc = m.encode(); // CRC is over the inconsistent state: valid CRC
        assert!(Manifest::decode(&enc).is_err());
    }

    #[test]
    fn save_load_cycle_and_fresh_dir() {
        let dir = std::env::temp_dir().join(format!("egeria-manifest-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        assert!(Manifest::load(&dir).unwrap().is_none(), "fresh dir");
        let m = sample_manifest();
        m.save(&dir).unwrap();
        assert_eq!(Manifest::load(&dir).unwrap(), Some(m));
        std::fs::write(dir.join(MANIFEST_FILE), b"garbage").unwrap();
        assert!(Manifest::load(&dir).is_err(), "corrupt manifest errors");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn store_codec_ids_round_trip() {
        for c in [
            StoreCodec::Lossless,
            StoreCodec::Raw,
            StoreCodec::F16,
            StoreCodec::Int8,
        ] {
            assert_eq!(StoreCodec::from_id(c.id()), Some(c));
        }
        assert_eq!(StoreCodec::from_id(200), None);
    }
}
