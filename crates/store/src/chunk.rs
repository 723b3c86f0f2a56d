//! Chunk blocks: how a grid cell's samples are laid out in bytes.
//!
//! The store divides the sample-id axis into fixed cells of
//! `chunk_samples` ids: chunk `c` owns ids `[c*chunk_samples,
//! (c+1)*chunk_samples)`. One chunk serializes to one **block** — a slot
//! directory plus the concatenated per-sample records — which then passes
//! through the byte codec before landing inside a shard file.
//!
//! ## Block layout (before the byte codec)
//!
//! ```text
//! magic          u32 LE   "EGCB" (0x4243_4745 on disk: 45 47 43 42)
//! version        u8       1
//! transform      u8       Transform::id of the per-sample records
//! chunk_samples  u16 LE   grid cell width (validated against the store's)
//! base_id        u64 LE   first sample id of the cell
//! slot_count     u16 LE   number of populated slots
//! directory      slot_count × { slot u16 LE, rec_len u32 LE }
//!                (slots strictly ascending — deterministic bytes)
//! records        concatenated, directory order
//! ```
//!
//! Sparse cells are first-class: a shuffled sampler fills slots out of
//! order and eviction may drop a cell before it fills. The directory
//! makes absent slots free (a miss, not an error). Every field is bounds
//! checked on decode; violations surface as
//! [`egeria_tensor::TensorError::Corrupt`] and the store maps that to
//! quarantining this one chunk.

use crate::codec::Transform;
use egeria_tensor::wire::{put_u16, put_u32, put_u64, put_u8, Reader};
use egeria_tensor::Result;
use std::collections::BTreeMap;

/// `"EGCB"` little-endian.
pub const CHUNK_MAGIC: u32 = 0x4243_4745;
/// Current block layout version.
pub const CHUNK_VERSION: u8 = 1;

/// A decoded chunk block: the populated slots of one grid cell.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChunkBlock {
    /// Per-sample record transform the payloads were written with.
    pub transform: Transform,
    /// First sample id of the grid cell.
    pub base_id: u64,
    /// Grid cell width the writer used.
    pub chunk_samples: u16,
    /// slot → encoded sample record. BTreeMap keeps encode deterministic.
    pub records: BTreeMap<u16, Vec<u8>>,
}

impl ChunkBlock {
    /// Serializes the block (byte codec not yet applied).
    pub fn encode(&self) -> Vec<u8> {
        let payload: usize = self.records.values().map(|r| r.len() + 6).sum();
        let mut out = Vec::with_capacity(18 + payload);
        put_u32(&mut out, CHUNK_MAGIC);
        put_u8(&mut out, CHUNK_VERSION);
        put_u8(&mut out, self.transform.id());
        put_u16(&mut out, self.chunk_samples);
        put_u64(&mut out, self.base_id);
        put_u16(&mut out, self.records.len() as u16);
        for (&slot, rec) in &self.records {
            put_u16(&mut out, slot);
            put_u32(&mut out, rec.len() as u32);
        }
        for rec in self.records.values() {
            out.extend_from_slice(rec);
        }
        out
    }

    /// Parses and validates a block.
    pub fn decode(bytes: &[u8]) -> Result<ChunkBlock> {
        let mut r = Reader::new("chunk", bytes);
        r.header(CHUNK_MAGIC, CHUNK_VERSION..=CHUNK_VERSION)?;
        let tid = r.u8("transform")?;
        let transform = Transform::from_id(tid)
            .ok_or_else(|| r.corrupt(format_args!("unknown transform {tid}")))?;
        let chunk_samples = r.u16("chunk_samples")?;
        if chunk_samples == 0 {
            return Err(r.corrupt("zero-width grid cell"));
        }
        let base_id = r.u64("base_id")?;
        let slot_count = r.u16("slot_count")?;
        if slot_count > chunk_samples {
            return Err(r.corrupt(format_args!(
                "{slot_count} slots in a {chunk_samples}-wide cell"
            )));
        }
        let slot_count = r.count(slot_count.into(), 6, "slot")?;
        let mut dir = Vec::with_capacity(slot_count);
        let mut prev: Option<u16> = None;
        for _ in 0..slot_count {
            let slot = r.u16("slot")?;
            if slot >= chunk_samples {
                return Err(r.corrupt(format_args!(
                    "slot {slot} outside {chunk_samples}-wide cell"
                )));
            }
            if prev.is_some_and(|p| slot <= p) {
                return Err(r.corrupt("slots not ascending"));
            }
            prev = Some(slot);
            let len = r.u32("rec_len")? as usize;
            dir.push((slot, len));
        }
        let mut records = BTreeMap::new();
        for (slot, len) in dir {
            let rec = r.take(len, "record payload")?;
            records.insert(slot, rec.to_vec());
        }
        r.finish()?;
        Ok(ChunkBlock {
            transform,
            base_id,
            chunk_samples,
            records,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_block() -> ChunkBlock {
        let mut records = BTreeMap::new();
        records.insert(0u16, vec![1u8, 2, 3]);
        records.insert(5u16, vec![]);
        records.insert(63u16, vec![9u8; 100]);
        ChunkBlock {
            transform: Transform::Exact,
            base_id: 640,
            chunk_samples: 64,
            records,
        }
    }

    #[test]
    fn round_trips_sparse_slots() {
        let b = sample_block();
        let enc = b.encode();
        assert_eq!(ChunkBlock::decode(&enc).unwrap(), b);
    }

    #[test]
    fn empty_cell_round_trips() {
        let b = ChunkBlock {
            transform: Transform::F16,
            base_id: 0,
            chunk_samples: 32,
            records: BTreeMap::new(),
        };
        assert_eq!(ChunkBlock::decode(&b.encode()).unwrap(), b);
    }

    #[test]
    fn encode_is_deterministic() {
        assert_eq!(sample_block().encode(), sample_block().encode());
    }

    #[test]
    fn corrupt_blocks_error_not_panic() {
        let enc = sample_block().encode();
        assert!(ChunkBlock::decode(&[]).is_err());
        assert!(ChunkBlock::decode(&enc[..enc.len() - 1]).is_err(), "truncated");
        let mut bad = enc.clone();
        bad[0] ^= 0xFF;
        assert!(ChunkBlock::decode(&bad).is_err(), "magic");
        let mut bad = enc.clone();
        bad[4] = 99;
        assert!(ChunkBlock::decode(&bad).is_err(), "version");
        let mut bad = enc.clone();
        bad[5] = 99;
        assert!(ChunkBlock::decode(&bad).is_err(), "transform");
        // Every single-byte flip either errors or decodes; never panics.
        for i in 0..enc.len() {
            let mut b = enc.clone();
            b[i] ^= 0x55;
            let _ = ChunkBlock::decode(&b);
        }
        // Trailing garbage is rejected.
        let mut b = enc.clone();
        b.push(0);
        assert!(ChunkBlock::decode(&b).is_err());
    }
}
