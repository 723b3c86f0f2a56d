//! Chunked, compressed, sharded activation store — the cache v2 backend.
//!
//! The flat activation cache writes one file per sample: at the millions
//! of cached samples the paper's training-loop savings (§4.3) imply, that
//! is millions of inodes of incompressible f32. This crate stores
//! activations the way chunked array stores (zarr, and zarrs' codec
//! pipeline in particular) do:
//!
//! - [`store::ChunkStore`]: a fixed grid over sample-id space — chunk
//!   `id / chunk_samples`, shard `chunk / chunks_per_shard` — with a
//!   bounded dirty buffer, append-only shard files, LRU eviction against
//!   a live-byte cap, and garbage compaction,
//! - [`codec`]: the pluggable chain — a per-sample transform (bit-exact
//!   f32, or lossy f16/int8 re-quantization with `egeria-quant`
//!   semantics) under a per-chunk byte codec ([`shuffle`] byte-plane
//!   transpose + the [`lz`] LZSS stage),
//! - [`chunk`]: the slot-directory block format one grid cell serializes
//!   to,
//! - [`manifest`]: the CRC'd index mapping chunks to shard extents.
//!
//! The store owns no threads: every read is one synchronous extent read
//! on the caller's thread (the activation cache looks entries up on the
//! training thread, and a disk batch costs ~0.17 ms there — DESIGN §5j).
//!
//! The load-bearing contract: **lossless configurations are bit-exact**
//! (`get` returns the identical f32 bits `put` stored), which is what
//! lets the chunked cache reproduce the flat cache's golden-run
//! fingerprint. Corruption anywhere — a flipped shard byte, a truncated
//! extent, a bad manifest — quarantines exactly one chunk (or degrades
//! open to an empty store) and reads as a miss, never an abort.

// No unsafe outside egeria-tensor: enforced here and audited by egeria-lint.
#![forbid(unsafe_code)]

pub mod chunk;
pub mod codec;
pub mod lz;
pub mod manifest;
pub mod shuffle;
pub mod store;

pub use codec::StoreCodec;
pub use store::{ChunkStore, FlushOutcome, StoreConfig, StoreStats};
