//! Hostile bytes on decode (ROADMAP 5(c)): every on-disk format must turn
//! any input — including input whose checksum is *valid* — into `Ok` or
//! `Err`, never a panic, a process abort, or an allocation sized by a field
//! nobody bounded. A CRC only catches accidents: each case here re-forges
//! the checksum so the mutation reaches the field decoder behind it.
//!
//! The table covers every format a reader opens: tensor files, checkpoints
//! (the one container version a reader accepts), the store manifest, chunk
//! blocks raw and LZSS-coded, and the f16/int8 sample records. Each is walked
//! exhaustively (every truncation, every single-byte flip) and then fuzzed
//! with random multi-byte mutations.
//!
//! This is the test to run (debug *and* `--release`) after touching
//! `egeria_tensor::wire` or any format built on it.

use egeria_core::bootstrap::BootstrapSnapshot;
use egeria_core::checkpoint::{self, TrainerCheckpoint};
use egeria_core::freezer::FreezerSnapshot;
use egeria_core::plasticity::TrackerSnapshot;
use egeria_core::reference::ReferenceSnapshot;
use egeria_core::trainer::{EpochRecord, EventRecord, IterationRecord, PlasticityPoint};
use egeria_core::PolicyState;
use egeria_nn::optim::OptimizerState;
use egeria_store::chunk::ChunkBlock;
use egeria_store::codec::{ByteCodec, StoreCodec, Transform};
use egeria_store::manifest::{Manifest, ManifestEntry};
use egeria_tensor::wire::{self, crc32, FRAME_HEADER_LEN};
use egeria_tensor::{serialize, Tensor, TensorError};
use proptest::prelude::*;

/// `rank · dims` as every tensor-shaped record starts.
fn dims_prefix(dims: &[usize]) -> Vec<u8> {
    let mut out = Vec::new();
    wire::put_dims(&mut out, dims);
    out
}

/// A tensor file with a valid header and checksum around `payload`.
fn tensor_file(payload: &[u8]) -> Vec<u8> {
    let (magic, version) = (serialize::MAGIC, serialize::FORMAT_VERSION);
    wire::frame(magic, version, 0, |out| out.extend_from_slice(payload))
}

fn assert_corrupt<T: std::fmt::Debug>(r: Result<T, TensorError>, case: &str) {
    assert!(matches!(r, Err(TensorError::Corrupt(_))), "{case}: {r:?}");
}

#[test]
fn tensor_dims_whose_product_overflows_are_rejected() {
    // 2³²·2³² wraps to 0 in release (the parent decoded this `Ok`, a
    // tensor of those dims with no data) and panics in debug.
    for d in [1usize << 32, 1 << 40] {
        let file = tensor_file(&dims_prefix(&[d, d]));
        assert_corrupt(serialize::from_bytes(&file), "tensor dims overflow");
    }
}

#[test]
fn f16_record_cannot_size_an_allocation_from_its_dims() {
    // 2⁴⁰ elements declared, none present: the parent asked the allocator
    // for 4 TiB and the process aborted. Returning at all is the assertion.
    let record = dims_prefix(&[1 << 20, 1 << 20]);
    assert_corrupt(Transform::F16.decode_sample(&record), "f16 pre-allocation");
}

#[test]
fn int8_record_with_overflowing_dims_is_rejected() {
    let mut record = dims_prefix(&[1 << 32, 1 << 32]);
    record.extend_from_slice(&1.0f32.to_le_bytes());
    assert_corrupt(Transform::Int8.decode_sample(&record), "int8 dims overflow");
}

#[test]
fn manifest_extent_that_overflows_u64_is_rejected() {
    let mut m = sample_manifest();
    m.chunks.get_mut(&2).unwrap().offset = u64::MAX;
    // Built by `encode`, so the trailing CRC is valid.
    assert_corrupt(Manifest::decode(&m.encode()), "manifest extent overflow");
}

// ---- the mutation table ---------------------------------------------------

fn sample_tensor() -> Tensor {
    Tensor::from_vec((0..12).map(|i| i as f32 * 0.75 - 3.0).collect(), &[3, 4]).unwrap()
}

fn sample_manifest() -> Manifest {
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
    m.chunks.insert(
        112,
        ManifestEntry {
            shard: 7,
            offset: 10,
            len: 40,
            ..entry
        },
    );
    m
}

fn sample_block() -> ChunkBlock {
    let records = [(0u16, vec![1u8, 2, 3]), (5, vec![]), (63, vec![9u8; 40])];
    ChunkBlock {
        transform: Transform::Exact,
        base_id: 640,
        chunk_samples: 64,
        records: records.into_iter().collect(),
    }
}

fn sample_checkpoint() -> TrainerCheckpoint {
    let w = Tensor::from_vec(vec![1.0, -2.0], &[2]).unwrap();
    TrainerCheckpoint {
        model_name: "toy".into(),
        next_epoch: 3,
        global_step: 12,
        evals_since_ref_update: 2,
        params: vec![("w".into(), w.clone()), ("b".into(), Tensor::scalar(0.5))],
        state_buffers: vec![Tensor::ones(&[2])],
        optimizer: OptimizerState {
            kind: "sgd".into(),
            lr: 0.05,
            step_count: 12,
            slots: vec![("velocity".into(), vec![("w".into(), Tensor::zeros(&[2]))])],
        },
        freezer: Some(FreezerSnapshot {
            front: 1,
            lr_at_first_freeze: Some(0.05),
            relaxed: false,
            evaluations: 6,
            trackers: vec![TrackerSnapshot {
                raw: vec![0.5, 0.4],
                smoothed: vec![0.5, 0.45],
                stale: 1,
            }],
            policy: PolicyState {
                kind: "regression".into(),
                scalars: vec![0.4],
                counters: vec![1, 7, 0],
            },
        }),
        bootstrap: Some(BootstrapSnapshot {
            losses: vec![2.0, 1.0, 0.9],
            done: true,
        }),
        reference: Some(ReferenceSnapshot {
            params: vec![("w".into(), w)],
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

/// A chunk block of real sample records, LZSS-coded the way the lossless
/// store writes it to a shard.
fn sample_lz_chunk() -> Vec<u8> {
    let t = sample_tensor();
    let records = [0u16, 1, 9].map(|i| (i, Transform::Exact.encode_sample(&t).unwrap()));
    let block = ChunkBlock {
        transform: Transform::Exact,
        base_id: 0,
        chunk_samples: 16,
        records: records.into_iter().collect(),
    };
    StoreCodec::Lossless.stages().1.encode(&block.encode())
}

/// How a format's integrity check is re-forged after a mutation.
#[derive(Clone, Copy)]
enum Integrity {
    /// No checksum: chunk blocks and sample records rely on the extent CRC
    /// the manifest holds, which a hostile manifest supplies too.
    None,
    /// The shared frame. A flip keeps the declared length (so the length
    /// check is exercised); a truncation re-declares it (so the cut lands
    /// in the payload decoder, not on the length check).
    Frame,
    /// The manifest's trailing CRC over everything before it.
    Trailer,
}

impl Integrity {
    fn reforge(self, buf: &mut [u8], redeclare_len: bool) {
        match self {
            Integrity::None => {}
            Integrity::Frame if buf.len() >= FRAME_HEADER_LEN => {
                let (header, payload) = buf.split_at_mut(FRAME_HEADER_LEN);
                if redeclare_len {
                    header[5..13].copy_from_slice(&(payload.len() as u64).to_le_bytes());
                }
                header[13..].copy_from_slice(&crc32(payload).to_le_bytes());
            }
            Integrity::Trailer if buf.len() >= 4 => {
                let (body, tail) = buf.split_at_mut(buf.len() - 4);
                tail.copy_from_slice(&crc32(body).to_le_bytes());
            }
            _ => {}
        }
    }
}

/// Decodes and reports the one thing an `Ok` must still satisfy.
type Decode = fn(&[u8]) -> Result<(), TensorError>;

fn consistent(t: Tensor) {
    assert_eq!(
        t.numel(),
        t.data().len(),
        "decoded tensor lies about its size: {:?}",
        t.dims()
    );
}

fn decode_checkpoint(b: &[u8]) -> Result<(), TensorError> {
    checkpoint::from_bytes(b).map(|c| {
        c.params.into_iter().for_each(|(_, t)| consistent(t));
        c.state_buffers.into_iter().for_each(consistent);
    })
}

fn formats() -> Vec<(&'static str, Vec<u8>, Integrity, Decode)> {
    let t = sample_tensor();
    vec![
        ("tensor", serialize::to_bytes(&t), Integrity::Frame, |b| {
            serialize::from_bytes(b).map(consistent)
        }),
        (
            "checkpoint",
            checkpoint::to_bytes(&sample_checkpoint()),
            Integrity::Frame,
            decode_checkpoint,
        ),
        (
            "manifest",
            sample_manifest().encode(),
            Integrity::Trailer,
            |b| Manifest::decode(b).map(|_| ()),
        ),
        (
            "chunk block",
            sample_block().encode(),
            Integrity::None,
            |b| ChunkBlock::decode(b).map(|_| ()),
        ),
        ("lzss chunk", sample_lz_chunk(), Integrity::None, |b| {
            let block = ChunkBlock::decode(&ByteCodec::ShuffleLz { width: 4 }.decode(b)?)?;
            for record in block.records.values() {
                block.transform.decode_sample(record).map(consistent)?;
            }
            Ok(())
        }),
        (
            "f16 record",
            Transform::F16.encode_sample(&t).unwrap(),
            Integrity::None,
            |b| Transform::F16.decode_sample(b).map(consistent),
        ),
        (
            "int8 record",
            Transform::Int8.encode_sample(&t).unwrap(),
            Integrity::None,
            |b| Transform::Int8.decode_sample(b).map(consistent),
        ),
    ]
}

#[test]
fn every_truncation_and_byte_flip_decodes_to_ok_or_err() {
    for (name, valid, integrity, decode) in formats() {
        decode(&valid).unwrap_or_else(|e| panic!("{name}: valid encoding rejected: {e}"));
        let mut reached_decoder = 0usize;
        for keep in 0..valid.len() {
            let mut cut = valid[..keep].to_vec();
            integrity.reforge(&mut cut, true);
            // A strict prefix of a valid encoding is never itself valid.
            assert!(
                decode(&cut).is_err(),
                "{name}: truncation to {keep} bytes accepted"
            );
        }
        for i in 0..valid.len() {
            for mask in [0x01u8, 0x10, 0x80, 0xFF] {
                let mut bad = valid.clone();
                bad[i] ^= mask;
                integrity.reforge(&mut bad, false);
                // Ok or Err — the test is that this returns.
                if let Err(e) = decode(&bad) {
                    let msg = e.to_string();
                    reached_decoder += !(msg.contains("checksum") || msg.contains("crc")) as usize;
                }
            }
        }
        // The re-forging is doing its job: mutations get past the checksum.
        assert!(
            reached_decoder > 0,
            "{name}: no mutation reached the field decoder"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Random multi-byte damage, checksum re-forged: any 1–8 byte
    /// overwrites of any format decode to `Ok` or `Err`, never a panic, and
    /// an `Ok` never carries a tensor whose dims disagree with its data.
    #[test]
    fn random_multi_byte_mutations_decode_to_ok_or_err(
        edits in prop::collection::vec((any::<usize>(), 1u8..255), 1..9)
    ) {
        for (name, valid, integrity, decode) in formats() {
            let mut bad = valid.clone();
            for &(at, mask) in &edits {
                let at = at % bad.len();
                bad[at] ^= mask;
            }
            integrity.reforge(&mut bad, false);
            let outcome = std::panic::catch_unwind(|| decode(&bad));
            prop_assert!(outcome.is_ok(), "{}: panicked on edits {:?}", name, edits);
        }
    }
}
