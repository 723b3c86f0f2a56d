//! The pluggable codec chain: sample transform + chunk byte codec.
//!
//! A cached activation passes two stages on its way to a shard file
//! (mirroring the zarrs array→array / array→bytes / bytes→bytes codec
//! pipeline, collapsed to the two levels this store needs):
//!
//! 1. **Sample transform** (array→bytes, per sample): turns one tensor
//!    into a self-describing record. [`Transform::Exact`] is the
//!    existing `egeria_tensor::serialize` wire format, byte-for-byte —
//!    the lossless contract below rests on that. [`Transform::F16`] and
//!    [`Transform::Int8`] re-quantize frozen-layer activations through
//!    `egeria-quant` semantics and are *lossy within a documented
//!    tolerance* (see the encode functions).
//! 2. **Byte codec** (bytes→bytes, per chunk): byte-shuffle planes sized
//!    to the record's element width, then the LZ stage. Always lossless.
//!
//! ## The lossless-is-bit-exact rule (DESIGN §5j)
//!
//! `decode(encode(bytes))` must equal `bytes` for every byte codec, and
//! `decode_sample(encode_sample(t))` must reproduce `t` **bit-for-bit**
//! under [`Transform::Exact`]. This is what lets the chunked cache store
//! hold the same golden-run fingerprint as the flat one
//! (`tests/golden_run.rs` runs both): compression may change how bytes
//! rest on disk, never which f32 bits come back.

use crate::lz;
use crate::shuffle::{shuffle, unshuffle};
use egeria_quant::qtensor::Granularity;
use egeria_quant::QTensor;
use egeria_tensor::wire::{self, Reader};
use egeria_tensor::{serialize, Result, Tensor};

/// The user-facing codec selection. Picks a (transform, byte-codec) pair
/// for the whole store.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum StoreCodec {
    /// Byte-shuffle (width 4) + LZ over exact f32 records. Bit-exact.
    #[default]
    Lossless,
    /// Exact f32 records, no compression (debugging / incompressible
    /// data). Bit-exact.
    Raw,
    /// f16 re-quantization + shuffle (width 2) + LZ. Lossy: each element
    /// carries one IEEE-half rounding, identical to
    /// `egeria_quant::fake::fake_f16`.
    F16,
    /// int8 per-sample symmetric re-quantization + LZ. Lossy: absolute
    /// error ≤ scale/2 with `scale = max_abs/127`, identical to
    /// `egeria_quant::QTensor` per-tensor semantics.
    Int8,
}

impl StoreCodec {
    /// Stable short name (reports, bench JSON, manifest debugging).
    pub fn name(&self) -> &'static str {
        match self {
            StoreCodec::Lossless => "lossless",
            StoreCodec::Raw => "raw",
            StoreCodec::F16 => "f16",
            StoreCodec::Int8 => "int8",
        }
    }

    /// The (transform, byte codec) pair this selection runs.
    pub fn stages(&self) -> (Transform, ByteCodec) {
        match self {
            StoreCodec::Lossless => (Transform::Exact, ByteCodec::ShuffleLz { width: 4 }),
            StoreCodec::Raw => (Transform::Exact, ByteCodec::Raw),
            StoreCodec::F16 => (Transform::F16, ByteCodec::ShuffleLz { width: 2 }),
            StoreCodec::Int8 => (Transform::Int8, ByteCodec::ShuffleLz { width: 1 }),
        }
    }
}

/// The chunk-level bytes→bytes stage. Always lossless.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ByteCodec {
    /// Identity.
    Raw,
    /// Byte-shuffle with the given element width, then LZ.
    ShuffleLz {
        /// Element width in bytes the planes are sized to.
        width: u8,
    },
}

impl ByteCodec {
    /// Stable one-byte id for the manifest.
    pub fn id(&self) -> u8 {
        match self {
            ByteCodec::Raw => 0,
            ByteCodec::ShuffleLz { width: 4 } => 1,
            ByteCodec::ShuffleLz { width: 2 } => 2,
            ByteCodec::ShuffleLz { .. } => 3,
        }
    }

    /// Inverse of [`ByteCodec::id`].
    pub fn from_id(id: u8) -> Option<ByteCodec> {
        match id {
            0 => Some(ByteCodec::Raw),
            1 => Some(ByteCodec::ShuffleLz { width: 4 }),
            2 => Some(ByteCodec::ShuffleLz { width: 2 }),
            3 => Some(ByteCodec::ShuffleLz { width: 1 }),
            _ => None,
        }
    }

    /// Encodes a chunk block.
    pub fn encode(&self, bytes: &[u8]) -> Vec<u8> {
        match self {
            ByteCodec::Raw => bytes.to_vec(),
            ByteCodec::ShuffleLz { width } => lz::compress(&shuffle(bytes, *width as usize)),
        }
    }

    /// Decodes a chunk block; corruption surfaces as
    /// [`egeria_tensor::TensorError::Corrupt`].
    pub fn decode(&self, bytes: &[u8]) -> Result<Vec<u8>> {
        match self {
            ByteCodec::Raw => Ok(bytes.to_vec()),
            ByteCodec::ShuffleLz { width } => {
                Ok(unshuffle(&lz::decompress(bytes)?, *width as usize))
            }
        }
    }
}

/// The per-sample array→bytes stage.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Transform {
    /// `egeria_tensor::serialize` wire format, bit-exact.
    Exact,
    /// IEEE-half storage; decode carries exactly the `fake_f16` rounding.
    F16,
    /// Per-sample symmetric int8; decode carries exactly the per-tensor
    /// `QTensor` rounding.
    Int8,
}

impl Transform {
    /// Stable one-byte id for chunk headers and the manifest.
    pub fn id(&self) -> u8 {
        match self {
            Transform::Exact => 0,
            Transform::F16 => 1,
            Transform::Int8 => 2,
        }
    }

    /// Inverse of [`Transform::id`].
    pub fn from_id(id: u8) -> Option<Transform> {
        match id {
            0 => Some(Transform::Exact),
            1 => Some(Transform::F16),
            2 => Some(Transform::Int8),
            _ => None,
        }
    }

    /// Encodes one sample tensor into a record.
    pub fn encode_sample(&self, t: &Tensor) -> Result<Vec<u8>> {
        match self {
            Transform::Exact => Ok(serialize::to_bytes(t)),
            Transform::F16 => Ok(encode_f16(t)),
            Transform::Int8 => encode_int8(t),
        }
    }

    /// Decodes one record back into a tensor.
    pub fn decode_sample(&self, bytes: &[u8]) -> Result<Tensor> {
        match self {
            Transform::Exact => serialize::from_bytes(bytes),
            Transform::F16 => decode_f16(bytes),
            Transform::Int8 => decode_int8(bytes),
        }
    }
}

// ---- f16 ------------------------------------------------------------------

/// Packs the IEEE-754 half bits of an f16-representable f32. The input
/// must already be rounded through [`egeria_quant::fake::f16_round`]
/// (which [`encode_f16`] guarantees), so no second rounding happens here
/// and `decode ∘ encode == fake_f16` holds exactly.
fn f16_bits_of_rounded(y: f32) -> u16 {
    let bits = y.to_bits();
    let sign = ((bits >> 16) & 0x8000) as u16;
    if y.is_nan() {
        return sign | 0x7E00;
    }
    if y.is_infinite() {
        return sign | 0x7C00;
    }
    let abs = f32::from_bits(bits & 0x7FFF_FFFF);
    // egeria-lint: allow(float-exact-eq): ±0.0 maps to the signed zero
    // half; every other representable value goes through the exponent
    // split below.
    if abs == 0.0 {
        return sign;
    }
    const MIN_NORMAL_F16: f32 = 6.103_515_6e-5; // 2^-14 exactly in f32
    if abs < MIN_NORMAL_F16 {
        // Subnormal half: the value is an exact multiple of 2^-24.
        let m = (abs * 16_777_216.0) as u32; // abs / 2^-24
        return sign | (m as u16 & 0x03FF);
    }
    let exp32 = ((bits >> 23) & 0xFF) as i32 - 127;
    let exp16 = (exp32 + 15) as u16; // 1..=30 for in-range rounded input
    let mant = ((bits >> 13) & 0x03FF) as u16; // top 10 of 23 mantissa bits
    sign | (exp16 << 10) | mant
}

/// Unpacks IEEE-754 half bits to f32, exactly.
fn f32_of_f16_bits(h: u16) -> f32 {
    let sign = ((h as u32) & 0x8000) << 16;
    let exp = (h >> 10) & 0x1F;
    let mant = (h & 0x03FF) as u32;
    let bits = match exp {
        0 => {
            if mant == 0 {
                sign
            } else {
                // Subnormal half: mant * 2^-24, an exact f32 product.
                let mag = mant as f32 * 5.960_464_5e-8; // 2^-24 exactly in f32
                return if sign == 0 { mag } else { -mag };
            }
        }
        0x1F => sign | 0x7F80_0000 | (mant << 13),
        _ => sign | ((exp as u32 + 127 - 15) << 23) | (mant << 13),
    };
    f32::from_bits(bits)
}

fn encode_f16(t: &Tensor) -> Vec<u8> {
    let mut out = Vec::with_capacity(8 + t.rank() * 8 + t.numel() * 2);
    wire::put_dims(&mut out, t.dims());
    for &x in t.data() {
        let h = f16_bits_of_rounded(egeria_quant::fake::f16_round(x));
        wire::put_u16(&mut out, h);
    }
    out
}

fn decode_f16(bytes: &[u8]) -> Result<Tensor> {
    let mut r = Reader::new("f16 record", bytes);
    let (dims, numel) = r.dims()?;
    let n = r.count(numel as u64, 2, "payload")?;
    let mut data = Vec::with_capacity(n);
    for _ in 0..n {
        data.push(f32_of_f16_bits(r.u16("payload")?));
    }
    r.finish()?;
    Tensor::from_vec(data, &dims)
}

// ---- int8 -----------------------------------------------------------------

fn encode_int8(t: &Tensor) -> Result<Vec<u8>> {
    let q = QTensor::quantize(t, Granularity::PerTensor)?;
    let scale = q.scales().first().copied().unwrap_or(1.0);
    let mut out = Vec::with_capacity(12 + t.rank() * 8 + q.data().len());
    wire::put_dims(&mut out, t.dims());
    wire::put_f32(&mut out, scale);
    out.extend(q.data().iter().map(|&v| v as u8));
    Ok(out)
}

fn decode_int8(bytes: &[u8]) -> Result<Tensor> {
    let mut r = Reader::new("int8 record", bytes);
    let (dims, numel) = r.dims()?;
    let scale = r.f32("scale")?;
    let payload = r.take(numel, "payload")?;
    r.finish()?;
    let data: Vec<f32> = payload.iter().map(|&b| (b as i8) as f32 * scale).collect();
    Tensor::from_vec(data, &dims)
}

#[cfg(test)]
mod tests {
    use super::*;
    use egeria_quant::fake::{fake_f16, fake_int8};
    use egeria_tensor::Rng;

    #[test]
    fn exact_transform_is_bit_exact() {
        let mut rng = Rng::new(3);
        let t = Tensor::randn(&[2, 3, 5], &mut rng);
        let rec = Transform::Exact.encode_sample(&t).unwrap();
        let back = Transform::Exact.decode_sample(&rec).unwrap();
        assert_eq!(back.dims(), t.dims());
        for (a, b) in back.data().iter().zip(t.data()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn byte_codecs_round_trip_records() {
        let mut rng = Rng::new(4);
        let t = Tensor::randn(&[4, 7], &mut rng);
        let rec = Transform::Exact.encode_sample(&t).unwrap();
        for codec in [
            ByteCodec::Raw,
            ByteCodec::ShuffleLz { width: 4 },
            ByteCodec::ShuffleLz { width: 2 },
            ByteCodec::ShuffleLz { width: 1 },
        ] {
            let enc = codec.encode(&rec);
            assert_eq!(codec.decode(&enc).unwrap(), rec, "{codec:?}");
            assert_eq!(ByteCodec::from_id(codec.id()), Some(codec));
        }
    }

    #[test]
    fn f16_transform_matches_fake_f16_exactly() {
        let mut rng = Rng::new(5);
        let mut t = Tensor::randn(&[3, 8], &mut rng);
        // Include the awkward corners: zeros, subnormals, large values.
        t.data_mut()[0] = 0.0;
        t.data_mut()[1] = -0.0;
        t.data_mut()[2] = 3.0e-6;
        t.data_mut()[3] = -7.0e-8;
        t.data_mut()[4] = 60000.0;
        t.data_mut()[5] = -65519.0;
        let rec = Transform::F16.encode_sample(&t).unwrap();
        let back = Transform::F16.decode_sample(&rec).unwrap();
        let want = fake_f16(&t);
        for (i, (a, b)) in back.data().iter().zip(want.data()).enumerate() {
            assert_eq!(a.to_bits(), b.to_bits(), "elem {i}: {a} vs {b}");
        }
    }

    #[test]
    fn int8_transform_matches_fake_int8_exactly() {
        let mut rng = Rng::new(6);
        let t = Tensor::randn(&[2, 9], &mut rng);
        let rec = Transform::Int8.encode_sample(&t).unwrap();
        let back = Transform::Int8.decode_sample(&rec).unwrap();
        let want = fake_int8(&t, Granularity::PerTensor).unwrap();
        for (a, b) in back.data().iter().zip(want.data()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn corrupt_records_error_not_panic() {
        let t = Tensor::ones(&[2, 2]);
        for tf in [Transform::Exact, Transform::F16, Transform::Int8] {
            let rec = tf.encode_sample(&t).unwrap();
            assert!(tf.decode_sample(&rec[..rec.len() - 1]).is_err(), "{tf:?}");
            assert!(tf.decode_sample(&[]).is_err());
            assert_eq!(Transform::from_id(tf.id()), Some(tf));
        }
    }
}
