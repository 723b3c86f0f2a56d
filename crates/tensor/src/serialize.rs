//! Tensor serialization: the on-disk format of the activation cache and the
//! building block of checkpoint files.
//!
//! Layout (little-endian), format version 2:
//!
//! ```text
//! magic        u32  = 0x45474552 ("EGER")
//! version      u8   = 2
//! payload_len  u64  (bytes of payload following the crc field)
//! crc32        u32  (IEEE CRC-32 of the payload)
//! payload:
//!   rank   u32
//!   dims   u64 × rank
//!   data   f32 × numel
//! ```
//!
//! The header (the shared [`wire::frame`]) makes three classes of disk
//! corruption detectable before any payload byte is interpreted: truncation
//! (`payload_len` disagrees with the buffer), bit flips (`crc32` mismatch),
//! and format drift (`version` mismatch). All three surface as
//! [`TensorError::Corrupt`](crate::TensorError::Corrupt), never as a
//! panic or a silently misread tensor; callers such as the activation cache
//! degrade to recomputation on that error.

use crate::error::Result;
use crate::tensor::Tensor;
use crate::wire;

/// Magic number prefixed to every serialized tensor.
pub const MAGIC: u32 = 0x4547_4552;

/// Current wire-format version.
pub const FORMAT_VERSION: u8 = 2;

/// Serializes a tensor to a byte buffer.
pub fn to_bytes(t: &Tensor) -> Vec<u8> {
    let payload_len = 4 + t.rank() * 8 + t.numel() * 4;
    wire::frame(MAGIC, FORMAT_VERSION, payload_len, |out| {
        wire::put_dims(out, t.dims());
        for &v in t.data() {
            wire::put_f32(out, v);
        }
    })
}

/// Deserializes a tensor from a byte buffer produced by [`to_bytes`].
pub fn from_bytes(buf: &[u8]) -> Result<Tensor> {
    let (_, mut r) = wire::unframe("tensor", buf, MAGIC, FORMAT_VERSION..=FORMAT_VERSION)?;
    let (dims, numel) = r.dims()?;
    let data = r.f32s(numel as u64, "data")?;
    r.finish()?;
    Tensor::from_vec(data, &dims)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::TensorError;
    use crate::rng::Rng;
    use crate::wire::{crc32, FRAME_HEADER_LEN as HEADER_LEN};

    #[test]
    fn round_trip_preserves_tensor_exactly() {
        let mut rng = Rng::new(1);
        let t = Tensor::randn(&[3, 4, 5], &mut rng);
        let bytes = to_bytes(&t);
        let back = from_bytes(&bytes).unwrap();
        assert_eq!(t, back);
    }

    #[test]
    fn round_trip_scalar_and_empty() {
        let s = Tensor::scalar(7.0);
        assert_eq!(from_bytes(&to_bytes(&s)).unwrap(), s);
        let e = Tensor::zeros(&[0, 3]);
        assert_eq!(from_bytes(&to_bytes(&e)).unwrap(), e);
    }

    #[test]
    fn rejects_bad_magic() {
        let mut bytes = to_bytes(&Tensor::zeros(&[2])).to_vec();
        bytes[0] ^= 0xFF;
        assert!(matches!(from_bytes(&bytes), Err(TensorError::Corrupt(_))));
    }

    #[test]
    fn rejects_wrong_version() {
        let mut bytes = to_bytes(&Tensor::zeros(&[2])).to_vec();
        bytes[4] = FORMAT_VERSION + 1;
        let err = from_bytes(&bytes).unwrap_err();
        assert!(err.to_string().contains("version"), "{err}");
    }

    #[test]
    fn rejects_truncated_payload() {
        let bytes = to_bytes(&Tensor::zeros(&[4]));
        assert!(from_bytes(&bytes[..bytes.len() - 2]).is_err());
        assert!(from_bytes(&bytes[..6]).is_err());
    }

    #[test]
    fn rejects_any_single_bit_flip_in_payload() {
        let mut rng = Rng::new(3);
        let t = Tensor::randn(&[2, 3], &mut rng);
        let clean = to_bytes(&t).to_vec();
        for byte in HEADER_LEN..clean.len() {
            let mut bytes = clean.clone();
            bytes[byte] ^= 0x10;
            assert!(
                from_bytes(&bytes).is_err(),
                "flip at payload byte {byte} went undetected"
            );
        }
    }

    #[test]
    fn rejects_length_field_tampering() {
        let mut bytes = to_bytes(&Tensor::zeros(&[4])).to_vec();
        bytes[5] ^= 0x01;
        assert!(matches!(from_bytes(&bytes), Err(TensorError::Corrupt(_))));
    }

    #[test]
    fn rejects_implausible_rank() {
        // A payload declaring rank 100, correctly checksummed: the rank
        // sanity check must still fire.
        let mut payload = Vec::new();
        payload.extend_from_slice(&100u32.to_le_bytes());
        let mut buf = Vec::new();
        buf.extend_from_slice(&MAGIC.to_le_bytes());
        buf.push(FORMAT_VERSION);
        buf.extend_from_slice(&(payload.len() as u64).to_le_bytes());
        buf.extend_from_slice(&crc32(&payload).to_le_bytes());
        buf.extend_from_slice(&payload);
        let err = from_bytes(&buf).unwrap_err();
        assert!(err.to_string().contains("rank"), "{err}");
    }
}
