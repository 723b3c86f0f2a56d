//! The one wire layer under every on-disk format (DESIGN "On-disk
//! formats"): tensor files, checkpoints, the store manifest, chunk blocks
//! and the F16/Int8 sample records all decode through [`Reader`], a
//! bounded little-endian cursor, and encode through the matching `put_*`
//! functions; the two CRC-framed containers (tensor, checkpoint) share
//! [`frame`] / [`unframe`].
//!
//! Two allocation rules hold for every decoder built on it, even for input
//! that carries a valid checksum:
//!
//! 1. a length or count read from input is bounded by the bytes actually
//!    remaining ([`Reader::take`], [`Reader::count`]) *before* anything is
//!    allocated for it;
//! 2. a shape's element count is computed in one place, [`Reader::dims`],
//!    with `checked_mul` — an overflowing product is an error, never a
//!    wrapped size.
//!
//! Every failure is [`TensorError::Corrupt`] naming the format and field.

use crate::error::{Result, TensorError};
use std::fmt::Display;
use std::ops::RangeInclusive;

/// Largest tensor rank any format stores.
pub const MAX_RANK: usize = 8;

/// Size of the CRC frame header: magic + version + payload_len + crc32.
pub const FRAME_HEADER_LEN: usize = 4 + 1 + 8 + 4;

/// IEEE CRC-32 (the zlib/PNG polynomial), the integrity check of every
/// format here.
pub fn crc32(data: &[u8]) -> u32 {
    const POLY: u32 = 0xEDB8_8320;
    let mut crc = !0u32;
    for &byte in data {
        crc ^= byte as u32;
        for _ in 0..8 {
            let mask = (crc & 1).wrapping_neg();
            crc = (crc >> 1) ^ (POLY & mask);
        }
    }
    !crc
}

/// Appends one byte.
pub fn put_u8(out: &mut Vec<u8>, v: u8) {
    out.push(v);
}

/// Appends a little-endian `u16`.
pub fn put_u16(out: &mut Vec<u8>, v: u16) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Appends a little-endian `u32`.
pub fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Appends a little-endian `u64`.
pub fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Appends a little-endian `f32`.
pub fn put_f32(out: &mut Vec<u8>, v: f32) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Appends a `u32` byte length and the UTF-8 bytes ([`Reader::string`]).
pub fn put_string(out: &mut Vec<u8>, s: &str) {
    put_u32(out, s.len() as u32);
    out.extend_from_slice(s.as_bytes());
}

/// Appends a `u32` rank and each dim as `u64` ([`Reader::dims`]).
pub fn put_dims(out: &mut Vec<u8>, dims: &[usize]) {
    put_u32(out, dims.len() as u32);
    for &d in dims {
        put_u64(out, d as u64);
    }
}

/// Builds `magic · version · payload_len · crc32 · payload` in one
/// buffer: `payload` appends the body, then length and checksum are
/// patched into the header. `capacity` is a payload-size hint.
pub fn frame(
    magic: u32,
    version: u8,
    capacity: usize,
    payload: impl FnOnce(&mut Vec<u8>),
) -> Vec<u8> {
    let mut out = Vec::with_capacity(FRAME_HEADER_LEN + capacity);
    put_u32(&mut out, magic);
    put_u8(&mut out, version);
    out.extend_from_slice(&[0; 12]);
    payload(&mut out);
    let (header, body) = out.split_at_mut(FRAME_HEADER_LEN);
    header[5..13].copy_from_slice(&(body.len() as u64).to_le_bytes());
    header[13..].copy_from_slice(&crc32(body).to_le_bytes());
    out
}

/// Validates a [`frame`]d buffer — magic, version within `versions`,
/// declared length equal to the bytes present, checksum — before any
/// payload byte is interpreted. Returns the version and a reader over the
/// payload.
pub fn unframe<'a>(
    format: &'static str,
    buf: &'a [u8],
    magic: u32,
    versions: RangeInclusive<u8>,
) -> Result<(u8, Reader<'a>)> {
    let mut r = Reader::new(format, buf);
    let version = r.header(magic, versions)?;
    let declared = r.u64("payload_len")?;
    let stored = r.u32("crc32")?;
    if r.buf.len() as u64 != declared {
        return Err(r.corrupt(format_args!(
            "payload is {} bytes, header declares {declared}",
            r.buf.len()
        )));
    }
    let actual = crc32(r.buf);
    if actual != stored {
        return Err(r.corrupt(format_args!(
            "checksum mismatch: stored {stored:#010x}, computed {actual:#010x}"
        )));
    }
    Ok((version, r))
}

/// A bounded little-endian cursor over untrusted bytes.
pub struct Reader<'a> {
    format: &'static str,
    buf: &'a [u8],
}

impl<'a> Reader<'a> {
    /// A reader over `buf`; `format` prefixes every error message.
    pub fn new(format: &'static str, buf: &'a [u8]) -> Self {
        Reader { format, buf }
    }

    /// A [`TensorError::Corrupt`] carrying this reader's format name.
    pub fn corrupt(&self, msg: impl Display) -> TensorError {
        TensorError::Corrupt(format!("{}: {msg}", self.format))
    }

    /// The next `n` bytes, or an error when fewer remain.
    pub fn take(&mut self, n: usize, what: &str) -> Result<&'a [u8]> {
        let (head, tail) = self
            .buf
            .split_at_checked(n)
            .ok_or_else(|| self.corrupt(format_args!("truncated {what}")))?;
        self.buf = tail;
        Ok(head)
    }

    fn array<const N: usize>(&mut self, what: &str) -> Result<[u8; N]> {
        let (head, tail) = self
            .buf
            .split_first_chunk::<N>()
            .ok_or_else(|| self.corrupt(format_args!("truncated {what}")))?;
        self.buf = tail;
        Ok(*head)
    }

    /// One byte.
    pub fn u8(&mut self, what: &str) -> Result<u8> {
        Ok(self.array::<1>(what)?[0])
    }

    /// A little-endian `u16`.
    pub fn u16(&mut self, what: &str) -> Result<u16> {
        Ok(u16::from_le_bytes(self.array(what)?))
    }

    /// A little-endian `u32`.
    pub fn u32(&mut self, what: &str) -> Result<u32> {
        Ok(u32::from_le_bytes(self.array(what)?))
    }

    /// A little-endian `u64`.
    pub fn u64(&mut self, what: &str) -> Result<u64> {
        Ok(u64::from_le_bytes(self.array(what)?))
    }

    /// A little-endian `f32`.
    pub fn f32(&mut self, what: &str) -> Result<f32> {
        Ok(f32::from_le_bytes(self.array(what)?))
    }

    /// A `u32` byte length, then that many UTF-8 bytes.
    pub fn string(&mut self, what: &str) -> Result<String> {
        let n = self.u32(what)? as usize;
        let bytes = self.take(n, what)?;
        String::from_utf8(bytes.to_vec())
            .map_err(|_| self.corrupt(format_args!("invalid utf-8 in {what}")))
    }

    /// Checks a `magic` / version-byte header; returns the version.
    pub fn header(&mut self, magic: u32, versions: RangeInclusive<u8>) -> Result<u8> {
        let found = self.u32("magic")?;
        if found != magic {
            return Err(self.corrupt(format_args!("bad magic {found:#010x}")));
        }
        let version = self.u8("version")?;
        if !versions.contains(&version) {
            return Err(self.corrupt(format_args!(
                "unsupported version {version} (expected {}..={})",
                versions.start(),
                versions.end()
            )));
        }
        Ok(version)
    }

    /// Allocation rule 1: an element count `n` read from input is accepted
    /// only if `n` elements of at least `elem` bytes each can still follow.
    /// `elem == 0` bounds nothing and is rejected.
    pub fn count(&self, n: u64, elem: usize, what: &str) -> Result<usize> {
        match self.buf.len().checked_div(elem) {
            Some(max) if n <= max as u64 => Ok(n as usize),
            _ => Err(self.corrupt(format_args!(
                "{what} count {n} exceeds the {} bytes remaining",
                self.buf.len()
            ))),
        }
    }

    /// `n` little-endian `f32`s, `n` bounded by [`Reader::count`].
    pub fn f32s(&mut self, n: u64, what: &str) -> Result<Vec<f32>> {
        let n = self.count(n, 4, what)?;
        let bytes = self.take(n * 4, what)?;
        Ok(bytes
            .chunks_exact(4)
            .map(|b| f32::from_le_bytes([b[0], b[1], b[2], b[3]]))
            .collect())
    }

    /// Allocation rule 2: a `u32` rank (≤ [`MAX_RANK`]) and `u64` dims,
    /// returned with their element count; a product that overflows `usize`
    /// is an error.
    pub fn dims(&mut self) -> Result<(Vec<usize>, usize)> {
        let rank = self.u32("rank")? as usize;
        if rank > MAX_RANK {
            return Err(self.corrupt(format_args!("implausible rank {rank}")));
        }
        let mut dims = Vec::with_capacity(rank);
        let mut numel = 1usize;
        for _ in 0..rank {
            let d = self.u64("dims")?;
            numel = usize::try_from(d)
                .ok()
                .and_then(|d| numel.checked_mul(d))
                .ok_or_else(|| self.corrupt(format_args!("dims overflow at {d}")))?;
            dims.push(d as usize);
        }
        Ok((dims, numel))
    }

    /// Errors unless every byte was consumed.
    pub fn finish(self) -> Result<()> {
        if self.buf.is_empty() {
            return Ok(());
        }
        Err(self.corrupt(format_args!("{} trailing bytes", self.buf.len())))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn is_corrupt<T>(r: Result<T>) -> bool {
        matches!(r, Err(TensorError::Corrupt(_)))
    }

    fn dims_bytes(dims: &[u64]) -> Vec<u8> {
        let mut out = Vec::new();
        put_u32(&mut out, dims.len() as u32);
        for &d in dims {
            put_u64(&mut out, d);
        }
        out
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // Standard IEEE CRC-32 check values.
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
    }

    #[test]
    fn scalars_and_strings_round_trip() {
        let mut out = Vec::new();
        put_u8(&mut out, 0xAB);
        put_u16(&mut out, 0xBEEF);
        put_u32(&mut out, 0xDEAD_BEEF);
        put_u64(&mut out, u64::MAX - 1);
        put_f32(&mut out, -0.0);
        put_string(&mut out, "frozen ❄");
        let mut r = Reader::new("test", &out);
        assert_eq!(r.u8("a").unwrap(), 0xAB);
        assert_eq!(r.u16("b").unwrap(), 0xBEEF);
        assert_eq!(r.u32("c").unwrap(), 0xDEAD_BEEF);
        assert_eq!(r.u64("d").unwrap(), u64::MAX - 1);
        assert_eq!(r.f32("e").unwrap().to_bits(), (-0.0f32).to_bits());
        assert_eq!(r.string("f").unwrap(), "frozen ❄");
        r.finish().unwrap();
    }

    #[test]
    fn string_rejects_bad_utf8_and_overlong_length() {
        let mut out = Vec::new();
        put_u32(&mut out, 2);
        out.extend_from_slice(&[0xFF, 0xFE]);
        assert!(is_corrupt(Reader::new("test", &out).string("s")));
        let mut out = Vec::new();
        put_u32(&mut out, u32::MAX);
        out.push(b'x');
        assert!(is_corrupt(Reader::new("test", &out).string("s")));
    }

    #[test]
    fn take_stops_exactly_at_the_end() {
        let buf = [1u8, 2, 3];
        let mut r = Reader::new("test", &buf);
        assert_eq!(r.take(3, "all").unwrap(), &buf);
        assert_eq!(r.take(0, "none").unwrap(), &[] as &[u8]);
        assert!(is_corrupt(r.take(1, "one past")));
        let mut r = Reader::new("test", &buf);
        assert!(is_corrupt(r.take(4, "one past")));
        assert!(is_corrupt(r.take(usize::MAX, "huge")));
        // A failed read consumes nothing, and errors name format and field.
        assert_eq!(r.take(3, "all").unwrap(), &buf);
        let msg = r.u32("the_field").unwrap_err().to_string();
        assert!(msg.contains("test") && msg.contains("the_field"), "{msg}");
    }

    #[test]
    fn count_is_bounded_by_remaining_over_elem() {
        let buf = [0u8; 10];
        let r = Reader::new("test", &buf);
        assert_eq!(r.count(3, 3, "n").unwrap(), 3); // 10 / 3
        assert!(is_corrupt(r.count(4, 3, "n")));
        assert_eq!(r.count(10, 1, "n").unwrap(), 10);
        assert!(is_corrupt(r.count(11, 1, "n")));
        assert_eq!(r.count(0, 11, "n").unwrap(), 0);
        assert!(is_corrupt(r.count(1, 11, "n")));
        assert!(is_corrupt(r.count(u64::MAX, 1, "n")));
        // Zero-byte elements would leave the count unbounded: rejected,
        // even for a count of zero.
        assert!(is_corrupt(r.count(0, 0, "n")));
        assert!(is_corrupt(r.count(1, 0, "n")));
    }

    #[test]
    fn f32s_never_allocates_past_the_input() {
        let mut out = Vec::new();
        for v in [1.0f32, -2.5, 3.25] {
            put_f32(&mut out, v);
        }
        assert_eq!(
            Reader::new("test", &out).f32s(3, "v").unwrap(),
            [1.0, -2.5, 3.25]
        );
        assert!(is_corrupt(Reader::new("test", &out).f32s(4, "v")));
        assert!(is_corrupt(Reader::new("test", &out).f32s(1 << 62, "v")));
        assert!(is_corrupt(Reader::new("test", &out).f32s(u64::MAX, "v")));
    }

    #[test]
    fn dims_bounds_rank_and_checks_the_product() {
        let empty = dims_bytes(&[]);
        assert_eq!(Reader::new("test", &empty).dims().unwrap(), (vec![], 1));
        let eight = dims_bytes(&[2; 8]);
        assert_eq!(
            Reader::new("test", &eight).dims().unwrap(),
            (vec![2; 8], 256)
        );
        assert!(is_corrupt(Reader::new("test", &dims_bytes(&[1; 9])).dims()));
        // Rank is checked before the dims are looked for.
        let mut huge_rank = Vec::new();
        put_u32(&mut huge_rank, u32::MAX);
        let msg = Reader::new("test", &huge_rank)
            .dims()
            .unwrap_err()
            .to_string();
        assert!(msg.contains("rank"), "{msg}");
        assert!(is_corrupt(
            Reader::new("test", &dims_bytes(&[3, 4])[..19]).dims()
        ));
        let zero = dims_bytes(&[0, 3]);
        assert_eq!(Reader::new("test", &zero).dims().unwrap(), (vec![0, 3], 0));

        // A product that overflows usize.
        for dims in [[1u64 << 32, 1 << 32], [1 << 40, 1 << 40], [u64::MAX, 2]] {
            assert!(
                is_corrupt(Reader::new("test", &dims_bytes(&dims)).dims()),
                "{dims:?}"
            );
        }
        // A product that fits but overflows once multiplied by the element
        // size: dims accepts it, the count rule rejects it without ever
        // forming `numel * elem`.
        let fits = dims_bytes(&[1 << 31, 1 << 31]);
        let mut r = Reader::new("test", &fits);
        let (_, numel) = r.dims().unwrap();
        assert_eq!(numel, 1 << 62);
        assert!(is_corrupt(r.count(numel as u64, 4, "data")));
        assert!(is_corrupt(r.f32s(numel as u64, "data")));
    }

    #[test]
    fn finish_rejects_trailing_bytes() {
        let buf = [7u8, 8];
        let mut r = Reader::new("test", &buf);
        r.take(2, "all").unwrap();
        r.finish().unwrap();
        let mut r = Reader::new("test", &buf);
        r.u8("first").unwrap();
        assert!(is_corrupt(r.finish()));
        Reader::new("test", &[]).finish().unwrap();
    }

    const MAGIC: u32 = 0x5445_5354;

    fn framed() -> Vec<u8> {
        frame(MAGIC, 2, 0, |out| out.extend_from_slice(b"payload"))
    }

    #[test]
    fn frame_round_trips_and_lays_out_the_header() {
        let buf = framed();
        assert_eq!(buf.len(), FRAME_HEADER_LEN + 7);
        assert_eq!(buf[..4], MAGIC.to_le_bytes());
        assert_eq!(buf[4], 2);
        assert_eq!(buf[5..13], 7u64.to_le_bytes());
        assert_eq!(buf[13..17], crc32(b"payload").to_le_bytes());
        let (version, mut r) = unframe("test", &buf, MAGIC, 1..=3).unwrap();
        assert_eq!(version, 2);
        assert_eq!(r.take(7, "payload").unwrap(), b"payload");
        r.finish().unwrap();
        // An empty payload is a valid frame.
        let empty = frame(MAGIC, 1, 0, |_| {});
        unframe("test", &empty, MAGIC, 1..=1)
            .unwrap()
            .1
            .finish()
            .unwrap();
    }

    #[test]
    fn unframe_rejects_each_header_violation() {
        let buf = framed();
        let err = |buf: &[u8], versions| match unframe("test", buf, MAGIC, versions) {
            Err(TensorError::Corrupt(msg)) => msg,
            other => panic!("expected Corrupt, got {:?}", other.map(|(v, _)| v)),
        };
        let mut bad = buf.clone();
        bad[0] ^= 0xFF;
        assert!(err(&bad, 1..=3).contains("magic"));
        assert!(err(&buf, 3..=3).contains("version"));
        assert!(err(&buf, 0..=1).contains("version"));
        // Declared length ≠ bytes present: truncated, extended, tampered.
        assert!(err(&buf[..buf.len() - 1], 1..=3).contains("declares"));
        let mut long = buf.clone();
        long.push(0);
        assert!(err(&long, 1..=3).contains("declares"));
        let mut bad = buf.clone();
        bad[12] = 0x80; // payload_len's top byte
        assert!(err(&bad, 1..=3).contains("declares"));
        let mut bad = buf.clone();
        bad[13] ^= 0x01;
        assert!(err(&bad, 1..=3).contains("checksum"));
        let mut bad = buf.clone();
        *bad.last_mut().unwrap() ^= 0x01;
        assert!(err(&bad, 1..=3).contains("checksum"));
        for keep in 0..FRAME_HEADER_LEN {
            assert!(err(&buf[..keep], 1..=3).contains("truncated"), "{keep}");
        }
    }
}
