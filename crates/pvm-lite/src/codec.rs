//! Pack/unpack message codec.
//!
//! PVM programs marshal every message into a typed buffer (`pvm_pkint`,
//! `pvm_pkdouble`, …) before sending; this module is the same contract:
//! a [`PackBuffer`] with explicit little-endian writers and an
//! [`UnpackBuffer`] with checked readers. Typed messages implement [`Wire`]
//! and travel between tasks as plain byte vectors, exactly as they would
//! over a real wire.

use std::fmt;

/// Encoding buffer.
#[derive(Debug, Default, Clone)]
pub struct PackBuffer {
    bytes: Vec<u8>,
}

/// Decoding cursor over a received byte vector.
#[derive(Debug)]
pub struct UnpackBuffer<'a> {
    bytes: &'a [u8],
    pos: usize,
}

/// Decoding failures.
#[allow(missing_docs)] // field names are self-describing
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    /// Fewer bytes than the read required.
    UnexpectedEof { wanted: usize, available: usize },
    /// A length prefix exceeded a sanity cap.
    LengthOverflow { length: u64 },
    /// String payload was not UTF-8.
    BadUtf8,
    /// The message ended before its bytes did.
    TrailingBytes { count: usize },
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodecError::UnexpectedEof { wanted, available } => {
                write!(f, "needed {wanted} bytes, {available} available")
            }
            CodecError::LengthOverflow { length } => {
                write!(f, "length prefix {length} exceeds sanity cap")
            }
            CodecError::BadUtf8 => write!(f, "string payload is not valid UTF-8"),
            CodecError::TrailingBytes { count } => {
                write!(f, "{count} trailing bytes after the message")
            }
        }
    }
}

impl std::error::Error for CodecError {}

/// Sanity cap on decoded collection lengths (a corrupt length prefix must
/// not trigger a huge allocation).
const MAX_LEN: u64 = 1 << 32;

impl PackBuffer {
    /// Fresh empty buffer.
    pub fn new() -> Self {
        PackBuffer::default()
    }

    /// Consume into the raw bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.bytes
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.bytes.len()
    }

    /// True when nothing was written.
    pub fn is_empty(&self) -> bool {
        self.bytes.is_empty()
    }

    /// Write a `u8`.
    pub fn put_u8(&mut self, v: u8) {
        self.bytes.push(v);
    }

    /// Write a `u64`, little-endian.
    pub fn put_u64(&mut self, v: u64) {
        self.bytes.extend_from_slice(&v.to_le_bytes());
    }

    /// Write an `i64`, little-endian.
    pub fn put_i64(&mut self, v: i64) {
        self.bytes.extend_from_slice(&v.to_le_bytes());
    }

    /// Write an `f64` (IEEE-754 bits, little-endian).
    pub fn put_f64(&mut self, v: f64) {
        self.bytes.extend_from_slice(&v.to_bits().to_le_bytes());
    }

    /// Write a `usize` (as `u64`).
    pub fn put_usize(&mut self, v: usize) {
        self.put_u64(v as u64);
    }

    /// Write a length-prefixed byte slice.
    pub fn put_bytes(&mut self, v: &[u8]) {
        self.put_u64(v.len() as u64);
        self.bytes.extend_from_slice(v);
    }

    /// Write a length-prefixed UTF-8 string.
    pub fn put_str(&mut self, v: &str) {
        self.put_bytes(v.as_bytes());
    }

    /// Write a length-prefixed `i64` slice.
    pub fn put_i64s(&mut self, v: &[i64]) {
        self.put_u64(v.len() as u64);
        for &x in v {
            self.put_i64(x);
        }
    }

    /// Write a length-prefixed `u64` slice.
    pub fn put_u64s(&mut self, v: &[u64]) {
        self.put_u64(v.len() as u64);
        for &x in v {
            self.put_u64(x);
        }
    }
}

impl<'a> UnpackBuffer<'a> {
    /// Cursor over received bytes.
    pub fn new(bytes: &'a [u8]) -> Self {
        UnpackBuffer { bytes, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], CodecError> {
        if self.remaining() < n {
            return Err(CodecError::UnexpectedEof {
                wanted: n,
                available: self.remaining(),
            });
        }
        let s = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Read a `u8`.
    pub fn get_u8(&mut self) -> Result<u8, CodecError> {
        Ok(self.take(1)?[0])
    }

    /// Read a `u64`.
    pub fn get_u64(&mut self) -> Result<u64, CodecError> {
        Ok(u64::from_le_bytes(
            self.take(8)?.try_into().expect("8 bytes"),
        ))
    }

    /// Read an `i64`.
    pub fn get_i64(&mut self) -> Result<i64, CodecError> {
        Ok(i64::from_le_bytes(
            self.take(8)?.try_into().expect("8 bytes"),
        ))
    }

    /// Read an `f64`.
    pub fn get_f64(&mut self) -> Result<f64, CodecError> {
        Ok(f64::from_bits(self.get_u64()?))
    }

    /// Read a `usize` (stored as `u64`).
    pub fn get_usize(&mut self) -> Result<usize, CodecError> {
        let v = self.get_u64()?;
        if v > MAX_LEN {
            return Err(CodecError::LengthOverflow { length: v });
        }
        Ok(v as usize)
    }

    /// Read a length-prefixed byte vector.
    pub fn get_bytes(&mut self) -> Result<Vec<u8>, CodecError> {
        let len = self.checked_len()?;
        Ok(self.take(len)?.to_vec())
    }

    /// Read a length-prefixed UTF-8 string.
    pub fn get_str(&mut self) -> Result<String, CodecError> {
        let raw = self.get_bytes()?;
        String::from_utf8(raw).map_err(|_| CodecError::BadUtf8)
    }

    /// Read a length-prefixed `i64` vector.
    pub fn get_i64s(&mut self) -> Result<Vec<i64>, CodecError> {
        let len = self.checked_len()?;
        (0..len).map(|_| self.get_i64()).collect()
    }

    /// Read a length-prefixed `u64` vector.
    pub fn get_u64s(&mut self) -> Result<Vec<u64>, CodecError> {
        let len = self.checked_len()?;
        (0..len).map(|_| self.get_u64()).collect()
    }

    fn checked_len(&mut self) -> Result<usize, CodecError> {
        let len = self.get_u64()?;
        if len > MAX_LEN || len as usize > self.remaining() {
            return Err(CodecError::LengthOverflow { length: len });
        }
        Ok(len as usize)
    }
}

/// A message type with a byte-level wire format.
pub trait Wire: Sized {
    /// Serialize into the buffer.
    fn pack(&self, buf: &mut PackBuffer);
    /// Deserialize from the cursor.
    fn unpack(buf: &mut UnpackBuffer<'_>) -> Result<Self, CodecError>;

    /// Convenience: serialize to owned bytes.
    fn to_bytes(&self) -> Vec<u8> {
        let mut buf = PackBuffer::new();
        self.pack(&mut buf);
        buf.into_bytes()
    }

    /// Convenience: deserialize from bytes, requiring full consumption.
    fn from_bytes(bytes: &[u8]) -> Result<Self, CodecError> {
        let mut buf = UnpackBuffer::new(bytes);
        let v = Self::unpack(&mut buf)?;
        match buf.remaining() {
            0 => Ok(v),
            count => Err(CodecError::TrailingBytes { count }),
        }
    }
}

/// FNV-1a 64-bit hash of a byte string. Used as the integrity checksum of
/// on-disk snapshot frames and as an instance fingerprint: cheap, stable
/// across platforms, and dependency-free — not cryptographic.
pub fn fnv1a_64(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

#[cfg(test)]
mod tests {
    use super::*;
    use mkp::prop_check;
    use mkp::testkit::gen;

    #[test]
    fn fnv1a_matches_reference_vectors() {
        // Published FNV-1a test vectors (64-bit).
        assert_eq!(fnv1a_64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a_64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a_64(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn scalar_roundtrips() {
        let mut p = PackBuffer::new();
        p.put_u8(7);
        p.put_u64(u64::MAX);
        p.put_i64(-42);
        p.put_f64(3.5);
        p.put_usize(123);
        let bytes = p.into_bytes();
        let mut u = UnpackBuffer::new(&bytes);
        assert_eq!(u.get_u8().unwrap(), 7);
        assert_eq!(u.get_u64().unwrap(), u64::MAX);
        assert_eq!(u.get_i64().unwrap(), -42);
        assert_eq!(u.get_f64().unwrap(), 3.5);
        assert_eq!(u.get_usize().unwrap(), 123);
        assert_eq!(u.remaining(), 0);
    }

    #[test]
    fn collections_roundtrip() {
        let mut p = PackBuffer::new();
        p.put_str("héllo");
        p.put_i64s(&[1, -2, 3]);
        p.put_u64s(&[]);
        p.put_bytes(&[9, 8]);
        let bytes = p.into_bytes();
        let mut u = UnpackBuffer::new(&bytes);
        assert_eq!(u.get_str().unwrap(), "héllo");
        assert_eq!(u.get_i64s().unwrap(), vec![1, -2, 3]);
        assert_eq!(u.get_u64s().unwrap(), Vec::<u64>::new());
        assert_eq!(u.get_bytes().unwrap(), vec![9, 8]);
    }

    #[test]
    fn eof_detected() {
        let mut u = UnpackBuffer::new(&[1, 2, 3]);
        assert!(matches!(u.get_u64(), Err(CodecError::UnexpectedEof { .. })));
    }

    #[test]
    fn corrupt_length_rejected_without_allocation() {
        let mut p = PackBuffer::new();
        p.put_u64(u64::MAX); // absurd length prefix
        let bytes = p.into_bytes();
        let mut u = UnpackBuffer::new(&bytes);
        assert!(matches!(
            u.get_bytes(),
            Err(CodecError::LengthOverflow { .. })
        ));
    }

    #[test]
    fn length_beyond_remaining_rejected() {
        let mut p = PackBuffer::new();
        p.put_u64(100); // claims 100 bytes but provides 2
        p.put_u8(1);
        p.put_u8(2);
        let bytes = p.into_bytes();
        let mut u = UnpackBuffer::new(&bytes);
        assert!(matches!(
            u.get_bytes(),
            Err(CodecError::LengthOverflow { .. })
        ));
    }

    #[test]
    fn bad_utf8_detected() {
        let mut p = PackBuffer::new();
        p.put_bytes(&[0xFF, 0xFE]);
        let bytes = p.into_bytes();
        let mut u = UnpackBuffer::new(&bytes);
        assert_eq!(u.get_str(), Err(CodecError::BadUtf8));
    }

    #[test]
    fn nan_and_infinities_roundtrip() {
        let mut p = PackBuffer::new();
        p.put_f64(f64::NAN);
        p.put_f64(f64::INFINITY);
        p.put_f64(f64::NEG_INFINITY);
        let bytes = p.into_bytes();
        let mut u = UnpackBuffer::new(&bytes);
        assert!(u.get_f64().unwrap().is_nan());
        assert_eq!(u.get_f64().unwrap(), f64::INFINITY);
        assert_eq!(u.get_f64().unwrap(), f64::NEG_INFINITY);
    }

    #[derive(Debug, Clone, PartialEq)]
    struct Demo {
        id: u64,
        values: Vec<i64>,
        label: String,
    }

    impl Wire for Demo {
        fn pack(&self, buf: &mut PackBuffer) {
            buf.put_u64(self.id);
            buf.put_i64s(&self.values);
            buf.put_str(&self.label);
        }
        fn unpack(buf: &mut UnpackBuffer<'_>) -> Result<Self, CodecError> {
            Ok(Demo {
                id: buf.get_u64()?,
                values: buf.get_i64s()?,
                label: buf.get_str()?,
            })
        }
    }

    #[test]
    fn wire_trait_roundtrip() {
        let msg = Demo {
            id: 9,
            values: vec![5, -5],
            label: "x".into(),
        };
        let bytes = msg.to_bytes();
        assert_eq!(Demo::from_bytes(&bytes).unwrap(), msg);
    }

    #[test]
    fn trailing_bytes_are_an_error_in_every_build() {
        let msg = Demo {
            id: 9,
            values: vec![5, -5],
            label: "x".into(),
        };
        let mut bytes = msg.to_bytes();
        bytes.extend_from_slice(&[0, 7]);
        assert_eq!(
            Demo::from_bytes(&bytes),
            Err(CodecError::TrailingBytes { count: 2 })
        );
    }

    #[test]
    fn prop_wire_roundtrip() {
        prop_check!(
            |rng| {
                (
                    rng.next_u64(),
                    gen::vec_of(rng, 0, 50, |r| r.next_u64() as i64),
                    gen::string_any(rng, 40),
                )
            },
            |input| {
                let (id, values, label) = input;
                let msg = Demo {
                    id: *id,
                    values: values.clone(),
                    label: label.clone(),
                };
                assert_eq!(Demo::from_bytes(&msg.to_bytes()).unwrap(), msg);
            }
        );
    }

    #[test]
    fn prop_truncation_never_panics() {
        prop_check!(
            |rng| {
                (
                    gen::vec_of(rng, 0, 20, |r| r.next_u64() as i64),
                    rng.next_u64(),
                )
            },
            |input| {
                let (values, cut_raw) = input;
                let msg = Demo {
                    id: 1,
                    values: values.clone(),
                    label: "t".into(),
                };
                let bytes = msg.to_bytes();
                let cut = (*cut_raw as usize) % bytes.len().max(1);
                // Decoding a truncated message must error, not panic.
                let _ = Demo::from_bytes(&bytes[..cut]);
            }
        );
    }
}
