//! The one byte codec behind both binary formats that carry a mask out
//! of the process: the fleet wire payloads (`adapt_fleet::wire`) and
//! the snapshot / write-ahead-journal records ([`crate::persist`]).
//!
//! It owns the primitive encodings — little-endian integers, `f64` as
//! its exact IEEE-754 bit pattern (NaN and infinities included),
//! `bool` as one byte, strings as a `u32` byte length plus UTF-8 — one
//! encoding for each type the two formats share ([`DeviceId`],
//! [`DdProtocol`], [`DecoyKind`], [`DdMask`], [`MaskKey`]), and the
//! table-based IEEE [`crc32`] that checksums store records and wire
//! frames alike.
//!
//! [`Reader`] is total over arbitrary bytes: every read is
//! bounds-checked and every malformed field is a typed [`CodecError`],
//! never a panic. Unknown enum tags are rejected rather than guessed.
//! A length prefix is only trusted after the bytes it claims are known
//! to be present, so no read allocates more than the input holds.

use crate::cache::MaskKey;
use crate::registry::DeviceId;
use adapt::{DdMask, DdProtocol, DecoyKind};
use std::fmt;

/// Typed failure of one field read.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    /// The buffer ended before the field did.
    UnexpectedEof {
        /// Bytes the field needed.
        needed: usize,
        /// Bytes left in the buffer.
        have: usize,
    },
    /// An enum tag no decoder for this format knows.
    UnknownTag {
        /// Which enum the tag belongs to.
        what: &'static str,
        /// The offending tag byte.
        tag: u8,
    },
    /// A device name with no [`DeviceId`].
    BadDevice(String),
    /// A string field was not valid UTF-8.
    BadUtf8,
    /// A recursive field nested deeper than its decoder follows.
    TooDeep {
        /// Which type nests.
        what: &'static str,
        /// The deepest nesting accepted.
        limit: u32,
    },
    /// A mask wider than the 64 qubits a [`DdMask`] holds.
    MaskTooWide {
        /// The width read.
        width: u64,
    },
    /// The buffer had bytes left after the last field.
    TrailingBytes {
        /// How many bytes were left over.
        extra: usize,
    },
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodecError::UnexpectedEof { needed, have } => write!(
                f,
                "unexpected end of payload: needed {needed} bytes, {have} left"
            ),
            CodecError::UnknownTag { what, tag } => write!(f, "unknown {what} tag {tag}"),
            CodecError::BadDevice(name) => write!(f, "unknown device {name:?}"),
            CodecError::BadUtf8 => write!(f, "string payload is not valid UTF-8"),
            CodecError::TooDeep { what, limit } => {
                write!(f, "{what} nested deeper than {limit} levels")
            }
            CodecError::MaskTooWide { width } => {
                write!(f, "mask width {width} exceeds the 64-qubit limit")
            }
            CodecError::TrailingBytes { extra } => {
                write!(f, "{extra} trailing bytes after the last field")
            }
        }
    }
}

impl std::error::Error for CodecError {}

/// Append-only little-endian byte builder.
#[derive(Debug, Default)]
pub struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    /// An empty writer with room for `n` bytes.
    pub fn with_capacity(n: usize) -> Self {
        Writer {
            buf: Vec::with_capacity(n),
        }
    }

    /// Appends one byte.
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a little-endian `u32`.
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian `u64`.
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends an `f64` as its exact bit pattern.
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// Appends a `bool` as one byte (0 or 1).
    pub fn bool(&mut self, v: bool) {
        self.u8(v as u8);
    }

    /// Appends a `u32` byte length, then the UTF-8 bytes.
    pub fn str(&mut self, s: &str) {
        self.u32(s.len() as u32);
        self.bytes(s.as_bytes());
    }

    /// Appends raw bytes with no length prefix.
    pub fn bytes(&mut self, b: &[u8]) {
        self.buf.extend_from_slice(b);
    }

    /// The bytes written so far.
    pub fn as_bytes(&self) -> &[u8] {
        &self.buf
    }

    /// The finished buffer.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }
}

/// Bounds-checked cursor over received bytes.
#[derive(Debug)]
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// A cursor at the start of `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    /// Consumes the next `n` bytes.
    ///
    /// # Errors
    ///
    /// [`CodecError::UnexpectedEof`] when fewer than `n` remain.
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], CodecError> {
        let rest = &self.buf[self.pos..];
        if rest.len() < n {
            return Err(CodecError::UnexpectedEof {
                needed: n,
                have: rest.len(),
            });
        }
        self.pos += n;
        Ok(&rest[..n])
    }

    fn array<const N: usize>(&mut self) -> Result<[u8; N], CodecError> {
        let mut out = [0u8; N];
        out.copy_from_slice(self.take(N)?);
        Ok(out)
    }

    /// Reads one byte.
    ///
    /// # Errors
    ///
    /// [`CodecError::UnexpectedEof`] at the end of the buffer.
    pub fn u8(&mut self) -> Result<u8, CodecError> {
        Ok(self.array::<1>()?[0])
    }

    /// Reads a little-endian `u32`.
    ///
    /// # Errors
    ///
    /// [`CodecError::UnexpectedEof`] when fewer than 4 bytes remain.
    pub fn u32(&mut self) -> Result<u32, CodecError> {
        self.array().map(u32::from_le_bytes)
    }

    /// Reads a little-endian `u64`.
    ///
    /// # Errors
    ///
    /// [`CodecError::UnexpectedEof`] when fewer than 8 bytes remain.
    pub fn u64(&mut self) -> Result<u64, CodecError> {
        self.array().map(u64::from_le_bytes)
    }

    /// Reads an `f64` from its bit pattern.
    ///
    /// # Errors
    ///
    /// [`CodecError::UnexpectedEof`] when fewer than 8 bytes remain.
    pub fn f64(&mut self) -> Result<f64, CodecError> {
        self.u64().map(f64::from_bits)
    }

    /// Reads a `bool`; any nonzero byte is `true`.
    ///
    /// # Errors
    ///
    /// [`CodecError::UnexpectedEof`] at the end of the buffer.
    pub fn bool(&mut self) -> Result<bool, CodecError> {
        Ok(self.u8()? != 0)
    }

    /// Reads a length-prefixed UTF-8 string, borrowed from the buffer.
    ///
    /// # Errors
    ///
    /// [`CodecError::UnexpectedEof`] when the prefix or the bytes it
    /// claims run past the end, [`CodecError::BadUtf8`] on invalid
    /// UTF-8.
    pub fn str(&mut self) -> Result<&'a str, CodecError> {
        let len = self.u32()? as usize;
        std::str::from_utf8(self.take(len)?).map_err(|_| CodecError::BadUtf8)
    }

    /// Whether any bytes remain (how a decoder detects an optional
    /// trailing block).
    pub fn has_remaining(&self) -> bool {
        self.pos < self.buf.len()
    }

    /// How many bytes remain: the bound a decoder checks a count
    /// against before allocating for it.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Consumes and discards `n` bytes.
    ///
    /// # Errors
    ///
    /// [`CodecError::UnexpectedEof`] when fewer than `n` remain.
    pub fn skip(&mut self, n: usize) -> Result<(), CodecError> {
        self.take(n).map(|_| ())
    }

    /// Ends the read, rejecting unconsumed bytes.
    ///
    /// # Errors
    ///
    /// [`CodecError::TrailingBytes`] when bytes remain.
    pub fn finish(self) -> Result<(), CodecError> {
        match self.remaining() {
            0 => Ok(()),
            extra => Err(CodecError::TrailingBytes { extra }),
        }
    }
}

/// The error for an enum tag byte no decoder knows.
///
/// # Errors
///
/// Always [`CodecError::UnknownTag`].
pub fn unknown_tag<T>(what: &'static str, tag: u8) -> Result<T, CodecError> {
    Err(CodecError::UnknownTag { what, tag })
}

/// Writes a device as its preset name.
pub fn put_device(w: &mut Writer, d: DeviceId) {
    w.str(d.name());
}

/// Reads a device by preset name.
///
/// # Errors
///
/// [`CodecError::BadDevice`] for a name no preset has, or any string
/// read failure.
pub fn get_device(r: &mut Reader<'_>) -> Result<DeviceId, CodecError> {
    let name = r.str()?;
    DeviceId::by_name(name).ok_or_else(|| CodecError::BadDevice(name.to_string()))
}

/// Writes a protocol as a tag byte (`Udd` adds its `u32` pulse count).
pub fn put_protocol(w: &mut Writer, p: DdProtocol) {
    match p {
        DdProtocol::Xy4 => w.u8(0),
        DdProtocol::IbmqDd => w.u8(1),
        DdProtocol::Cpmg => w.u8(2),
        DdProtocol::Xy8 => w.u8(3),
        DdProtocol::Udd { pulses } => {
            w.u8(4);
            w.u32(pulses);
        }
    }
}

/// Reads a protocol written by [`put_protocol`].
///
/// # Errors
///
/// [`CodecError::UnknownTag`] for an unknown tag, or an EOF.
pub fn get_protocol(r: &mut Reader<'_>) -> Result<DdProtocol, CodecError> {
    Ok(match r.u8()? {
        0 => DdProtocol::Xy4,
        1 => DdProtocol::IbmqDd,
        2 => DdProtocol::Cpmg,
        3 => DdProtocol::Xy8,
        4 => DdProtocol::Udd { pulses: r.u32()? },
        tag => unknown_tag("DdProtocol", tag)?,
    })
}

/// Writes a decoy kind as a tag byte (`Seeded` adds its `u64` seed
/// budget).
pub fn put_decoy_kind(w: &mut Writer, d: DecoyKind) {
    match d {
        DecoyKind::Clifford => w.u8(0),
        DecoyKind::CnotOnly => w.u8(1),
        DecoyKind::Seeded { max_seed_qubits } => {
            w.u8(2);
            w.u64(max_seed_qubits as u64);
        }
    }
}

/// Reads a decoy kind written by [`put_decoy_kind`].
///
/// # Errors
///
/// [`CodecError::UnknownTag`] for an unknown tag, or an EOF.
pub fn get_decoy_kind(r: &mut Reader<'_>) -> Result<DecoyKind, CodecError> {
    Ok(match r.u8()? {
        0 => DecoyKind::Clifford,
        1 => DecoyKind::CnotOnly,
        2 => DecoyKind::Seeded {
            max_seed_qubits: r.u64()? as usize,
        },
        tag => unknown_tag("DecoyKind", tag)?,
    })
}

/// Writes a mask as its `u64` bits, then its `u64` width.
pub fn put_mask(w: &mut Writer, m: DdMask) {
    w.u64(m.bits());
    w.u64(m.num_qubits() as u64);
}

/// Reads a mask written by [`put_mask`].
///
/// # Errors
///
/// [`CodecError::MaskTooWide`] for a width above 64, or an EOF.
pub fn get_mask(r: &mut Reader<'_>) -> Result<DdMask, CodecError> {
    let bits = r.u64()?;
    match r.u64()? {
        width @ 0..=64 => Ok(DdMask::from_bits(bits, width as usize)),
        width => Err(CodecError::MaskTooWide { width }),
    }
}

/// Writes a cache key: device, epoch, circuit hash, protocol, decoy.
pub fn put_mask_key(w: &mut Writer, k: &MaskKey) {
    put_device(w, k.device);
    w.u64(k.epoch);
    w.u64(k.circuit_hash);
    put_protocol(w, k.protocol);
    put_decoy_kind(w, k.decoy);
}

/// Reads a cache key written by [`put_mask_key`].
///
/// # Errors
///
/// Any field's [`CodecError`].
pub fn get_mask_key(r: &mut Reader<'_>) -> Result<MaskKey, CodecError> {
    Ok(MaskKey {
        device: get_device(r)?,
        epoch: r.u64()?,
        circuit_hash: r.u64()?,
        protocol: get_protocol(r)?,
        decoy: get_decoy_kind(r)?,
    })
}

/// Slicing-by-8 CRC32 tables (IEEE 802.3 reflected polynomial
/// `0xEDB88320`), built at compile time. Row 0 is the classic
/// byte-at-a-time table; row `k` advances row `k - 1`'s remainder by one
/// more zero byte, so eight bytes fold into the CRC with eight lookups.
const CRC32_TABLES: [[u32; 256]; 8] = {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ 0xEDB8_8320
            } else {
                crc >> 1
            };
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
};

/// CRC32 (IEEE) of `bytes`: the store's record checksum and the wire's
/// frame-checksum trailer. Slicing-by-8: eight bytes per step, the tail
/// a byte at a time; the values are those of the byte-at-a-time table
/// CRC.
pub fn crc32(bytes: &[u8]) -> u32 {
    let t = &CRC32_TABLES;
    let mut crc = 0xFFFF_FFFFu32;
    let mut chunks = bytes.chunks_exact(8);
    for chunk in &mut chunks {
        let lo = crc ^ u32::from_le_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]);
        let hi = u32::from_le_bytes([chunk[4], chunk[5], chunk[6], chunk[7]]);
        crc = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xFF) as usize]
            ^ t[2][((hi >> 8) & 0xFF) as usize]
            ^ t[1][((hi >> 16) & 0xFF) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for &b in chunks.remainder() {
        crc = (crc >> 8) ^ t[0][((crc ^ b as u32) & 0xFF) as usize];
    }
    !crc
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn crc32_known_vectors() {
        // IEEE CRC32 of "123456789" is the classic check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    /// The byte-at-a-time table CRC the slicing tables extend.
    fn crc32_bytewise(bytes: &[u8]) -> u32 {
        let mut crc = 0xFFFF_FFFFu32;
        for &b in bytes {
            crc = (crc >> 8) ^ CRC32_TABLES[0][((crc ^ b as u32) & 0xFF) as usize];
        }
        !crc
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// Slicing-by-8 equals the byte-at-a-time CRC at every length
        /// and alignment: each remainder length, and starts off the
        /// 8-byte grid.
        #[test]
        fn sliced_crc32_matches_the_bytewise_reference(
            bytes in prop::collection::vec(any::<u8>(), 0..4097),
            offset in 0usize..16,
        ) {
            let data = &bytes[offset.min(bytes.len())..];
            prop_assert_eq!(crc32(data), crc32_bytewise(data));
        }
    }

    #[test]
    fn primitives_round_trip_and_finish_clean() {
        let mut w = Writer::default();
        w.u8(7);
        w.u32(0xdead_beef);
        w.u64(u64::MAX - 1);
        w.f64(f64::NAN);
        w.bool(true);
        w.str("rome");
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        assert_eq!(r.u8(), Ok(7));
        assert_eq!(r.u32(), Ok(0xdead_beef));
        assert_eq!(r.u64(), Ok(u64::MAX - 1));
        assert_eq!(r.f64().map(f64::to_bits), Ok(f64::NAN.to_bits()));
        assert_eq!(r.bool(), Ok(true));
        assert_eq!(r.str(), Ok("rome"));
        assert!(!r.has_remaining());
        assert_eq!(r.finish(), Ok(()));
    }

    #[test]
    fn short_reads_and_leftovers_are_typed() {
        let mut r = Reader::new(&[1, 2]);
        assert_eq!(
            r.u32(),
            Err(CodecError::UnexpectedEof { needed: 4, have: 2 })
        );
        assert_eq!(r.u8(), Ok(1));
        assert_eq!(
            Reader::new(&[0; 3]).finish(),
            Err(CodecError::TrailingBytes { extra: 3 })
        );
        // A length prefix claiming more than the buffer holds fails
        // before anything is allocated.
        let mut w = Writer::default();
        w.u32(u32::MAX);
        assert_eq!(
            Reader::new(w.as_bytes()).str(),
            Err(CodecError::UnexpectedEof {
                needed: u32::MAX as usize,
                have: 0
            })
        );
    }

    #[test]
    fn shared_types_round_trip() {
        for protocol in [DdProtocol::Xy8, DdProtocol::Udd { pulses: 9 }] {
            for decoy in [
                DecoyKind::CnotOnly,
                DecoyKind::Seeded { max_seed_qubits: 5 },
            ] {
                let key = MaskKey {
                    device: DeviceId::Paris,
                    epoch: 3,
                    circuit_hash: 0xabcd,
                    protocol,
                    decoy,
                };
                let mut w = Writer::default();
                put_mask_key(&mut w, &key);
                put_mask(&mut w, DdMask::from_bits(u64::MAX, 64));
                let bytes = w.into_bytes();
                let mut r = Reader::new(&bytes);
                assert_eq!(get_mask_key(&mut r), Ok(key));
                assert_eq!(get_mask(&mut r), Ok(DdMask::from_bits(u64::MAX, 64)));
                assert_eq!(r.finish(), Ok(()));
            }
        }
    }

    #[test]
    fn malformed_shared_fields_are_typed_errors() {
        let mut w = Writer::default();
        w.str("andromeda");
        assert_eq!(
            get_device(&mut Reader::new(w.as_bytes())),
            Err(CodecError::BadDevice("andromeda".into()))
        );
        assert_eq!(
            get_protocol(&mut Reader::new(&[9])),
            Err(CodecError::UnknownTag {
                what: "DdProtocol",
                tag: 9
            })
        );
        assert_eq!(
            get_decoy_kind(&mut Reader::new(&[3])),
            Err(CodecError::UnknownTag {
                what: "DecoyKind",
                tag: 3
            })
        );
        let mut w = Writer::default();
        w.u64(1);
        w.u64(65);
        assert_eq!(
            get_mask(&mut Reader::new(w.as_bytes())),
            Err(CodecError::MaskTooWide { width: 65 })
        );
        assert_eq!(
            Reader::new(&[2, 0, 0, 0, 0xff, 0xfe]).str(),
            Err(CodecError::BadUtf8)
        );
    }
}
