//! The binary-archive container shared by every persisted artifact: the
//! `.exsv` signature index (`extractocol-serve`) and the `.exsm` summary
//! cache (`extractocol-incr`). Each format supplies only its magic, its
//! version and its payload codec; the framing, the checks done before
//! decoding, the bounded reader and the error type live here once.
//!
//! # Layout
//!
//! ```text
//! header (32 bytes):
//!   magic            8 bytes  format-specific ("EXSERVIX", "EXSUMMRY")
//!   version          u32 LE
//!   reserved         u32 LE   (0)
//!   payload_len      u64 LE   byte length of everything after the header
//!   payload_checksum u64 LE   FNV-1a 64 over the payload bytes
//! payload: format-specific, built from the primitives below
//! ```
//!
//! Payload primitives: little-endian `u8`/`u32`/`u64`; counts and lengths
//! as `u64`; strings as a `u64` byte length + UTF-8 bytes; optional
//! length-prefixed sections, `tag (u32 LE) + byte_len (u64 LE) + bytes`.
//!
//! # Loading discipline
//!
//! [`open`] checks the header length, magic, version, declared payload
//! length and checksum before a single payload byte is decoded. The
//! returned [`Cursor`] bounds every read, and [`Cursor::count`] refuses a
//! declared element count that the remaining bytes cannot hold (given a
//! per-element minimum size), so a hostile count cannot drive a huge
//! allocation. Every failure is a typed [`ArchiveError`] — never a panic.

use crate::hash::fnv1a64;
use std::fmt;
use std::path::Path;

/// Byte length of the fixed header.
const HEADER_LEN: usize = 32;

/// Why an archive was rejected. Every variant is a deterministic verdict
/// on the input bytes — loading never panics.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ArchiveError {
    /// Filesystem failure, with the path.
    Io(String),
    /// The first 8 bytes are not the format's magic.
    BadMagic,
    /// Written by a different format version than this reader supports.
    VersionMismatch {
        /// Version found in the header.
        found: u32,
        /// Version this reader supports.
        supported: u32,
    },
    /// Input ended before a declared length or count was satisfied.
    Truncated {
        /// What was being decoded.
        context: &'static str,
        /// Bytes the decoder needed.
        needed: usize,
        /// Bytes actually available.
        available: usize,
    },
    /// Payload bytes do not hash to the header checksum.
    ChecksumMismatch {
        /// Checksum stored in the header.
        expected: u64,
        /// FNV-1a 64 of the payload actually read.
        actual: u64,
    },
    /// A section tag other than the one required at that position.
    BadSection {
        /// Tag found in the stream.
        found: u32,
        /// Tag required here.
        expected: u32,
    },
    /// An enum tag byte outside the encodable range.
    BadTag {
        /// What was being decoded.
        context: &'static str,
        /// The offending tag byte.
        tag: u8,
    },
    /// A string field holding invalid UTF-8.
    BadUtf8 {
        /// What was being decoded.
        context: &'static str,
    },
    /// A recursive structure nested beyond the format's depth cap.
    TooDeep {
        /// What was being decoded.
        context: &'static str,
    },
    /// Bytes left over after the last declared field.
    TrailingBytes {
        /// How many undeclared bytes remain.
        count: usize,
    },
    /// Well-formed bytes describing an inconsistent structure.
    Invalid(String),
}

impl fmt::Display for ArchiveError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ArchiveError::Io(e) => write!(f, "io: {e}"),
            ArchiveError::BadMagic => write!(f, "bad magic (not an archive of this format)"),
            ArchiveError::VersionMismatch { found, supported } => {
                write!(f, "archive version {found} unsupported (reader supports {supported})")
            }
            ArchiveError::Truncated { context, needed, available } => {
                write!(f, "truncated {context}: needed {needed} bytes, {available} available")
            }
            ArchiveError::ChecksumMismatch { expected, actual } => {
                write!(
                    f,
                    "payload checksum mismatch: header {expected:#018x}, actual {actual:#018x}"
                )
            }
            ArchiveError::BadSection { found, expected } => {
                write!(f, "bad section tag {found:#010x} (expected {expected:#010x})")
            }
            ArchiveError::BadTag { context, tag } => write!(f, "bad {context} tag {tag:#04x}"),
            ArchiveError::BadUtf8 { context } => write!(f, "invalid UTF-8 in {context}"),
            ArchiveError::TooDeep { context } => write!(f, "{context} nested too deeply"),
            ArchiveError::TrailingBytes { count } => {
                write!(f, "{count} trailing byte(s) after the last field")
            }
            ArchiveError::Invalid(msg) => write!(f, "invalid archive: {msg}"),
        }
    }
}

impl std::error::Error for ArchiveError {}

/// Builds an archive in place: the header is reserved up front and filled
/// by [`Writer::finish`], so the payload is never copied.
pub struct Writer {
    buf: Vec<u8>,
    magic: &'static [u8; 8],
    version: u32,
}

impl Writer {
    /// An empty archive of the given format.
    pub fn new(magic: &'static [u8; 8], version: u32) -> Writer {
        Writer { buf: vec![0; HEADER_LEN], magic, version }
    }

    #[inline]
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    #[inline]
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    #[inline]
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// An element count or byte length.
    #[inline]
    pub fn count(&mut self, n: usize) {
        self.u64(n as u64);
    }

    #[inline]
    pub fn str(&mut self, s: &str) {
        self.count(s.len());
        self.buf.extend_from_slice(s.as_bytes());
    }

    /// A length-prefixed section: `tag`, then the byte length of whatever
    /// `body` writes, then those bytes.
    pub fn section(&mut self, tag: u32, body: impl FnOnce(&mut Writer)) {
        self.u32(tag);
        let len_at = self.buf.len();
        self.u64(0);
        body(self);
        let len = (self.buf.len() - len_at - 8) as u64;
        self.buf[len_at..len_at + 8].copy_from_slice(&len.to_le_bytes());
    }

    /// Fills in the header and returns the archive bytes.
    pub fn finish(mut self) -> Vec<u8> {
        let payload_len = (self.buf.len() - HEADER_LEN) as u64;
        let checksum = fnv1a64(&self.buf[HEADER_LEN..]);
        let header = &mut self.buf[..HEADER_LEN];
        header[0..8].copy_from_slice(self.magic);
        header[8..12].copy_from_slice(&self.version.to_le_bytes());
        header[12..16].copy_from_slice(&0u32.to_le_bytes()); // reserved
        header[16..24].copy_from_slice(&payload_len.to_le_bytes());
        header[24..32].copy_from_slice(&checksum.to_le_bytes());
        self.buf
    }
}

/// Checks the header of `bytes` and the checksum of its payload, and
/// returns a cursor over the payload. Nothing is decoded before these
/// checks pass.
pub fn open<'a>(
    bytes: &'a [u8],
    magic: &[u8; 8],
    version: u32,
) -> Result<Cursor<'a>, ArchiveError> {
    if bytes.len() < HEADER_LEN {
        return Err(ArchiveError::Truncated {
            context: "header",
            needed: HEADER_LEN,
            available: bytes.len(),
        });
    }
    let mut header = Cursor::new(&bytes[..HEADER_LEN]);
    if header.take(8, "magic")? != magic {
        return Err(ArchiveError::BadMagic);
    }
    let found = header.u32("version")?;
    if found != version {
        return Err(ArchiveError::VersionMismatch { found, supported: version });
    }
    let _reserved = header.u32("reserved")?;
    let payload_len = header.u64("payload length")?;
    let expected = header.u64("payload checksum")?;
    let payload = &bytes[HEADER_LEN..];
    if payload_len > payload.len() as u64 {
        return Err(ArchiveError::Truncated {
            context: "payload",
            needed: usize::try_from(payload_len).unwrap_or(usize::MAX),
            available: payload.len(),
        });
    }
    if payload_len < payload.len() as u64 {
        return Err(ArchiveError::TrailingBytes { count: payload.len() - payload_len as usize });
    }
    let actual = fnv1a64(payload);
    if actual != expected {
        return Err(ArchiveError::ChecksumMismatch { expected, actual });
    }
    Ok(Cursor::new(payload))
}

/// Reads a whole archive file.
pub fn read_file(path: &Path) -> Result<Vec<u8>, ArchiveError> {
    std::fs::read(path).map_err(|e| ArchiveError::Io(format!("{}: {e}", path.display())))
}

/// Writes archive bytes to a file.
pub fn write_file(path: &Path, bytes: &[u8]) -> Result<(), ArchiveError> {
    std::fs::write(path, bytes).map_err(|e| ArchiveError::Io(format!("{}: {e}", path.display())))
}

/// Bounds-checked payload reader with typed errors.
pub struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn new(buf: &'a [u8]) -> Cursor<'a> {
        Cursor { buf, pos: 0 }
    }

    #[inline]
    fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    #[inline]
    fn take(&mut self, n: usize, context: &'static str) -> Result<&'a [u8], ArchiveError> {
        if self.remaining() < n {
            return Err(ArchiveError::Truncated {
                context,
                needed: n,
                available: self.remaining(),
            });
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    #[inline]
    pub fn u8(&mut self, context: &'static str) -> Result<u8, ArchiveError> {
        Ok(self.take(1, context)?[0])
    }

    #[inline]
    pub fn u32(&mut self, context: &'static str) -> Result<u32, ArchiveError> {
        Ok(u32::from_le_bytes(self.take(4, context)?.try_into().expect("4 bytes")))
    }

    #[inline]
    pub fn u64(&mut self, context: &'static str) -> Result<u64, ArchiveError> {
        Ok(u64::from_le_bytes(self.take(8, context)?.try_into().expect("8 bytes")))
    }

    /// A declared element count whose elements each take at least
    /// `min_size` bytes. A count the remaining bytes cannot hold is
    /// [`ArchiveError::Truncated`] before anything is allocated for it.
    #[inline]
    pub fn count(&mut self, min_size: usize, context: &'static str) -> Result<usize, ArchiveError> {
        let n = self.u64(context)?;
        let needed = n.saturating_mul(min_size as u64);
        if needed > self.remaining() as u64 {
            return Err(ArchiveError::Truncated {
                context,
                needed: usize::try_from(needed).unwrap_or(usize::MAX),
                available: self.remaining(),
            });
        }
        Ok(n as usize)
    }

    #[inline]
    pub fn str(&mut self, context: &'static str) -> Result<String, ArchiveError> {
        let n = self.count(1, context)?;
        let bytes = self.take(n, context)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| ArchiveError::BadUtf8 { context })
    }

    /// The section tagged `tag` (see [`Writer::section`]), as a cursor
    /// over exactly its bytes.
    pub fn section(&mut self, tag: u32) -> Result<Cursor<'a>, ArchiveError> {
        let found = self.u32("section tag")?;
        if found != tag {
            return Err(ArchiveError::BadSection { found, expected: tag });
        }
        let len = self.count(1, "section length")?;
        Ok(Cursor::new(self.take(len, "section bytes")?))
    }

    /// Succeeds only when every byte has been read.
    pub fn finish(&self) -> Result<(), ArchiveError> {
        match self.remaining() {
            0 => Ok(()),
            count => Err(ArchiveError::TrailingBytes { count }),
        }
    }
}
