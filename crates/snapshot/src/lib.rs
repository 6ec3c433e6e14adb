//! Deterministic checkpoint codec for crash-consistent snapshots
//! (DESIGN.md §11).
//!
//! A snapshot is a self-describing container of named, versioned binary
//! sections. Each stateful subsystem (world, engine, router, obs) encodes
//! its own payload field by field through the [`Codec`] trait, which
//! states the wire rules once; the container adds framing, per-section
//! checksums and a whole-file checksum so truncation and corruption are
//! detected before any payload is decoded.
//!
//! Layout (all integers little-endian):
//!
//! ```text
//! magic "DTNSNAP1" (8 bytes)
//! format version   (u32)
//! section count    (u64)
//! per section:
//!   name           (u64 length + UTF-8 bytes)
//!   version        (u32)
//!   payload        (u64 length + bytes)
//!   checksum       (u64, FNV-1a over the payload bytes)
//! file checksum    (u64, FNV-1a over everything before it)
//! ```
//!
//! Everything is hand-rolled (no serde) and byte-deterministic: encoding
//! the same logical state twice yields identical bytes, which the chaos
//! harness relies on for byte-equality assertions. Floats travel as raw
//! IEEE-754 bits so NaN payloads survive round-trips. All decode paths
//! return typed [`SnapshotError`]s — no panics (detlint P1).

#![forbid(unsafe_code)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

use std::fmt;

mod codec;
pub use codec::Codec;

/// Leading magic bytes of every snapshot file.
pub const MAGIC: [u8; 8] = *b"DTNSNAP1";

/// Container format version this crate writes and accepts.
pub const FORMAT_VERSION: u32 = 1;

/// Typed decode/validation failure. Every decode path reports one of
/// these instead of panicking.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnapshotError {
    /// The input ended before a read completed.
    UnexpectedEof { context: &'static str },
    /// The file does not start with [`MAGIC`].
    BadMagic,
    /// Container or section version is newer than this build understands.
    UnsupportedVersion {
        context: String,
        found: u32,
        supported: u32,
    },
    /// A stored checksum does not match the recomputed one.
    ChecksumMismatch { context: String },
    /// An enum tag byte is out of range for the type being decoded.
    InvalidTag { context: &'static str, tag: u64 },
    /// A payload had bytes left over after its last field was decoded.
    TrailingBytes { context: &'static str, count: usize },
    /// A required section is absent from the container.
    MissingSection { name: String },
    /// A length prefix or string was malformed.
    Corrupt { context: &'static str },
    /// Decoded state disagrees with the run being resumed (wrong trace,
    /// config, or fault plan fingerprint).
    Mismatch { context: String },
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotError::UnexpectedEof { context } => {
                write!(f, "unexpected end of input while reading {context}")
            }
            SnapshotError::BadMagic => write!(f, "not a snapshot: bad magic bytes"),
            SnapshotError::UnsupportedVersion {
                context,
                found,
                supported,
            } => write!(
                f,
                "unsupported {context} version {found} (this build supports {supported})"
            ),
            SnapshotError::ChecksumMismatch { context } => {
                write!(f, "checksum mismatch in {context}")
            }
            SnapshotError::InvalidTag { context, tag } => {
                write!(f, "invalid tag {tag} while decoding {context}")
            }
            SnapshotError::TrailingBytes { context, count } => {
                write!(f, "{count} trailing bytes after decoding {context}")
            }
            SnapshotError::MissingSection { name } => {
                write!(f, "snapshot is missing required section `{name}`")
            }
            SnapshotError::Corrupt { context } => write!(f, "corrupt snapshot: {context}"),
            SnapshotError::Mismatch { context } => {
                write!(f, "snapshot does not match this run: {context}")
            }
        }
    }
}

impl std::error::Error for SnapshotError {}

/// FNV-1a 64-bit offset basis: the hash of no bytes.
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// One FNV-1a step: fold `byte` into the running hash `h`.
#[inline(always)]
fn fnv_step(h: u64, byte: u8) -> u64 {
    (h ^ u64::from(byte)).wrapping_mul(0x100_0000_01b3)
}

/// Continue the running FNV-1a hash `h` over `bytes`.
fn fnv_fold(h: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(h, |h, &b| fnv_step(h, b))
}

/// FNV-1a 64-bit hash — the same cheap deterministic hash the workspace
/// already uses for RNG stream labels.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    fnv_fold(FNV_OFFSET, bytes)
}

/// Append-only binary encoder for section payloads.
#[derive(Debug, Default, Clone)]
pub struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    pub fn new() -> Self {
        Writer::default()
    }

    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    pub fn put_bool(&mut self, v: bool) {
        self.buf.push(v as u8);
    }

    pub fn put_u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// `usize` travels as `u64` so 32- and 64-bit builds agree on bytes.
    pub fn put_usize(&mut self, v: usize) {
        self.put_u64(v as u64);
    }

    /// Floats travel as raw bits: NaN payloads and signed zeros survive.
    pub fn put_f64(&mut self, v: f64) {
        self.put_u64(v.to_bits());
    }

    pub fn put_bytes(&mut self, v: &[u8]) {
        self.put_usize(v.len());
        self.buf.extend_from_slice(v);
    }

    pub fn put_str(&mut self, v: &str) {
        self.put_bytes(v.as_bytes());
    }

    /// The sequence rule: the `u64` count `len`, then each item through
    /// `item`. `len` must equal the number of items.
    pub fn put_seq<T>(
        &mut self,
        len: usize,
        items: impl IntoIterator<Item = T>,
        mut item: impl FnMut(&mut Writer, T),
    ) {
        self.put_usize(len);
        let mut written = 0usize;
        for v in items {
            item(self, v);
            written += 1;
        }
        debug_assert_eq!(written, len, "sequence count disagrees with its items");
    }

    /// Number of bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    pub fn as_bytes(&self) -> &[u8] {
        &self.buf
    }
}

/// Cursor-based binary decoder over a section payload.
#[derive(Debug, Clone)]
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    pub fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    fn take(&mut self, n: usize, context: &'static str) -> Result<&'a [u8], SnapshotError> {
        if self.buf.len() - self.pos < n {
            return Err(SnapshotError::UnexpectedEof { context });
        }
        let out = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    pub fn u8(&mut self, context: &'static str) -> Result<u8, SnapshotError> {
        Ok(self.take(1, context)?[0])
    }

    pub fn bool(&mut self, context: &'static str) -> Result<bool, SnapshotError> {
        match self.u8(context)? {
            0 => Ok(false),
            1 => Ok(true),
            tag => Err(SnapshotError::InvalidTag {
                context,
                tag: tag as u64,
            }),
        }
    }

    pub fn u16(&mut self, context: &'static str) -> Result<u16, SnapshotError> {
        let b = self.take(2, context)?;
        Ok(u16::from_le_bytes([b[0], b[1]]))
    }

    pub fn u32(&mut self, context: &'static str) -> Result<u32, SnapshotError> {
        let b = self.take(4, context)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    pub fn u64(&mut self, context: &'static str) -> Result<u64, SnapshotError> {
        let b = self.take(8, context)?;
        Ok(u64::from_le_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }

    pub fn usize(&mut self, context: &'static str) -> Result<usize, SnapshotError> {
        let v = self.u64(context)?;
        usize::try_from(v).map_err(|_| SnapshotError::Corrupt { context })
    }

    /// Read a length prefix that must be plausible for the bytes left —
    /// rejects lengths larger than the remaining input so corrupt
    /// prefixes fail fast instead of attempting huge allocations.
    pub fn seq_len(&mut self, context: &'static str) -> Result<usize, SnapshotError> {
        let n = self.usize(context)?;
        if n > self.remaining() {
            return Err(SnapshotError::Corrupt { context });
        }
        Ok(n)
    }

    pub fn f64(&mut self, context: &'static str) -> Result<f64, SnapshotError> {
        Ok(f64::from_bits(self.u64(context)?))
    }

    pub fn bytes(&mut self, context: &'static str) -> Result<&'a [u8], SnapshotError> {
        let n = self.seq_len(context)?;
        self.take(n, context)
    }

    pub fn str(&mut self, context: &'static str) -> Result<String, SnapshotError> {
        let b = self.bytes(context)?;
        String::from_utf8(b.to_vec()).map_err(|_| SnapshotError::Corrupt { context })
    }

    /// Inverse of [`Writer::put_seq`]: a [`Reader::seq_len`]-checked
    /// count, then each item through `item`.
    pub fn seq<T>(
        &mut self,
        context: &'static str,
        item: impl FnMut(&mut Self) -> Result<T, SnapshotError>,
    ) -> Result<Vec<T>, SnapshotError> {
        let n = self.seq_len(context)?;
        self.items(n, item)
    }

    /// `n` items with no count prefix (the caller knows `n`), each
    /// through `item`. Preallocates no more items than the remaining
    /// input has bytes for their in-memory size, so a corrupt length
    /// cannot allocate beyond the payload.
    pub fn items<T>(
        &mut self,
        n: usize,
        mut item: impl FnMut(&mut Self) -> Result<T, SnapshotError>,
    ) -> Result<Vec<T>, SnapshotError> {
        let fits = self.remaining() / std::mem::size_of::<T>().max(1);
        let mut out = Vec::with_capacity(n.min(fits));
        for _ in 0..n {
            out.push(item(self)?);
        }
        Ok(out)
    }

    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Assert the payload was fully consumed; extra bytes mean the
    /// encoder and decoder disagree about the schema.
    pub fn finish(&self, context: &'static str) -> Result<(), SnapshotError> {
        if self.remaining() != 0 {
            return Err(SnapshotError::TrailingBytes {
                context,
                count: self.remaining(),
            });
        }
        Ok(())
    }
}

/// One named, versioned payload inside a snapshot container.
#[derive(Debug, Clone)]
pub struct Section {
    pub name: String,
    pub version: u32,
    pub payload: Vec<u8>,
    pub checksum: u64,
}

/// Builds a snapshot container from named sections (insertion order is
/// preserved, so identical inputs give identical bytes).
#[derive(Debug, Default)]
pub struct SnapshotBuilder {
    sections: Vec<(String, u32, Vec<u8>)>,
}

impl SnapshotBuilder {
    pub fn new() -> Self {
        SnapshotBuilder::default()
    }

    pub fn add_section(&mut self, name: &str, version: u32, payload: Vec<u8>) -> &mut Self {
        self.sections.push((name.to_string(), version, payload));
        self
    }

    /// Total payload bytes added so far (excluding framing).
    pub fn payload_len(&self) -> usize {
        self.sections.iter().map(|(_, _, p)| p.len()).sum()
    }

    /// The container bytes. The output is sized once from the section
    /// lengths, and each payload byte is read once: one loop advances
    /// both its section checksum and the whole-file checksum, two
    /// independent multiply chains.
    pub fn finish(&self) -> Vec<u8> {
        // Header and file checksum, then per section: name length and
        // bytes, version, payload length and bytes, checksum.
        let size = self
            .sections
            .iter()
            .fold(MAGIC.len() + 4 + 8 + 8, |n, (name, _, p)| {
                n + 8 + name.len() + 4 + 8 + p.len() + 8
            });
        let mut w = Writer {
            buf: Vec::with_capacity(size),
        };
        w.buf.extend_from_slice(&MAGIC);
        w.put_u32(FORMAT_VERSION);
        w.put_usize(self.sections.len());
        // `file` hashes `w.buf[..hashed]`.
        let (mut file, mut hashed) = (FNV_OFFSET, 0);
        for (name, version, payload) in &self.sections {
            w.put_str(name);
            w.put_u32(*version);
            w.put_usize(payload.len());
            file = fnv_fold(file, &w.buf[hashed..]);
            let mut section = FNV_OFFSET;
            for &b in payload {
                section = fnv_step(section, b);
                file = fnv_step(file, b);
            }
            w.buf.extend_from_slice(payload);
            hashed = w.len();
            w.put_u64(section);
        }
        file = fnv_fold(file, &w.buf[hashed..]);
        w.put_u64(file);
        debug_assert_eq!(w.len(), size, "container size disagrees with its sections");
        w.into_bytes()
    }
}

/// A parsed, checksum-verified snapshot container.
#[derive(Debug, Clone)]
pub struct SnapshotFile {
    pub format_version: u32,
    pub sections: Vec<Section>,
}

impl SnapshotFile {
    /// Parse and fully verify a container: magic, format version, section
    /// framing, per-section checksums and the whole-file checksum.
    pub fn parse(bytes: &[u8]) -> Result<Self, SnapshotError> {
        if bytes.len() < MAGIC.len() {
            return Err(SnapshotError::UnexpectedEof { context: "magic" });
        }
        if bytes[..MAGIC.len()] != MAGIC {
            return Err(SnapshotError::BadMagic);
        }
        // Whole-file checksum first: the trailing u64 must hash everything
        // before it, so truncation or bit flips fail here up front.
        if bytes.len() < MAGIC.len() + 4 + 8 + 8 {
            return Err(SnapshotError::UnexpectedEof {
                context: "file header",
            });
        }
        let body = &bytes[..bytes.len() - 8];
        let mut tail = Reader::new(&bytes[bytes.len() - 8..]);
        let stored = tail.u64("file checksum")?;
        if fnv1a64(body) != stored {
            return Err(SnapshotError::ChecksumMismatch {
                context: "file".to_string(),
            });
        }

        let mut r = Reader::new(body);
        let _ = r.take(MAGIC.len(), "magic")?;
        let format_version = r.u32("format version")?;
        if format_version != FORMAT_VERSION {
            return Err(SnapshotError::UnsupportedVersion {
                context: "container".to_string(),
                found: format_version,
                supported: FORMAT_VERSION,
            });
        }
        let sections = r.seq("section count", |r| {
            let name = r.str("section name")?;
            let version = r.u32("section version")?;
            let payload = r.bytes("section payload")?.to_vec();
            let checksum = r.u64("section checksum")?;
            if fnv1a64(&payload) != checksum {
                return Err(SnapshotError::ChecksumMismatch {
                    context: format!("section `{name}`"),
                });
            }
            Ok(Section {
                name,
                version,
                payload,
                checksum,
            })
        })?;
        r.finish("section table")?;
        Ok(SnapshotFile {
            format_version,
            sections,
        })
    }

    /// Look up a section by name.
    pub fn section(&self, name: &str) -> Result<&Section, SnapshotError> {
        self.sections
            .iter()
            .find(|s| s.name == name)
            .ok_or_else(|| SnapshotError::MissingSection {
                name: name.to_string(),
            })
    }

    /// Section lookup that also pins the expected section version.
    pub fn section_versioned(&self, name: &str, version: u32) -> Result<&Section, SnapshotError> {
        let s = self.section(name)?;
        if s.version != version {
            return Err(SnapshotError::UnsupportedVersion {
                context: format!("section `{name}`"),
                found: s.version,
                supported: version,
            });
        }
        Ok(s)
    }
}

/// One entry of a snapshot schema: a section that must be present at an
/// exact version.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SchemaSection {
    pub name: &'static str,
    pub version: u32,
}

/// Validate a parsed container against a schema: every expected section
/// present at the expected version, and no unknown sections (a snapshot
/// written by a newer build must not be silently half-read).
pub fn validate_schema(
    file: &SnapshotFile,
    expected: &[SchemaSection],
) -> Result<(), SnapshotError> {
    for want in expected {
        file.section_versioned(want.name, want.version)?;
    }
    for s in &file.sections {
        if !expected.iter().any(|w| w.name == s.name) {
            return Err(SnapshotError::Mismatch {
                context: format!("unknown section `{}`", s.name),
            });
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Vec<u8> {
        let mut w = Writer::new();
        w.put_u8(7);
        w.put_u16(300);
        w.put_u32(70_000);
        w.put_u64(1 << 40);
        w.put_f64(f64::NAN);
        w.put_bool(true);
        w.put_str("hello");
        let mut b = SnapshotBuilder::new();
        b.add_section("alpha", 1, w.into_bytes());
        b.add_section("beta", 3, vec![1, 2, 3]);
        b.finish()
    }

    /// `SnapshotBuilder::finish` as it was before the fused pass, with
    /// its own byte-serial FNV-1a: grow a `Writer`, hash each payload,
    /// then hash the whole file again.
    fn two_pass_finish(sections: &[(String, u32, Vec<u8>)]) -> Vec<u8> {
        let fnv = |bytes: &[u8]| {
            let mut h: u64 = 0xcbf2_9ce4_8422_2325;
            for &b in bytes {
                h ^= b as u64;
                h = h.wrapping_mul(0x100_0000_01b3);
            }
            h
        };
        let mut w = Writer::new();
        w.buf.extend_from_slice(&MAGIC);
        w.put_u32(FORMAT_VERSION);
        w.put_usize(sections.len());
        for (name, version, payload) in sections {
            w.put_str(name);
            w.put_u32(*version);
            w.put_bytes(payload);
            w.put_u64(fnv(payload));
        }
        let file_sum = fnv(w.as_bytes());
        w.put_u64(file_sum);
        w.into_bytes()
    }

    #[test]
    fn fused_finish_matches_the_two_pass_container() {
        let mut lcg = 0x5EC7_1045_u64;
        let mut draw = |n: u64| {
            lcg = lcg
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (lcg >> 33) % n
        };
        for case in 0..300 {
            // Case 0 has no sections; every fourth payload is empty.
            let count = if case == 0 { 0 } else { draw(6) };
            let mut sections: Vec<(String, u32, Vec<u8>)> = Vec::new();
            for _ in 0..count {
                let mut name = String::new();
                for _ in 0..draw(12) {
                    name.push(char::from(b'a' + draw(26) as u8));
                }
                let len = if draw(4) == 0 { 0 } else { draw(700) };
                let mut payload = Vec::new();
                for _ in 0..len {
                    payload.push(draw(256) as u8);
                }
                sections.push((name, draw(u64::from(u32::MAX)) as u32, payload));
            }
            let mut b = SnapshotBuilder::new();
            for (name, version, payload) in &sections {
                b.add_section(name, *version, payload.clone());
            }
            let bytes = b.finish();
            assert_eq!(bytes, two_pass_finish(&sections), "case {case}");
            let file = SnapshotFile::parse(&bytes).unwrap();
            assert_eq!(file.sections.len(), sections.len(), "case {case}");
        }
    }

    #[test]
    fn roundtrip_primitives() {
        let bytes = sample();
        let file = SnapshotFile::parse(&bytes).unwrap();
        assert_eq!(file.format_version, FORMAT_VERSION);
        assert_eq!(file.sections.len(), 2);
        let s = file.section_versioned("alpha", 1).unwrap();
        let mut r = Reader::new(&s.payload);
        assert_eq!(r.u8("a").unwrap(), 7);
        assert_eq!(r.u16("b").unwrap(), 300);
        assert_eq!(r.u32("c").unwrap(), 70_000);
        assert_eq!(r.u64("d").unwrap(), 1 << 40);
        assert!(r.f64("e").unwrap().is_nan());
        assert!(r.bool("f").unwrap());
        assert_eq!(r.str("g").unwrap(), "hello");
        r.finish("alpha").unwrap();
    }

    #[test]
    fn encoding_is_deterministic() {
        assert_eq!(sample(), sample());
    }

    #[test]
    fn nan_bits_survive() {
        let weird = f64::from_bits(0x7ff8_0000_dead_beef);
        let mut w = Writer::new();
        w.put_f64(weird);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        assert_eq!(r.f64("x").unwrap().to_bits(), weird.to_bits());
    }

    #[test]
    fn bad_magic_is_rejected() {
        let mut bytes = sample();
        bytes[0] ^= 0xFF;
        assert!(matches!(
            SnapshotFile::parse(&bytes),
            Err(SnapshotError::BadMagic)
        ));
    }

    #[test]
    fn corruption_is_detected() {
        let mut bytes = sample();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x01;
        match SnapshotFile::parse(&bytes) {
            Err(SnapshotError::ChecksumMismatch { .. }) => {}
            other => panic!("expected checksum mismatch, got {other:?}"),
        }
    }

    #[test]
    fn truncation_is_detected() {
        let bytes = sample();
        for cut in [0, 4, bytes.len() / 2, bytes.len() - 1] {
            match SnapshotFile::parse(&bytes[..cut]) {
                Err(
                    SnapshotError::UnexpectedEof { .. } | SnapshotError::ChecksumMismatch { .. },
                ) => {}
                other => panic!("cut at {cut}: expected failure, got {other:?}"),
            }
        }
    }

    #[test]
    fn future_version_is_rejected() {
        let mut bytes = sample();
        // Bump the format version (bytes 8..12) and re-stamp the file
        // checksum so only the version check can fail.
        bytes[8] = bytes[8].wrapping_add(1);
        let body_len = bytes.len() - 8;
        let sum = fnv1a64(&bytes[..body_len]).to_le_bytes();
        bytes[body_len..].copy_from_slice(&sum);
        match SnapshotFile::parse(&bytes) {
            Err(SnapshotError::UnsupportedVersion { found, .. }) => {
                assert_eq!(found, FORMAT_VERSION + 1);
            }
            other => panic!("expected version error, got {other:?}"),
        }
    }

    #[test]
    fn missing_section_and_version_pin() {
        let bytes = sample();
        let file = SnapshotFile::parse(&bytes).unwrap();
        assert!(matches!(
            file.section("gamma"),
            Err(SnapshotError::MissingSection { .. })
        ));
        assert!(matches!(
            file.section_versioned("beta", 1),
            Err(SnapshotError::UnsupportedVersion { .. })
        ));
    }

    #[test]
    fn schema_validation() {
        let bytes = sample();
        let file = SnapshotFile::parse(&bytes).unwrap();
        let ok = [
            SchemaSection {
                name: "alpha",
                version: 1,
            },
            SchemaSection {
                name: "beta",
                version: 3,
            },
        ];
        validate_schema(&file, &ok).unwrap();
        // Missing expected section.
        let missing = [SchemaSection {
            name: "gamma",
            version: 1,
        }];
        assert!(validate_schema(&file, &missing).is_err());
        // Unknown extra section.
        let narrow = [SchemaSection {
            name: "alpha",
            version: 1,
        }];
        assert!(matches!(
            validate_schema(&file, &narrow),
            Err(SnapshotError::Mismatch { .. })
        ));
    }

    #[test]
    fn seq_len_rejects_oversized_prefix() {
        let mut w = Writer::new();
        w.put_usize(usize::MAX);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        assert!(matches!(r.seq_len("v"), Err(SnapshotError::Corrupt { .. })));
    }

    #[test]
    fn reader_reports_trailing_bytes() {
        let mut w = Writer::new();
        w.put_u8(1);
        w.put_u8(2);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        let _ = r.u8("x").unwrap();
        assert!(matches!(
            r.finish("payload"),
            Err(SnapshotError::TrailingBytes { count: 1, .. })
        ));
    }
}
