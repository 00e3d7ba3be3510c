//! The binary artifact container.
//!
//! ## Layout (all integers little-endian)
//!
//! ```text
//! offset  size  field
//! 0       8     magic  b"ASCNDART"
//! 8       4     format version (u32) — currently 1
//! 12      4     artifact kind (u32)  — 1 model checkpoint, 2 engine
//! 16      4     section count (u32)
//! 20      4     header CRC32 over bytes [8, 24) and the section table,
//!               with this CRC field itself treated as zero
//! 24      24·n  section table: tag [u8;4], payload CRC32 (u32),
//!               offset u64, len u64
//! …             section payloads (concatenated, in table order)
//! ```
//!
//! Integrity story: the header CRC covers version/kind/count and the whole
//! table, each payload carries its own CRC32, and the magic guards the
//! head — so *every* single-bit flip anywhere in a file is detected, and
//! truncation at any byte fails a bounds or CRC check. [`ArtifactReader`]
//! is the one reader: opening it checks the header and table, and each
//! [`ArtifactReader::read_section`] one payload's CRC. Neither it nor
//! [`SectionReader`] indexes unchecked or allocates from an unvalidated
//! length, so corrupt input yields [`ScError::CorruptArtifact`], not a
//! panic or an OOM.

use std::path::Path;

use sc_core::ScError;

/// The 8-byte file magic.
pub const MAGIC: [u8; 8] = *b"ASCNDART";

/// Current format version. Readers reject anything else.
pub const FORMAT_VERSION: u32 = 1;

/// Size of the fixed header preceding the section table.
const HEADER_LEN: usize = 24;

/// Size of one section-table entry.
const ENTRY_LEN: usize = 24;

/// Upper bound on the section count — far above any real artifact, low
/// enough that a corrupt count cannot drive a large allocation.
const MAX_SECTIONS: usize = 256;

/// What an artifact file contains.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ArtifactKind {
    /// A trained `VitModel` checkpoint.
    ModelCheckpoint,
    /// A compiled `ScEngine` snapshot.
    Engine,
}

impl ArtifactKind {
    fn code(self) -> u32 {
        match self {
            ArtifactKind::ModelCheckpoint => 1,
            ArtifactKind::Engine => 2,
        }
    }

    fn from_code(code: u32) -> Result<Self, ScError> {
        match code {
            1 => Ok(ArtifactKind::ModelCheckpoint),
            2 => Ok(ArtifactKind::Engine),
            other => Err(corrupt(format!("unknown artifact kind {other}"))),
        }
    }
}

/// Shorthand for the corruption error.
pub(crate) fn corrupt(reason: String) -> ScError {
    ScError::CorruptArtifact { reason }
}

/// Maps an `std::io::Error` on `path` into the typed error.
pub(crate) fn io_err(path: &Path, e: std::io::Error) -> ScError {
    ScError::Io {
        path: path.display().to_string(),
        reason: e.to_string(),
        not_found: e.kind() == std::io::ErrorKind::NotFound,
    }
}

// ---------------------------------------------------------------------------
// CRC32 (IEEE 802.3 polynomial, slicing-by-16)
// ---------------------------------------------------------------------------

/// Bytes folded into the CRC register per step of [`crc32`]'s main loop.
const CRC_SLICES: usize = 16;

/// Advances a reflected CRC register over one zero byte: eight shift-xor
/// steps of the IEEE polynomial.
const fn crc_zero_byte(mut c: u32) -> u32 {
    let mut k = 0;
    while k < 8 {
        c = if c & 1 != 0 {
            0xEDB8_8320 ^ (c >> 1)
        } else {
            c >> 1
        };
        k += 1;
    }
    c
}

/// The slicing tables, built at compile time. `CRC_TABLES[0][b]` is the
/// classic byte table (the register after folding in byte `b`), and
/// `CRC_TABLES[k][b]` is that register advanced over `k` more zero bytes:
/// byte `b`'s contribution from `k` positions before the end of a
/// 16-byte word. Sixteen independent lookups then fold a whole word into
/// the register (16 KiB of tables).
static CRC_TABLES: [[u32; 256]; CRC_SLICES] = crc_tables();

const fn crc_tables() -> [[u32; 256]; CRC_SLICES] {
    let mut tables = [[0u32; 256]; CRC_SLICES];
    let mut i = 0;
    let mut byte = 0u32;
    while i < 256 {
        tables[0][i] = crc_zero_byte(byte);
        let mut k = 1;
        while k < CRC_SLICES {
            tables[k][i] = crc_zero_byte(tables[k - 1][i]);
            k += 1;
        }
        i += 1;
        byte += 1;
    }
    tables
}

/// CRC32 (IEEE) of `bytes` — the polynomial zlib and PNG use.
///
/// Slicing-by-16: the register is xored into a 16-byte word's first four
/// bytes, then each byte of the word takes one lookup in the table for its
/// distance from the word's end. The lookups are independent, where the
/// byte-at-a-time loop chains every one on the last; the under-16-byte
/// tail runs that loop on the first table.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut c = 0xFFFF_FFFFu32;
    let mut words = bytes.chunks_exact(CRC_SLICES);
    for w in &mut words {
        let mut word = [0u8; CRC_SLICES];
        word.copy_from_slice(w);
        let head = c ^ u32::from_le_bytes([word[0], word[1], word[2], word[3]]);
        word[..4].copy_from_slice(&head.to_le_bytes());
        c = word
            .iter()
            .zip(CRC_TABLES.iter().rev())
            .fold(0, |acc, (&b, table)| acc ^ table[usize::from(b)]);
    }
    for &b in words.remainder() {
        c = CRC_TABLES[0][usize::from(c.to_le_bytes()[0] ^ b)] ^ (c >> 8);
    }
    c ^ 0xFFFF_FFFF
}

// ---------------------------------------------------------------------------
// Typed payload writer / reader
// ---------------------------------------------------------------------------

/// Builds one section payload out of typed primitives.
///
/// Floats are stored via their IEEE bit patterns, so round-trips are exact
/// to the last ulp — the property the bit-identical-logits guarantee rests
/// on.
#[derive(Debug, Default, Clone)]
pub struct SectionWriter {
    buf: Vec<u8>,
}

impl SectionWriter {
    /// An empty payload.
    pub fn new() -> Self {
        SectionWriter::default()
    }

    /// The accumulated bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Appends a `u8`.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a `u32`.
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a `u64`.
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a `usize` as `u64`.
    pub fn put_usize(&mut self, v: usize) {
        self.put_u64(to_u64(v));
    }

    /// Appends an `f32` bit pattern.
    pub fn put_f32(&mut self, v: f32) {
        self.put_u32(v.to_bits());
    }

    /// Appends an `f64` bit pattern.
    pub fn put_f64(&mut self, v: f64) {
        self.put_u64(v.to_bits());
    }

    /// Appends a length-prefixed `f32` slice.
    pub fn put_f32_slice(&mut self, v: &[f32]) {
        self.put_usize(v.len());
        for &x in v {
            self.put_f32(x);
        }
    }

    /// Appends a length-prefixed `usize` slice (as `u64`s).
    pub fn put_usize_slice(&mut self, v: &[usize]) {
        self.put_usize(v.len());
        for &x in v {
            self.put_usize(x);
        }
    }

    /// Appends a tensor as shape + flat data.
    pub fn put_tensor(&mut self, t: &ascend_tensor::Tensor) {
        self.put_usize_slice(t.shape());
        self.put_usize(t.numel());
        for &x in t.data() {
            self.put_f32(x);
        }
    }
}

/// Bounds-checked cursor over one section payload.
///
/// Every getter returns [`ScError::CorruptArtifact`] on truncation; slice
/// getters validate the length prefix against the remaining bytes *before*
/// allocating, so a corrupt length cannot trigger a huge allocation.
#[derive(Debug, Clone)]
pub struct SectionReader<'a> {
    tag: [u8; 4],
    buf: &'a [u8],
    pos: usize,
}

impl<'a> SectionReader<'a> {
    /// Wraps the payload bytes of the section tagged `tag`, as returned by
    /// [`ArtifactReader::read_section`].
    pub fn new(tag: [u8; 4], buf: &'a [u8]) -> Self {
        SectionReader { tag, buf, pos: 0 }
    }

    fn truncated(&self, what: &str) -> ScError {
        corrupt(format!(
            "section `{}` truncated reading {what} at offset {} of {}",
            String::from_utf8_lossy(&self.tag),
            self.pos,
            self.buf.len()
        ))
    }

    fn take(&mut self, n: usize, what: &str) -> Result<&'a [u8], ScError> {
        let end = self
            .pos
            .checked_add(n)
            .ok_or_else(|| self.truncated(what))?;
        let bytes = self
            .buf
            .get(self.pos..end)
            .ok_or_else(|| self.truncated(what))?;
        self.pos = end;
        Ok(bytes)
    }

    /// Takes the `n · width` bytes of `n` fixed-width values as one range,
    /// so a corrupt count fails the bounds check before anything is
    /// allocated for it.
    fn take_values(&mut self, n: usize, width: usize, what: &str) -> Result<&'a [u8], ScError> {
        let len = n.checked_mul(width).ok_or_else(|| self.truncated(what))?;
        self.take(len, what)
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Errors unless the payload was consumed exactly — catches format
    /// drift where writer and reader disagree on a section's contents.
    ///
    /// # Errors
    ///
    /// [`ScError::CorruptArtifact`] if bytes remain.
    pub fn expect_end(&self) -> Result<(), ScError> {
        if self.remaining() != 0 {
            return Err(corrupt(format!(
                "section `{}` has {} trailing bytes",
                String::from_utf8_lossy(&self.tag),
                self.remaining()
            )));
        }
        Ok(())
    }

    /// Reads a `u8`.
    ///
    /// # Errors
    ///
    /// [`ScError::CorruptArtifact`] on truncation.
    pub fn get_u8(&mut self) -> Result<u8, ScError> {
        Ok(self.take(1, "u8")?[0])
    }

    /// Reads a `u32`.
    ///
    /// # Errors
    ///
    /// [`ScError::CorruptArtifact`] on truncation.
    pub fn get_u32(&mut self) -> Result<u32, ScError> {
        let b = self.take(4, "u32")?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    /// Reads a `u64`.
    ///
    /// # Errors
    ///
    /// [`ScError::CorruptArtifact`] on truncation.
    pub fn get_u64(&mut self) -> Result<u64, ScError> {
        let b = self.take(8, "u64")?;
        Ok(u64::from_le_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }

    /// Reads a `u64` and converts to `usize`.
    ///
    /// # Errors
    ///
    /// [`ScError::CorruptArtifact`] on truncation or if the value does not
    /// fit a `usize`.
    pub fn get_usize(&mut self) -> Result<usize, ScError> {
        to_usize(self.get_u64()?)
    }

    /// Reads an `f32` bit pattern.
    ///
    /// # Errors
    ///
    /// [`ScError::CorruptArtifact`] on truncation.
    pub fn get_f32(&mut self) -> Result<f32, ScError> {
        Ok(f32::from_bits(self.get_u32()?))
    }

    /// Reads an `f64` bit pattern.
    ///
    /// # Errors
    ///
    /// [`ScError::CorruptArtifact`] on truncation.
    pub fn get_f64(&mut self) -> Result<f64, ScError> {
        Ok(f64::from_bits(self.get_u64()?))
    }

    /// Reads a length-prefixed `f32` slice.
    ///
    /// # Errors
    ///
    /// [`ScError::CorruptArtifact`] on truncation (checked before the
    /// allocation).
    pub fn get_f32_slice(&mut self) -> Result<Vec<f32>, ScError> {
        let n = self.get_usize()?;
        Ok(decode_f32s(self.take_values(n, 4, "f32 slice")?))
    }

    /// Reads a length-prefixed `usize` slice.
    ///
    /// # Errors
    ///
    /// [`ScError::CorruptArtifact`] on truncation (checked before the
    /// allocation).
    pub fn get_usize_slice(&mut self) -> Result<Vec<usize>, ScError> {
        let n = self.get_usize()?;
        let bytes = self.take_values(n, 8, "usize slice")?;
        let mut out = Vec::with_capacity(n);
        for b in bytes.chunks_exact(8) {
            out.push(to_usize(u64::from_le_bytes([
                b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
            ]))?);
        }
        Ok(out)
    }

    /// Reads a tensor written by [`SectionWriter::put_tensor`].
    ///
    /// # Errors
    ///
    /// [`ScError::CorruptArtifact`] on truncation or if the shape and
    /// element count disagree.
    pub fn get_tensor(&mut self) -> Result<ascend_tensor::Tensor, ScError> {
        let shape = self.get_usize_slice()?;
        let n = self.get_usize()?;
        let data = decode_f32s(self.take_values(n, 4, "tensor data")?);
        ascend_tensor::Tensor::try_from_parts(data, shape).map_err(corrupt)
    }
}

/// Decodes little-endian `f32` bit patterns; `bytes.len()` is a multiple
/// of 4 (the caller took `n · 4` bytes).
fn decode_f32s(bytes: &[u8]) -> Vec<f32> {
    bytes
        .chunks_exact(4)
        .map(|b| f32::from_bits(u32::from_le_bytes([b[0], b[1], b[2], b[3]])))
        .collect()
}

/// A stored `u64` as a `usize`, refusing one past the address space.
fn to_usize(v: u64) -> Result<usize, ScError> {
    usize::try_from(v).map_err(|_| corrupt(format!("length {v} exceeds the address space")))
}

/// A `usize` length or offset as the `u64` the format stores.
#[expect(
    clippy::as_conversions,
    reason = "usize is at most 64 bits wide on every target Rust supports, so the cast never truncates"
)]
const fn to_u64(v: usize) -> u64 {
    v as u64
}

// ---------------------------------------------------------------------------
// Artifact container
// ---------------------------------------------------------------------------

/// Assembles a complete artifact file from tagged sections.
#[derive(Debug, Clone)]
pub struct ArtifactWriter {
    kind: ArtifactKind,
    sections: Vec<([u8; 4], Vec<u8>)>,
}

impl ArtifactWriter {
    /// Starts an artifact of the given kind.
    pub fn new(kind: ArtifactKind) -> Self {
        ArtifactWriter {
            kind,
            sections: Vec::new(),
        }
    }

    /// Appends a section.
    ///
    /// # Panics
    ///
    /// Panics if the artifact already holds `MAX_SECTIONS` (256) sections — a
    /// larger container could be serialized but never read back.
    pub fn add_section(&mut self, tag: [u8; 4], payload: SectionWriter) {
        assert!(
            self.sections.len() < MAX_SECTIONS,
            "artifact section count would exceed the format cap {MAX_SECTIONS}"
        );
        self.sections.push((tag, payload.into_bytes()));
    }

    /// Serializes the container.
    pub fn to_bytes(&self) -> Vec<u8> {
        let table_len = self.sections.len() * ENTRY_LEN;
        let mut payload_offset = to_u64(HEADER_LEN + table_len);

        // Bytes [8, 24) of the header plus the table, covered by the
        // header CRC.
        let mut covered = Vec::with_capacity(16 + table_len);
        covered.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
        covered.extend_from_slice(&self.kind.code().to_le_bytes());
        #[expect(
            clippy::as_conversions,
            reason = "add_section caps the count at MAX_SECTIONS (256), far inside u32"
        )]
        covered.extend_from_slice(&(self.sections.len() as u32).to_le_bytes());
        covered.extend_from_slice(&0u32.to_le_bytes()); // reserved
        for (tag, payload) in &self.sections {
            covered.extend_from_slice(tag);
            covered.extend_from_slice(&crc32(payload).to_le_bytes());
            covered.extend_from_slice(&payload_offset.to_le_bytes());
            covered.extend_from_slice(&to_u64(payload.len()).to_le_bytes());
            payload_offset += to_u64(payload.len());
        }

        #[expect(
            clippy::as_conversions,
            reason = "capacity hint only; a truncated hint costs a realloc, never bytes"
        )]
        let mut out = Vec::with_capacity(payload_offset as usize);
        out.extend_from_slice(&MAGIC);
        out.extend_from_slice(&covered[..12]);
        out.extend_from_slice(&crc32(&covered).to_le_bytes());
        out.extend_from_slice(&covered[16..]);
        for (_, payload) in &self.sections {
            out.extend_from_slice(payload);
        }
        out
    }

    /// Writes the artifact to `path` atomically (temp file + rename), so a
    /// crashed writer can never leave a half-written artifact behind and
    /// concurrent writers of the same path each publish a complete file
    /// (last rename wins).
    ///
    /// # Errors
    ///
    /// [`ScError::Io`] on any filesystem failure.
    pub fn write_to(&self, path: &Path) -> Result<(), ScError> {
        // Unique per call — pid alone would collide across threads of one
        // process writing the same path.
        static SERIAL: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
        if let Some(parent) = path.parent() {
            if !parent.as_os_str().is_empty() {
                std::fs::create_dir_all(parent).map_err(|e| io_err(path, e))?;
            }
        }
        let tmp = path.with_extension(format!(
            "tmp.{}.{}",
            std::process::id(),
            SERIAL.fetch_add(1, std::sync::atomic::Ordering::Relaxed)
        ));
        std::fs::write(&tmp, self.to_bytes()).map_err(|e| io_err(&tmp, e))?;
        std::fs::rename(&tmp, path).map_err(|e| {
            let _ = std::fs::remove_file(&tmp);
            io_err(path, e)
        })
    }
}

// ---------------------------------------------------------------------------
// Reading: header + table up front, one payload per request
// ---------------------------------------------------------------------------

/// One verified section-table entry held by an [`ArtifactReader`].
#[derive(Debug, Clone, Copy)]
struct TableEntry {
    tag: [u8; 4],
    crc: u32,
    offset: u64,
    len: u64,
}

/// An artifact handle — the one way artifacts are read. Opening it reads
/// and verifies only the 24-byte header and the section table (magic,
/// version, kind, count, header CRC, contiguous offsets, unique tags, exact
/// file length), **not** the payloads. [`ArtifactReader::read_section`]
/// then reads exactly one payload from disk and validates that section's
/// CRC — so a decoder pays the i/o and checksum cost of the sections it
/// reads, and a caller that reads every section in
/// [`ArtifactReader::section_index`] has checked every byte of the file.
///
/// A missing file surfaces as [`ScError::Io`] with `not_found: true` (an
/// HTTP registry maps that to 404); any malformed structure surfaces as
/// [`ScError::CorruptArtifact`].
#[derive(Debug)]
pub struct ArtifactReader {
    path: std::path::PathBuf,
    kind: ArtifactKind,
    entries: Vec<TableEntry>,
    file: std::sync::Mutex<std::fs::File>,
}

impl ArtifactReader {
    /// Opens `path` and verifies the header + section table only.
    ///
    /// # Errors
    ///
    /// [`ScError::Io`] (with `not_found` set for a missing file) if the
    /// file cannot be opened or read, [`ScError::CorruptArtifact`] if the
    /// header or table fails any structural check.
    pub fn open(path: &Path) -> Result<Self, ScError> {
        use std::io::Read;

        let file = std::fs::File::open(path).map_err(|e| io_err(path, e))?;
        let file_len = file.metadata().map_err(|e| io_err(path, e))?.len();
        if file_len < to_u64(HEADER_LEN) {
            return Err(corrupt(format!(
                "file of {file_len} bytes is shorter than the header"
            )));
        }

        let mut header = [0u8; HEADER_LEN];
        (&file)
            .read_exact(&mut header)
            .map_err(|e| io_err(path, e))?;
        if header[..8] != MAGIC {
            return Err(corrupt("bad magic — not an ASCEND artifact".into()));
        }
        let word = |at: usize| {
            u32::from_le_bytes([header[at], header[at + 1], header[at + 2], header[at + 3]])
        };
        let version = word(8);
        if version != FORMAT_VERSION {
            return Err(corrupt(format!(
                "format version {version} unsupported (reader speaks {FORMAT_VERSION})"
            )));
        }
        let kind = ArtifactKind::from_code(word(12))?;
        let count = usize::try_from(word(16))
            .map_err(|_| corrupt(format!("section count {} does not fit usize", word(16))))?;
        if count > MAX_SECTIONS {
            return Err(corrupt(format!(
                "section count {count} exceeds the cap {MAX_SECTIONS}"
            )));
        }
        let stored_header_crc = word(20);

        let table_len = count * ENTRY_LEN;
        if file_len < to_u64(HEADER_LEN + table_len) {
            return Err(corrupt("file truncated inside the section table".into()));
        }
        let mut table = vec![0u8; table_len];
        (&file)
            .read_exact(&mut table)
            .map_err(|e| io_err(path, e))?;

        // Header CRC over [8, 24) (CRC field zeroed via the reserved slot)
        // + table.
        let mut covered = Vec::with_capacity(16 + table_len);
        covered.extend_from_slice(&header[8..20]);
        covered.extend_from_slice(&0u32.to_le_bytes());
        covered.extend_from_slice(&table);
        if crc32(&covered) != stored_header_crc {
            return Err(corrupt(
                "header CRC mismatch — section table corrupt".into(),
            ));
        }

        let mut entries: Vec<TableEntry> = Vec::with_capacity(count);
        let mut expected_offset = to_u64(HEADER_LEN + table_len);
        for i in 0..count {
            let e = &table[i * ENTRY_LEN..(i + 1) * ENTRY_LEN];
            let tag = [e[0], e[1], e[2], e[3]];
            let crc = u32::from_le_bytes([e[4], e[5], e[6], e[7]]);
            let offset = u64::from_le_bytes([e[8], e[9], e[10], e[11], e[12], e[13], e[14], e[15]]);
            let len = u64::from_le_bytes([e[16], e[17], e[18], e[19], e[20], e[21], e[22], e[23]]);
            if offset != expected_offset {
                return Err(corrupt(format!(
                    "section {i} at offset {offset}, expected {expected_offset}"
                )));
            }
            // A lookup finds a tag's first entry, so a repeat hides a payload.
            if entries.iter().any(|seen| seen.tag == tag) {
                let tag = String::from_utf8_lossy(&tag);
                return Err(corrupt(format!("section `{tag}` appears twice")));
            }
            expected_offset = offset
                .checked_add(len)
                .ok_or_else(|| corrupt(format!("section {i} length {len} out of range")))?;
            entries.push(TableEntry {
                tag,
                crc,
                offset,
                len,
            });
        }
        if expected_offset != file_len {
            return Err(corrupt(format!(
                "file has {file_len} bytes, sections end at {expected_offset}"
            )));
        }

        Ok(ArtifactReader {
            path: path.to_path_buf(),
            kind,
            entries,
            file: std::sync::Mutex::new(file),
        })
    }

    /// The artifact kind (from the verified header — no payload read).
    pub fn kind(&self) -> ArtifactKind {
        self.kind
    }

    /// Errors unless the artifact is of `want` kind.
    ///
    /// # Errors
    ///
    /// [`ScError::CorruptArtifact`] naming both kinds.
    pub fn expect_kind(&self, want: ArtifactKind) -> Result<(), ScError> {
        if self.kind != want {
            return Err(corrupt(format!(
                "artifact is {:?}, expected {want:?}",
                self.kind
            )));
        }
        Ok(())
    }

    /// Whether a section is present (table lookup — no payload read).
    pub fn has_section(&self, tag: [u8; 4]) -> bool {
        self.entries.iter().any(|e| e.tag == tag)
    }

    /// Tags and payload sizes, in file order (for `ascend-cli info`).
    pub fn section_index(&self) -> Vec<([u8; 4], usize)> {
        self.entries
            .iter()
            .map(|e| (e.tag, usize::try_from(e.len).unwrap_or(usize::MAX)))
            .collect()
    }

    /// Reads exactly the payload of the section tagged `tag` from disk and
    /// validates only that section's CRC.
    ///
    /// # Errors
    ///
    /// [`ScError::CorruptArtifact`] if the section is absent or its CRC
    /// does not match, [`ScError::Io`] on a read failure.
    pub fn read_section(&self, tag: [u8; 4]) -> Result<Vec<u8>, ScError> {
        use std::io::{Read, Seek, SeekFrom};

        let entry = self
            .entries
            .iter()
            .find(|e| e.tag == tag)
            .copied()
            .ok_or_else(|| {
                corrupt(format!(
                    "missing section `{}`",
                    String::from_utf8_lossy(&tag)
                ))
            })?;
        let len = usize::try_from(entry.len)
            .map_err(|_| corrupt(format!("section payload length {} out of range", entry.len)))?;
        // `open` proved offsets are contiguous and end exactly at the file
        // length, so `len` is bounded by the file size: safe to allocate.
        let mut payload = vec![0u8; len];
        {
            let mut file = match self.file.lock() {
                Ok(g) => g,
                Err(poisoned) => poisoned.into_inner(),
            };
            file.seek(SeekFrom::Start(entry.offset))
                .map_err(|e| io_err(&self.path, e))?;
            file.read_exact(&mut payload)
                .map_err(|e| io_err(&self.path, e))?;
        }
        if crc32(&payload) != entry.crc {
            return Err(corrupt(format!(
                "section `{}` payload CRC mismatch",
                String::from_utf8_lossy(&tag)
            )));
        }
        Ok(payload)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ascend_tensor::Tensor;

    #[test]
    fn crc32_matches_the_ieee_check_value() {
        // The canonical CRC-32 test vector.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    /// The CRC by its definition: one shift-xor step per bit, no tables.
    fn crc32_bitwise(bytes: &[u8]) -> u32 {
        let mut c = 0xFFFF_FFFFu32;
        for &b in bytes {
            c ^= u32::from(b);
            for _ in 0..8 {
                c = if c & 1 != 0 {
                    0xEDB8_8320 ^ (c >> 1)
                } else {
                    c >> 1
                };
            }
        }
        c ^ 0xFFFF_FFFF
    }

    /// Decodes a length-prefixed slice one value at a time with `get`.
    fn per_value<'a, T>(
        r: &mut SectionReader<'a>,
        mut get: impl FnMut(&mut SectionReader<'a>) -> Result<T, ScError>,
    ) -> Result<Vec<T>, ScError> {
        let n = r.get_usize()?;
        // Bounded by the payload so a random prefix cannot size the loop.
        (0..n.min(r.remaining() + 1)).map(|_| get(r)).collect()
    }

    /// A payload of a random small length prefix followed by random bytes.
    fn prefixed(n: u64, bytes: &[u8]) -> Vec<u8> {
        let mut payload = n.to_le_bytes().to_vec();
        payload.extend_from_slice(bytes);
        payload
    }

    /// Both decodes agree: the same values (compared bit for bit) and the
    /// same cursor on success, or both a corruption error.
    fn same_decode<T: PartialEq + std::fmt::Debug>(
        bulk: (Result<Vec<T>, ScError>, usize),
        each: (Result<Vec<T>, ScError>, usize),
    ) -> bool {
        match (bulk, each) {
            ((Ok(a), ra), (Ok(b), rb)) => a == b && ra == rb,
            (
                (Err(ScError::CorruptArtifact { .. }), _),
                (Err(ScError::CorruptArtifact { .. }), _),
            ) => true,
            _ => false,
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(512))]

        /// Every length 0–4096 at every start offset 0–7 (so every tail
        /// length and alignment of the 16-byte words) matches the bitwise
        /// definition.
        #[test]
        fn crc32_matches_the_bitwise_definition(
            len in 0usize..4097,
            start in 0usize..8,
            seed in proptest::prelude::any::<u64>(),
        ) {
            let mut x = seed | 1;
            let buf: Vec<u8> = (0..start + len)
                .map(|_| {
                    x ^= x << 13;
                    x ^= x >> 7;
                    x ^= x << 17;
                    x.to_le_bytes()[0]
                })
                .collect();
            let bytes = &buf[start..];
            proptest::prop_assert_eq!(crc32(bytes), crc32_bitwise(bytes));
        }

        /// The bulk `f32` and `usize` getters decode random payloads as
        /// the per-value getters do, truncated ones included.
        #[test]
        fn bulk_slice_getters_match_per_value_decoding(
            n in 0u64..40,
            bytes in proptest::collection::vec(proptest::prelude::any::<u8>(), 0..400),
        ) {
            let payload = prefixed(n, &bytes);
            let (mut bulk, mut each) = (
                SectionReader::new(*b"PROP", &payload),
                SectionReader::new(*b"PROP", &payload),
            );
            let f32_bits = |v: Result<Vec<f32>, ScError>| -> Result<Vec<u32>, ScError> {
                Ok(v?.into_iter().map(f32::to_bits).collect())
            };
            let got = (f32_bits(bulk.get_f32_slice()), bulk.remaining());
            let want = (f32_bits(per_value(&mut each, SectionReader::get_f32)), each.remaining());
            proptest::prop_assert!(same_decode(got, want), "f32 slice, n = {n}");

            let (mut bulk, mut each) = (
                SectionReader::new(*b"PROP", &payload),
                SectionReader::new(*b"PROP", &payload),
            );
            let got = (bulk.get_usize_slice(), bulk.remaining());
            let want = (per_value(&mut each, SectionReader::get_usize), each.remaining());
            proptest::prop_assert!(same_decode(got, want), "usize slice, n = {n}");
        }

        /// `get_tensor` decodes a random tensor's shape and data exactly
        /// as per-value reads of the same payload do.
        #[test]
        fn bulk_tensor_getter_matches_per_value_decoding(
            rows in 0usize..6,
            cols in 0usize..6,
            bits in proptest::collection::vec(proptest::prelude::any::<u32>(), 36..37),
        ) {
            let data: Vec<f32> = bits[..rows * cols].iter().map(|&b| f32::from_bits(b)).collect();
            let mut s = SectionWriter::new();
            s.put_tensor(&Tensor::from_vec(data, &[rows, cols]));
            let payload = s.into_bytes();

            let t = SectionReader::new(*b"PROP", &payload).get_tensor().unwrap();
            let mut each = SectionReader::new(*b"PROP", &payload);
            let shape = per_value(&mut each, SectionReader::get_usize).unwrap();
            let data = per_value(&mut each, SectionReader::get_f32).unwrap();
            each.expect_end().unwrap();
            proptest::prop_assert_eq!(t.shape(), &shape[..]);
            let got: Vec<u32> = t.data().iter().map(|x| x.to_bits()).collect();
            let want: Vec<u32> = data.iter().map(|x| x.to_bits()).collect();
            proptest::prop_assert_eq!(got, want);
        }
    }

    #[test]
    fn a_payload_cut_at_any_byte_is_a_corruption_error() {
        let mut s = SectionWriter::new();
        s.put_f32_slice(&[1.5, -0.25, 8.0]);
        s.put_usize_slice(&[3, 1, 4, 1]);
        s.put_tensor(&Tensor::from_vec(vec![0.5; 6], &[2, 3]));
        let payload = s.into_bytes();
        let decode = |bytes: &[u8]| -> Result<(), ScError> {
            let mut r = SectionReader::new(*b"CUT!", bytes);
            r.get_f32_slice()?;
            r.get_usize_slice()?;
            r.get_tensor()?;
            r.expect_end()
        };
        decode(&payload).unwrap();
        for len in 0..payload.len() {
            let err = decode(&payload[..len]).unwrap_err();
            assert!(
                matches!(err, ScError::CorruptArtifact { .. }),
                "cut at {len}: {err:?}"
            );
        }
    }

    #[test]
    fn a_usize_slice_refuses_only_values_past_the_address_space() {
        // Every u64 fits a 64-bit usize, so there the bulk getter must
        // keep the value; on a narrower target it must refuse it, as the
        // scalar getter does.
        let mut s = SectionWriter::new();
        s.put_usize(2);
        s.put_u64(7);
        s.put_u64(u64::MAX);
        let payload = s.into_bytes();
        let got = SectionReader::new(*b"WIDE", &payload).get_usize_slice();
        match usize::try_from(u64::MAX) {
            Ok(max) => assert_eq!(got.unwrap(), vec![7, max]),
            Err(_) => assert!(matches!(got, Err(ScError::CorruptArtifact { .. }))),
        }
    }

    fn tiny_artifact() -> ArtifactWriter {
        let mut w = ArtifactWriter::new(ArtifactKind::ModelCheckpoint);
        let mut s = SectionWriter::new();
        s.put_u32(7);
        s.put_f64(std::f64::consts::PI);
        s.put_f32_slice(&[1.0, -2.5, 3.25]);
        s.put_tensor(&Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]));
        w.add_section(*b"TST1", s);
        let mut s2 = SectionWriter::new();
        s2.put_usize_slice(&[4, 5, 6]);
        w.add_section(*b"TST2", s2);
        w
    }

    /// Writes `w` into a unique temp dir and returns the path.
    fn on_disk(name: &str, w: &ArtifactWriter) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("ascend-io-{}-{name}", std::process::id()));
        let path = dir.join("t.art");
        w.write_to(&path).unwrap();
        path
    }

    #[test]
    fn roundtrip_preserves_every_field_bit_exactly() {
        let path = on_disk("roundtrip", &tiny_artifact());
        let rd = ArtifactReader::open(&path).unwrap();
        assert_eq!(rd.kind(), ArtifactKind::ModelCheckpoint);
        assert!(rd.has_section(*b"TST1"));
        assert!(!rd.has_section(*b"NOPE"));
        let buf = rd.read_section(*b"TST1").unwrap();
        let mut r = SectionReader::new(*b"TST1", &buf);
        assert_eq!(r.get_u32().unwrap(), 7);
        assert_eq!(
            r.get_f64().unwrap().to_bits(),
            std::f64::consts::PI.to_bits()
        );
        assert_eq!(r.get_f32_slice().unwrap(), vec![1.0, -2.5, 3.25]);
        let t = r.get_tensor().unwrap();
        assert_eq!(t, Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]));
        r.expect_end().unwrap();
        let buf = rd.read_section(*b"TST2").unwrap();
        let mut r2 = SectionReader::new(*b"TST2", &buf);
        assert_eq!(r2.get_usize_slice().unwrap(), vec![4, 5, 6]);
        r2.expect_end().unwrap();
        std::fs::remove_dir_all(path.parent().unwrap()).unwrap();
    }

    #[test]
    fn missing_section_and_wrong_kind_are_typed_errors() {
        let path = on_disk("missing-section", &tiny_artifact());
        let rd = ArtifactReader::open(&path).unwrap();
        assert!(!rd.has_section(*b"NOPE"));
        assert!(matches!(
            rd.read_section(*b"NOPE"),
            Err(ScError::CorruptArtifact { .. })
        ));
        assert!(rd.expect_kind(ArtifactKind::ModelCheckpoint).is_ok());
        assert!(matches!(
            rd.expect_kind(ArtifactKind::Engine),
            Err(ScError::CorruptArtifact { .. })
        ));
        std::fs::remove_dir_all(path.parent().unwrap()).unwrap();
    }

    #[test]
    fn reader_rejects_oversized_length_prefix_without_allocating() {
        let mut s = SectionWriter::new();
        s.put_u64(u64::MAX); // absurd slice length prefix
        let bytes = s.into_bytes();
        let mut r = SectionReader::new(*b"LEN!", &bytes);
        assert!(matches!(
            r.get_f32_slice(),
            Err(ScError::CorruptArtifact { .. })
        ));
        let mut r = SectionReader::new(*b"LEN!", &bytes);
        assert!(matches!(
            r.get_usize_slice(),
            Err(ScError::CorruptArtifact { .. })
        ));
    }

    #[test]
    fn expect_end_catches_trailing_bytes() {
        let mut s = SectionWriter::new();
        s.put_u32(1);
        s.put_u32(2);
        let bytes = s.into_bytes();
        let mut r = SectionReader::new(*b"TAIL", &bytes);
        r.get_u32().unwrap();
        assert!(matches!(
            r.expect_end(),
            Err(ScError::CorruptArtifact { .. })
        ));
    }

    #[test]
    fn atomic_write_then_reopen_from_disk() {
        let path = on_disk("atomic", &tiny_artifact());
        let rd = ArtifactReader::open(&path).unwrap();
        assert_eq!(rd.section_index(), vec![(*b"TST1", 80), (*b"TST2", 32)]);
        std::fs::remove_dir_all(path.parent().unwrap()).unwrap();
    }

    #[test]
    fn lazy_reader_roundtrips_sections_bit_exactly() {
        let w = tiny_artifact();
        let path = on_disk("roundtrip-bytes", &w);
        let rd = ArtifactReader::open(&path).unwrap();
        for (tag, payload) in &w.sections {
            assert_eq!(&rd.read_section(*tag).unwrap(), payload);
        }
        std::fs::remove_dir_all(path.parent().unwrap()).unwrap();
    }

    #[test]
    fn lazy_reader_missing_file_is_not_found_io_error() {
        let err = ArtifactReader::open(Path::new("/nonexistent/ascend/artifact")).unwrap_err();
        assert!(
            matches!(
                err,
                ScError::Io {
                    not_found: true,
                    ..
                }
            ),
            "got {err:?}"
        );
    }

    #[test]
    fn lazy_reader_missing_section_is_a_typed_corruption_error() {
        let path = on_disk("missing-section-lazy", &tiny_artifact());
        let rd = ArtifactReader::open(&path).unwrap();
        assert!(matches!(
            rd.read_section(*b"NOPE"),
            Err(ScError::CorruptArtifact { .. })
        ));
        std::fs::remove_dir_all(path.parent().unwrap()).unwrap();
    }

    #[test]
    fn lazy_reader_validates_only_the_requested_sections_crc() {
        // Flip a payload bit inside TST2: the reader still serves TST1
        // (whose CRC is intact) and only fails when TST2 itself is
        // requested.
        let path = on_disk("one-bad-section", &tiny_artifact());
        let mut bytes = std::fs::read(&path).unwrap();
        let last = bytes.len() - 1; // final byte lives in TST2's payload
        bytes[last] ^= 0x01;
        std::fs::write(&path, &bytes).unwrap();

        let rd = ArtifactReader::open(&path).unwrap();
        assert!(rd.read_section(*b"TST1").is_ok());
        assert!(matches!(
            rd.read_section(*b"TST2"),
            Err(ScError::CorruptArtifact { .. })
        ));
        std::fs::remove_dir_all(path.parent().unwrap()).unwrap();
    }

    #[test]
    fn lazy_reader_rejects_corrupt_table_and_truncation_at_open() {
        let path = on_disk("bad-table", &tiny_artifact());
        let good = std::fs::read(&path).unwrap();

        // Corrupt a table byte: header CRC must fail at open.
        let mut bad = good.clone();
        bad[HEADER_LEN + 9] ^= 0x40; // inside TST1's offset field
        std::fs::write(&path, &bad).unwrap();
        assert!(matches!(
            ArtifactReader::open(&path),
            Err(ScError::CorruptArtifact { .. })
        ));

        // Truncate the payload region: the table parses but the end-of-file
        // check must fail at open, before any section is requested.
        std::fs::write(&path, &good[..good.len() - 4]).unwrap();
        assert!(matches!(
            ArtifactReader::open(&path),
            Err(ScError::CorruptArtifact { .. })
        ));

        // Truncate inside the header.
        std::fs::write(&path, &good[..10]).unwrap();
        assert!(matches!(
            ArtifactReader::open(&path),
            Err(ScError::CorruptArtifact { .. })
        ));
        std::fs::remove_dir_all(path.parent().unwrap()).unwrap();
    }

    #[test]
    fn a_repeated_section_tag_is_rejected_at_open() {
        // Only the first `TST1` could ever be read, so the second payload
        // would escape every CRC check: the table itself is malformed.
        let mut w = tiny_artifact();
        w.add_section(*b"TST1", SectionWriter::new());
        let path = on_disk("repeated-tag", &w);
        let err = ArtifactReader::open(&path).unwrap_err();
        assert!(err.to_string().contains("appears twice"), "got {err}");
        std::fs::remove_dir_all(path.parent().unwrap()).unwrap();
    }
}
