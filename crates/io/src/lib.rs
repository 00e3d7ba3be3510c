//! # ascend-io — persisted artifacts for the train-once / serve-many flow
//!
//! ASCEND's deployment story separates training from inference: the QAT
//! model is trained once, compiled once, and the serving fleet only ever
//! *loads* artifacts. This crate is the persistence layer that makes that
//! split real, with zero external dependencies (the build is offline):
//!
//! * [`format`] — the hand-rolled binary container: an 8-byte magic, a
//!   format version, an artifact kind, and a CRC-protected section table
//!   with one CRC32 per section payload. Every read path is bounds-checked
//!   and returns a typed [`sc_core::ScError`]; corrupt or truncated files
//!   can never panic or mis-load.
//! * [`checkpoint`] — [`checkpoint::ModelCheckpoint`]: the trained
//!   [`ascend_vit::VitModel`] as plain data (config, precision plan, every
//!   trainable tensor in bind order — including LSQ quantizer steps — BN
//!   running statistics, and an optional calibration batch so an engine can
//!   be compiled later without touching the training set).
//!
//! The compiled-engine artifact builds on [`format`] too, but lives in the
//! `ascend` crate (`ScEngine::save`/`ScEngine::load`) because it snapshots
//! engine internals.
//!
//! ## `ASCNDART` container layout
//!
//! Every artifact file is one container: a fixed header, a CRC-protected
//! section table, then the section payloads. All integers little-endian.
//!
//! | offset | bytes | field |
//! |-------:|------:|-------|
//! | 0      | 8     | magic `ASCNDART` |
//! | 8      | 4     | format version (`u32`) |
//! | 12     | 4     | artifact kind (`u32`: 1 = model checkpoint, 2 = engine) |
//! | 16     | 4     | section count `n` (`u32`) |
//! | 20     | 4     | header CRC32 (over version, kind, count, and the table) |
//! | 24     | 24·n  | section table: per section a 4-byte tag, `u32` payload CRC32, `u64` offset, `u64` length |
//! | 24+24·n| —     | section payloads, contiguous, in table order |
//!
//! Section tags by kind — **model checkpoint** (`ascend-cli train`):
//!
//! | tag    | payload |
//! |--------|---------|
//! | `CFG ` | [`ascend_vit::VitConfig`] + [`ascend_vit::PrecisionPlan`] |
//! | `PRM ` | every trainable tensor, in bind order (incl. LSQ steps) |
//! | `NRM ` | BatchNorm running statistics per norm site |
//! | `CLB ` | optional calibration batch (patches + batch size) |
//!
//! **engine** (`ascend-cli compile`; codecs live in `ascend::artifact`):
//!
//! | tag    | payload |
//! |--------|---------|
//! | `ECFG` | ViT config, precision plan, engine config |
//! | `SMAX` | calibrated iterative-softmax configuration |
//! | `LAYR` | per layer: affines, GELU table, quantized linears, steps |
//! | `HEAD` | head affine, patch embed, classifier, cls token, pos embedding |
//!
//! Readers reject unknown magic/version/kind, any out-of-bounds section,
//! and any CRC mismatch with a typed [`sc_core::ScError::CorruptArtifact`]
//! — `crates/io/tests/corruption.rs` proves every truncation and bit flip
//! is caught, and that arbitrary bytes or a re-sealed damaged section give
//! `Ok` or a typed error, never a panic.
//!
//! ## One reader, lazy sections
//!
//! The section table already carries every payload's offset, length, and
//! CRC, so a reader does not have to materialize the whole file to decode a
//! model. Every load path — `Session`, `load_backend`, `ascend-registry`,
//! [`checkpoint::ModelCheckpoint::load`], `ScEngine::load` — goes through
//! the one reader, [`format::ArtifactReader`]:
//!
//! * [`format::ArtifactReader::open`] reads and verifies only the 24-byte
//!   header + table (magic, version, kind, count, header CRC, contiguous
//!   offsets, unique tags, exact file length);
//! * [`format::ArtifactReader::read_section`] then reads one payload from
//!   disk and validates only that section's CRC.
//!
//! The decoders (`from_reader`) read every section of their kind, so a
//! load checks every byte it uses; `ascend-cli info` reads every section
//! in [`format::ArtifactReader::section_index`], so it checks every byte
//! of the file. Cold-loading a model in `ascend-registry` pays for the
//! sections its decoder asks for, not for whole-file checksumming.
//!
//! ## Load cost
//!
//! Every serving set-up loads an artifact, and the registry loads one on
//! every cold request, so the read path runs at memory speed:
//!
//! * **CRC32** ([`format::crc32`]) is slicing-by-16 over the IEEE
//!   polynomial. Sixteen 256-entry `u32` tables (16 KiB), built by a
//!   `const fn` at compile time, give each byte of a 16-byte word its
//!   contribution from its distance to the word's end, so a word takes
//!   sixteen independent lookups instead of a chain of dependent ones. The
//!   tail under 16 bytes runs the classic byte loop on the first table.
//!   About 0.6 ns per byte, against 3.4 for the byte loop.
//! * **Decode.** [`format::SectionReader::get_f32_slice`],
//!   [`format::SectionReader::get_usize_slice`] and
//!   [`format::SectionReader::get_tensor`] check the length prefix against
//!   the bytes left, take the whole `n · width` byte range once, and
//!   decode it with `chunks_exact` into a `Vec` allocated at its final
//!   size, instead of one bounds-checked read per value into a growing
//!   `Vec`. Every `u64` still goes through `usize::try_from`.
//!
//! Measured on a 2-core Xeon (release build, median of 200 loads of the
//! `perfbench prepare` models): a 284 KB m = 65 checkpoint loads in about
//! 0.4 ms and a 27–51 KB engine in 40–70 µs; the CRC is most of that.
//!
//! A missing file surfaces as [`sc_core::ScError::Io`] with
//! `not_found: true` (the registry's HTTP routes map it to 404); structural
//! damage stays [`sc_core::ScError::CorruptArtifact`] (500). Decoded
//! backends are shared `Arc`-style by the registry: M sessions over one
//! artifact hold one weight copy, and eviction accounting counts each
//! distinct backend once. Budget semantics, the `Cold → Warming → Warm`
//! state machine, and `--artifact name=path` examples live in the README's
//! "Serving over HTTP" section and in `crates/registry`.

#![warn(missing_docs)]
// Every `as` in the artifact codec is denied, widening ones included: a
// silent truncation reads garbage without failing the CRC honestly, so
// lengths and counts go through `try_from` with a `CorruptArtifact` error,
// or an `#[expect(clippy::as_conversions, reason = "…")]` that proves the
// value bounded (was `no-lossy-cast-in-io`).
#![deny(clippy::as_conversions)]

pub mod checkpoint;
pub mod format;

pub use checkpoint::{CalibBatch, ModelCheckpoint};
pub use format::{ArtifactKind, ArtifactReader, ArtifactWriter, SectionReader, SectionWriter};
