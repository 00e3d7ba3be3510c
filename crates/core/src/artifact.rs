//! Compiled-engine artifacts: persist an [`ScEngine`] and load it back
//! bit-for-bit.
//!
//! The serving half of the train-once / serve-many flow. A saved engine
//! carries everything inference needs as plain data — the fake-quantized
//! weight matrices, the folded BN affines, the snapshotted quantizer
//! steps, the calibrated softmax configuration, and each layer's GELU
//! transfer table — so [`ScEngine::load`] reconstructs the exact engine
//! without touching a model, a dataset, or any training code. Logits from
//! a loaded engine are bit-identical to the engine that was saved
//! (asserted by `tests/golden_regression.rs`).
//!
//! The container format (magic, version, CRC-per-section) comes from
//! [`ascend_io::format`]; this module only defines the engine sections:
//!
//! * `ECFG` — [`ascend_vit::VitConfig`], [`ascend_vit::PrecisionPlan`],
//!   [`EngineConfig`];
//! * `SMAX` — the calibrated [`IterSoftmaxConfig`];
//! * `LAYR` — per encoder layer: affines, GELU codec + ones table,
//!   quantized linears, quantizer steps;
//! * `HEAD` — head affine, patch embedding, classifier, cls token,
//!   positional embedding.

use std::path::Path;

use ascend_io::checkpoint::{
    check_config, get_plan, get_vit_config, put_plan, put_vit_config, ModelCheckpoint,
};
use ascend_io::format::{
    ArtifactKind, ArtifactReader, ArtifactWriter, SectionReader, SectionWriter,
};
use sc_core::encoding::Thermometer;
use sc_core::rescale::RescaleMode;
use sc_core::ScError;
use sc_nonlinear::gate_si::GateAssistedSi;
use sc_nonlinear::softmax_iter::{IterSoftmaxBlock, IterSoftmaxConfig};

use crate::engine::{EngineConfig, FrozenNet, QuantLayerSnapshot, QuantLinear, ScEngine};

const TAG_ENGINE_CONFIG: [u8; 4] = *b"ECFG";
const TAG_SOFTMAX: [u8; 4] = *b"SMAX";
const TAG_LAYERS: [u8; 4] = *b"LAYR";
const TAG_HEAD: [u8; 4] = *b"HEAD";

fn corrupt(reason: String) -> ScError {
    ScError::CorruptArtifact { reason }
}

impl ScEngine {
    /// Compiles an engine directly from a persisted model checkpoint,
    /// using the calibration batch stored inside it — the `ascend-cli
    /// compile` path. Training code is never touched.
    ///
    /// # Errors
    ///
    /// [`ScError::CorruptArtifact`] if the checkpoint cannot be restored
    /// or carries no calibration batch, plus every [`ScEngine::compile`]
    /// error.
    pub fn compile_from_checkpoint(
        ckpt: &ModelCheckpoint,
        config: EngineConfig,
    ) -> Result<ScEngine, ScError> {
        let model = ckpt.restore()?;
        let calib = ckpt.calib.as_ref().ok_or_else(|| {
            corrupt("checkpoint has no calibration batch — save it with one to compile".into())
        })?;
        ScEngine::compile(&model, config, &calib.patches, calib.batch)
    }

    /// Serializes the compiled engine into an artifact container.
    pub fn to_artifact(&self) -> ArtifactWriter {
        let mut w = ArtifactWriter::new(ArtifactKind::Engine);

        let mut cfg = SectionWriter::new();
        let net = &self.net;
        put_vit_config(&mut cfg, &net.vit);
        put_plan(&mut cfg, &net.plan);
        put_engine_config(&mut cfg, &self.config);
        w.add_section(TAG_ENGINE_CONFIG, cfg);

        let mut smax = SectionWriter::new();
        put_softmax_config(&mut smax, self.softmax.config());
        w.add_section(TAG_SOFTMAX, smax);

        let mut layr = SectionWriter::new();
        layr.put_usize(net.layers.len());
        for (sn, gelu) in net.layers.iter().zip(&self.gelu) {
            put_affine(&mut layr, &sn.norm1_affine);
            put_affine(&mut layr, &sn.norm2_affine);
            put_gelu(&mut layr, gelu);
            for lin in [&sn.q, &sn.k, &sn.v, &sn.proj, &sn.fc1, &sn.fc2] {
                put_linear(&mut layr, lin);
            }
            // `mlp_mid_step` is not written separately: it is the GELU
            // output codec's scale by construction, recovered on load.
            for step in [
                sn.attn_in_step,
                sn.attn_out_step,
                sn.res1_step,
                sn.res2_step,
                sn.mlp_in_step,
            ] {
                layr.put_f32(step);
            }
        }
        w.add_section(TAG_LAYERS, layr);

        let mut head = SectionWriter::new();
        put_affine(&mut head, &net.head_affine);
        put_linear(&mut head, &net.patch_embed);
        put_linear(&mut head, &net.head);
        head.put_tensor(&net.cls_token);
        head.put_tensor(&net.pos_embedding);
        w.add_section(TAG_HEAD, head);

        w
    }

    /// Reconstructs an engine from an opened artifact. Reads exactly the
    /// `ECFG`/`SMAX`/`LAYR`/`HEAD` sections — every section an engine
    /// holds — each validated by its own CRC.
    ///
    /// # Errors
    ///
    /// [`ScError::CorruptArtifact`] for kind or section mismatches;
    /// [`ScError::Io`] if a section cannot be read; propagates
    /// codec/block construction errors for invalid stored parameters.
    pub fn from_reader(reader: &ArtifactReader) -> Result<ScEngine, ScError> {
        reader.expect_kind(ArtifactKind::Engine)?;

        let buf = reader.read_section(TAG_ENGINE_CONFIG)?;
        let mut cfg = SectionReader::new(TAG_ENGINE_CONFIG, &buf);
        let vit = get_vit_config(&mut cfg)?;
        let plan = get_plan(&mut cfg)?;
        let config = get_engine_config(&mut cfg)?;
        cfg.expect_end()?;
        check_config(&vit)?;

        let buf = reader.read_section(TAG_SOFTMAX)?;
        let mut smax = SectionReader::new(TAG_SOFTMAX, &buf);
        let softmax_cfg = get_softmax_config(&mut smax)?;
        smax.expect_end()?;
        // Compile derives m from the geometry and k, Bx, By from the engine
        // config; check them before the block compiles any table.
        for (name, stored, derived) in [
            ("row length m", softmax_cfg.m, vit.seq_len()),
            ("k", softmax_cfg.k, config.softmax_k),
            ("Bx", softmax_cfg.bx, config.softmax_bx),
            ("By", softmax_cfg.by, config.softmax_by),
        ] {
            if stored != derived {
                return Err(corrupt(format!(
                    "softmax {name} = {stored} does not match the engine's {derived}"
                )));
            }
        }
        let softmax = IterSoftmaxBlock::new(softmax_cfg)?;

        let buf = reader.read_section(TAG_LAYERS)?;
        let mut layr = SectionReader::new(TAG_LAYERS, &buf);
        let n = layr.get_usize()?;
        if n > 1 << 16 {
            return Err(corrupt(format!("implausible layer count {n}")));
        }
        let mut layers = Vec::with_capacity(n);
        let mut gelus = Vec::with_capacity(n);
        for _ in 0..n {
            let norm1_affine = get_affine(&mut layr)?;
            let norm2_affine = get_affine(&mut layr)?;
            let gelu = get_gelu(&mut layr)?;
            let q = get_linear(&mut layr)?;
            let k = get_linear(&mut layr)?;
            let v = get_linear(&mut layr)?;
            let proj = get_linear(&mut layr)?;
            let fc1 = get_linear(&mut layr)?;
            let fc2 = get_linear(&mut layr)?;
            let attn_in_step = layr.get_f32()?;
            let attn_out_step = layr.get_f32()?;
            let res1_step = layr.get_f32()?;
            let res2_step = layr.get_f32()?;
            let mlp_in_step = layr.get_f32()?;
            // The GELU output grid was compiled at the MLP mid-site step
            // (`Thermometer::new(act_bsl, mlp_mid_step)`), so the stored
            // codec scale *is* the step — exact for any f32-valued step.
            let mlp_mid_step = gelu.output().scale() as f32;
            layers.push(QuantLayerSnapshot {
                norm1_affine,
                norm2_affine,
                q,
                k,
                v,
                proj,
                fc1,
                fc2,
                attn_in_step,
                attn_out_step,
                res1_step,
                res2_step,
                mlp_in_step,
                mlp_mid_step,
            });
            gelus.push(gelu);
        }
        layr.expect_end()?;

        let buf = reader.read_section(TAG_HEAD)?;
        let mut head = SectionReader::new(TAG_HEAD, &buf);
        let head_affine = get_affine(&mut head)?;
        let patch_embed = get_linear(&mut head)?;
        let head_lin = get_linear(&mut head)?;
        let cls_token = head.get_tensor()?;
        let pos_embedding = head.get_tensor()?;
        head.expect_end()?;

        let engine = ScEngine {
            config,
            softmax,
            gelu: gelus,
            net: FrozenNet {
                vit,
                plan,
                layers,
                head_affine,
                patch_embed,
                head: head_lin,
                cls_token,
                pos_embedding,
            },
        };
        validate_engine(&engine)?;
        Ok(engine)
    }

    /// Writes the engine artifact to `path` (atomic temp-file + rename).
    ///
    /// # Errors
    ///
    /// [`ScError::Io`] on filesystem failure.
    pub fn save(&self, path: &Path) -> Result<(), ScError> {
        self.to_artifact().write_to(path)
    }

    /// Loads a compiled engine from an artifact file — the serving-process
    /// entry point: no model, no dataset, no training code. Loading is
    /// lazy: only the header, section table, and the four engine sections
    /// are read, each validated by its own CRC.
    ///
    /// # Errors
    ///
    /// [`ScError::Io`] if the file cannot be read (`not_found` set when
    /// the path does not exist), [`ScError::CorruptArtifact`] if
    /// verification or parsing fails.
    pub fn load(path: &Path) -> Result<ScEngine, ScError> {
        ScEngine::from_reader(&ArtifactReader::open(path)?)
    }
}

/// Cross-checks every decoded section against the stored geometry, so a
/// well-formed container with *inconsistent* contents surfaces as a typed
/// error at load time rather than a panic at inference time.
fn validate_engine(engine: &ScEngine) -> Result<(), ScError> {
    let e = &engine.net;
    let cfg = &e.vit;
    let (d, hidden) = (cfg.dim, cfg.dim * cfg.mlp_ratio);
    let bad = |what: String| Err(corrupt(what));

    let affine = |name: &str, (scale, shift): &(Vec<f32>, Vec<f32>)| -> Result<(), ScError> {
        if scale.len() != d || shift.len() != d {
            return Err(corrupt(format!(
                "{name} affine lengths {}/{} do not match dim {d}",
                scale.len(),
                shift.len()
            )));
        }
        Ok(())
    };
    let linear = |name: &str, lin: &QuantLinear, din: usize, dout: usize| -> Result<(), ScError> {
        if lin.w.shape() != [din, dout] || lin.b.shape() != [dout] {
            return Err(corrupt(format!(
                "{name} shapes {:?}/{:?} do not match [{din}, {dout}]",
                lin.w.shape(),
                lin.b.shape()
            )));
        }
        Ok(())
    };

    if e.layers.len() != cfg.layers {
        return bad(format!(
            "artifact holds {} layers, config says {}",
            e.layers.len(),
            cfg.layers
        ));
    }
    for (i, sn) in e.layers.iter().enumerate() {
        affine(&format!("layer {i} norm1"), &sn.norm1_affine)?;
        affine(&format!("layer {i} norm2"), &sn.norm2_affine)?;
        for (name, lin) in [("q", &sn.q), ("k", &sn.k), ("v", &sn.v), ("proj", &sn.proj)] {
            linear(&format!("layer {i} {name}"), lin, d, d)?;
        }
        linear(&format!("layer {i} fc1"), &sn.fc1, d, hidden)?;
        linear(&format!("layer {i} fc2"), &sn.fc2, hidden, d)?;
    }
    affine("head", &e.head_affine)?;
    linear("patch embed", &e.patch_embed, cfg.patch_dim(), d)?;
    linear("head", &e.head, d, cfg.classes)?;
    if e.cls_token.numel() != d {
        return bad(format!(
            "cls token of {} values, expected {d}",
            e.cls_token.numel()
        ));
    }
    if e.pos_embedding.numel() != cfg.seq_len() * d {
        return bad(format!(
            "positional embedding of {} values, expected {}",
            e.pos_embedding.numel(),
            cfg.seq_len() * d
        ));
    }
    Ok(())
}

// --- field codecs ----------------------------------------------------------

fn put_affine(w: &mut SectionWriter, (scale, shift): &(Vec<f32>, Vec<f32>)) {
    w.put_f32_slice(scale);
    w.put_f32_slice(shift);
}

fn get_affine(r: &mut SectionReader<'_>) -> Result<(Vec<f32>, Vec<f32>), ScError> {
    Ok((r.get_f32_slice()?, r.get_f32_slice()?))
}

fn put_linear(w: &mut SectionWriter, lin: &QuantLinear) {
    w.put_tensor(&lin.w);
    w.put_tensor(&lin.b);
}

fn get_linear(r: &mut SectionReader<'_>) -> Result<QuantLinear, ScError> {
    Ok(QuantLinear {
        w: r.get_tensor()?,
        b: r.get_tensor()?,
    })
}

fn put_gelu(w: &mut SectionWriter, g: &GateAssistedSi) {
    w.put_usize(g.input().len());
    w.put_f64(g.input().scale());
    w.put_usize(g.output().len());
    w.put_f64(g.output().scale());
    w.put_usize_slice(g.ones_table());
}

fn get_gelu(r: &mut SectionReader<'_>) -> Result<GateAssistedSi, ScError> {
    let in_len = r.get_usize()?;
    let in_scale = r.get_f64()?;
    let out_len = r.get_usize()?;
    let out_scale = r.get_f64()?;
    let input = Thermometer::new(in_len, in_scale)?;
    let output = Thermometer::new(out_len, out_scale)?;
    let table = r.get_usize_slice()?;
    // `from_ones_table` asserts; pre-validate so corrupt data errors.
    if table.len() != in_len + 1 {
        return Err(corrupt(format!(
            "GELU table of {} entries does not cover Bx = {in_len}",
            table.len()
        )));
    }
    if table.iter().any(|&o| o > out_len) {
        return Err(corrupt("GELU table entry exceeds the output BSL".into()));
    }
    Ok(GateAssistedSi::from_ones_table(table, input, output))
}

fn put_rescale_mode(w: &mut SectionWriter, mode: RescaleMode) {
    w.put_u8(match mode {
        RescaleMode::Floor => 0,
        RescaleMode::Round => 1,
        RescaleMode::Ceil => 2,
    });
}

fn get_rescale_mode(r: &mut SectionReader<'_>) -> Result<RescaleMode, ScError> {
    match r.get_u8()? {
        0 => Ok(RescaleMode::Floor),
        1 => Ok(RescaleMode::Round),
        2 => Ok(RescaleMode::Ceil),
        other => Err(corrupt(format!("bad rescale mode {other}"))),
    }
}

fn put_engine_config(w: &mut SectionWriter, cfg: &EngineConfig) {
    w.put_usize(cfg.softmax_by);
    w.put_usize(cfg.softmax_s1);
    w.put_usize(cfg.softmax_s2);
    w.put_usize(cfg.softmax_k);
    w.put_usize(cfg.softmax_bx);
    w.put_usize(cfg.gelu_bx);
    put_rescale_mode(w, cfg.mode);
}

fn get_engine_config(r: &mut SectionReader<'_>) -> Result<EngineConfig, ScError> {
    Ok(EngineConfig {
        softmax_by: r.get_usize()?,
        softmax_s1: r.get_usize()?,
        softmax_s2: r.get_usize()?,
        softmax_k: r.get_usize()?,
        softmax_bx: r.get_usize()?,
        gelu_bx: r.get_usize()?,
        mode: get_rescale_mode(r)?,
    })
}

fn put_softmax_config(w: &mut SectionWriter, cfg: &IterSoftmaxConfig) {
    w.put_usize(cfg.m);
    w.put_usize(cfg.k);
    w.put_usize(cfg.bx);
    w.put_f64(cfg.ax);
    w.put_usize(cfg.by);
    w.put_f64(cfg.ay);
    w.put_usize(cfg.s1);
    w.put_usize(cfg.s2);
    put_rescale_mode(w, cfg.mode);
}

fn get_softmax_config(r: &mut SectionReader<'_>) -> Result<IterSoftmaxConfig, ScError> {
    Ok(IterSoftmaxConfig {
        m: r.get_usize()?,
        k: r.get_usize()?,
        bx: r.get_usize()?,
        ax: r.get_f64()?,
        by: r.get_usize()?,
        ay: r.get_f64()?,
        s1: r.get_usize()?,
        s2: r.get_usize()?,
        mode: get_rescale_mode(r)?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::InferenceBackend;
    use crate::fixture::{engine_or_load, FixtureRecipe};
    use ascend_obs::NoopObserver;
    use proptest::prelude::*;

    fn tiny_engine() -> ScEngine {
        let mut recipe = FixtureRecipe::tiny("artifact-unit", 13);
        recipe.n_train = 32;
        recipe.n_test = 16;
        recipe.pre_epochs = 1;
        recipe.qat_epochs = 0;
        engine_or_load(&recipe, EngineConfig::default())
            .expect("engine compiles")
            .0
    }

    /// A temp path unique to this process and `name`.
    fn temp_path(name: &str) -> std::path::PathBuf {
        std::env::temp_dir()
            .join(format!("ascend-engine-{}-{name}", std::process::id()))
            .join("engine.sceng")
    }

    /// Writes `w` to a temp file, loads it as an engine, and removes it.
    fn decode(name: &str, w: &ArtifactWriter) -> Result<ScEngine, ScError> {
        let path = temp_path(name);
        w.write_to(&path).unwrap();
        let got = ScEngine::load(&path);
        std::fs::remove_dir_all(path.parent().unwrap()).unwrap();
        got
    }

    /// The tag and payload of every section of `w`, in file order.
    fn sections_of(name: &str, w: &ArtifactWriter) -> Vec<([u8; 4], Vec<u8>)> {
        let path = temp_path(name);
        w.write_to(&path).unwrap();
        let reader = ArtifactReader::open(&path).unwrap();
        let sections = reader
            .section_index()
            .into_iter()
            .map(|(tag, _)| (tag, reader.read_section(tag).unwrap()))
            .collect();
        std::fs::remove_dir_all(path.parent().unwrap()).unwrap();
        sections
    }

    /// An engine artifact of `sections`, sealed so every CRC holds.
    fn seal(sections: &[([u8; 4], Vec<u8>)]) -> ArtifactWriter {
        let mut w = ArtifactWriter::new(ArtifactKind::Engine);
        for (tag, payload) in sections {
            let mut s = SectionWriter::new();
            for &b in payload {
                s.put_u8(b);
            }
            w.add_section(*tag, s);
        }
        w
    }

    /// `engine`'s artifact with its `SMAX` section re-sealed as `sm`.
    fn with_softmax(engine: &ScEngine, name: &str, sm: IterSoftmaxConfig) -> ArtifactWriter {
        let mut smax = SectionWriter::new();
        put_softmax_config(&mut smax, &sm);
        let mut sections = sections_of(name, &engine.to_artifact());
        for (tag, payload) in &mut sections {
            if *tag == TAG_SOFTMAX {
                *payload = smax.clone().into_bytes();
            }
        }
        seal(&sections)
    }

    #[test]
    fn wrong_artifact_kind_is_rejected() {
        let err = decode(
            "wrong-kind",
            &ArtifactWriter::new(ArtifactKind::ModelCheckpoint),
        )
        .map(|_| ())
        .unwrap_err();
        assert!(
            matches!(err, ScError::CorruptArtifact { .. }),
            "got {err:?}"
        );
    }

    #[test]
    fn loaded_engine_logits_are_bit_identical_to_the_in_memory_engine() {
        let engine = tiny_engine();
        let path = temp_path("bit-identical");
        engine.save(&path).unwrap();
        let loaded = ScEngine::load(&path).unwrap();

        let cfg = loaded.vit_config();
        let n = cfg.num_patches() * cfg.patch_dim();
        let patches = ascend_tensor::Tensor::from_vec(
            (0..n)
                .map(|i| ((i * 37 % 113) as f32 - 56.0) / 56.0)
                .collect(),
            &[cfg.num_patches(), cfg.patch_dim()],
        );
        let a = loaded.forward(&patches, 1).unwrap();
        let b = engine.forward(&patches, 1).unwrap();
        for (x, y) in a.data().iter().zip(b.data().iter()) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
        std::fs::remove_dir_all(path.parent().unwrap()).unwrap();
    }

    #[test]
    fn load_from_missing_path_is_a_not_found_io_error() {
        let err = ScEngine::load(Path::new("/nonexistent/ascend/engine.sceng"))
            .map(|_| ())
            .unwrap_err();
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
    fn inconsistent_cls_token_is_rejected_at_load_not_inference() {
        let mut engine = tiny_engine();
        engine.net.cls_token = ascend_tensor::Tensor::zeros(&[3]);
        let err = decode("cls-token", &engine.to_artifact())
            .map(|_| ())
            .unwrap_err();
        assert!(
            matches!(err, ScError::CorruptArtifact { .. }),
            "got {err:?}"
        );
    }

    #[test]
    fn layer_count_mismatch_is_rejected_at_load() {
        let mut engine = tiny_engine();
        engine.net.layers.pop();
        engine.gelu.pop();
        let err = decode("layer-count", &engine.to_artifact())
            .map(|_| ())
            .unwrap_err();
        assert!(
            matches!(err, ScError::CorruptArtifact { .. }),
            "got {err:?}"
        );
    }

    #[test]
    fn truncated_weight_matrix_is_rejected_at_load() {
        let mut engine = tiny_engine();
        engine.net.layers[0].fc1.w = ascend_tensor::Tensor::zeros(&[1, 1]);
        let err = decode("fc1", &engine.to_artifact())
            .map(|_| ())
            .unwrap_err();
        assert!(
            matches!(err, ScError::CorruptArtifact { .. }),
            "got {err:?}"
        );
    }

    #[test]
    fn a_hostile_softmax_section_is_a_typed_error_not_an_overflow() {
        // m = 2^40, Bx = By = 2^20: m·Bx·By overflows 64 bits. The decoder
        // must refuse it before any stream length is computed.
        let engine = tiny_engine();
        let sm = IterSoftmaxConfig {
            m: 1 << 40,
            bx: 1 << 20,
            by: 1 << 20,
            s1: 1,
            s2: 1,
            ..*engine.softmax_block().config()
        };
        let err = decode(
            "smax-overflow",
            &with_softmax(&engine, "smax-overflow-src", sm),
        )
        .map(|_| ())
        .unwrap_err();
        assert!(
            matches!(err, ScError::CorruptArtifact { .. }),
            "got {err:?}"
        );
    }

    #[test]
    fn a_softmax_row_length_off_the_geometry_is_rejected_before_the_block_is_built() {
        let engine = tiny_engine();
        let stored = *engine.softmax_block().config();
        for (what, sm) in [
            ("m", IterSoftmaxConfig { m: 1000, ..stored }),
            (
                "k",
                IterSoftmaxConfig {
                    k: stored.k + 1,
                    ..stored
                },
            ),
            (
                "Bx",
                IterSoftmaxConfig {
                    bx: stored.bx * 2,
                    ..stored
                },
            ),
            (
                "By",
                IterSoftmaxConfig {
                    by: stored.by * 2,
                    ..stored
                },
            ),
        ] {
            let err = decode(
                "smax-geometry",
                &with_softmax(&engine, "smax-geometry-src", sm),
            )
            .map(|_| ())
            .unwrap_err();
            assert!(
                err.to_string().contains("does not match the engine"),
                "{what}: got {err}"
            );
        }
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

    /// The sections of the fixture engine's artifact, built once.
    fn fixture_sections() -> &'static [([u8; 4], Vec<u8>)] {
        static SECTIONS: std::sync::OnceLock<Vec<([u8; 4], Vec<u8>)>> = std::sync::OnceLock::new();
        SECTIONS.get_or_init(|| sections_of("proptest-src", &tiny_engine().to_artifact()))
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// One section's payload damaged and sealed again, so the CRCs
        /// pass and the damage reaches the decoder: loading gives `Ok` or
        /// a typed error, and an engine that loads answers one forward
        /// with `Ok` or `Err`, never a panic.
        #[test]
        fn a_resealed_engine_section_loads_or_fails_typed(
            section in 0usize..4,
            op in 0u8..4,
            at in any::<usize>(),
            bytes in prop::collection::vec(any::<u8>(), 1..9),
            word in prop::sample::select(WORDS.to_vec()),
        ) {
            let mut sections = fixture_sections().to_vec();
            damage(&mut sections[section].1, op, at, &bytes, word);
            if let Ok(engine) = decode("proptest", &seal(&sections)) {
                let cfg = engine.vit_config();
                let patches = vec![0.25f32; cfg.num_patches() * cfg.patch_dim()];
                let mut scratch = engine.make_scratch();
                // Either outcome is allowed; reaching the next line is the
                // property.
                let _ = engine.forward_one(&patches, &mut scratch, &mut NoopObserver);
            }
        }
    }
}
