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
    Artifact, ArtifactKind, ArtifactReader, ArtifactWriter, SectionReader, SectionSource,
    SectionWriter,
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
            for step in
                [sn.attn_in_step, sn.attn_out_step, sn.res1_step, sn.res2_step, sn.mlp_in_step]
            {
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

    /// Reconstructs an engine from a verified artifact.
    ///
    /// # Errors
    ///
    /// [`ScError::CorruptArtifact`] for kind or section mismatches;
    /// propagates codec/block construction errors for invalid stored
    /// parameters.
    pub fn from_artifact(art: &Artifact) -> Result<ScEngine, ScError> {
        Self::from_source(art)
    }

    /// Reconstructs an engine from any [`SectionSource`] — the eager
    /// [`Artifact`] or the lazy [`ArtifactReader`]. Reads exactly the
    /// `ECFG`/`SMAX`/`LAYR`/`HEAD` sections.
    ///
    /// # Errors
    ///
    /// [`ScError::CorruptArtifact`] for kind or section mismatches;
    /// [`ScError::Io`] if a lazy source fails to read; propagates
    /// codec/block construction errors for invalid stored parameters.
    pub fn from_source<S: SectionSource + ?Sized>(src: &S) -> Result<ScEngine, ScError> {
        src.expect_kind(ArtifactKind::Engine)?;

        let buf = src.section_bytes(TAG_ENGINE_CONFIG)?;
        let mut cfg = SectionReader::new(TAG_ENGINE_CONFIG, &buf);
        let vit = get_vit_config(&mut cfg)?;
        let plan = get_plan(&mut cfg)?;
        let config = get_engine_config(&mut cfg)?;
        cfg.expect_end()?;
        check_config(&vit)?;

        let buf = src.section_bytes(TAG_SOFTMAX)?;
        let mut smax = SectionReader::new(TAG_SOFTMAX, &buf);
        let softmax_cfg = get_softmax_config(&mut smax)?;
        smax.expect_end()?;
        let softmax = IterSoftmaxBlock::new(softmax_cfg)?;

        let buf = src.section_bytes(TAG_LAYERS)?;
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

        let buf = src.section_bytes(TAG_HEAD)?;
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
        ScEngine::from_source(&ArtifactReader::open(path)?)
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
    if engine.softmax.config().m != cfg.seq_len() {
        return bad(format!(
            "softmax block row length {} does not match sequence length {}",
            engine.softmax.config().m,
            cfg.seq_len()
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
        return bad(format!("cls token of {} values, expected {d}", e.cls_token.numel()));
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
    Ok(QuantLinear { w: r.get_tensor()?, b: r.get_tensor()? })
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
    use crate::fixture::{engine_or_load, FixtureRecipe};

    fn tiny_engine() -> ScEngine {
        let mut recipe = FixtureRecipe::tiny("artifact-unit", 13);
        recipe.n_train = 32;
        recipe.n_test = 16;
        recipe.pre_epochs = 1;
        recipe.qat_epochs = 0;
        engine_or_load(&recipe, EngineConfig::default()).expect("engine compiles").0
    }

    #[test]
    fn wrong_artifact_kind_is_rejected() {
        let art =
            Artifact::from_bytes(&ArtifactWriter::new(ArtifactKind::ModelCheckpoint).to_bytes())
                .unwrap();
        assert!(matches!(
            ScEngine::from_artifact(&art),
            Err(ScError::CorruptArtifact { .. })
        ));
    }

    #[test]
    fn lazy_load_is_bit_identical_to_eager_parse() {
        use crate::backend::InferenceBackend;

        let engine = tiny_engine();
        let dir = std::env::temp_dir().join(format!("ascend-engine-lazy-{}", std::process::id()));
        let path = dir.join("engine.sceng");
        engine.save(&path).unwrap();

        let lazy = ScEngine::load(&path).unwrap();
        let eager = ScEngine::from_artifact(&Artifact::read_from(&path).unwrap()).unwrap();

        let cfg = lazy.vit_config();
        let n = cfg.num_patches() * cfg.patch_dim();
        let patches = ascend_tensor::Tensor::from_vec(
            (0..n).map(|i| ((i * 37 % 113) as f32 - 56.0) / 56.0).collect(),
            &[cfg.num_patches(), cfg.patch_dim()],
        );
        let a = lazy.forward(&patches, 1).unwrap();
        let b = eager.forward(&patches, 1).unwrap();
        for (x, y) in a.data().iter().zip(b.data().iter()) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn load_from_missing_path_is_a_not_found_io_error() {
        let err =
            ScEngine::load(Path::new("/nonexistent/ascend/engine.sceng")).map(|_| ()).unwrap_err();
        assert!(matches!(err, ScError::Io { not_found: true, .. }), "got {err:?}");
    }

    #[test]
    fn inconsistent_cls_token_is_rejected_at_load_not_inference() {
        let mut engine = tiny_engine();
        engine.net.cls_token = ascend_tensor::Tensor::zeros(&[3]);
        let art = Artifact::from_bytes(&engine.to_artifact().to_bytes()).unwrap();
        let err = ScEngine::from_artifact(&art).map(|_| ()).unwrap_err();
        assert!(matches!(err, ScError::CorruptArtifact { .. }), "got {err:?}");
    }

    #[test]
    fn layer_count_mismatch_is_rejected_at_load() {
        let mut engine = tiny_engine();
        engine.net.layers.pop();
        engine.gelu.pop();
        let art = Artifact::from_bytes(&engine.to_artifact().to_bytes()).unwrap();
        let err = ScEngine::from_artifact(&art).map(|_| ()).unwrap_err();
        assert!(matches!(err, ScError::CorruptArtifact { .. }), "got {err:?}");
    }

    #[test]
    fn truncated_weight_matrix_is_rejected_at_load() {
        let mut engine = tiny_engine();
        engine.net.layers[0].fc1.w = ascend_tensor::Tensor::zeros(&[1, 1]);
        let art = Artifact::from_bytes(&engine.to_artifact().to_bytes()).unwrap();
        let err = ScEngine::from_artifact(&art).map(|_| ()).unwrap_err();
        assert!(matches!(err, ScError::CorruptArtifact { .. }), "got {err:?}");
    }
}
