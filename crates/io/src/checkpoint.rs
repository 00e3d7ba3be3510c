//! Trained-model checkpoints: capture, persist, restore.
//!
//! A checkpoint holds everything needed to resurrect a trained
//! [`VitModel`] bit-for-bit — the paper's train-once half of the
//! train-once / serve-many flow:
//!
//! * `CFG ` — [`VitConfig`] + [`PrecisionPlan`] + softmax flavour;
//! * `PRM ` — every trainable tensor in bind order (weights, biases, norm
//!   γ/β, embeddings, and all LSQ quantizer steps);
//! * `NRM ` — BatchNorm running statistics per norm site;
//! * `CLB ` — optionally, the calibration patch batch, so
//!   `ScEngine::compile_from_checkpoint` can calibrate without the
//!   training set.

use std::path::Path;

use ascend_tensor::Tensor;
use ascend_vit::quant::SitePrecision;
use ascend_vit::{NormKind, PrecisionPlan, SoftmaxKind, VitConfig, VitModel};
use sc_core::ScError;

use crate::format::{
    corrupt, ArtifactKind, ArtifactReader, ArtifactWriter, SectionReader, SectionWriter,
};

/// Section tags of the checkpoint format.
const TAG_CONFIG: [u8; 4] = *b"CFG ";
const TAG_PARAMS: [u8; 4] = *b"PRM ";
const TAG_NORMS: [u8; 4] = *b"NRM ";
const TAG_CALIB: [u8; 4] = *b"CLB ";

/// The calibration batch compiled engines are calibrated with: one
/// representative set of patch rows plus its image count.
#[derive(Debug, Clone, PartialEq)]
pub struct CalibBatch {
    /// `[batch·num_patches, patch_dim]` patch rows.
    pub patches: Tensor,
    /// Number of images the rows cover.
    pub batch: usize,
}

/// A trained `VitModel` as plain persisted data.
#[derive(Debug, Clone, PartialEq)]
pub struct ModelCheckpoint {
    /// Model geometry and flavour flags.
    pub config: VitConfig,
    /// The precision plan the model was trained to.
    pub plan: PrecisionPlan,
    /// Trainable tensors in bind order ([`VitModel::params`]).
    pub params: Vec<Tensor>,
    /// BatchNorm running stats ([`VitModel::norm_states`] order).
    pub norm_states: Vec<(Vec<f32>, Vec<f32>)>,
    /// Calibration batch for downstream engine compilation, if attached.
    pub calib: Option<CalibBatch>,
}

impl ModelCheckpoint {
    /// Snapshots a trained model (no calibration batch attached).
    pub fn capture(model: &VitModel) -> Self {
        ModelCheckpoint {
            config: model.config,
            plan: model.plan(),
            params: model.params().into_iter().cloned().collect(),
            norm_states: model.norm_states(),
            calib: None,
        }
    }

    /// Attaches the calibration batch (builder style).
    #[must_use]
    pub fn with_calib(mut self, patches: Tensor, batch: usize) -> Self {
        self.calib = Some(CalibBatch { patches, batch });
        self
    }

    /// Rebuilds the trained model. The result is bit-identical to the
    /// captured one: same parameters, quantizer steps, and BN statistics.
    ///
    /// # Errors
    ///
    /// [`ScError::CorruptArtifact`] if the stored geometry is invalid or
    /// the tensors do not fit it.
    pub fn restore(&self) -> Result<VitModel, ScError> {
        check_config(&self.config)?;
        // `VitModel::new` allocates and initializes every tensor the
        // geometry implies, so the stored tensors must back them first.
        let needed = geometry_scalars(&self.config)?;
        let stored: usize = self.params.iter().map(Tensor::numel).sum();
        if stored < needed {
            return Err(corrupt(format!(
                "checkpoint holds {stored} parameter scalars, its geometry needs at least {needed}"
            )));
        }
        let mut model = VitModel::new(self.config);
        model.set_plan(self.plan);
        model.load_params(&self.params).map_err(corrupt)?;
        model.load_norm_states(&self.norm_states).map_err(corrupt)?;
        Ok(model)
    }

    /// Serializes into an artifact container.
    pub fn to_artifact(&self) -> ArtifactWriter {
        let mut w = ArtifactWriter::new(ArtifactKind::ModelCheckpoint);

        let mut cfg = SectionWriter::new();
        put_vit_config(&mut cfg, &self.config);
        put_plan(&mut cfg, &self.plan);
        w.add_section(TAG_CONFIG, cfg);

        let mut prm = SectionWriter::new();
        prm.put_usize(self.params.len());
        for t in &self.params {
            prm.put_tensor(t);
        }
        w.add_section(TAG_PARAMS, prm);

        let mut nrm = SectionWriter::new();
        nrm.put_usize(self.norm_states.len());
        for (mean, var) in &self.norm_states {
            nrm.put_f32_slice(mean);
            nrm.put_f32_slice(var);
        }
        w.add_section(TAG_NORMS, nrm);

        if let Some(c) = &self.calib {
            let mut clb = SectionWriter::new();
            clb.put_usize(c.batch);
            clb.put_tensor(&c.patches);
            w.add_section(TAG_CALIB, clb);
        }
        w
    }

    /// Parses a checkpoint out of an opened artifact. Reads exactly the
    /// `CFG `/`PRM `/`NRM ` sections plus `CLB ` when present — every
    /// section a checkpoint holds — each validated by its own CRC.
    ///
    /// # Errors
    ///
    /// [`ScError::CorruptArtifact`] if the artifact is not a model
    /// checkpoint or a section is malformed; [`ScError::Io`] if a section
    /// cannot be read.
    pub fn from_reader(reader: &ArtifactReader) -> Result<Self, ScError> {
        reader.expect_kind(ArtifactKind::ModelCheckpoint)?;

        let buf = reader.read_section(TAG_CONFIG)?;
        let mut cfg = SectionReader::new(TAG_CONFIG, &buf);
        let config = get_vit_config(&mut cfg)?;
        let plan = get_plan(&mut cfg)?;
        cfg.expect_end()?;
        check_config(&config)?;

        let buf = reader.read_section(TAG_PARAMS)?;
        let mut prm = SectionReader::new(TAG_PARAMS, &buf);
        let n = prm.get_usize()?;
        if n > 1 << 20 {
            return Err(corrupt(format!("implausible parameter-tensor count {n}")));
        }
        let params: Vec<Tensor> = (0..n).map(|_| prm.get_tensor()).collect::<Result<_, _>>()?;
        prm.expect_end()?;

        let buf = reader.read_section(TAG_NORMS)?;
        let mut nrm = SectionReader::new(TAG_NORMS, &buf);
        let n = nrm.get_usize()?;
        if n > 1 << 20 {
            return Err(corrupt(format!("implausible norm-state count {n}")));
        }
        let norm_states: Vec<(Vec<f32>, Vec<f32>)> = (0..n)
            .map(|_| Ok((nrm.get_f32_slice()?, nrm.get_f32_slice()?)))
            .collect::<Result<_, ScError>>()?;
        nrm.expect_end()?;

        let calib = if reader.has_section(TAG_CALIB) {
            let buf = reader.read_section(TAG_CALIB)?;
            let mut clb = SectionReader::new(TAG_CALIB, &buf);
            let batch = clb.get_usize()?;
            let patches = clb.get_tensor()?;
            clb.expect_end()?;
            Some(CalibBatch { patches, batch })
        } else {
            None
        };

        Ok(ModelCheckpoint {
            config,
            plan,
            params,
            norm_states,
            calib,
        })
    }

    /// Writes the checkpoint to `path` (atomic temp-file + rename).
    ///
    /// # Errors
    ///
    /// [`ScError::Io`] on filesystem failure.
    pub fn save(&self, path: &Path) -> Result<(), ScError> {
        self.to_artifact().write_to(path)
    }

    /// Reads and verifies a checkpoint from `path`, lazily: only the
    /// header, section table, and the sections the decoder touches are
    /// read — each validated by its own CRC.
    ///
    /// # Errors
    ///
    /// [`ScError::Io`] if the file cannot be read (`not_found` set when
    /// the path does not exist), [`ScError::CorruptArtifact`] if it fails
    /// verification or parsing.
    pub fn load(path: &Path) -> Result<Self, ScError> {
        Self::from_reader(&ArtifactReader::open(path)?)
    }
}

/// Most scalars a stored geometry may imply in its weights or in one image's
/// attention scores: 2^26 (256 MiB of `f32`), far above every model in the
/// repository (the dim-256 Table VI tile has under 2^22).
const MAX_GEOMETRY_SCALARS: usize = 1 << 26;

/// Non-panicking mirror of [`VitConfig::validate`], with size caps so a
/// crafted config cannot drive an absurd allocation. Shared by every
/// artifact decoder that is about to build structures from a stored
/// geometry.
///
/// # Errors
///
/// [`ScError::CorruptArtifact`] naming the violated constraint.
pub fn check_config(cfg: &VitConfig) -> Result<(), ScError> {
    const CAP: usize = 1 << 20;
    let fields = [
        ("image", cfg.image),
        ("channels", cfg.channels),
        ("patch", cfg.patch),
        ("dim", cfg.dim),
        ("layers", cfg.layers),
        ("heads", cfg.heads),
        ("mlp_ratio", cfg.mlp_ratio),
        ("classes", cfg.classes),
    ];
    for (name, v) in fields {
        if v == 0 || v > CAP {
            return Err(corrupt(format!(
                "config field {name} = {v} out of range [1, {CAP}]"
            )));
        }
    }
    if !cfg.image.is_multiple_of(cfg.patch) {
        return Err(corrupt(format!(
            "patch {} must divide image {}",
            cfg.patch, cfg.image
        )));
    }
    if !cfg.dim.is_multiple_of(cfg.heads) {
        return Err(corrupt(format!(
            "heads {} must divide dim {}",
            cfg.heads, cfg.dim
        )));
    }
    geometry_scalars(cfg).map(|_| ())
}

/// The scalars in `cfg`'s weight matrices and embeddings (a lower bound on
/// what [`VitModel::new`] allocates), if neither they nor one image's
/// `heads·seq²` attention scores exceed [`MAX_GEOMETRY_SCALARS`]. The
/// per-field caps of [`check_config`] keep the unchecked sums far from overflow.
fn geometry_scalars(cfg: &VitConfig) -> Result<usize, ScError> {
    let (d, seq) = (cfg.dim, cfg.seq_len());
    let per_layer = d
        .checked_mul(d)
        .and_then(|dd| dd.checked_mul(2 * cfg.mlp_ratio + 4));
    let embed = (cfg.patch_dim() + seq + cfg.classes).checked_mul(d);
    let weights = per_layer.and_then(|l| l.checked_mul(cfg.layers)?.checked_add(embed?));
    let scores = seq
        .checked_mul(seq)
        .and_then(|s2| s2.checked_mul(cfg.heads));
    match (weights, scores) {
        (Some(w), Some(s)) if w.max(s) <= MAX_GEOMETRY_SCALARS => Ok(w),
        _ => Err(corrupt(format!(
            "geometry implies more than {MAX_GEOMETRY_SCALARS} weight or attention-score scalars"
        ))),
    }
}

/// Writes a [`SitePrecision`] (shared by the engine-artifact codec in
/// `ascend`).
pub fn put_site_precision(w: &mut SectionWriter, p: SitePrecision) {
    match p {
        None => w.put_u8(0),
        Some(l) => {
            w.put_u8(1);
            w.put_usize(l);
        }
    }
}

/// Reads a [`SitePrecision`].
///
/// # Errors
///
/// [`ScError::CorruptArtifact`] on truncation or a bad tag.
pub fn get_site_precision(r: &mut SectionReader<'_>) -> Result<SitePrecision, ScError> {
    match r.get_u8()? {
        0 => Ok(None),
        1 => Ok(Some(r.get_usize()?)),
        other => Err(corrupt(format!("bad site-precision tag {other}"))),
    }
}

/// Writes a [`PrecisionPlan`].
pub fn put_plan(w: &mut SectionWriter, plan: &PrecisionPlan) {
    put_site_precision(w, plan.weights);
    put_site_precision(w, plan.acts);
    put_site_precision(w, plan.residual);
}

/// Reads a [`PrecisionPlan`].
///
/// # Errors
///
/// [`ScError::CorruptArtifact`] on truncation or a bad tag.
pub fn get_plan(r: &mut SectionReader<'_>) -> Result<PrecisionPlan, ScError> {
    Ok(PrecisionPlan {
        weights: get_site_precision(r)?,
        acts: get_site_precision(r)?,
        residual: get_site_precision(r)?,
    })
}

/// Writes a [`VitConfig`].
pub fn put_vit_config(w: &mut SectionWriter, cfg: &VitConfig) {
    w.put_usize(cfg.image);
    w.put_usize(cfg.channels);
    w.put_usize(cfg.patch);
    w.put_usize(cfg.dim);
    w.put_usize(cfg.layers);
    w.put_usize(cfg.heads);
    w.put_usize(cfg.mlp_ratio);
    w.put_usize(cfg.classes);
    w.put_u8(match cfg.norm {
        NormKind::Layer => 0,
        NormKind::Batch => 1,
    });
    match cfg.softmax {
        SoftmaxKind::Exact => {
            w.put_u8(0);
            w.put_usize(0);
        }
        SoftmaxKind::IterApprox { k } => {
            w.put_u8(1);
            w.put_usize(k);
        }
    }
    w.put_u64(cfg.seed);
}

/// Reads a [`VitConfig`] (geometry is *not* validated here; callers run
/// [`ModelCheckpoint::restore`]-style checks before building a model).
///
/// # Errors
///
/// [`ScError::CorruptArtifact`] on truncation or a bad enum tag.
pub fn get_vit_config(r: &mut SectionReader<'_>) -> Result<VitConfig, ScError> {
    let image = r.get_usize()?;
    let channels = r.get_usize()?;
    let patch = r.get_usize()?;
    let dim = r.get_usize()?;
    let layers = r.get_usize()?;
    let heads = r.get_usize()?;
    let mlp_ratio = r.get_usize()?;
    let classes = r.get_usize()?;
    let norm = match r.get_u8()? {
        0 => NormKind::Layer,
        1 => NormKind::Batch,
        other => return Err(corrupt(format!("bad norm kind {other}"))),
    };
    let softmax = match (r.get_u8()?, r.get_usize()?) {
        (0, _) => SoftmaxKind::Exact,
        (1, k) => SoftmaxKind::IterApprox { k },
        (other, _) => return Err(corrupt(format!("bad softmax kind {other}"))),
    };
    let seed = r.get_u64()?;
    Ok(VitConfig {
        image,
        channels,
        patch,
        dim,
        layers,
        heads,
        mlp_ratio,
        classes,
        norm,
        softmax,
        seed,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_model() -> VitModel {
        let cfg = VitConfig {
            image: 8,
            patch: 4,
            dim: 8,
            layers: 1,
            heads: 2,
            mlp_ratio: 2,
            classes: 3,
            ..Default::default()
        };
        let mut m = VitModel::new(cfg);
        m.set_plan(PrecisionPlan::w2_a2_r16());
        m
    }

    fn fake_patches(cfg: &VitConfig, batch: usize) -> Tensor {
        let n = batch * cfg.num_patches() * cfg.patch_dim();
        Tensor::from_vec(
            (0..n)
                .map(|i| ((i * 31 % 97) as f32 - 48.0) / 48.0)
                .collect(),
            &[batch * cfg.num_patches(), cfg.patch_dim()],
        )
    }

    #[test]
    fn capture_restore_is_bit_identical() {
        let model = tiny_model();
        let patches = fake_patches(&model.config, 2);
        let want = model.predict(&patches, 2);
        let ckpt = ModelCheckpoint::capture(&model);
        let twin = ckpt.restore().unwrap();
        let got = twin.predict(&patches, 2);
        for (a, b) in want.data().iter().zip(got.data().iter()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        assert_eq!(twin.plan(), model.plan());
    }

    #[test]
    fn file_roundtrip_preserves_the_checkpoint_exactly() {
        let model = tiny_model();
        let patches = fake_patches(&model.config, 2);
        let ckpt = ModelCheckpoint::capture(&model).with_calib(patches, 2);
        let dir = std::env::temp_dir().join(format!("ascend-ckpt-test-{}", std::process::id()));
        let path = dir.join("model.ckpt");
        ckpt.save(&path).unwrap();
        let loaded = ModelCheckpoint::load(&path).unwrap();
        assert_eq!(loaded, ckpt);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn softmax_and_plan_flavours_roundtrip() {
        let mut model = tiny_model();
        model.set_softmax(SoftmaxKind::IterApprox { k: 3 });
        model.set_plan(PrecisionPlan::fp());
        let ckpt = ModelCheckpoint::capture(&model);
        let dir = std::env::temp_dir().join(format!("ascend-ckpt-flavours-{}", std::process::id()));
        let path = dir.join("model.ckpt");
        ckpt.save(&path).unwrap();
        let loaded = ModelCheckpoint::load(&path).unwrap();
        assert_eq!(loaded.config.softmax, SoftmaxKind::IterApprox { k: 3 });
        assert!(loaded.plan.is_fp());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn load_from_missing_path_is_a_not_found_io_error() {
        let err = ModelCheckpoint::load(Path::new("/nonexistent/ascend/model.ckpt")).unwrap_err();
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
    fn restore_rejects_invalid_geometry() {
        let model = tiny_model();
        let mut ckpt = ModelCheckpoint::capture(&model);
        ckpt.config.patch = 3; // does not divide image = 8
        assert!(matches!(
            ckpt.restore(),
            Err(ScError::CorruptArtifact { .. })
        ));
        ckpt.config.patch = 4;
        ckpt.params.pop();
        assert!(matches!(
            ckpt.restore(),
            Err(ScError::CorruptArtifact { .. })
        ));
    }

    #[test]
    fn a_geometry_beyond_the_cap_is_rejected_at_load() {
        // A `CFG ` sealed with valid CRCs whose dim passes the per-field
        // cap but implies 2^40-scalar matrices: the decoder refuses it
        // before anything sizes a model from it.
        let mut ckpt = ModelCheckpoint::capture(&tiny_model());
        ckpt.config.dim = 1 << 20;
        let dir = std::env::temp_dir().join(format!("ascend-ckpt-huge-{}", std::process::id()));
        let path = dir.join("model.ckpt");
        ckpt.save(&path).unwrap();
        let err = ModelCheckpoint::load(&path).unwrap_err();
        assert!(
            err.to_string().contains("geometry implies more than"),
            "got {err}"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn restore_rejects_a_geometry_its_tensors_do_not_back() {
        // dim = 1024 stays under the cap (8.4M weight scalars), but the
        // stored tensors are the dim-8 model's: restore must refuse before
        // `VitModel::new` allocates the 1024-wide model.
        let mut ckpt = ModelCheckpoint::capture(&tiny_model());
        ckpt.config.dim = 1024;
        let dir = std::env::temp_dir().join(format!("ascend-ckpt-unbacked-{}", std::process::id()));
        let path = dir.join("model.ckpt");
        ckpt.save(&path).unwrap();
        let loaded = ModelCheckpoint::load(&path).unwrap();
        let err = loaded.restore().unwrap_err();
        assert!(
            matches!(err, ScError::CorruptArtifact { .. }),
            "got {err:?}"
        );
        assert!(err.to_string().contains("needs at least"), "got {err}");
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
