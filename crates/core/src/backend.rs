//! The execution contract of the stack: [`InferenceBackend`], plus the
//! backends that implement it.
//!
//! The paper's central claim is a *trade* between exact stochastic-computing
//! execution and its high-precision reference — which means the stack must
//! be able to run more than one point on that curve. Everything downstream
//! of model loading ([`crate::serve::ServePool`], [`crate::Session`],
//! `ascend-cli eval/serve`, the benches) is therefore written against this
//! trait, not against a concrete engine:
//!
//! * [`crate::ScEngine`] — the **SC-exact** backend: thermometer-coded
//!   arithmetic, the iterative approximate softmax block, gate-assisted SI
//!   GELU. The bit-level ground truth of the reproduction.
//! * [`RefEngine`] — the **float reference** backend: the same
//!   fake-quantized weights, folded BN affines, and quantizer steps, but
//!   exact float softmax and float GELU. Orders of magnitude faster than
//!   bit-level execution, and the golden oracle SC drift is measured
//!   against (`tests/backend_parity.rs`). Both engine backends run the one
//!   encoder kernel of [`crate::engine`], differing only in the nonlinear
//!   blocks they plug into it.
//! * [`FaultInjectingBackend`] — a composable decorator that flips
//!   thermometer input bits at a configurable rate before delegating to any
//!   inner backend: the fault-tolerance scenario as a wrapper, not a fork.
//!
//! Every backend supplies exactly one per-image method,
//! [`InferenceBackend::forward_one`]: it borrows the image's patches as a
//! `&[f32]` slice of the request's buffer (the framing loop copies
//! nothing) and reports stage boundaries to a [`StageObserver`], so plain,
//! fault-injected and profiled forwards all run through it. The batched
//! [`InferenceBackend::forward`] / [`InferenceBackend::accuracy`] framing
//! loops are *provided methods* over it, so the per-image framing — the
//! thing the parallel/serial bit-identity contract of [`crate::serve`]
//! rests on — exists exactly once. References and smart pointers to a
//! backend are backends through one forwarding impl over [`Deref`].

use std::ops::Deref;

use ascend_obs::{NoopObserver, StageObserver};
use ascend_tensor::Tensor;
use ascend_vit::{NormKind, VitModel};
use sc_core::ScError;

use crate::engine::{FloatBlocks, ForwardScratch, FrozenNet};

/// The execution contract every backend implements.
///
/// A backend is an immutable compiled artifact: all entry points take
/// `&self`, and `Send + Sync` are supertraits so the persistent
/// [`crate::serve::ServePool`] can own one backend (behind an
/// [`std::sync::Arc`]) and share it across its long-lived worker threads.
/// Implementors provide the one per-image method,
/// [`InferenceBackend::forward_one`]; the batched framing loops are
/// provided methods, so batched and per-image execution are bit-identical
/// by construction for every backend.
pub trait InferenceBackend: Send + Sync {
    /// Short human-readable backend name (e.g. `"sc-exact"`, `"float-ref"`).
    fn name(&self) -> &str;

    /// The ViT geometry the backend was compiled for.
    fn vit_config(&self) -> &ascend_vit::VitConfig;

    /// The precision plan the backend executes at.
    fn plan(&self) -> &ascend_vit::PrecisionPlan;

    /// Approximate bytes of weight/table data this backend keeps resident
    /// in memory — what `ascend-registry` charges against its eviction
    /// budget.
    ///
    /// The default estimates from the geometry via
    /// [`approx_weight_bytes`]; the engine backends override it with an
    /// exact sum over their materialized buffers. Decorators forward to
    /// their inner backend (the decorator itself holds no weights).
    fn resident_bytes(&self) -> usize {
        approx_weight_bytes(self.vit_config())
    }

    /// Allocates the per-thread scratch buffers
    /// [`InferenceBackend::forward_one`] needs. One instance per thread;
    /// the provided [`InferenceBackend::forward`] keeps one across its
    /// whole batch, and each [`crate::serve`] worker owns one.
    fn make_scratch(&self) -> ForwardScratch;

    /// Runs inference for **one image**, returning its logits row — the one
    /// per-image entry point every backend implements.
    ///
    /// `patches` is the image's `num_patches · patch_dim` patch values,
    /// row-major, borrowed: the batched framing loop hands each image over
    /// as a slice of the request's buffer without copying it, and a
    /// decorator that modifies the input ([`FaultInjectingBackend`]) copies
    /// it first, and only when it does modify it.
    ///
    /// `observer` receives clock-free [`StageObserver`] `enter`/`exit`
    /// events around each forward stage (patch-embed, attention, softmax,
    /// GELU, MLP, head); the observer — not the compute code — decides what
    /// the events mean (the sanctioned [`ascend_obs::StageTimer`] turns
    /// them into durations). Backends without stage structure ignore it.
    /// Observation must never change the computation: the logits are
    /// bit-identical under every observer (the determinism suite enforces
    /// this).
    ///
    /// # Errors
    ///
    /// Backend-specific execution errors ([`ScError`]); the engine backends
    /// return [`ScError::InvalidParam`] for a `patches` slice that is not
    /// one image of their geometry.
    fn forward_one(
        &self,
        patches: &[f32],
        scratch: &mut ForwardScratch,
        observer: &mut dyn StageObserver,
    ) -> Result<Vec<f32>, ScError>;

    /// [`InferenceBackend::forward`] with caller-provided scratch — the
    /// batched entry point shared verbatim by the serial path and every
    /// [`crate::serve`] worker. This provided method is the **one**
    /// per-image framing loop in the workspace.
    ///
    /// # Errors
    ///
    /// Returns [`ScError::InvalidParam`] if `patches` does not hold exactly
    /// `batch` images, and propagates [`InferenceBackend::forward_one`]
    /// errors.
    fn forward_with(
        &self,
        patches: &Tensor,
        batch: usize,
        scratch: &mut ForwardScratch,
    ) -> Result<Tensor, ScError> {
        let cfg = self.vit_config();
        check_patch_count("patches", patches.data().len(), batch, cfg)?;
        let (per_image, classes) = (cfg.num_patches() * cfg.patch_dim(), cfg.classes);
        let mut out = Vec::with_capacity(batch * classes);
        for img in patches.data().chunks_exact(per_image) {
            out.extend(self.forward_one(img, scratch, &mut NoopObserver)?);
        }
        Ok(Tensor::from_vec(out, &[batch, classes]))
    }

    /// Runs inference on pre-extracted patches, returning `[batch, classes]`
    /// logits. Every image is independent — attention never crosses batch
    /// boundaries — so this is exactly [`InferenceBackend::forward_one`]
    /// applied image by image.
    ///
    /// # Errors
    ///
    /// Same conditions as [`InferenceBackend::forward_with`].
    fn forward(&self, patches: &Tensor, batch: usize) -> Result<Tensor, ScError> {
        let mut scratch = self.make_scratch();
        self.forward_with(patches, batch, &mut scratch)
    }

    /// Top-1 accuracy over a dataset.
    ///
    /// # Errors
    ///
    /// Propagates [`InferenceBackend::forward`] errors.
    fn accuracy(&self, data: &ascend_vit::data::Dataset, batch: usize) -> Result<f32, ScError> {
        let patch = self.vit_config().patch;
        let mut correct = 0usize;
        let all: Vec<usize> = (0..data.len()).collect();
        for chunk in all.chunks(batch.max(1)) {
            let patches = data.patches(chunk, patch);
            let logits = self.forward(&patches, chunk.len())?;
            for (pred, want) in logits.argmax_rows().iter().zip(data.labels_for(chunk)) {
                if *pred == want {
                    correct += 1;
                }
            }
        }
        Ok(correct as f32 / data.len().max(1) as f32)
    }
}

/// Geometry-derived estimate of a backend's resident weight bytes: every
/// parameter tensor (patch embed, per-layer affines + linears, classifier
/// head, cls token, positional embedding) at 4 bytes per value. Engine
/// backends report exact sums instead; this covers custom backends that
/// don't override [`InferenceBackend::resident_bytes`].
pub fn approx_weight_bytes(cfg: &ascend_vit::VitConfig) -> usize {
    let d = cfg.dim;
    let hidden = d * cfg.mlp_ratio;
    let per_layer = 4 * d                   // two folded affines (scale + shift each)
        + 4 * (d * d + d)                   // q, k, v, proj
        + (d * hidden + hidden)             // fc1
        + (hidden * d + d); // fc2
    let head = 2 * d + d * cfg.classes + cfg.classes; // folded affine + classifier
    let embed = cfg.patch_dim() * d + d;
    let tokens = d + cfg.seq_len() * d; // cls token + positional embedding
    (cfg.layers * per_layer + head + embed + tokens) * std::mem::size_of::<f32>()
}

/// Checks that a patch buffer of `values` scalars holds exactly `images`
/// images of `cfg`'s `[num_patches, patch_dim]` geometry — the one size
/// check behind every batched entry point. The expected count is computed
/// with `checked_mul`, so an image count large enough to overflow it is
/// rejected rather than wrapped into a false match.
pub(crate) fn check_patch_count(
    name: &'static str,
    values: usize,
    images: usize,
    cfg: &ascend_vit::VitConfig,
) -> Result<(), ScError> {
    let (p, pd) = (cfg.num_patches(), cfg.patch_dim());
    let reason = match p
        .checked_mul(pd)
        .and_then(|per_image| images.checked_mul(per_image))
    {
        Some(want) if want == values => return Ok(()),
        Some(want) => format!(
            "{name}: {values} values, expected {want} for {images} images of [{p}, {pd}] patches"
        ),
        None => format!("{images} images of [{p}, {pd}] patches overflow the addressable size"),
    };
    Err(ScError::InvalidParam { name, reason })
}

/// Smart pointers and references to a backend are backends: `&B`,
/// `Box<B>`, `Arc<B>` (including `Arc<dyn InferenceBackend>`, what
/// [`crate::Session`] and [`crate::serve::ServePool`] hold) all forward to
/// the pointee.
impl<P> InferenceBackend for P
where
    P: Deref + Send + Sync,
    P::Target: InferenceBackend,
{
    fn name(&self) -> &str {
        (**self).name()
    }
    fn vit_config(&self) -> &ascend_vit::VitConfig {
        (**self).vit_config()
    }
    fn plan(&self) -> &ascend_vit::PrecisionPlan {
        (**self).plan()
    }
    fn resident_bytes(&self) -> usize {
        (**self).resident_bytes()
    }
    fn make_scratch(&self) -> ForwardScratch {
        (**self).make_scratch()
    }
    fn forward_one(
        &self,
        patches: &[f32],
        scratch: &mut ForwardScratch,
        observer: &mut dyn StageObserver,
    ) -> Result<Vec<f32>, ScError> {
        (**self).forward_one(patches, scratch, observer)
    }
}

// ---------------------------------------------------------------------------
// RefEngine — the fake-quantized float reference backend
// ---------------------------------------------------------------------------

/// The high-precision reference backend: the fake-quantized float path.
///
/// `RefEngine` executes the *same* frozen network state as
/// [`crate::ScEngine`] — pre-quantized weight matrices, folded BN affines,
/// snapshotted quantizer steps — but replaces the two SC nonlinear blocks
/// with their exact float counterparts: true softmax instead of the
/// iterative approximate block, float GELU (fake-quantized at the MLP mid
/// site) instead of the gate-assisted SI table. The remaining delta between
/// the two backends is therefore precisely the paper's accuracy/efficiency
/// trade: SC approximation and nothing else.
///
/// Because no bit-level simulation or transfer-table lookup runs, reference
/// sweeps are orders of magnitude faster than SC-exact execution — the
/// backend to use for accuracy exploration, with [`crate::ScEngine`] as the
/// final word.
pub struct RefEngine {
    pub(crate) net: FrozenNet,
}

impl RefEngine {
    /// Compiles the reference backend for a trained BatchNorm model.
    ///
    /// Unlike [`crate::ScEngine::compile`], no calibration batch is needed:
    /// the float nonlinearities have no codec ranges to calibrate.
    ///
    /// # Errors
    ///
    /// Returns [`ScError::InvalidParam`] if the model uses LayerNorm (the
    /// per-channel affine folding requires BatchNorm, exactly as for the SC
    /// engine).
    pub fn compile(model: &VitModel) -> Result<Self, ScError> {
        if model.config.norm != NormKind::Batch {
            return Err(ScError::InvalidParam {
                name: "model",
                reason: "reference backend requires a BatchNorm model (paper §V LN→BN swap)".into(),
            });
        }
        // The very same capture the SC engine compiles from — the "same
        // frozen state" premise of `tests/backend_parity.rs` is held by
        // construction, not by parallel maintenance.
        Ok(RefEngine {
            net: FrozenNet::capture(model),
        })
    }

    /// Compiles the reference backend from a persisted model checkpoint —
    /// the float twin of [`crate::ScEngine::compile_from_checkpoint`].
    ///
    /// # Errors
    ///
    /// [`ScError::CorruptArtifact`] if the checkpoint cannot be restored,
    /// plus every [`RefEngine::compile`] error.
    pub fn compile_from_checkpoint(ckpt: &ascend_io::ModelCheckpoint) -> Result<Self, ScError> {
        RefEngine::compile(&ckpt.restore()?)
    }

    /// Number of compiled encoder layers.
    pub fn num_layers(&self) -> usize {
        self.net.layers.len()
    }
}

impl InferenceBackend for RefEngine {
    fn name(&self) -> &str {
        "float-ref"
    }

    fn vit_config(&self) -> &ascend_vit::VitConfig {
        &self.net.vit
    }

    fn plan(&self) -> &ascend_vit::PrecisionPlan {
        &self.net.plan
    }

    fn resident_bytes(&self) -> usize {
        self.net.resident_bytes()
    }

    fn make_scratch(&self) -> ForwardScratch {
        ForwardScratch::for_geometry(&self.net.vit)
    }

    /// Runs the encoder kernel with exact float softmax and float GELU,
    /// fake-quantized at the MLP mid site.
    fn forward_one(
        &self,
        patches: &[f32],
        scratch: &mut ForwardScratch,
        observer: &mut dyn StageObserver,
    ) -> Result<Vec<f32>, ScError> {
        self.net
            .forward(patches, scratch, &mut FloatBlocks::new(&self.net), observer)
    }
}

// ---------------------------------------------------------------------------
// FaultInjectingBackend — bit-flip decorator
// ---------------------------------------------------------------------------

/// A composable fault-injection decorator over any backend.
///
/// Models transient bit flips on the accelerator's **thermometer-coded
/// inputs**: each input scalar is viewed as a `bsl`-bit thermometer stream
/// (scale set per image from the patch magnitude), every bit of that stream
/// flips independently with probability `rate`, and the perturbed value is
/// decoded back before the inner backend runs. A flipped `1` lowers the
/// level by one LSB and a flipped `0` raises it by one — the thermometer
/// fault-tolerance property `tests/fault_tolerance.rs` proves at the
/// bitstream level, lifted to whole-network inference.
///
/// Fault sampling is **deterministic and schedule-independent**: the RNG
/// stream for an image is derived from the wrapper seed and the image's own
/// patch bits, never from call order. Parallel serving through
/// [`crate::serve::ServePool`] therefore stays bit-identical to serial
/// execution even with faults enabled, and `rate == 0.0` is bit-identical
/// to the inner backend (the input slice is passed through, never copied).
pub struct FaultInjectingBackend<B> {
    inner: B,
    rate: f64,
    seed: u64,
    bsl: usize,
    name: String,
}

impl<B: InferenceBackend> FaultInjectingBackend<B> {
    /// Default modelled input-stream width, in thermometer bits per scalar.
    pub const DEFAULT_BSL: usize = 64;

    /// Wraps `inner`, flipping input bits with probability `rate`;
    /// `seed` names the fault universe (same seed, same faults).
    ///
    /// # Errors
    ///
    /// Returns [`ScError::InvalidParam`] unless `rate` is finite and in
    /// `[0, 1]`.
    pub fn new(inner: B, rate: f64, seed: u64) -> Result<Self, ScError> {
        Self::with_bsl(inner, rate, seed, Self::DEFAULT_BSL)
    }

    /// [`FaultInjectingBackend::new`] with an explicit modelled stream
    /// width (`bsl` thermometer bits per input scalar, at least 2).
    ///
    /// # Errors
    ///
    /// Returns [`ScError::InvalidParam`] for a `rate` outside `[0, 1]` or
    /// `bsl < 2`.
    pub fn with_bsl(inner: B, rate: f64, seed: u64, bsl: usize) -> Result<Self, ScError> {
        if !rate.is_finite() || !(0.0..=1.0).contains(&rate) {
            return Err(ScError::InvalidParam {
                name: "rate",
                reason: format!("bit-flip rate {rate} must be in [0, 1]"),
            });
        }
        if bsl < 2 {
            return Err(ScError::InvalidParam {
                name: "bsl",
                reason: format!("modelled stream width {bsl} must be at least 2"),
            });
        }
        let name = format!("fault(rate={rate})+{}", inner.name());
        Ok(FaultInjectingBackend {
            inner,
            rate,
            seed,
            bsl,
            name,
        })
    }

    /// The wrapped backend.
    pub fn inner(&self) -> &B {
        &self.inner
    }

    /// The configured bit-flip probability.
    pub fn rate(&self) -> f64 {
        self.rate
    }

    /// Decodes `patches` through the modelled faulty thermometer streams,
    /// **in place** (on the fault path's one copy of the image).
    ///
    /// The RNG stream is seeded from the *pre-fault* bits (hashed in a
    /// first read-only pass), so mutating in place cannot change which
    /// faults are drawn.
    fn perturb_in_place(&self, patches: &mut [f32]) {
        let half = (self.bsl / 2) as f64;
        let absmax = patches
            .iter()
            .fold(0.0f64, |m, v| m.max(v.abs() as f64))
            .max(1e-6);
        let step = absmax / half;
        // Schedule-independent stream: seed ⊕ FNV-1a over the image's bits.
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for v in patches.iter() {
            for b in v.to_bits().to_le_bytes() {
                h ^= u64::from(b);
                h = h.wrapping_mul(0x100_0000_01b3);
            }
        }
        let mut state = self.seed ^ h;
        for v in patches.iter_mut() {
            let level = ((*v as f64 / step).round().clamp(-half, half) + half) as i64;
            let ones = level;
            let mut delta = 0i64;
            for b in 0..self.bsl as i64 {
                if uniform(&mut state) < self.rate {
                    // A flipped 1 lowers the level; a flipped 0 raises it.
                    delta += if b < ones { -1 } else { 1 };
                }
            }
            // The encodable levels are [0, 2·(bsl/2)] — for odd `bsl`
            // that is bsl − 1, so clamping to `bsl` itself could decode
            // outside the modelled codec range.
            let faulted = (level + delta).clamp(0, 2 * (self.bsl / 2) as i64);
            *v = ((faulted as f64 - half) * step) as f32;
        }
    }
}

impl<B: InferenceBackend> InferenceBackend for FaultInjectingBackend<B> {
    fn name(&self) -> &str {
        &self.name
    }

    fn vit_config(&self) -> &ascend_vit::VitConfig {
        self.inner.vit_config()
    }

    fn plan(&self) -> &ascend_vit::PrecisionPlan {
        self.inner.plan()
    }

    fn resident_bytes(&self) -> usize {
        self.inner.resident_bytes()
    }

    fn make_scratch(&self) -> ForwardScratch {
        self.inner.make_scratch()
    }

    fn forward_one(
        &self,
        patches: &[f32],
        scratch: &mut ForwardScratch,
        observer: &mut dyn StageObserver,
    ) -> Result<Vec<f32>, ScError> {
        // Bit-identity contract: rate 0 never touches (or copies) the input.
        if self.rate == 0.0 {
            return self.inner.forward_one(patches, scratch, observer);
        }
        let mut faulted = patches.to_vec();
        self.perturb_in_place(&mut faulted);
        self.inner.forward_one(&faulted, scratch, observer)
    }
}

/// splitmix64 step (Steele et al.): the workspace-local dependency-free RNG
/// for fault sampling.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Uniform draw in `[0, 1)` from the splitmix64 stream.
fn uniform(state: &mut u64) -> f64 {
    (splitmix64(state) >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ascend_vit::VitConfig;

    fn layernorm_model() -> VitModel {
        let cfg = VitConfig {
            image: 8,
            patch: 4,
            dim: 16,
            layers: 1,
            heads: 2,
            classes: 2,
            norm: ascend_vit::NormKind::Layer,
            ..Default::default()
        };
        VitModel::new(cfg)
    }

    fn batchnorm_model() -> VitModel {
        let cfg = VitConfig {
            image: 8,
            patch: 4,
            dim: 16,
            layers: 1,
            heads: 2,
            classes: 2,
            ..Default::default()
        };
        VitModel::new(cfg)
    }

    #[test]
    fn ref_engine_rejects_layernorm_models() {
        assert!(RefEngine::compile(&layernorm_model()).is_err());
    }

    #[test]
    fn ref_engine_runs_and_tracks_the_float_model() {
        // On an *untrained* model the reference backend is exactly the
        // model's own fake-quantized eval path (exact softmax, float GELU),
        // so predicted classes must agree with `VitModel::predict`.
        let model = batchnorm_model();
        let engine = RefEngine::compile(&model).expect("ref engine compiles");
        assert_eq!(engine.num_layers(), 1);
        assert_eq!(engine.name(), "float-ref");
        let (train, _) = ascend_vit::data::synth_cifar(2, 8, 4, 8, 3);
        let idx: Vec<usize> = (0..8).collect();
        let patches = train.patches(&idx, 4);
        let got = engine.forward(&patches, 8).expect("ref forward");
        assert_eq!(got.shape(), [8, 2]);
        assert!(got.data().iter().all(|v| v.is_finite()));
        let acc = engine.accuracy(&train, 4).expect("ref accuracy");
        assert!((0.0..=1.0).contains(&acc));
    }

    #[test]
    fn batched_forward_validates_sizes() {
        let engine = RefEngine::compile(&batchnorm_model()).unwrap();
        let (train, _) = ascend_vit::data::synth_cifar(2, 4, 2, 8, 3);
        let two = train.patches(&[0, 1], 4);
        assert!(
            engine.forward(&two, 3).is_err(),
            "3 images claimed, 2 provided"
        );
    }

    #[cfg(target_pointer_width = "64")]
    #[test]
    fn image_counts_that_overflow_the_size_check_are_rejected() {
        use crate::serve::{ServeConfig, ServePool, ServeRequest};
        // 1 + 2^(64 − tz) images of `p·pd = 2^tz · odd` values each wrap
        // `images · p · pd` around to exactly one image's worth, so an
        // unchecked multiply would accept one image as this many and then
        // size its output buffer from the bogus count.
        let engine = RefEngine::compile(&batchnorm_model()).unwrap();
        let cfg = engine.vit_config();
        let per_image = cfg.num_patches() * cfg.patch_dim();
        let images = 1 + (1usize << (usize::BITS - per_image.trailing_zeros()));
        assert_eq!(images.wrapping_mul(per_image), per_image);
        let (train, _) = ascend_vit::data::synth_cifar(2, 4, 2, 8, 3);
        let one = train.patches(&[0], 4);
        let invalid = |r: Result<(), ScError>| matches!(r, Err(ScError::InvalidParam { .. }));
        assert!(invalid(engine.forward(&one, images).map(drop)), "forward");
        let pool = ServePool::new(
            std::sync::Arc::new(engine),
            ServeConfig {
                workers: 1,
                micro_batch: 1,
                queue_depth: 0,
            },
        )
        .unwrap();
        assert!(
            invalid(
                pool.submit(ServeRequest::new(one.clone(), images))
                    .map(drop)
            ),
            "submit"
        );
        assert!(invalid(pool.run_batch(&one, images).map(drop)), "run_batch");
    }

    #[test]
    fn resident_bytes_is_exact_for_ref_engine_and_forwarded_by_decorators() {
        let engine = RefEngine::compile(&batchnorm_model()).unwrap();
        let exact = engine.resident_bytes();
        assert!(exact > 0);
        // The reference backend's resident state is precisely the parameter
        // tensors, so the exact sum must equal the geometry estimate.
        assert_eq!(exact, approx_weight_bytes(engine.vit_config()));
        // Decorators hold no weights: they forward the inner accounting.
        let wrapped = FaultInjectingBackend::new(&engine, 0.1, 7).unwrap();
        assert_eq!(wrapped.resident_bytes(), exact);
        let arced: std::sync::Arc<dyn InferenceBackend> =
            std::sync::Arc::new(RefEngine::compile(&batchnorm_model()).unwrap());
        assert_eq!(arced.resident_bytes(), exact);
    }

    #[test]
    fn fault_backend_validates_rate_and_bsl() {
        let engine = RefEngine::compile(&batchnorm_model()).unwrap();
        assert!(FaultInjectingBackend::new(&engine, -0.1, 1).is_err());
        assert!(FaultInjectingBackend::new(&engine, 1.5, 1).is_err());
        assert!(FaultInjectingBackend::new(&engine, f64::NAN, 1).is_err());
        assert!(FaultInjectingBackend::with_bsl(&engine, 0.1, 1, 1).is_err());
        let ok = FaultInjectingBackend::new(&engine, 0.25, 1).unwrap();
        assert_eq!(ok.rate(), 0.25);
        assert_eq!(ok.name(), "fault(rate=0.25)+float-ref");
    }

    #[test]
    fn fault_perturbation_is_deterministic_and_bounded() {
        let engine = RefEngine::compile(&batchnorm_model()).unwrap();
        let wrapper = FaultInjectingBackend::new(&engine, 0.05, 42).unwrap();
        let (train, _) = ascend_vit::data::synth_cifar(2, 4, 2, 8, 3);
        let patches = train.patches(&[0], 4);
        let mut a = patches.clone();
        wrapper.perturb_in_place(a.data_mut());
        let mut b = patches.clone();
        wrapper.perturb_in_place(b.data_mut());
        for (x, y) in a.data().iter().zip(b.data().iter()) {
            assert_eq!(x.to_bits(), y.to_bits(), "same image ⇒ same faults");
        }
        // Each scalar moves by at most bsl LSBs of the modelled codec.
        let absmax = patches
            .data()
            .iter()
            .fold(0.0f32, |m, v| m.max(v.abs()))
            .max(1e-6);
        let step = absmax / (FaultInjectingBackend::<&RefEngine>::DEFAULT_BSL as f32 / 2.0);
        for (x, y) in patches.data().iter().zip(a.data().iter()) {
            assert!(
                (x - y).abs()
                    <= step * FaultInjectingBackend::<&RefEngine>::DEFAULT_BSL as f32 + 1e-4,
                "perturbation {x} → {y} exceeds the stream width"
            );
        }
        // A different seed draws a different fault universe.
        let other = FaultInjectingBackend::new(&engine, 0.05, 43).unwrap();
        let mut c = patches.clone();
        other.perturb_in_place(c.data_mut());
        assert!(
            a.data().iter().zip(c.data().iter()).any(|(x, y)| x != y),
            "seeds 42 and 43 produced identical faults"
        );
    }

    #[test]
    fn odd_bsl_faults_stay_inside_the_codec_range() {
        // An odd stream width encodes levels [0, bsl − 1]; even at flip
        // rate 1.0 no perturbed value may decode beyond ±absmax.
        let engine = RefEngine::compile(&batchnorm_model()).unwrap();
        let wrapper = FaultInjectingBackend::with_bsl(&engine, 1.0, 9, 3).unwrap();
        let (train, _) = ascend_vit::data::synth_cifar(2, 4, 2, 8, 3);
        let patches = train.patches(&[0], 4);
        let absmax = patches
            .data()
            .iter()
            .fold(0.0f32, |m, v| m.max(v.abs()))
            .max(1e-6);
        let mut p = patches.clone();
        wrapper.perturb_in_place(p.data_mut());
        for v in p.data() {
            assert!(v.abs() <= absmax + 1e-4, "{v} decodes outside ±{absmax}");
        }
    }
}
