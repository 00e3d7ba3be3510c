//! End-to-end SC inference: executing the low-precision ViT with
//! thermometer-coded arithmetic.
//!
//! The engine consumes a trained BN-ViT in its `W·-A·-R·` plan and runs it
//! the way the accelerator would:
//!
//! * every quantizer site becomes a thermometer codec (`level = value/step`,
//!   BSL from the plan) — linear layers are then *exact* in SC, because
//!   truth-table multiplication and BSN accumulation of thermometer levels
//!   reproduce integer arithmetic bit-for-bit (`sc-core` proves this by
//!   property test, so the engine computes on levels directly);
//! * BatchNorm folds into per-channel affines absorbed by the neighbouring
//!   scale factors ([`ascend_vit::norm::Norm::folded_affine`]);
//! * GELU runs through a **gate-assisted SI** transfer table compiled per
//!   MLP layer ([`sc_nonlinear::gate_si`]), wide thermometer in, activation
//!   grid out;
//! * attention softmax runs through the **iterative approximate softmax
//!   block** ([`sc_nonlinear::softmax_iter`]) at the configured
//!   `[By, s1, s2, k]`, compiled to an integer program that runs in place
//!   on each score row and is property-tested identical to the bit-level
//!   circuit simulation.
//!
//! The one float-domain remnant is LayerNorm, which cannot fold into static
//! scale factors; the engine therefore requires a BatchNorm model — exactly
//! the constraint that motivates the paper's LN→BN swap (§V).
//!
//! # One encoder kernel
//!
//! The SC engine, the float reference ([`crate::RefEngine`]) and the
//! calibration probe inside [`ScEngine::compile`] all run one per-image
//! kernel over one frozen network state (`FrozenNet`). The kernel is generic
//! over the two nonlinear blocks: the SC softmax program plus the gate-SI
//! GELU table, or float softmax plus float GELU plus the MLP mid-site
//! fake-quant — the latter, with a recording hook, *is* the calibration
//! probe. It borrows the image's patches as `&[f32]` and works in the
//! caller's [`ForwardScratch`], so a forward allocates nothing but its
//! logits row once the scratch has grown. Per encoder layer it
//!
//! 1. writes the normed, quantized block input once and Q/K/V from it in
//!    one pass, K straight into its transpose;
//! 2. computes each head's score rows against that transposed K, runs the
//!    softmax stage over them in place, and accumulates `·V` straight into
//!    the merged, quantized context;
//! 3. folds bias, residual add and fake-quant into the epilogue of each
//!    output row of the projection, fc1 and fc2 passes.
//!
//! Every output element keeps the float order of the `Tensor`-op dataflow
//! it replaced, so logits are bit-identical to it: a linear accumulates
//! from 0 over its inputs in order (`ikj`), skipping zero inputs, and then
//! adds the bias; scores are scaled by `1/√dh` in a separate multiply; no
//! fused multiply-add, and no scale is folded into a weight.

use std::sync::{Mutex, PoisonError};

use ascend_obs::{NoopObserver, Stage, StageObserver};
use ascend_tensor::Tensor;
use ascend_vit::{NormKind, VitConfig, VitModel};
use sc_core::encoding::Thermometer;
use sc_core::rescale::RescaleMode;
use sc_core::ScError;
use sc_nonlinear::gate_si::GateAssistedSi;
use sc_nonlinear::ref_fn;
use sc_nonlinear::softmax_iter::{IterSoftmaxBlock, IterSoftmaxConfig, SoftmaxLevels};

use crate::backend::check_patch_count;
use crate::serve::{parallel_map, ServeConfig};

/// Hardware configuration of the engine's nonlinear blocks.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EngineConfig {
    /// Softmax state BSL (`By` of Table VI).
    pub softmax_by: usize,
    /// Softmax `sum(z)` sub-sample rate (`s1`).
    pub softmax_s1: usize,
    /// Softmax `y·sum(z)` sub-sample rate (`s2`).
    pub softmax_s2: usize,
    /// Softmax iteration count (`k`); the accelerator instantiates `k`
    /// parallel blocks (Table VI note).
    pub softmax_k: usize,
    /// Softmax input BSL (`Bx`, 4 in Table IV).
    pub softmax_bx: usize,
    /// Gate-assisted-SI GELU input BSL (the accumulated stream width).
    pub gelu_bx: usize,
    /// Re-scaling rounding mode.
    pub mode: RescaleMode,
}

impl Default for EngineConfig {
    fn default() -> Self {
        // The paper's recommended [By, s1, s2, k] = [8, 32, 8, 3].
        EngineConfig {
            softmax_by: 8,
            softmax_s1: 32,
            softmax_s2: 8,
            softmax_k: 3,
            softmax_bx: 4,
            gelu_bx: 256,
            mode: RescaleMode::Round,
        }
    }
}

impl EngineConfig {
    /// The `[By, s1, s2, k]` quadruple of Table VI.
    pub fn from_quad(by: usize, s1: usize, s2: usize, k: usize) -> Self {
        EngineConfig { softmax_by: by, softmax_s1: s1, softmax_s2: s2, softmax_k: k, ..Default::default() }
    }
}

/// A quantized linear layer frozen at compile time: the fake-quantized
/// weight matrix plus its bias.
///
/// Weight quantization is purely a function of the trained parameters and
/// the precision plan, so the quantized matrices are materialized once at
/// [`ScEngine::compile`] time instead of on every forward call.
pub(crate) struct QuantLinear {
    pub(crate) w: Tensor,
    pub(crate) b: Tensor,
}

impl QuantLinear {
    pub(crate) fn compile(lin: &ascend_vit::model::Linear, bsl: Option<usize>) -> QuantLinear {
        let q = Quant::new(lin.w_site.step_value(), bsl);
        QuantLinear { w: lin.w.map(|v| q.apply(v)), b: lin.b.clone() }
    }

    /// Bytes of the materialized weight + bias buffers.
    pub(crate) fn resident_bytes(&self) -> usize {
        (self.w.numel() + self.b.numel()) * std::mem::size_of::<f32>()
    }
}

/// The frozen per-layer network state every backend executes: folded norm
/// affines, pre-quantized linears, and the quantizer step sizes snapshot
/// from the model's sites.
pub(crate) struct QuantLayerSnapshot {
    pub(crate) norm1_affine: (Vec<f32>, Vec<f32>),
    pub(crate) norm2_affine: (Vec<f32>, Vec<f32>),
    pub(crate) q: QuantLinear,
    pub(crate) k: QuantLinear,
    pub(crate) v: QuantLinear,
    pub(crate) proj: QuantLinear,
    pub(crate) fc1: QuantLinear,
    pub(crate) fc2: QuantLinear,
    pub(crate) attn_in_step: f32,
    pub(crate) attn_out_step: f32,
    pub(crate) res1_step: f32,
    pub(crate) res2_step: f32,
    pub(crate) mlp_in_step: f32,
    pub(crate) mlp_mid_step: f32,
}

impl QuantLayerSnapshot {
    /// Captures one encoder block's frozen state under `plan`.
    pub(crate) fn capture(
        block: &ascend_vit::model::Block,
        plan: &ascend_vit::PrecisionPlan,
    ) -> Self {
        let (n1, n2) = block.norms();
        let (in_site_a, out_site_a) = block.attn().sites();
        let (res1, res2) = block.res_sites();
        let (mlp_in, mlp_mid) = block.mlp().sites();
        QuantLayerSnapshot {
            norm1_affine: n1.folded_affine(),
            norm2_affine: n2.folded_affine(),
            q: QuantLinear::compile(block.attn().q(), plan.weights),
            k: QuantLinear::compile(block.attn().k(), plan.weights),
            v: QuantLinear::compile(block.attn().v(), plan.weights),
            proj: QuantLinear::compile(block.attn().proj(), plan.weights),
            fc1: QuantLinear::compile(block.mlp().fc1(), plan.weights),
            fc2: QuantLinear::compile(block.mlp().fc2(), plan.weights),
            attn_in_step: in_site_a.step_value(),
            attn_out_step: out_site_a.step_value(),
            res1_step: res1.step_value(),
            res2_step: res2.step_value(),
            mlp_in_step: mlp_in.step_value(),
            mlp_mid_step: mlp_mid.step_value(),
        }
    }

    /// Bytes of the snapshot's materialized buffers (affines + linears).
    pub(crate) fn resident_bytes(&self) -> usize {
        let affines = self.norm1_affine.0.len()
            + self.norm1_affine.1.len()
            + self.norm2_affine.0.len()
            + self.norm2_affine.1.len();
        affines * std::mem::size_of::<f32>()
            + [&self.q, &self.k, &self.v, &self.proj, &self.fc1, &self.fc2]
                .iter()
                .map(|l| l.resident_bytes())
                .sum::<usize>()
    }
}

/// The frozen network every backend executes — geometry, precision plan,
/// per-layer snapshots, head affine, embeddings — and the one encoder
/// kernel over it ([`FrozenNet::forward`]).
///
/// This is **the** definition of "same frozen state" that the SC engine
/// and the float reference share: both compile through
/// [`FrozenNet::capture`], so a change to a quantization site or to affine
/// folding can never reach one backend and not the other
/// (`tests/backend_parity.rs` rests on that).
pub(crate) struct FrozenNet {
    pub(crate) vit: VitConfig,
    pub(crate) plan: ascend_vit::PrecisionPlan,
    pub(crate) layers: Vec<QuantLayerSnapshot>,
    pub(crate) head_affine: (Vec<f32>, Vec<f32>),
    pub(crate) patch_embed: QuantLinear,
    pub(crate) head: QuantLinear,
    pub(crate) cls_token: Tensor,
    pub(crate) pos_embedding: Tensor,
}

impl FrozenNet {
    /// Snapshots everything inference needs from a trained model at its
    /// current precision plan; the model is not retained.
    pub(crate) fn capture(model: &VitModel) -> FrozenNet {
        let plan = model.plan();
        FrozenNet {
            vit: model.config,
            plan,
            layers: model
                .blocks()
                .iter()
                .map(|b| QuantLayerSnapshot::capture(b, &plan))
                .collect(),
            head_affine: model.head_norm().folded_affine(),
            patch_embed: QuantLinear::compile(model.patch_embed(), plan.weights),
            head: QuantLinear::compile(model.head(), plan.weights),
            cls_token: model.cls_token().clone(),
            pos_embedding: model.pos_embedding().clone(),
        }
    }

    /// Bytes of every materialized buffer.
    pub(crate) fn resident_bytes(&self) -> usize {
        let f32s = std::mem::size_of::<f32>();
        self.layers.iter().map(QuantLayerSnapshot::resident_bytes).sum::<usize>()
            + (self.head_affine.0.len() + self.head_affine.1.len()) * f32s
            + self.patch_embed.resident_bytes()
            + self.head.resident_bytes()
            + (self.cls_token.numel() + self.pos_embedding.numel()) * f32s
    }

    /// The encoder kernel: one image's `[num_patches · patch_dim]` patch
    /// values to its logits row, with `blocks` supplying softmax and GELU
    /// (see the module docs for the dataflow and its float-order contract).
    /// Emits [`StageObserver`] events around patch embedding, attention
    /// linear algebra, softmax, GELU, MLP linear algebra and the head — the
    /// paper's fig. 8 cost-split axes; the compute never reads a clock.
    ///
    /// # Errors
    ///
    /// [`ScError::InvalidParam`] if `patches` is not one image of this
    /// geometry; propagates `blocks` errors.
    pub(crate) fn forward<N: Nonlinear>(
        &self,
        patches: &[f32],
        scratch: &mut ForwardScratch,
        blocks: &mut N,
        observer: &mut dyn StageObserver,
    ) -> Result<Vec<f32>, ScError> {
        let cfg = &self.vit;
        check_patch_count("patches", patches.len(), 1, cfg)?;
        let (s, d, dh) = (cfg.seq_len(), cfg.dim, cfg.head_dim());
        let hd = cfg.dim * cfg.mlp_ratio;
        let (acts, residual) = (self.plan.acts, self.plan.residual);
        let inv_sqrt_dh = 1.0 / (dh as f32).sqrt();
        scratch.fit(cfg);
        let ForwardScratch { softmax, x, xq, q, kt, v, scores, hidden, acc } = scratch;

        // Patch embedding: row 0 is cls + pos, row 1 + i is token i + pos.
        observer.enter(Stage::PatchEmbed);
        let pos = self.pos_embedding.data();
        for ((o, &c), &p) in x[..d].iter_mut().zip(self.cls_token.data()).zip(pos) {
            *o = c + p;
        }
        let (w, b) = (self.patch_embed.w.data(), self.patch_embed.b.data());
        for ((img, xr), pr) in patches
            .chunks_exact(cfg.patch_dim())
            .zip(x[d..].chunks_exact_mut(d))
            .zip(pos[d..].chunks_exact(d))
        {
            matvec(img, w, d, xr);
            for ((o, &bj), &pj) in xr.iter_mut().zip(b).zip(pr) {
                *o = *o + bj + pj;
            }
        }
        observer.exit(Stage::PatchEmbed);

        for (li, l) in self.layers.iter().enumerate() {
            // --- MSA (softmax carved out as its own stage) ---
            observer.enter(Stage::Attention);
            norm_quant(x, &l.norm1_affine, Quant::new(l.attn_in_step, acts), xq, d);
            for (i, xr) in xq.chunks_exact(d).enumerate() {
                let (qr, vr) = (&mut q[i * d..(i + 1) * d], &mut v[i * d..(i + 1) * d]);
                matvec(xr, l.q.w.data(), d, qr);
                add_bias(qr, l.q.b.data());
                matvec(xr, l.v.w.data(), d, vr);
                add_bias(vr, l.v.b.data());
                matvec(xr, l.k.w.data(), d, acc);
                for (c, (&kv, &kb)) in acc.iter().zip(l.k.b.data()).enumerate() {
                    kt[c * s + i] = kv + kb;
                }
            }
            for (hh, head_scores) in scores.chunks_exact_mut(s * s).enumerate() {
                let kt_h = &kt[hh * dh * s..];
                for (i, srow) in head_scores.chunks_exact_mut(s).enumerate() {
                    matvec(&q[i * d + hh * dh..i * d + (hh + 1) * dh], kt_h, s, srow);
                    for e in srow.iter_mut() {
                        *e *= inv_sqrt_dh;
                    }
                }
            }
            observer.exit(Stage::Attention);
            observer.enter(Stage::Softmax);
            blocks.softmax(li, scores, s, softmax)?;
            observer.exit(Stage::Softmax);
            observer.enter(Stage::Attention);
            // `·V` straight into the merged context (reusing `xq`).
            let ctx_q = Quant::new(l.attn_out_step, acts);
            for (hh, head_probs) in scores.chunks_exact(s * s).enumerate() {
                let v_h = &v[hh * dh..];
                for (i, prow) in head_probs.chunks_exact(s).enumerate() {
                    let crow = &mut xq[i * d + hh * dh..i * d + (hh + 1) * dh];
                    matvec(prow, v_h, d, crow);
                    for c in crow.iter_mut() {
                        *c = ctx_q.apply(*c);
                    }
                }
            }
            residual_linear(xq, &l.proj, x, Quant::new(l.res1_step, residual), acc);
            observer.exit(Stage::Attention);

            // --- MLP (GELU carved out as its own stage) ---
            observer.enter(Stage::Mlp);
            norm_quant(x, &l.norm2_affine, Quant::new(l.mlp_in_step, acts), xq, d);
            for (xr, hr) in xq.chunks_exact(d).zip(hidden.chunks_exact_mut(hd)) {
                matvec(xr, l.fc1.w.data(), hd, hr);
                add_bias(hr, l.fc1.b.data());
            }
            observer.exit(Stage::Mlp);
            observer.enter(Stage::Gelu);
            blocks.gelu(li, hidden);
            observer.exit(Stage::Gelu);
            observer.enter(Stage::Mlp);
            residual_linear(hidden, &l.fc2, x, Quant::new(l.res2_step, residual), acc);
            observer.exit(Stage::Mlp);
        }

        // Head: the folded head norm on the cls row, then the classifier.
        observer.enter(Stage::Head);
        let (scale, shift) = &self.head_affine;
        let cls = &mut xq[..d];
        for (((o, &xv), &sc), &sh) in cls.iter_mut().zip(&x[..d]).zip(scale).zip(shift) {
            *o = xv * sc + sh;
        }
        let mut logits = vec![0.0f32; cfg.classes];
        matvec(cls, self.head.w.data(), cfg.classes, &mut logits);
        add_bias(&mut logits, self.head.b.data());
        observer.exit(Stage::Head);
        Ok(logits)
    }
}

/// `out = row · W` for one input row, where row `p` of `W` is the first
/// `out.len()` values of `w[p·stride..]`: `out` is zeroed, then every
/// non-zero input `a = row[p]` adds `a · W[p]` in `p` order — the `ikj`
/// loop of [`Tensor::matmul`], so each output keeps its summation order.
/// `stride` lets `W` be a column block of a wider matrix (one head of V,
/// one head of the transposed K).
#[inline]
fn matvec(row: &[f32], w: &[f32], stride: usize, out: &mut [f32]) {
    out.fill(0.0);
    for (&a, wrow) in row.iter().zip(w.chunks(stride)) {
        if a == 0.0 {
            continue;
        }
        for (o, &b) in out.iter_mut().zip(wrow) {
            *o += a * b;
        }
    }
}

#[inline]
fn add_bias(row: &mut [f32], b: &[f32]) {
    for (o, &bj) in row.iter_mut().zip(b) {
        *o += bj;
    }
}

/// `out = q(x · scale + shift)` row by row: a folded norm affine and the
/// following activation fake-quant in one pass.
fn norm_quant(
    x: &[f32],
    (scale, shift): &(Vec<f32>, Vec<f32>),
    q: Quant,
    out: &mut [f32],
    d: usize,
) {
    for (xr, or) in x.chunks_exact(d).zip(out.chunks_exact_mut(d)) {
        for (((o, &v), &sc), &sh) in or.iter_mut().zip(xr).zip(scale).zip(shift) {
            *o = q.apply(v * sc + sh);
        }
    }
}

/// `x = q(x + (input · W + b))` row by row: a linear whose bias, residual
/// add and residual fake-quant run as the epilogue of each output row,
/// accumulated in `acc`.
fn residual_linear(input: &[f32], lin: &QuantLinear, x: &mut [f32], q: Quant, acc: &mut [f32]) {
    let d = acc.len();
    for (ir, xr) in input.chunks_exact(lin.w.shape()[0]).zip(x.chunks_exact_mut(d)) {
        matvec(ir, lin.w.data(), d, acc);
        for ((xv, &a), &b) in xr.iter_mut().zip(acc.iter()).zip(lin.b.data()) {
            *xv = q.apply(*xv + (a + b));
        }
    }
}

/// One activation quantizer site: eval-mode LSQ,
/// `round(clamp(v/step, −L/2, L/2))·step`, or pass-through in full
/// precision.
#[derive(Clone, Copy)]
struct Quant {
    step: f32,
    half: Option<f32>,
}

impl Quant {
    fn new(step: f32, bsl: Option<usize>) -> Self {
        Quant { step, half: bsl.map(|l| (l / 2) as f32) }
    }

    #[inline]
    fn apply(self, v: f32) -> f32 {
        match self.half {
            None => v,
            Some(half) => (v / self.step).clamp(-half, half).round() * self.step,
        }
    }
}

/// The two nonlinear blocks the encoder kernel is generic over.
pub(crate) trait Nonlinear {
    /// Turns layer `layer`'s scaled attention scores — `heads · s` rows of
    /// `s`, head-major — into attention weights in place.
    fn softmax(
        &mut self,
        layer: usize,
        scores: &mut [f32],
        s: usize,
        levels: &mut SoftmaxLevels,
    ) -> Result<(), ScError>;

    /// Turns layer `layer`'s fc1 outputs into fc2 inputs in place.
    fn gelu(&mut self, layer: usize, hidden: &mut [f32]);
}

/// The SC blocks: the compiled softmax program and the per-layer gate-SI
/// GELU tables.
struct ScBlocks<'a> {
    softmax: &'a IterSoftmaxBlock,
    gelu: &'a [GateAssistedSi],
}

impl Nonlinear for ScBlocks<'_> {
    fn softmax(
        &mut self,
        _layer: usize,
        scores: &mut [f32],
        s: usize,
        levels: &mut SoftmaxLevels,
    ) -> Result<(), ScError> {
        for row in scores.chunks_exact_mut(s) {
            self.softmax.run_in_place(row, levels)?;
        }
        Ok(())
    }

    fn gelu(&mut self, layer: usize, hidden: &mut [f32]) {
        let block = &self.gelu[layer];
        let table = block.ones_table();
        let in_scale = block.input().scale();
        let in_half = (block.input().len() / 2) as f64;
        let out_scale = block.output().scale();
        let out_half = (block.output().len() / 2) as i64;
        for v in hidden.iter_mut() {
            let t = ((*v as f64 / in_scale).round().clamp(-in_half, in_half) + in_half) as usize;
            *v = (out_scale * (table[t] as i64 - out_half) as f64) as f32;
        }
    }
}

/// The float blocks: exact softmax, float GELU fake-quantized at the MLP
/// mid site, and an optional calibration recorder.
pub(crate) struct FloatBlocks<'a, 's> {
    net: &'a FrozenNet,
    probe: Option<&'a mut Probe<'s>>,
}

impl<'a> FloatBlocks<'a, 'static> {
    pub(crate) fn new(net: &'a FrozenNet) -> Self {
        FloatBlocks { net, probe: None }
    }
}

impl Nonlinear for FloatBlocks<'_, '_> {
    fn softmax(
        &mut self,
        layer: usize,
        scores: &mut [f32],
        s: usize,
        _levels: &mut SoftmaxLevels,
    ) -> Result<(), ScError> {
        if let Some(probe) = self.probe.as_deref_mut() {
            probe.record_scores(layer, scores, s);
        }
        for row in scores.chunks_exact_mut(s) {
            let max = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
            let mut sum = 0.0f32;
            for v in row.iter_mut() {
                *v = (*v - max).exp();
                sum += *v;
            }
            for v in row.iter_mut() {
                *v /= sum;
            }
        }
        Ok(())
    }

    fn gelu(&mut self, layer: usize, hidden: &mut [f32]) {
        if let Some(probe) = self.probe.as_deref_mut() {
            probe.record_gelu_input(layer, hidden);
        }
        let q = Quant::new(self.net.layers[layer].mlp_mid_step, self.net.plan.acts);
        for v in hidden.iter_mut() {
            *v = q.apply(ascend_tensor::graph::gelu_f(*v));
        }
    }
}

/// The compiled SC inference engine.
///
/// `compile` snapshots **everything** inference needs — quantized weights,
/// folded affines, quantizer steps, transfer tables — into plain immutable
/// data. The trained [`VitModel`] (which carries train-time interior
/// mutability for BN statistics and range observers) is *not* retained, so
/// a compiled engine is `Sync`: every forward entry point takes `&self`,
/// and the [`crate::serve`] runtime fans a request queue out over a worker
/// pool sharing one engine by reference — no cloning, no locking.
pub struct ScEngine {
    pub(crate) config: EngineConfig,
    pub(crate) softmax: IterSoftmaxBlock,
    /// One compiled GELU table per encoder layer.
    pub(crate) gelu: Vec<GateAssistedSi>,
    pub(crate) net: FrozenNet,
}

/// Reusable per-thread scratch buffers for
/// [`InferenceBackend::forward_one`](crate::backend::InferenceBackend::forward_one).
///
/// Holding the scratch outside the per-image loop keeps the hot path free
/// of allocations; each serving worker owns one instance. The buffers are
/// capacity, not state: every forward resizes them to its geometry and
/// overwrites what it reads, so any backend accepts a scratch made by any
/// other, of any geometry, and decorators can delegate scratch allocation
/// freely. For sequence length `s`, width `d`, `h` heads and MLP width
/// `hd`, the encoder kernel uses:
///
/// * `x` `[s, d]` — the residual stream;
/// * `xq` `[s, d]` — the normed, quantized block input, then the merged
///   attention context, then the head input;
/// * `q`, `v` `[s, d]` and `kt` `[d, s]` — Q, V and K transposed;
/// * `scores` `[h·s, s]` — head-major score rows, softmaxed in place;
/// * `hidden` `[s, hd]` — fc1 outputs, GELU'd in place;
/// * `acc` `[d]` — one output row of K, the projection or fc2;
/// * `softmax` — the SC softmax program's level buffers.
#[derive(Default)]
pub struct ForwardScratch {
    softmax: SoftmaxLevels,
    x: Vec<f32>,
    xq: Vec<f32>,
    q: Vec<f32>,
    kt: Vec<f32>,
    v: Vec<f32>,
    scores: Vec<f32>,
    hidden: Vec<f32>,
    acc: Vec<f32>,
}

impl ForwardScratch {
    /// A scratch with no pre-sized buffers — for backends that need none,
    /// including [`InferenceBackend`](crate::backend::InferenceBackend)
    /// implementations outside this crate (buffers grow on first use if a
    /// backend does touch them).
    pub fn empty() -> Self {
        ForwardScratch::default()
    }

    /// A scratch pre-sized for `cfg`'s geometry.
    pub(crate) fn for_geometry(cfg: &VitConfig) -> Self {
        let mut scratch = ForwardScratch {
            softmax: SoftmaxLevels::with_capacity(cfg.seq_len()),
            ..ForwardScratch::default()
        };
        scratch.fit(cfg);
        scratch
    }

    /// Resizes every float buffer to `cfg`'s geometry (a no-op when it
    /// already fits, as on every forward after a worker's first).
    fn fit(&mut self, cfg: &VitConfig) {
        let (s, d) = (cfg.seq_len(), cfg.dim);
        for (buf, len) in [
            (&mut self.x, s * d),
            (&mut self.xq, s * d),
            (&mut self.q, s * d),
            (&mut self.kt, d * s),
            (&mut self.v, s * d),
            (&mut self.scores, cfg.heads * s * s),
            (&mut self.hidden, s * d * cfg.mlp_ratio),
            (&mut self.acc, d),
        ] {
            buf.resize(len, 0.0);
        }
    }
}

impl ScEngine {
    /// Compiles the engine for a trained BatchNorm model.
    ///
    /// `calib_patches`/`calib_batch` supply one representative batch used to
    /// calibrate the GELU input range and the softmax logit scale; the
    /// float kernel runs it image by image with a recording hook, split
    /// into one contiguous part of the batch per core. The parts write
    /// their |scores| into disjoint slices of one buffer that calibration
    /// allocates up front, not into per-thread buffers that would stay
    /// resident in each thread's allocator arena; the result is
    /// bit-identical for any core count. The softmax sub-sample rates are
    /// then found once by a closed-form rule on stream lengths
    /// ([`IterSoftmaxConfig::check_rates`]), and each αy candidate is
    /// compiled at them.
    ///
    /// # Errors
    ///
    /// Returns [`ScError::InvalidParam`] if the model uses LayerNorm (not
    /// SC-mappable; see module docs), `calib_patches` does not hold exactly
    /// `calib_batch` images, or a softmax configuration is infeasible.
    pub fn compile(
        model: &VitModel,
        config: EngineConfig,
        calib_patches: &Tensor,
        calib_batch: usize,
    ) -> Result<Self, ScError> {
        if model.config.norm != NormKind::Batch {
            return Err(ScError::InvalidParam {
                name: "model",
                reason: "SC engine requires a BatchNorm model (paper §V LN→BN swap)".into(),
            });
        }
        // After this capture the engine never touches the model again.
        let net = FrozenNet::capture(model);
        let probe = calibrate(&net, calib_patches, calib_batch)?;

        // Softmax block: αx sized so Bx/2 levels cover the observed score
        // range; αy sized so By/2 levels cover [0, 1]. The requested s1/s2
        // were chosen for the paper's m = 64; for other row lengths the
        // engine degrades them to the nearest feasible rates (divisibility
        // of the internal stream widths).
        let ax = (2.0 * probe.score_scale.max(0.5) / config.softmax_bx as f64).max(1e-3);
        // Circuit-aware αy calibration: try the DSE's scale options and keep
        // the one with the lowest MAE on the probed attention rows. The
        // rates are feasible or not whatever αy is, so one search serves
        // every candidate.
        let base_ay = 2.0 / config.softmax_by as f64;
        let requested = IterSoftmaxConfig {
            m: net.vit.seq_len(),
            k: config.softmax_k,
            bx: config.softmax_bx,
            ax,
            by: config.softmax_by,
            ay: base_ay,
            s1: config.softmax_s1,
            s2: config.softmax_s2,
            mode: config.mode,
        };
        let (s1, s2) = feasible_rates(requested)?;
        let mut softmax: Option<(f64, IterSoftmaxBlock)> = None;
        for mult in [0.25, 0.5, 1.0] {
            let candidate = IterSoftmaxConfig { ay: base_ay * mult, s1, s2, ..requested };
            let Ok(block) = IterSoftmaxBlock::new(candidate) else { continue };
            // Calibration metric: overall MAE plus a heavy penalty on the
            // row's dominant entry — clamping the top attention weight is
            // far more damaging than diffuse small-entry error.
            let mut score = 0.0f64;
            for row in &probe.score_rows {
                let got = block.run_levels(row)?;
                let want = sc_nonlinear::ref_fn::softmax(row);
                let mut top = 0usize;
                for (i, w) in want.iter().enumerate() {
                    if *w > want[top] {
                        top = i;
                    }
                }
                let mae: f64 = got
                    .iter()
                    .zip(want.iter())
                    .map(|(g, w)| (g - w).abs())
                    .sum::<f64>()
                    / row.len() as f64;
                score += mae + 4.0 * (got[top] - want[top]).abs();
            }
            let better = softmax.as_ref().is_none_or(|(best, _)| score < *best);
            if better {
                softmax = Some((score, block));
            }
        }
        let softmax = softmax
            .ok_or_else(|| ScError::InvalidParam {
                name: "softmax",
                reason: "no feasible softmax configuration for this model geometry".into(),
            })?
            .1;

        // Per-layer GELU tables: wide thermometer in over the probed range,
        // the MLP mid-site activation grid out.
        let act_bsl = net.plan.acts.unwrap_or(16);
        let gelu = net
            .layers
            .iter()
            .zip(&probe.gelu_absmax)
            .map(|(snap, &absmax)| {
                let gelu_in = Thermometer::with_range(config.gelu_bx, absmax.max(0.5))?;
                let gelu_out = Thermometer::new(act_bsl, snap.mlp_mid_step as f64)?;
                GateAssistedSi::compile(ref_fn::gelu, gelu_in, gelu_out)
            })
            .collect::<Result<Vec<_>, ScError>>()?;

        Ok(ScEngine { config, softmax, gelu, net })
    }

    /// The engine configuration.
    pub fn config(&self) -> &EngineConfig {
        &self.config
    }

    /// The precision plan the engine was compiled at.
    pub fn plan(&self) -> &ascend_vit::PrecisionPlan {
        &self.net.plan
    }

    /// Number of compiled encoder layers.
    pub fn num_layers(&self) -> usize {
        self.net.layers.len()
    }

    /// The compiled softmax block (e.g. for hardware costing).
    pub fn softmax_block(&self) -> &IterSoftmaxBlock {
        &self.softmax
    }

    /// The compiled per-layer GELU blocks.
    pub fn gelu_blocks(&self) -> Vec<&GateAssistedSi> {
        self.gelu.iter().collect()
    }

    /// The ViT geometry the engine was compiled for.
    pub fn vit_config(&self) -> &VitConfig {
        &self.net.vit
    }
}

impl crate::backend::InferenceBackend for ScEngine {
    fn name(&self) -> &str {
        "sc-exact"
    }

    fn vit_config(&self) -> &VitConfig {
        &self.net.vit
    }

    fn plan(&self) -> &ascend_vit::PrecisionPlan {
        &self.net.plan
    }

    fn resident_bytes(&self) -> usize {
        self.net.resident_bytes()
            + self.gelu.iter().map(|g| std::mem::size_of_val(g.ones_table())).sum::<usize>()
    }

    fn make_scratch(&self) -> ForwardScratch {
        ForwardScratch::for_geometry(&self.net.vit)
    }

    /// Runs SC inference for one image through the encoder kernel with the
    /// SC softmax program and gate-SI GELU tables.
    ///
    /// # Errors
    ///
    /// [`ScError::InvalidParam`] if `patches` is not one image of the
    /// engine's geometry; softmax-block errors (infeasible configurations
    /// are rejected at [`ScEngine::compile`] time, so this is unexpected).
    fn forward_one(
        &self,
        patches: &[f32],
        scratch: &mut ForwardScratch,
        observer: &mut dyn StageObserver,
    ) -> Result<Vec<f32>, ScError> {
        let mut blocks = ScBlocks { softmax: &self.softmax, gelu: &self.gelu };
        self.net.forward(patches, scratch, &mut blocks, observer)
    }
}

/// The sub-sample rates the engine runs at: the first `(s1, s2)` that
/// passes [`IterSoftmaxConfig::check_rates`] for the row length, trying
/// the requested `s1` with `s2` halved down to 1, then each halved `s1`
/// with `s2` = 1. The rule reads stream lengths only, so the result holds
/// for every αx and αy.
fn feasible_rates(mut cfg: IterSoftmaxConfig) -> Result<(usize, usize), ScError> {
    let requested = (cfg.s1, cfg.s2);
    let mut s1 = cfg.s1;
    while s1 >= 1 {
        let mut s2 = cfg.s2;
        while s2 >= 1 {
            cfg.s1 = s1;
            cfg.s2 = s2;
            if cfg.check_rates().is_ok() {
                return Ok((s1, s2));
            }
            s2 /= 2;
        }
        s1 /= 2;
    }
    Err(ScError::InvalidParam {
        name: "softmax",
        reason: format!(
            "no feasible sub-sample rates at or below s1={} s2={} for m={}",
            requested.0, requested.1, cfg.m
        ),
    })
}

/// What calibration measures on the float forward of the calibration batch.
#[derive(Debug)]
pub(crate) struct Calibration {
    /// 98th percentile of |score| over every layer — robust to outliers,
    /// which merely clamp (softmax saturates for them anyway).
    pub(crate) score_scale: f64,
    /// Per layer, the largest |fc1 output| (the GELU input range).
    pub(crate) gelu_absmax: Vec<f64>,
    /// A sample of score rows for the αy search, layer-major.
    pub(crate) score_rows: Vec<Vec<f64>>,
}

/// Runs the float kernel over the `batch` calibration images with a
/// recording [`Probe`], in one contiguous part per core
/// (`ServeConfig::auto().resolved_workers()`, see [`calibrate_in_parts`]).
///
/// # Errors
///
/// [`ScError::InvalidParam`] unless `patches` holds exactly `batch` images.
pub(crate) fn calibrate(
    net: &FrozenNet,
    patches: &Tensor,
    batch: usize,
) -> Result<Calibration, ScError> {
    calibrate_in_parts(net, patches, batch, ServeConfig::auto().resolved_workers())
}

/// [`calibrate`] split into `parts` contiguous runs of images (clamped to
/// `1..=batch`), each on its own [`parallel_map`] worker; the calling
/// thread runs one part itself. Parts merge in image order: per-layer
/// sampled rows are concatenated and the GELU maxima take the max, so the
/// [`Calibration`] is bit-identical for every part count.
///
/// All |scores| go into one buffer allocated here, each part writing its
/// own disjoint slice of it. A score `Vec` per part would be freed into
/// that worker thread's glibc arena and stay resident: on a 2-core Xeon it
/// raised the `batch-m65` benchmark's `peak_rss_mb` by ~1.5 MiB (+12%).
///
/// # Errors
///
/// [`ScError::InvalidParam`] unless `patches` holds exactly `batch` images.
pub(crate) fn calibrate_in_parts(
    net: &FrozenNet,
    patches: &Tensor,
    batch: usize,
    parts: usize,
) -> Result<Calibration, ScError> {
    let cfg = &net.vit;
    check_patch_count("calib_patches", patches.numel(), batch, cfg)?;
    let layers = net.layers.len();
    let s = cfg.seq_len();
    let per_image = cfg.num_patches() * cfg.patch_dim();
    let scores_per_image = layers * cfg.heads * s * s;
    let mut abs_scores = vec![0.0f32; batch * scores_per_image];
    let parts = parts.clamp(1, batch.max(1));
    let mut rest = abs_scores.as_mut_slice();
    let mut slots = Vec::with_capacity(parts);
    for p in 0..parts {
        let images = p * batch / parts..(p + 1) * batch / parts;
        let (mine, tail) = std::mem::take(&mut rest).split_at_mut(images.len() * scores_per_image);
        rest = tail;
        slots.push((images, Mutex::new(mine)));
    }
    let recorded = parallel_map(parts, 1, &slots, |_, (images, scores)| {
        let scores = std::mem::take(&mut *scores.lock().unwrap_or_else(PoisonError::into_inner));
        let mut probe = Probe::new(cfg, batch, layers, images.start, scores);
        let mut scratch = ForwardScratch::for_geometry(cfg);
        let part = &patches.data()[images.start * per_image..images.end * per_image];
        for img in part.chunks_exact(per_image) {
            let mut blocks = FloatBlocks { net, probe: Some(&mut probe) };
            net.forward(img, &mut scratch, &mut blocks, &mut NoopObserver)?;
            probe.image += 1;
        }
        Ok((probe.gelu_absmax, probe.score_rows))
    });
    let mut gelu_absmax = vec![0.0f64; layers];
    let mut score_rows = vec![Vec::new(); layers];
    for part in recorded {
        let (part_absmax, part_rows) = part?;
        for (mx, v) in gelu_absmax.iter_mut().zip(part_absmax) {
            *mx = mx.max(v);
        }
        for (rows, mut more) in score_rows.iter_mut().zip(part_rows) {
            rows.append(&mut more);
        }
    }
    Ok(Calibration {
        score_scale: percentile_98(&mut abs_scores),
        gelu_absmax,
        score_rows: score_rows.into_iter().flatten().collect(),
    })
}

/// The calibration recording hook for one part of the batch. It sees one
/// image at a time, yet records exactly what a forward over the whole
/// batch stacked together would: all |scores| (into its slice of the
/// caller's buffer), the per-layer GELU-input maxima, and the sampled
/// score rows in that forward's order — every `step`-th of the batch's
/// `batch·heads·s` stacked rows per layer, layers in order, until 64 rows
/// are held at a layer boundary. Row order matters: the αy search sums
/// per-row errors in `f64`, and that order decides near-ties.
struct Probe<'s> {
    /// Index of the image being recorded, within the whole batch.
    image: usize,
    /// Score rows per image per layer (`heads · s`).
    rows_per_image: usize,
    /// Row sampling stride over the batch's stacked rows.
    step: usize,
    /// Rows sampled from each layer that is sampled at all.
    rows_per_layer: usize,
    /// The part's |score| slots not yet written, front to back.
    abs_scores: std::slice::IterMut<'s, f32>,
    gelu_absmax: Vec<f64>,
    score_rows: Vec<Vec<Vec<f64>>>,
}

impl<'s> Probe<'s> {
    /// Rows held before a layer boundary that stop further sampling.
    const ROW_CAP: usize = 64;

    fn new(
        cfg: &VitConfig,
        batch: usize,
        layers: usize,
        first_image: usize,
        abs_scores: &'s mut [f32],
    ) -> Probe<'s> {
        let rows_per_image = cfg.heads * cfg.seq_len();
        let rows = batch * rows_per_image;
        let step = (rows / 8).max(1);
        Probe {
            image: first_image,
            rows_per_image,
            step,
            rows_per_layer: rows.div_ceil(step),
            abs_scores: abs_scores.iter_mut(),
            gelu_absmax: vec![0.0; layers],
            score_rows: vec![Vec::new(); layers],
        }
    }

    fn record_scores(&mut self, layer: usize, scores: &[f32], s: usize) {
        for (v, dst) in scores.iter().zip(&mut self.abs_scores) {
            *dst = v.abs();
        }
        if layer * self.rows_per_layer >= Self::ROW_CAP {
            return;
        }
        let base = self.image * self.rows_per_image;
        let first = base.div_ceil(self.step) * self.step;
        for r in (first..base + self.rows_per_image).step_by(self.step) {
            let row = &scores[(r - base) * s..(r - base + 1) * s];
            self.score_rows[layer].push(row.iter().map(|&v| v as f64).collect());
        }
    }

    fn record_gelu_input(&mut self, layer: usize, pre: &[f32]) {
        let mx = &mut self.gelu_absmax[layer];
        for v in pre {
            *mx = mx.max(v.abs() as f64);
        }
    }
}

/// The element at rank `⌊0.98·n⌋` (clamped to the last) of `samples` in
/// `total_cmp` order — the one a full sort would put there — or 1.0 for
/// no samples. Reorders `samples`.
fn percentile_98(samples: &mut [f32]) -> f64 {
    if samples.is_empty() {
        return 1.0;
    }
    let idx = (((samples.len() as f64) * 0.98) as usize).min(samples.len() - 1);
    let (_, v, _) = samples.select_nth_unstable_by(idx, f32::total_cmp);
    f64::from(*v)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::InferenceBackend;
    use crate::fixture::{train_or_load, FixtureRecipe};
    use ascend_vit::VitConfig;

    fn trained_quant_model() -> (VitModel, ascend_vit::data::Dataset, ascend_vit::data::Dataset) {
        // The shared checkpoint-cached converged fixture (trains once per
        // cache lifetime; `tests/backend_parity.rs` rides the same cache).
        train_or_load(&FixtureRecipe::tiny_converged("engine-unit", 5))
    }

    #[test]
    fn percentile_98_picks_the_element_a_sort_would() {
        // The sort-based reference: widen to f64, sort, index.
        let reference = |samples: &[f32]| -> f64 {
            let mut wide: Vec<f64> = samples.iter().map(|&v| v as f64).collect();
            wide.sort_by(f64::total_cmp);
            let idx = ((wide.len() as f64) * 0.98) as usize;
            wide.get(idx.min(wide.len().saturating_sub(1))).copied().unwrap_or(1.0)
        };
        let mut noisy: Vec<f32> = (0..997).map(|i| ((i as f32) * 0.731).sin().abs() * 4.0).collect();
        noisy.extend([9.5, 9.5, 12.0]);
        let cases: Vec<Vec<f32>> = vec![
            vec![],
            vec![0.75],
            vec![0.0; 40],
            vec![0.0, 0.0, 0.0, 2.0],
            [vec![1.5; 60], vec![3.0; 3], vec![0.0; 37]].concat(),
            (0..50).map(|i| (i % 7) as f32).collect(),
            noisy,
        ];
        for mut case in cases {
            let want = reference(&case);
            let got = percentile_98(&mut case);
            assert_eq!(got.to_bits(), want.to_bits(), "n = {}: {got} vs {want}", case.len());
        }
    }

    #[test]
    fn engine_rejects_layernorm_models() {
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
        let model = VitModel::new(cfg);
        let calib = Tensor::zeros(&[4, cfg.patch_dim()]);
        assert!(ScEngine::compile(&model, EngineConfig::default(), &calib, 1).is_err());
    }

    fn tiny_bn_model() -> VitModel {
        VitModel::new(VitConfig {
            image: 8,
            patch: 4,
            dim: 16,
            layers: 2,
            heads: 2,
            classes: 2,
            ..Default::default()
        })
    }

    #[test]
    fn compile_rejects_a_calibration_batch_its_patches_do_not_hold() {
        // One image of patches declared as three used to index past the
        // patch tensor and panic; it must be a typed error, directly and
        // through a checkpoint's calibration section.
        let model = tiny_bn_model();
        let (train, _) = ascend_vit::data::synth_cifar(2, 2, 2, 8, 3);
        let one = train.patches(&[0], 4);
        let invalid = |r: Result<ScEngine, ScError>| matches!(r, Err(ScError::InvalidParam { .. }));
        assert!(invalid(ScEngine::compile(&model, EngineConfig::default(), &one, 3)));
        let ckpt = ascend_io::ModelCheckpoint::capture(&model).with_calib(one, 3);
        assert!(invalid(ScEngine::compile_from_checkpoint(&ckpt, EngineConfig::default())));
    }

    #[test]
    fn an_empty_calibration_batch_compiles_at_the_default_ranges() {
        // No images: score scale 1.0 and a zero GELU maximum per layer,
        // so αx and every GELU input range sit at their floors.
        let model = tiny_bn_model();
        let none = Tensor::zeros(&[0, model.config.patch_dim()]);
        let config = EngineConfig::default();
        let engine = ScEngine::compile(&model, config, &none, 0).unwrap();
        let ax = engine.softmax_block().config().ax;
        assert_eq!(ax, 2.0 * 1.0 / config.softmax_bx as f64);
        let want = Thermometer::with_range(config.gelu_bx, 0.5).unwrap();
        assert_eq!(engine.gelu_blocks().len(), 2);
        for gelu in engine.gelu_blocks() {
            assert_eq!(gelu.input().scale().to_bits(), want.scale().to_bits());
        }
    }

    #[test]
    fn engine_tracks_the_model_with_float_approximate_softmax() {
        // The fair reference: the same model running the *float* iterative
        // softmax (Algorithm 1 at the same k). The engine's remaining delta
        // is then pure SC quantization, which must be small. This mirrors
        // the paper's stage-2 setup, where the network is adapted to the
        // approximation and the circuit only adds quantization error.
        let (mut model, train, test) = trained_quant_model();
        let calib = train.patches(&(0..16).collect::<Vec<_>>(), 4);
        let engine = ScEngine::compile(&model, EngineConfig::default(), &calib, 16).unwrap();
        model.set_softmax(ascend_vit::SoftmaxKind::IterApprox {
            k: engine.config().softmax_k,
        });
        let idx: Vec<usize> = (0..32).collect();
        let patches = test.patches(&idx, 4);
        let sc_logits = engine.forward(&patches, 32).unwrap();
        let float_logits = model.predict(&patches, 32);
        let agree = sc_logits
            .argmax_rows()
            .iter()
            .zip(float_logits.argmax_rows().iter())
            .filter(|(a, b)| a == b)
            .count();
        assert!(agree >= 22, "SC engine diverges from approx-softmax model: {agree}/32 agree");
    }

    #[test]
    fn engine_accuracy_close_to_model_accuracy() {
        let (model, train, test) = trained_quant_model();
        let calib = train.patches(&(0..16).collect::<Vec<_>>(), 4);
        let engine = ScEngine::compile(&model, EngineConfig::default(), &calib, 16).unwrap();
        let sc_acc = engine.accuracy(&test, 16).unwrap();
        let float_acc = ascend_vit::train::evaluate(&model, &test, 16);
        assert!(
            (sc_acc - float_acc).abs() < 0.25,
            "sc {sc_acc} vs float {float_acc}"
        );
    }

    #[test]
    fn coarser_softmax_state_does_not_crash_and_stays_bounded() {
        let (model, train, test) = trained_quant_model();
        let calib = train.patches(&(0..16).collect::<Vec<_>>(), 4);
        for by in [4usize, 8, 16] {
            let cfg = EngineConfig::from_quad(by, 8, 4, 3);
            let engine = ScEngine::compile(&model, cfg, &calib, 16).unwrap();
            let acc = engine.accuracy(&test, 16).unwrap();
            assert!((0.0..=1.0).contains(&acc), "By={by} acc {acc}");
        }
    }
}
