//! End-to-end SC inference: executing the low-precision ViT with
//! thermometer-coded arithmetic.
//!
//! The engine consumes a trained BN-ViT in its `W·-A·-R·` plan and runs it
//! the way the accelerator would:
//!
//! * every quantizer site becomes a thermometer codec (`level = value/step`,
//!   BSL from the plan). In the circuit, truth-table multiplication and BSN
//!   accumulation of thermometer levels reproduce integer arithmetic bit
//!   for bit (`sc-core` proves this by property test). The engine does not
//!   compute on levels, though: each linear sums the f32 products of
//!   level·step values in input order (`matvec`), and that sum differs
//!   from the integer level sum by rounding — on synthetic ternary data,
//!   8219 of 18720 pre-bias outputs differed. ROADMAP.md item 10(b) would
//!   compute the integer sum; item 14 would check the whole engine against
//!   the stream-level circuit;
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
//! Every linear — patch embedding, Q/K/V, the scores against Kᵀ, `·V`,
//! the projection, fc1, fc2 and the head — runs through one register-tiled
//! kernel (`matvec`): it keeps a tile of up to 32 output columns in local
//! accumulators for the whole input row and stores them once. The tiles
//! decide which outputs are summed together, never the order within one,
//! so every output element keeps the float order of the `Tensor`-op
//! dataflow the kernel replaced, and logits are bit-identical to it: a
//! linear accumulates from +0 over its non-zero inputs in input order (the
//! `ikj` order), one rounded product at a time, and then adds the bias;
//! scores are scaled by `1/√dh` in a separate multiply; no fused
//! multiply-add, and no scale is folded into a weight.

use std::ops::ControlFlow;

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
        EngineConfig {
            softmax_by: by,
            softmax_s1: s1,
            softmax_s2: s2,
            softmax_k: k,
            ..Default::default()
        }
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
        QuantLinear {
            w: lin.w.map(|v| q.apply(v)),
            b: lin.b.clone(),
        }
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
        self.layers
            .iter()
            .map(QuantLayerSnapshot::resident_bytes)
            .sum::<usize>()
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
    /// Returns no logits if `blocks` ends the forward at a GELU (a
    /// calibration probe at the last layer).
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
        let ForwardScratch {
            softmax,
            x,
            xq,
            q,
            kt,
            v,
            scores,
            hidden,
            acc,
        } = scratch;

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
            let flow = blocks.gelu(li, hidden);
            observer.exit(Stage::Gelu);
            if flow.is_break() {
                return Ok(Vec::new());
            }
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
/// `out.len()` values of `w[p·stride..]`. `stride` lets `W` be a column
/// block of a wider matrix (one head of V, one head of the transposed K).
///
/// The output columns are cut into register tiles: as many 32-wide as fit,
/// then at most one each of 16, 8, 4, 2 and 1. A tile's accumulators live
/// in a fixed-size local array for the whole input row and are stored
/// once, instead of loading and storing every output again for every
/// input. Within a tile each output starts at `+0.0`, and every input
/// `a = row[p]` that is not zero (`a == 0.0`, so both signs of zero are
/// skipped and NaN is not) adds the separately rounded product `a · W[p]`
/// in `p` order: the per-output order of the `ikj` loop of
/// [`Tensor::matmul`], with no fused multiply-add, so the result is the
/// same bit for bit.
///
/// Inputs past the rows `w` holds are ignored; every row that `row`
/// reaches must hold all `out.len()` values, as the encoder's buffers do.
#[inline]
fn matvec(row: &[f32], w: &[f32], stride: usize, out: &mut [f32]) {
    let (mut col, mut out) = (0, out);
    while out.len() >= 32 {
        out = matvec_tile::<32>(row, w, stride, &mut col, out);
    }
    out = matvec_tile::<16>(row, w, stride, &mut col, out);
    out = matvec_tile::<8>(row, w, stride, &mut col, out);
    out = matvec_tile::<4>(row, w, stride, &mut col, out);
    out = matvec_tile::<2>(row, w, stride, &mut col, out);
    matvec_tile::<1>(row, w, stride, &mut col, out);
}

/// One register tile of [`matvec`]: if `out` holds at least `T` values,
/// its first `T` become columns `col..col + T` of `row · W`, `col`
/// advances by `T` and the rest of `out` is returned; otherwise `out` is
/// returned untouched.
#[inline(always)]
fn matvec_tile<'o, const T: usize>(
    row: &[f32],
    w: &[f32],
    stride: usize,
    col: &mut usize,
    out: &'o mut [f32],
) -> &'o mut [f32] {
    if out.len() < T {
        return out;
    }
    let mut acc = [0.0f32; T];
    let w = w.get(*col..).unwrap_or_default();
    for (&a, wrow) in row.iter().zip(w.chunks(stride)) {
        if a == 0.0 {
            continue;
        }
        for (s, &b) in acc.iter_mut().zip(&wrow[..T]) {
            *s += a * b;
        }
    }
    let (tile, rest) = out.split_at_mut(T);
    tile.copy_from_slice(&acc);
    *col += T;
    rest
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
    for (ir, xr) in input
        .chunks_exact(lin.w.shape()[0])
        .zip(x.chunks_exact_mut(d))
    {
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
        Quant {
            step,
            half: bsl.map(|l| (l / 2) as f32),
        }
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

    /// Turns layer `layer`'s fc1 outputs into fc2 inputs in place, or
    /// breaks when nothing after them is needed: the forward then ends
    /// there and returns no logits.
    fn gelu(&mut self, layer: usize, hidden: &mut [f32]) -> ControlFlow<()>;
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

    fn gelu(&mut self, layer: usize, hidden: &mut [f32]) -> ControlFlow<()> {
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
        ControlFlow::Continue(())
    }
}

/// The float blocks: exact softmax, float GELU fake-quantized at the MLP
/// mid site ([`MidGelu`]), and an optional calibration recorder. With a
/// recorder attached the forward ends at the last layer's GELU input, the
/// last thing it records.
pub(crate) struct FloatBlocks<'a> {
    net: &'a FrozenNet,
    probe: Option<&'a mut Probe>,
}

impl<'a> FloatBlocks<'a> {
    pub(crate) fn new(net: &'a FrozenNet) -> Self {
        FloatBlocks { net, probe: None }
    }
}

impl Nonlinear for FloatBlocks<'_> {
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

    fn gelu(&mut self, layer: usize, hidden: &mut [f32]) -> ControlFlow<()> {
        if let Some(probe) = self.probe.as_deref_mut() {
            probe.record_gelu_input(layer, hidden);
            if layer + 1 == self.net.layers.len() {
                return ControlFlow::Break(());
            }
        }
        let site = MidGelu::new(self.net.layers[layer].mlp_mid_step, self.net.plan.acts);
        for v in hidden.iter_mut() {
            *v = site.apply(*v);
        }
        ControlFlow::Continue(())
    }
}

/// The float GELU followed by the MLP mid-site fake-quant,
/// `q.apply(gelu_f(x))`, bit for bit — with a shortcut where the site is
/// ternary (BSL 2: levels −step, 0, step) and its step exceeds
/// [`MidGelu::MIN_TERNARY_STEP`]. There, for finite `x`:
///
/// * `x ≥ step` gives `step`. `gelu_f(x) = (0.5·x)·(1 + tanh(u))` with
///   `u > 0`, so `1 + tanh(u) ≥ 1` and, rounding being monotone,
///   `gelu_f(x) ≥ 0.5·x ≥ 0.5·step`; then `gelu_f(x)/step ≥ 0.5` rounds
///   (half away from zero) to 1, which the clamp keeps.
/// * `x < zero_below = 0.5·step·(1 − 2⁻¹⁰)` gives a zero with `x`'s sign.
///   For `x ≥ 0`, `1 + tanh(u) ≤ 2`, so `gelu_f(x) ≤ x` (`0.5·x` is
///   exact unless `x` is subnormal, and then the quotient is tiny anyway)
///   and `gelu_f(x)/step < 0.5` (the 2⁻¹⁰ margin covers the rounding of
///   `zero_below` and of the quotient): it rounds to `+0`. For `x < 0`,
///   `gelu_f(x)` is negative or `−0`, and at least −0.17004079 over every
///   f32 in [−16, 0); below −16 `tanh(u)` is −1 and `gelu_f(x)` is `−0`
///   (checked over every negative f32 by an ignored test). A step above
///   2·0.17004079 keeps the quotient above −0.5, so it rounds to `−0`.
///
/// `tanh` then runs only in between, or for a non-finite `x` (at `−∞`
/// the exact path gives NaN, not a zero). Every other site runs the exact
/// path.
#[derive(Clone, Copy)]
struct MidGelu {
    q: Quant,
    /// `(step, zero_below)` at a ternary site with a step above
    /// [`MidGelu::MIN_TERNARY_STEP`].
    ternary: Option<(f32, f32)>,
}

impl MidGelu {
    /// The smallest step at which a negative `x` cannot reach the −step
    /// level: just above twice the deepest `gelu_f` value, −0.17004079.
    const MIN_TERNARY_STEP: f32 = 0.3401;

    fn new(step: f32, bsl: Option<usize>) -> Self {
        let ternary = (bsl == Some(2) && step > Self::MIN_TERNARY_STEP)
            .then(|| (step, 0.5 * step * (1.0 - 1.0 / 1024.0)));
        MidGelu {
            q: Quant::new(step, bsl),
            ternary,
        }
    }

    #[inline]
    fn apply(self, x: f32) -> f32 {
        if let Some((step, zero_below)) = self.ternary {
            if x.is_finite() {
                if x >= step {
                    return step;
                }
                if x < zero_below {
                    return 0.0f32.copysign(x);
                }
            }
        }
        self.q.apply(ascend_tensor::graph::gelu_f(x))
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
    /// float kernel runs it image by image with a recording hook, up to
    /// the last layer's GELU input, split into one contiguous part of the
    /// batch per core once the batch is large enough to pay for a thread.
    /// Each part keeps only its largest |scores|, as many as could hold
    /// the 98th percentile's rank (`n − ⌊0.98·n⌋` of the batch's `n`), so
    /// calibration holds O(parts·(n − ⌊0.98·n⌋)) floats, not O(n); the
    /// result is bit-identical for any part count. The softmax sub-sample
    /// rates are then found once by a closed-form rule on stream lengths
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
            let candidate = IterSoftmaxConfig {
                ay: base_ay * mult,
                s1,
                s2,
                ..requested
            };
            let Ok(block) = IterSoftmaxBlock::new(candidate) else {
                continue;
            };
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

        Ok(ScEngine {
            config,
            softmax,
            gelu,
            net,
        })
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
            + self
                .gelu
                .iter()
                .map(|g| std::mem::size_of_val(g.ones_table()))
                .sum::<usize>()
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
        let mut blocks = ScBlocks {
            softmax: &self.softmax,
            gelu: &self.gelu,
        };
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
    /// which merely clamp (softmax saturates for them anyway): the element
    /// at rank `⌊0.98·n⌋` (clamped to the last) of the `n` |scores| in
    /// `total_cmp` order, or 1.0 for none.
    pub(crate) score_scale: f64,
    /// Per layer, the largest |fc1 output| (the GELU input range).
    pub(crate) gelu_absmax: Vec<f64>,
    /// A sample of score rows for the αy search, layer-major.
    pub(crate) score_rows: Vec<Vec<f64>>,
}

/// Float multiply-adds of encoder work below which a calibration part
/// costs less than the helper thread that would run it.
///
/// Measured on a 2-core Xeon (release): the `perfbench` m = 5 model's
/// 16-image batch is ~0.52 M multiply-adds, and `interactive-m5`
/// `setup_s`, which compiles that engine, read 1.20 ms with calibration on
/// the calling thread and 1.27 ms split in two (medians of 6 alternating
/// runs, one part faster in 6/6). The m = 65 batch is ~34 M; its
/// calibration took 7.2–8.2 ms on two parts and 10.2–15.7 ms on one
/// (minimum of 40 calls, 6 rounds). An empty scoped spawn and join alone
/// took 0.014–0.05 ms; a helper also pays for its cold caches and its
/// own allocations. The cut-off sits 4× above the m = 5 half-batch.
const MIN_PART_MACS: usize = 1 << 20;

/// Runs the float kernel over the `batch` calibration images with a
/// recording [`Probe`], in as many contiguous parts as there are cores
/// (`ServeConfig::auto().resolved_workers()`) but at most one per
/// [`MIN_PART_MACS`] of encoder work, so a small batch runs on the calling
/// thread alone (see [`calibrate_in_parts`]).
///
/// # Errors
///
/// [`ScError::InvalidParam`] unless `patches` holds exactly `batch` images.
pub(crate) fn calibrate(
    net: &FrozenNet,
    patches: &Tensor,
    batch: usize,
) -> Result<Calibration, ScError> {
    let cfg = &net.vit;
    let (s, d, hd) = (cfg.seq_len(), cfg.dim, cfg.dim * cfg.mlp_ratio);
    // Q, K, V and the projection; fc1 and fc2; scores and `·V`.
    let macs = batch * net.layers.len() * s * d * (4 * d + 2 * hd + 2 * s);
    let parts = ServeConfig::auto()
        .resolved_workers()
        .min(macs / MIN_PART_MACS);
    calibrate_in_parts(net, patches, batch, parts)
}

/// [`calibrate`] split into `parts` contiguous runs of images (clamped to
/// `1..=batch`), each on its own [`parallel_map`] worker; the calling
/// thread runs one part itself. Parts merge in image order: per-layer
/// sampled rows are concatenated, the GELU maxima take the max and the
/// |score| tails merge into one, so the [`Calibration`] is bit-identical
/// for every part count.
///
/// No part keeps every |score|. Of the `n = batch·layers·heads·s²` scores
/// only the `n − ⌊0.98·n⌋` largest can hold the 98th percentile's rank,
/// and each part keeps those of its own in an [`UpperTail`] of at most
/// twice that many floats: O(parts·(n − ⌊0.98·n⌋)) floats in all, 2 × 43 KB
/// at the m = 65 bench geometry where one buffer of every |score| took
/// 1.08 MB. Each part allocates its own tail and scratch, so a worker's
/// allocator arena keeps at most that much after the part is freed.
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
    let per_image = cfg.num_patches() * cfg.patch_dim();
    let parts = parts.clamp(1, batch.max(1));
    let runs: Vec<_> = (0..parts)
        .map(|p| p * batch / parts..(p + 1) * batch / parts)
        .collect();
    let recorded = parallel_map(parts, 1, &runs, |_, images| {
        let mut probe = Probe::new(net, batch, images.start);
        let mut scratch = ForwardScratch::for_geometry(cfg);
        let part = &patches.data()[images.start * per_image..images.end * per_image];
        for img in part.chunks_exact(per_image) {
            let mut blocks = FloatBlocks {
                net,
                probe: Some(&mut probe),
            };
            net.forward(img, &mut scratch, &mut blocks, &mut NoopObserver)?;
            probe.image += 1;
        }
        Ok(probe)
    });
    let mut recorded = recorded.into_iter();
    // `parallel_map` returns one result per part, and there is at least one.
    let mut merged = recorded
        .next()
        .unwrap_or_else(|| Ok(Probe::new(net, batch, 0)))?;
    for part in recorded {
        merged.absorb(part?);
    }
    Ok(merged.into_calibration())
}

/// The calibration recording hook for one part of the batch. It sees one
/// image at a time, yet records exactly what a forward over the whole
/// batch stacked together would: the tail of |scores| that decides their
/// 98th percentile ([`UpperTail`]), the per-layer GELU-input maxima, and
/// the sampled score rows in that forward's order — every `step`-th of the
/// batch's `batch·heads·s` stacked rows per layer, layers in order, until
/// 64 rows are held at a layer boundary. Row order matters: the αy search
/// sums per-row errors in `f64`, and that order decides near-ties.
struct Probe {
    /// Index of the image being recorded, within the whole batch.
    image: usize,
    /// Score rows per image per layer (`heads · s`).
    rows_per_image: usize,
    /// Row sampling stride over the batch's stacked rows.
    step: usize,
    /// Rows sampled from each layer that is sampled at all.
    rows_per_layer: usize,
    /// The part's largest |scores|, sized for the whole batch's count.
    abs_scores: UpperTail,
    gelu_absmax: Vec<f64>,
    score_rows: Vec<Vec<Vec<f64>>>,
}

impl Probe {
    /// Rows held before a layer boundary that stop further sampling.
    const ROW_CAP: usize = 64;

    /// A probe for the part of a `batch`-image calibration run over `net`
    /// that starts at image `first_image`.
    fn new(net: &FrozenNet, batch: usize, first_image: usize) -> Probe {
        let (cfg, layers) = (&net.vit, net.layers.len());
        let rows_per_image = cfg.heads * cfg.seq_len();
        let rows = batch * rows_per_image;
        let step = (rows / 8).max(1);
        Probe {
            image: first_image,
            rows_per_image,
            step,
            rows_per_layer: rows.div_ceil(step),
            abs_scores: UpperTail::for_percentile_98(layers * rows * cfg.seq_len()),
            gelu_absmax: vec![0.0; layers],
            score_rows: vec![Vec::new(); layers],
        }
    }

    fn record_scores(&mut self, layer: usize, scores: &[f32], s: usize) {
        for v in scores {
            self.abs_scores.push(v.abs());
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

    /// Merges the probe of the part that follows this one.
    fn absorb(&mut self, later: Probe) {
        for (mx, v) in self.gelu_absmax.iter_mut().zip(later.gelu_absmax) {
            *mx = mx.max(v);
        }
        for (rows, mut more) in self.score_rows.iter_mut().zip(later.score_rows) {
            rows.append(&mut more);
        }
        self.abs_scores.absorb(&later.abs_scores);
    }

    fn into_calibration(self) -> Calibration {
        Calibration {
            score_scale: self.abs_scores.smallest(),
            gelu_absmax: self.gelu_absmax,
            score_rows: self.score_rows.into_iter().flatten().collect(),
        }
    }
}

/// The `keep` largest samples pushed, in `total_cmp` order, held exactly
/// but not in order, in a buffer of at most `2·keep` floats.
///
/// Samples are appended until the buffer holds `2·keep`; a cut then keeps
/// its `keep` largest (`select_nth_unstable_by`) and remembers the
/// smallest of them as the floor. A later sample not above the floor is
/// dropped: `keep` held samples are at least as large, so it cannot
/// change the `keep` largest values. Their smallest is the sample at rank
/// `n − keep` of all `n` pushed — whatever the order of pushes, and
/// whatever the split into tails merged by [`UpperTail::absorb`].
struct UpperTail {
    keep: usize,
    buf: Vec<f32>,
    /// The smallest kept sample at the last cut.
    floor: Option<f32>,
}

impl UpperTail {
    /// The tail whose smallest sample is the 98th percentile of `n`: the
    /// element at rank `⌊0.98·n⌋` (clamped to the last) in `total_cmp`
    /// order, as a full sort would place it.
    fn for_percentile_98(n: usize) -> UpperTail {
        let rank = (((n as f64) * 0.98) as usize).min(n.saturating_sub(1));
        let keep = n - rank;
        UpperTail {
            keep,
            buf: Vec::with_capacity(2 * keep),
            floor: None,
        }
    }

    #[inline]
    fn push(&mut self, v: f32) {
        if self.floor.is_some_and(|floor| v.total_cmp(&floor).is_le()) {
            return;
        }
        self.buf.push(v);
        if self.buf.len() == 2 * self.keep {
            self.cut();
        }
    }

    fn cut(&mut self) {
        let (_, kth, _) = self
            .buf
            .select_nth_unstable_by(self.keep - 1, |a, b| b.total_cmp(a));
        self.floor = Some(*kth);
        self.buf.truncate(self.keep);
    }

    /// Adds every sample `other` holds.
    fn absorb(&mut self, other: &UpperTail) {
        for &v in &other.buf {
            self.push(v);
        }
    }

    /// The smallest of the `keep` largest samples, or 1.0 when fewer than
    /// `keep` (or no samples at all) were pushed.
    fn smallest(mut self) -> f64 {
        if self.keep == 0 || self.buf.len() < self.keep {
            return 1.0;
        }
        let (_, kth, _) = self
            .buf
            .select_nth_unstable_by(self.keep - 1, |a, b| b.total_cmp(a));
        f64::from(*kth)
    }
}

/// The element at rank `⌊0.98·n⌋` (clamped to the last) of `samples` in
/// `total_cmp` order — the one a full sort would put there — or 1.0 for
/// no samples. Reorders `samples`. The reference [`UpperTail`] is held to.
#[cfg(test)]
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

    fn trained_quant_model() -> (
        VitModel,
        ascend_vit::data::Dataset,
        ascend_vit::data::Dataset,
    ) {
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
            wide.get(idx.min(wide.len().saturating_sub(1)))
                .copied()
                .unwrap_or(1.0)
        };
        let mut noisy: Vec<f32> = (0..997)
            .map(|i| ((i as f32) * 0.731).sin().abs() * 4.0)
            .collect();
        noisy.extend([9.5, 9.5, 12.0]);
        let cases: Vec<Vec<f32>> = vec![
            vec![],
            vec![0.75],
            vec![-0.0],
            vec![f32::NAN],
            vec![0.0; 40],
            vec![0.0, 0.0, 0.0, 2.0],
            [vec![1.5; 60], vec![3.0; 3], vec![0.0; 37]].concat(),
            (0..50).map(|i| (i % 7) as f32).collect(),
            noisy,
        ];
        for mut case in cases {
            let want = reference(&case);
            for parts in 1..=4 {
                let got = merged_tail(&case, parts).smallest();
                assert_eq!(
                    got.to_bits(),
                    want.to_bits(),
                    "n = {}, {parts} parts",
                    case.len()
                );
            }
            let got = percentile_98(&mut case);
            assert_eq!(
                got.to_bits(),
                want.to_bits(),
                "n = {}: {got} vs {want}",
                case.len()
            );
        }
    }

    /// `samples` split as [`calibrate_in_parts`] splits a batch, each part
    /// pushed into its own tail and the tails merged in order.
    fn merged_tail(samples: &[f32], parts: usize) -> UpperTail {
        let n = samples.len();
        let mut tails = (0..parts).map(|p| {
            let mut tail = UpperTail::for_percentile_98(n);
            for &v in &samples[p * n / parts..(p + 1) * n / parts] {
                tail.push(v);
            }
            // Never grown past the `2·keep` it was made with.
            assert_eq!(tail.buf.capacity(), 2 * tail.keep, "n = {n}");
            tail
        });
        let mut merged = tails.next().unwrap();
        for tail in tails {
            merged.absorb(&tail);
        }
        merged
    }

    /// A sample biased towards the cases `total_cmp` orders specially.
    fn special_f32(kind: u8, bits: u32) -> f32 {
        let sign = bits & 0x8000_0000;
        match kind {
            0 => 0.0,
            1 => -0.0,
            // Subnormal, either sign.
            2 => f32::from_bits(sign | (bits & 0x007f_ffff).max(1)),
            // NaN, either sign, any payload.
            3 => f32::from_bits(sign | 0x7f80_0000 | (bits & 0x007f_ffff).max(1)),
            4 => [f32::INFINITY, f32::NEG_INFINITY][(bits & 1) as usize],
            // A few repeated values, so ties straddle the cuts.
            5 | 6 => [0.5, 1.0, 2.0, 3.0][(bits & 3) as usize],
            _ => f32::from_bits(bits),
        }
    }

    /// The scalar `ikj` loop the tiled [`matvec`] replaced, kept as its
    /// reference: zero `out`, then add `a · W[p]` to every output for each
    /// non-zero input in order.
    fn matvec_ikj(row: &[f32], w: &[f32], stride: usize, out: &mut [f32]) {
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

    /// A kernel operand biased towards the values that decide float
    /// results: both zeros, subnormals, NaN and infinities (kinds 0–4, as
    /// [`special_f32`] draws them), ±step of a ternary site, and (most
    /// often) finite values in ±[2⁻⁷, 2⁹), where summation order and a
    /// fused multiply-add change the rounding.
    fn matvec_value(kind: u8, bits: u32) -> f32 {
        match kind {
            0..=4 => special_f32(kind, bits),
            5 | 6 => [0.37, -0.37][(bits & 1) as usize],
            _ => f32::from_bits(
                (bits & 0x8000_0000) | ((120 + (bits >> 23 & 15)) << 23) | (bits & 0x007f_ffff),
            ),
        }
    }

    /// `n` kernel operands from `seed`, one in nine of them drawn from
    /// every kind and the rest finite (see [`matvec_value`]).
    fn matvec_values(seed: u64, n: usize) -> Vec<f32> {
        let mut rng = proptest::test_runner::TestRng::new(seed);
        (0..n)
            .map(|_| {
                let z = rng.next_u64();
                let kind = if z.is_multiple_of(9) {
                    (z >> 8) as u8 % 8
                } else {
                    7
                };
                matvec_value(kind, (z >> 32) as u32)
            })
            .collect()
    }

    /// Asserts that [`matvec`] equals [`matvec_ikj`] bit for bit on a
    /// `k`-input row against the `n` columns at `offset` of a `k`-row
    /// matrix of `stride` columns, cut to end at its last row's column
    /// block (the tightest `w` the kernel may be given).
    ///
    /// A NaN output must be NaN in both, with any payload: Rust leaves the
    /// payload of an arithmetic NaN unspecified, and a release build of
    /// the `ikj` loop itself may swap the operands of an add whose both
    /// operands are NaN.
    fn assert_matvec_twin(row: &[f32], matrix: &[f32], stride: usize, offset: usize, n: usize) {
        let k = row.len();
        let end = k.saturating_sub(1) * stride + offset + n;
        let w = &matrix[offset..end];
        let mut want = vec![f32::NAN; n];
        matvec_ikj(row, w, stride, &mut want);
        // Stale values the kernel must overwrite.
        let mut got = vec![-1.0e30; n];
        matvec(row, w, stride, &mut got);
        for (j, (g, e)) in got.iter().zip(&want).enumerate() {
            assert!(
                g.to_bits() == e.to_bits() || (g.is_nan() && e.is_nan()),
                "k = {k}, n = {n}, stride = {stride}, offset = {offset}, column {j}: {g:e} vs {e:e}"
            );
        }
    }

    /// Every pair of the given input lengths and output widths, each as a
    /// whole matrix (`stride = n`) and as column blocks of two wider ones.
    fn sweep_matvec_twin(lengths: &[usize], widths: &[usize], seed: u64) {
        for &k in lengths {
            for &n in widths {
                let seed = seed ^ ((k as u64) << 32 | n as u64);
                for (stride, offset) in [(n, 0), (n + 7, 7), (2 * n + 3, n / 2)] {
                    let row = matvec_values(seed, k);
                    let matrix = matvec_values(!seed, k.max(1) * stride + offset);
                    assert_matvec_twin(&row, &matrix, stride, offset, n);
                }
            }
        }
    }

    #[test]
    fn tiled_matvec_matches_the_ikj_loop_at_every_output_width() {
        let widths: Vec<usize> = (1..=160).collect();
        sweep_matvec_twin(&[0, 1, 2, 3, 16, 33, 65, 160], &widths, 1);
        // No input, no weights: every output is +0.0.
        for &n in &widths {
            let mut got = vec![f32::NAN; n];
            matvec(&[], &[], n, &mut got);
            assert!(got.iter().all(|v| v.to_bits() == 0), "n = {n}");
        }
    }

    #[test]
    fn tiled_matvec_matches_the_ikj_loop_at_every_input_length() {
        let lengths: Vec<usize> = (0..=160).collect();
        sweep_matvec_twin(&lengths, &[1, 3, 4, 7, 16, 31, 32, 33, 64, 65, 127, 160], 2);
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(512))]

        /// [`matvec`] equals the `ikj` loop bit for bit on any shape, any
        /// column block and any mix of operand kinds.
        #[test]
        fn tiled_matvec_matches_the_ikj_loop_on_any_operands(
            shape in (0usize..=160, 1usize..=160, 0usize..=40, 0usize..=40),
            raw in proptest::prelude::prop::collection::vec(
                (0u8..64, proptest::prelude::any::<u32>()),
                1..=64,
            ),
        ) {
            let (k, n, pad, offset) = shape;
            let stride = n + pad;
            let offset = offset.min(pad);
            let value = |i: usize| {
                // About one operand in nine is special.
                let (kind, bits) = raw[i % raw.len()];
                matvec_value(kind.min(7), bits.rotate_left(i as u32 % 32) ^ i as u32)
            };
            let row: Vec<f32> = (0..k).map(value).collect();
            let matrix: Vec<f32> = (0..k.max(1) * stride + offset).map(|i| value(i + k)).collect();
            assert_matvec_twin(&row, &matrix, stride, offset, n);
        }

        /// The merged tails' smallest sample is the element the reference
        /// `percentile_98` picks, for any split into 1..=4 parts.
        #[test]
        fn upper_tail_merged_from_any_split_is_the_98th_percentile(
            raw in proptest::prelude::prop::collection::vec(
                (0u8..9, proptest::prelude::any::<u32>()),
                0..400,
            ),
            parts in 1usize..5,
        ) {
            let samples: Vec<f32> = raw.iter().map(|&(k, b)| special_f32(k, b)).collect();
            let want = percentile_98(&mut samples.clone());
            let got = merged_tail(&samples, parts).smallest();
            proptest::prop_assert_eq!(got.to_bits(), want.to_bits());
        }
    }

    /// `x` moved by `ulps` steps in `total_cmp` order (across ±0).
    fn nudge(x: f32, ulps: i32) -> f32 {
        let flip = |b: i32| b ^ (((b >> 31) as u32) >> 1) as i32;
        f32::from_bits(flip(flip(x.to_bits() as i32).wrapping_add(ulps)) as u32)
    }

    /// The GELU-site inputs every shortcut test sweeps: every f32 within
    /// ±2¹⁶ ulps of `step`, of its zero cut-off and of 0, a strided sweep
    /// of [−16, 16], and the non-finite values.
    fn gelu_sweep(step: f32) -> Vec<f32> {
        let zero_below = 0.5 * step * (1.0 - 1.0 / 1024.0);
        let mut xs = Vec::new();
        for centre in [step, zero_below, 0.0] {
            xs.extend((-(1 << 16)..=1 << 16).map(|u| nudge(centre, u)));
        }
        let mut x = -16.0f32;
        while x <= 16.0 {
            xs.push(x);
            x = nudge(x, 4099);
        }
        xs.extend([f32::INFINITY, f32::NEG_INFINITY, f32::NAN, -f32::NAN]);
        xs.push(f32::from_bits(0x7f80_0001));
        xs
    }

    fn assert_gelu_site_exact(site: MidGelu, q: Quant, xs: &[f32], what: &str) {
        for &x in xs {
            let want = q.apply(ascend_tensor::graph::gelu_f(x));
            let got = site.apply(x);
            assert_eq!(
                got.to_bits(),
                want.to_bits(),
                "{what}: x = {x:e} ({:#010x})",
                x.to_bits()
            );
        }
    }

    #[test]
    fn ternary_gelu_shortcut_is_bit_identical_to_the_exact_path() {
        for step in [0.3402f32, 0.5, 0.7, 1.0, 4.0] {
            let site = MidGelu::new(step, Some(2));
            assert!(site.ternary.is_some(), "step {step} takes the shortcut");
            let what = format!("step {step}");
            assert_gelu_site_exact(site, Quant::new(step, Some(2)), &gelu_sweep(step), &what);
        }
    }

    #[test]
    fn gelu_sites_off_the_ternary_bound_run_the_exact_path() {
        let sites = [
            (0.3401f32, Some(2usize)),
            (0.2, Some(2)),
            (0.0, Some(2)),
            (0.7, None),
            (0.7, Some(1)),
            (0.7, Some(3)),
            (0.7, Some(4)),
            (0.7, Some(16)),
        ];
        for (step, bsl) in sites {
            let site = MidGelu::new(step, bsl);
            let what = format!("step {step}, BSL {bsl:?}");
            assert!(site.ternary.is_none(), "{what} falls back");
            let mut xs: Vec<f32> = (-(1 << 10)..=1 << 10)
                .map(|u| nudge(0.5 * step, u))
                .collect();
            xs.extend((-160..=160).map(|i| i as f32 / 10.0));
            assert_gelu_site_exact(site, Quant::new(step, bsl), &xs, &what);
        }
    }

    /// Every negative f32 (~2.1·10⁹ of them): `gelu_f` is negative or −0
    /// and at least −0.17004079, and exactly −0 below −16 — the bound the
    /// ternary shortcut's zero branch rests on. About a minute in release:
    /// `cargo test --release -p ascend --lib -- --ignored negative_gelu`.
    #[test]
    #[ignore]
    fn every_negative_gelu_output_is_a_zero_or_a_small_negative() {
        let floor = -0.170_040_79f32;
        for bits in 0x8000_0000u32..=0xff7f_ffff {
            let x = f32::from_bits(bits);
            let y = ascend_tensor::graph::gelu_f(x);
            assert!(y.is_sign_negative() && y >= floor, "gelu_f({x:e}) = {y:e}");
            if x < -16.0 {
                assert_eq!(y.to_bits(), (-0.0f32).to_bits(), "gelu_f({x:e})");
            }
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
        assert!(invalid(ScEngine::compile(
            &model,
            EngineConfig::default(),
            &one,
            3
        )));
        let ckpt = ascend_io::ModelCheckpoint::capture(&model).with_calib(one, 3);
        assert!(invalid(ScEngine::compile_from_checkpoint(
            &ckpt,
            EngineConfig::default()
        )));
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
        assert!(
            agree >= 22,
            "SC engine diverges from approx-softmax model: {agree}/32 agree"
        );
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
