//! The ViT-lite model: patch embedding, MSA blocks, MLP blocks, head.
//!
//! The model owns plain tensors; each forward pass binds them into a fresh
//! graph via [`Binder`] in a fixed traversal order that
//! [`VitModel::params_mut`] mirrors exactly (asserted in tests). Per-block
//! output taps are returned for the distillation losses of the training
//! pipeline (§V), and the attention softmax is switchable between exact and
//! the in-graph iterative approximation (Algorithm 1) for the
//! approximate-softmax-aware fine-tune.

use ascend_tensor::init::Initializer;
use ascend_tensor::{Graph, Tensor, Var};

use crate::binder::Binder;
use crate::config::{SoftmaxKind, VitConfig};
use crate::norm::{Mode, Norm};
use crate::quant::{LsqSite, PrecisionPlan};

/// A dense layer `y = xW + b` with a learned-step weight quantizer.
#[derive(Debug, Clone, PartialEq)]
pub struct Linear {
    /// Weights `[in, out]`.
    pub w: Tensor,
    /// Bias `[out]`.
    pub b: Tensor,
    /// LSQ site for the weights.
    pub w_site: LsqSite,
}

impl Linear {
    /// Xavier-initialized layer.
    pub fn new(init: &mut Initializer, d_in: usize, d_out: usize) -> Self {
        let w = init.xavier_uniform(&[d_in, d_out]);
        let w_site = LsqSite::init_from(&w, 2);
        Linear { w, b: Tensor::zeros(&[d_out]), w_site }
    }

    /// Trainable tensors per linear (w, w_step, b).
    pub const PARAM_COUNT: usize = 3;

    /// Appends parameters in bind order.
    pub fn collect_params<'a>(&'a mut self, out: &mut Vec<&'a mut Tensor>) {
        out.push(&mut self.w);
        out.push(&mut self.w_site.step);
        out.push(&mut self.b);
    }

    /// Immutable twin of [`Linear::collect_params`] (same order).
    pub fn collect_params_ref<'a>(&'a self, out: &mut Vec<&'a Tensor>) {
        out.push(&self.w);
        out.push(&self.w_site.step);
        out.push(&self.b);
    }

    /// Forward over `[n, in]` with the plan's weight precision.
    pub fn forward<'g>(
        &self,
        bind: &mut Binder<'g>,
        x: Var<'g>,
        plan: &PrecisionPlan,
    ) -> Var<'g> {
        let w = bind.bind(&self.w);
        let wq = self.w_site.apply(bind, w, plan.weights);
        let b = bind.bind(&self.b);
        x.matmul(wq).broadcast_row_add(b)
    }
}

/// Multi-head self-attention with activation quantizers.
#[derive(Debug, Clone, PartialEq)]
pub struct Attention {
    q: Linear,
    k: Linear,
    v: Linear,
    proj: Linear,
    in_site: LsqSite,
    out_site: LsqSite,
}

impl Attention {
    fn new(init: &mut Initializer, dim: usize) -> Self {
        Attention {
            q: Linear::new(init, dim, dim),
            k: Linear::new(init, dim, dim),
            v: Linear::new(init, dim, dim),
            proj: Linear::new(init, dim, dim),
            in_site: LsqSite::new(0.5),
            out_site: LsqSite::new(0.5),
        }
    }

    const PARAM_COUNT: usize = 4 * Linear::PARAM_COUNT + 2;

    fn collect_params<'a>(&'a mut self, out: &mut Vec<&'a mut Tensor>) {
        out.push(&mut self.in_site.step);
        self.q.collect_params(out);
        self.k.collect_params(out);
        self.v.collect_params(out);
        out.push(&mut self.out_site.step);
        self.proj.collect_params(out);
    }

    fn collect_params_ref<'a>(&'a self, out: &mut Vec<&'a Tensor>) {
        out.push(&self.in_site.step);
        self.q.collect_params_ref(out);
        self.k.collect_params_ref(out);
        self.v.collect_params_ref(out);
        out.push(&self.out_site.step);
        self.proj.collect_params_ref(out);
    }

    /// Query projection.
    pub fn q(&self) -> &Linear {
        &self.q
    }

    /// Key projection.
    pub fn k(&self) -> &Linear {
        &self.k
    }

    /// Value projection.
    pub fn v(&self) -> &Linear {
        &self.v
    }

    /// Output projection.
    pub fn proj(&self) -> &Linear {
        &self.proj
    }

    /// Activation quantizer sites: (input, pre-projection output).
    pub fn sites(&self) -> (&LsqSite, &LsqSite) {
        (&self.in_site, &self.out_site)
    }

    /// Forward over `[b·s, d]` given the batch/sequence geometry.
    fn forward<'g>(
        &self,
        bind: &mut Binder<'g>,
        x: Var<'g>,
        batch: usize,
        seq: usize,
        cfg: &VitConfig,
        plan: &PrecisionPlan,
    ) -> Var<'g> {
        let (h, dh, d) = (cfg.heads, cfg.head_dim(), cfg.dim);
        let xq = self.in_site.apply(bind, x, plan.acts);
        let split = |t: Var<'g>| -> Var<'g> {
            // [b·s, d] → [b, s, h, dh] → [b, h, s, dh] → [b·h, s, dh]
            t.reshape(&[batch, seq, h, dh]).permute(&[0, 2, 1, 3]).reshape(&[batch * h, seq, dh])
        };
        let q = split(self.q.forward(bind, xq, plan));
        let k = split(self.k.forward(bind, xq, plan));
        let v = split(self.v.forward(bind, xq, plan));

        let scores = q
            .batched_matmul(k.permute(&[0, 2, 1]))
            .scale(1.0 / (dh as f32).sqrt());
        let probs = attention_softmax(scores, cfg.softmax, seq);
        let ctx = probs.batched_matmul(v);
        // [b·h, s, dh] → [b, h, s, dh] → [b, s, h, dh] → [b·s, d]
        let merged = ctx
            .reshape(&[batch, h, seq, dh])
            .permute(&[0, 2, 1, 3])
            .reshape(&[batch * seq, d]);
        let merged = self.out_site.apply(bind, merged, plan.acts);
        self.proj.forward(bind, merged, plan)
    }
}

/// The attention softmax: exact, or the differentiable in-graph iterative
/// approximation (Algorithm 1) used by the fine-tuning stage.
pub fn attention_softmax<'g>(scores: Var<'g>, kind: SoftmaxKind, m: usize) -> Var<'g> {
    match kind {
        SoftmaxKind::Exact => scores.softmax_last(),
        SoftmaxKind::IterApprox { k } => {
            let g = scores.graph();
            let shape = scores.shape();
            let mut y = g.constant(Tensor::full(&shape, 1.0 / m as f32));
            for _ in 0..k {
                let z = scores.mul(y);
                let sum_z = z.row_sum_bcast();
                y = y.add(z.sub(y.mul(sum_z)).scale(1.0 / k as f32));
            }
            y
        }
    }
}

/// The GELU MLP with activation quantizers.
#[derive(Debug, Clone, PartialEq)]
pub struct Mlp {
    fc1: Linear,
    fc2: Linear,
    in_site: LsqSite,
    mid_site: LsqSite,
}

impl Mlp {
    fn new(init: &mut Initializer, dim: usize, hidden: usize) -> Self {
        Mlp {
            fc1: Linear::new(init, dim, hidden),
            fc2: Linear::new(init, hidden, dim),
            in_site: LsqSite::new(0.5),
            mid_site: LsqSite::new(0.5),
        }
    }

    const PARAM_COUNT: usize = 2 * Linear::PARAM_COUNT + 2;

    fn collect_params<'a>(&'a mut self, out: &mut Vec<&'a mut Tensor>) {
        out.push(&mut self.in_site.step);
        self.fc1.collect_params(out);
        out.push(&mut self.mid_site.step);
        self.fc2.collect_params(out);
    }

    fn collect_params_ref<'a>(&'a self, out: &mut Vec<&'a Tensor>) {
        out.push(&self.in_site.step);
        self.fc1.collect_params_ref(out);
        out.push(&self.mid_site.step);
        self.fc2.collect_params_ref(out);
    }

    fn forward<'g>(&self, bind: &mut Binder<'g>, x: Var<'g>, plan: &PrecisionPlan) -> Var<'g> {
        let xq = self.in_site.apply(bind, x, plan.acts);
        let h = self.fc1.forward(bind, xq, plan).gelu();
        let hq = self.mid_site.apply(bind, h, plan.acts);
        self.fc2.forward(bind, hq, plan)
    }

    /// First dense layer.
    pub fn fc1(&self) -> &Linear {
        &self.fc1
    }

    /// Second dense layer.
    pub fn fc2(&self) -> &Linear {
        &self.fc2
    }

    /// Activation quantizer sites: (input, post-GELU).
    pub fn sites(&self) -> (&LsqSite, &LsqSite) {
        (&self.in_site, &self.mid_site)
    }
}

/// One pre-norm encoder block with residual-stream quantizers.
#[derive(Debug, Clone, PartialEq)]
pub struct Block {
    norm1: Norm,
    attn: Attention,
    res_site1: LsqSite,
    norm2: Norm,
    mlp: Mlp,
    res_site2: LsqSite,
}

impl Block {
    fn new(init: &mut Initializer, cfg: &VitConfig) -> Self {
        Block {
            norm1: Norm::new(cfg.norm, cfg.dim),
            attn: Attention::new(init, cfg.dim),
            res_site1: LsqSite::new(0.5),
            norm2: Norm::new(cfg.norm, cfg.dim),
            mlp: Mlp::new(init, cfg.dim, cfg.dim * cfg.mlp_ratio),
            res_site2: LsqSite::new(0.5),
        }
    }

    const PARAM_COUNT: usize =
        2 * Norm::PARAM_COUNT + Attention::PARAM_COUNT + Mlp::PARAM_COUNT + 2;

    fn collect_params<'a>(&'a mut self, out: &mut Vec<&'a mut Tensor>) {
        self.norm1.collect_params(out);
        self.attn.collect_params(out);
        out.push(&mut self.res_site1.step);
        self.norm2.collect_params(out);
        self.mlp.collect_params(out);
        out.push(&mut self.res_site2.step);
    }

    fn collect_params_ref<'a>(&'a self, out: &mut Vec<&'a Tensor>) {
        self.norm1.collect_params_ref(out);
        self.attn.collect_params_ref(out);
        out.push(&self.res_site1.step);
        self.norm2.collect_params_ref(out);
        self.mlp.collect_params_ref(out);
        out.push(&self.res_site2.step);
    }

    #[expect(
        clippy::too_many_arguments,
        reason = "the batch geometry, config, plan and mode travel with every block forward"
    )]
    fn forward<'g>(
        &self,
        bind: &mut Binder<'g>,
        x: Var<'g>,
        batch: usize,
        seq: usize,
        cfg: &VitConfig,
        plan: &PrecisionPlan,
        mode: Mode,
    ) -> Var<'g> {
        let n1 = self.norm1.forward(bind, x, mode);
        let a = self.attn.forward(bind, n1, batch, seq, cfg, plan);
        let x = self.res_site1.apply(bind, x.add(a), plan.residual);
        let n2 = self.norm2.forward(bind, x, mode);
        let m = self.mlp.forward(bind, n2, plan);
        self.res_site2.apply(bind, x.add(m), plan.residual)
    }

    /// The block's norms (used by the SC engine to fold BN affines).
    pub fn norms(&self) -> (&Norm, &Norm) {
        (&self.norm1, &self.norm2)
    }

    /// The attention module.
    pub fn attn(&self) -> &Attention {
        &self.attn
    }

    /// The MLP module.
    pub fn mlp(&self) -> &Mlp {
        &self.mlp
    }

    /// Residual quantizer sites: (post-MSA, post-MLP).
    pub fn res_sites(&self) -> (&LsqSite, &LsqSite) {
        (&self.res_site1, &self.res_site2)
    }
}

/// The forward pass outputs: logits, per-block taps (for KD), and the
/// parameter binder (for gradient collection).
pub struct ForwardOutput<'g> {
    /// Classifier logits `[batch, classes]`.
    pub logits: Var<'g>,
    /// Residual-stream output of every block, `[batch·seq, dim]` each.
    pub taps: Vec<Var<'g>>,
    /// The binder holding parameter leaves, aligned with `params_mut()`.
    pub binder: Binder<'g>,
}

/// The full ViT-lite model.
#[derive(Debug, Clone, PartialEq)]
pub struct VitModel {
    /// Hyperparameters.
    pub config: VitConfig,
    plan: PrecisionPlan,
    patch_embed: Linear,
    cls: Tensor,
    pos: Tensor,
    blocks: Vec<Block>,
    head_norm: Norm,
    head: Linear,
}

impl VitModel {
    /// Builds a freshly initialized model.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid (see [`VitConfig::validate`]).
    pub fn new(cfg: VitConfig) -> Self {
        cfg.validate();
        let mut init = Initializer::new(cfg.seed);
        let patch_embed = Linear::new(&mut init, cfg.patch_dim(), cfg.dim);
        let cls = init.trunc_normal(&[cfg.dim], 0.2);
        let pos = init.trunc_normal(&[cfg.seq_len() * cfg.dim], 0.2);
        let blocks = (0..cfg.layers).map(|_| Block::new(&mut init, &cfg)).collect();
        let head_norm = Norm::new(cfg.norm, cfg.dim);
        let head = Linear::new(&mut init, cfg.dim, cfg.classes);
        VitModel {
            config: cfg,
            plan: PrecisionPlan::fp(),
            patch_embed,
            cls,
            pos,
            blocks,
            head_norm,
            head,
        }
    }

    /// The active precision plan.
    pub fn plan(&self) -> PrecisionPlan {
        self.plan
    }

    /// Switches the precision plan (progressive-quantization stage change).
    pub fn set_plan(&mut self, plan: PrecisionPlan) {
        self.plan = plan;
    }

    /// Switches the attention softmax flavour.
    pub fn set_softmax(&mut self, kind: SoftmaxKind) {
        self.config.softmax = kind;
    }

    /// The encoder blocks (read access for the SC engine).
    pub fn blocks(&self) -> &[Block] {
        &self.blocks
    }

    /// The patch-embedding layer.
    pub fn patch_embed(&self) -> &Linear {
        &self.patch_embed
    }

    /// The class token `[dim]`.
    pub fn cls_token(&self) -> &Tensor {
        &self.cls
    }

    /// The positional embedding `[seq·dim]`.
    pub fn pos_embedding(&self) -> &Tensor {
        &self.pos
    }

    /// The classifier head.
    pub fn head(&self) -> &Linear {
        &self.head
    }

    /// The pre-head norm.
    pub fn head_norm(&self) -> &Norm {
        &self.head_norm
    }

    /// Total trainable tensor count.
    pub fn param_count(&self) -> usize {
        Linear::PARAM_COUNT                    // patch embed
            + 2                                // cls + pos
            + self.blocks.len() * Block::PARAM_COUNT
            + Norm::PARAM_COUNT                // head norm
            + Linear::PARAM_COUNT // head
    }

    /// Total scalar parameter count (for reporting).
    pub fn scalar_param_count(&mut self) -> usize {
        self.params_mut().iter().map(|t| t.numel()).sum()
    }

    /// All trainable tensors, in the exact order the forward pass binds
    /// them.
    pub fn params_mut(&mut self) -> Vec<&mut Tensor> {
        let mut out = Vec::with_capacity(self.param_count());
        self.patch_embed.collect_params(&mut out);
        out.push(&mut self.cls);
        out.push(&mut self.pos);
        for b in &mut self.blocks {
            b.collect_params(&mut out);
        }
        self.head_norm.collect_params(&mut out);
        self.head.collect_params(&mut out);
        out
    }

    /// All trainable tensors in bind order, immutably — the checkpoint
    /// *export* path (mirrors [`VitModel::params_mut`] exactly; asserted in
    /// tests).
    pub fn params(&self) -> Vec<&Tensor> {
        let mut out = Vec::with_capacity(self.param_count());
        self.patch_embed.collect_params_ref(&mut out);
        out.push(&self.cls);
        out.push(&self.pos);
        for b in &self.blocks {
            b.collect_params_ref(&mut out);
        }
        self.head_norm.collect_params_ref(&mut out);
        self.head.collect_params_ref(&mut out);
        out
    }

    /// Overwrites every trainable tensor from `values` (bind order) — the
    /// checkpoint *import* path. This restores weights, biases, norm
    /// affines, embeddings, and every LSQ quantizer step in one sweep.
    ///
    /// # Errors
    ///
    /// Returns a description of the first mismatch (count or per-tensor
    /// shape) and leaves the model unchanged in that case.
    pub fn load_params(&mut self, values: &[Tensor]) -> Result<(), String> {
        let shapes: Vec<Vec<usize>> = self.params().iter().map(|t| t.shape().to_vec()).collect();
        if values.len() != shapes.len() {
            return Err(format!(
                "checkpoint holds {} tensors, model expects {}",
                values.len(),
                shapes.len()
            ));
        }
        for (i, (v, want)) in values.iter().zip(shapes.iter()).enumerate() {
            if v.shape() != want.as_slice() {
                return Err(format!(
                    "tensor {i} has shape {:?}, model expects {:?}",
                    v.shape(),
                    want
                ));
            }
        }
        for (dst, src) in self.params_mut().into_iter().zip(values.iter()) {
            *dst = src.clone();
        }
        Ok(())
    }

    /// Running statistics `(mean, var)` of every norm, in traversal order:
    /// per block `(norm1, norm2)`, then the head norm. Meaningful for
    /// BatchNorm; LayerNorm entries are the unused defaults.
    pub fn norm_states(&self) -> Vec<(Vec<f32>, Vec<f32>)> {
        let mut out = Vec::with_capacity(2 * self.blocks.len() + 1);
        for b in &self.blocks {
            out.push((b.norm1.running_mean(), b.norm1.running_var()));
            out.push((b.norm2.running_mean(), b.norm2.running_var()));
        }
        out.push((self.head_norm.running_mean(), self.head_norm.running_var()));
        out
    }

    /// Restores the running statistics captured by
    /// [`VitModel::norm_states`] (same traversal order).
    ///
    /// # Errors
    ///
    /// Returns a description of the first count or length mismatch.
    pub fn load_norm_states(&mut self, states: &[(Vec<f32>, Vec<f32>)]) -> Result<(), String> {
        let want = 2 * self.blocks.len() + 1;
        if states.len() != want {
            return Err(format!("checkpoint holds {} norm states, model expects {want}", states.len()));
        }
        let d = self.config.dim;
        for (i, (m, v)) in states.iter().enumerate() {
            if m.len() != d || v.len() != d {
                return Err(format!(
                    "norm state {i} has lengths {}/{}, model width is {d}",
                    m.len(),
                    v.len()
                ));
            }
        }
        let mut it = states.iter().cloned();
        for b in &mut self.blocks {
            #[expect(clippy::expect_used, reason = "the count was checked against the blocks above")]
            let (m, v) = it.next().expect("count checked");
            b.norm1.set_running_stats(m, v)?;
            #[expect(clippy::expect_used, reason = "the count was checked against the blocks above")]
            let (m, v) = it.next().expect("count checked");
            b.norm2.set_running_stats(m, v)?;
        }
        #[expect(clippy::expect_used, reason = "the count was checked against the blocks above")]
        let (m, v) = it.next().expect("count checked");
        self.head_norm.set_running_stats(m, v)?;
        Ok(())
    }

    /// Runs the model on pre-extracted patches
    /// (`[batch·num_patches, patch_dim]`, see [`crate::data::Dataset::patches`]).
    ///
    /// # Panics
    ///
    /// Panics if the patch tensor does not match `batch` and the config
    /// geometry.
    pub fn forward<'g>(
        &self,
        g: &'g Graph,
        patches: &Tensor,
        batch: usize,
        mode: Mode,
    ) -> ForwardOutput<'g> {
        let cfg = &self.config;
        let p = cfg.num_patches();
        let s = cfg.seq_len();
        let d = cfg.dim;
        assert_eq!(
            patches.shape(),
            &[batch * p, cfg.patch_dim()],
            "patch tensor shape mismatch"
        );
        let mut bind = Binder::new(g);
        let plan = &self.plan;

        // Patch embedding.
        let x = g.constant(patches.clone());
        let tokens = self.patch_embed.forward(&mut bind, x, plan); // [b·p, d]

        // Class token + positional embedding.
        let cls = bind.bind(&self.cls);
        let pos = bind.bind(&self.pos);
        let cls3 = cls.repeat_as_rows(batch).reshape(&[batch, 1, d]);
        let tokens3 = tokens.reshape(&[batch, p, d]);
        let seq3 = cls3.concat_axis1(tokens3); // [b, s, d]
        let seq2 = seq3.reshape(&[batch, s * d]).broadcast_row_add(pos);
        let mut h = seq2.reshape(&[batch * s, d]);

        // Encoder stack with KD taps.
        let mut taps = Vec::with_capacity(self.blocks.len());
        for block in &self.blocks {
            h = block.forward(&mut bind, h, batch, s, cfg, plan, mode);
            taps.push(h);
        }

        // Head: norm → cls token → classifier.
        let hn = self.head_norm.forward(&mut bind, h, mode);
        let cls_tok = hn.reshape(&[batch, s, d]).select_axis1(0); // [b, d]
        let logits = self.head.forward(&mut bind, cls_tok, plan);

        debug_assert_eq!(bind.len(), self.param_count(), "bind order drifted");
        ForwardOutput { logits, taps, binder: bind }
    }

    /// Convenience: eval-mode logits as a plain tensor.
    pub fn predict(&self, patches: &Tensor, batch: usize) -> Tensor {
        let g = Graph::new();
        self.forward(&g, patches, batch, Mode::Eval).logits.value()
    }

    /// Calibrates every activation/residual LSQ step from one forward pass
    /// at the *current* plan's tensor statistics (run right after a plan
    /// switch, before training). Equivalent to
    /// `calibrate_sites(…, true, true, true)`.
    pub fn calibrate_steps(&mut self, patches: &Tensor, batch: usize) {
        self.calibrate_sites(patches, batch, true, true, true);
    }

    /// Selectively re-initializes LSQ steps from per-site observed
    /// statistics (the LSQ `2·E[|x|]/√qp` rule).
    ///
    /// A progressive-quantization stage switch should only recalibrate the
    /// sites whose BSL actually changed (`weights` / `acts` / `residual`),
    /// preserving the steps the previous stage learned everywhere else —
    /// the warm-start that makes progressive quantization work (paper §V).
    pub fn calibrate_sites(
        &mut self,
        patches: &Tensor,
        batch: usize,
        weights: bool,
        acts: bool,
        residual: bool,
    ) {
        // One FP forward so every site records its input statistics.
        let saved_plan = self.plan;
        self.plan = PrecisionPlan::fp();
        let g = Graph::new();
        let _ = self.forward(&g, patches, batch, Mode::Eval);
        self.plan = saved_plan;

        if acts {
            let act_bsl = self.plan.acts.unwrap_or(16);
            for b in &mut self.blocks {
                b.attn.in_site.recalibrate(act_bsl);
                b.attn.out_site.recalibrate(act_bsl);
                b.mlp.in_site.recalibrate(act_bsl);
                b.mlp.mid_site.recalibrate(act_bsl);
            }
        }
        if residual {
            let res_bsl = self.plan.residual.unwrap_or(16);
            for b in &mut self.blocks {
                b.res_site1.recalibrate(res_bsl);
                b.res_site2.recalibrate(res_bsl);
            }
        }
        if weights {
            if let Some(wb) = self.plan.weights {
                let relink = |lin: &mut Linear| {
                    lin.w_site = LsqSite::init_from(&lin.w, wb);
                };
                relink(&mut self.patch_embed);
                for b in &mut self.blocks {
                    relink(&mut b.attn.q);
                    relink(&mut b.attn.k);
                    relink(&mut b.attn.v);
                    relink(&mut b.attn.proj);
                    relink(&mut b.mlp.fc1);
                    relink(&mut b.mlp.fc2);
                }
                relink(&mut self.head);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::NormKind;

    fn tiny_config() -> VitConfig {
        VitConfig {
            image: 8,
            patch: 4,
            dim: 8,
            layers: 2,
            heads: 2,
            mlp_ratio: 2,
            classes: 3,
            ..Default::default()
        }
    }

    fn fake_patches(cfg: &VitConfig, batch: usize) -> Tensor {
        let n = batch * cfg.num_patches() * cfg.patch_dim();
        Tensor::from_vec((0..n).map(|i| ((i * 37 % 100) as f32 - 50.0) / 50.0).collect(), &[
            batch * cfg.num_patches(),
            cfg.patch_dim(),
        ])
    }

    #[test]
    fn forward_shapes_and_bind_order() {
        let cfg = tiny_config();
        let mut model = VitModel::new(cfg);
        let patches = fake_patches(&cfg, 2);
        let g = Graph::new();
        let out = model.forward(&g, &patches, 2, Mode::Train);
        assert_eq!(out.logits.value().shape(), &[2, 3]);
        assert_eq!(out.taps.len(), 2);
        assert_eq!(out.binder.len(), model.param_count());
        assert_eq!(model.params_mut().len(), model.param_count());
    }

    #[test]
    fn params_and_binder_shapes_agree() {
        let cfg = tiny_config();
        let mut model = VitModel::new(cfg);
        let patches = fake_patches(&cfg, 1);
        let g = Graph::new();
        let out = model.forward(&g, &patches, 1, Mode::Train);
        let shapes_bound: Vec<Vec<usize>> =
            out.binder.vars().iter().map(|v| v.value().shape().to_vec()).collect();
        let shapes_owned: Vec<Vec<usize>> =
            model.params_mut().iter().map(|t| t.shape().to_vec()).collect();
        assert_eq!(shapes_bound, shapes_owned, "bind order must mirror params_mut order");
    }

    #[test]
    fn gradients_flow_to_every_parameter_under_quantization() {
        let mut cfg = tiny_config();
        cfg.norm = NormKind::Batch;
        let mut model = VitModel::new(cfg);
        model.set_plan(PrecisionPlan::w2_a2_r16());
        let patches = fake_patches(&cfg, 2);
        let g = Graph::new();
        let out = model.forward(&g, &patches, 2, Mode::Train);
        let loss = out.logits.cross_entropy(&[0, 1]);
        g.backward(loss);
        let grads = out.binder.grads();
        // Weight tensors (largest params) must all receive nonzero grads
        // somewhere; LSQ steps may legitimately be zero.
        let nonzero = grads.iter().filter(|t| t.data().iter().any(|v| *v != 0.0)).count();
        assert!(
            nonzero > grads.len() / 2,
            "most parameters should receive gradient, got {nonzero}/{}",
            grads.len()
        );
    }

    #[test]
    fn iterative_softmax_changes_logits_but_preserves_shape() {
        let cfg = tiny_config();
        let mut model = VitModel::new(cfg);
        let patches = fake_patches(&cfg, 2);
        let exact = model.predict(&patches, 2);
        model.set_softmax(SoftmaxKind::IterApprox { k: 3 });
        let approx = model.predict(&patches, 2);
        assert_eq!(exact.shape(), approx.shape());
        assert_ne!(exact, approx, "approximate softmax must alter outputs");
    }

    #[test]
    fn quantized_model_output_is_on_grid_effects() {
        // W2-A2 ternarizes weights: the model still produces finite logits.
        let cfg = tiny_config();
        let mut model = VitModel::new(cfg);
        model.set_plan(PrecisionPlan::w2_a2_r16());
        let patches = fake_patches(&cfg, 1);
        let y = model.predict(&patches, 1);
        assert!(y.data().iter().all(|v| v.is_finite()));
    }

    #[test]
    fn calibrate_steps_sets_positive_steps() {
        let cfg = tiny_config();
        let mut model = VitModel::new(cfg);
        model.set_plan(PrecisionPlan::w2_a2_r16());
        let patches = fake_patches(&cfg, 2);
        model.calibrate_steps(&patches, 2);
        for b in model.blocks() {
            let (n1, _) = b.norms();
            let _ = n1; // norms untouched by calibration
        }
        // Predict still works after calibration.
        let y = model.predict(&patches, 2);
        assert!(y.data().iter().all(|v| v.is_finite()));
    }

    #[test]
    fn params_ref_mirrors_params_mut_order() {
        let cfg = tiny_config();
        let mut model = VitModel::new(cfg);
        let ref_shapes: Vec<Vec<usize>> =
            model.params().iter().map(|t| t.shape().to_vec()).collect();
        let mut_shapes: Vec<Vec<usize>> =
            model.params_mut().iter().map(|t| t.shape().to_vec()).collect();
        assert_eq!(ref_shapes, mut_shapes);
        assert_eq!(ref_shapes.len(), model.param_count());
    }

    #[test]
    fn load_params_roundtrips_predictions_exactly() {
        let mut cfg = tiny_config();
        cfg.norm = NormKind::Batch;
        let model = VitModel::new(cfg);
        let patches = fake_patches(&cfg, 2);
        // Perturb state away from init: one train-mode pass moves BN stats.
        let g = Graph::new();
        let _ = model.forward(&g, &patches, 2, Mode::Train);
        let want = model.predict(&patches, 2);

        let params: Vec<Tensor> = model.params().into_iter().cloned().collect();
        let norms = model.norm_states();
        let mut twin = VitModel::new(cfg);
        twin.set_plan(model.plan());
        twin.load_params(&params).unwrap();
        twin.load_norm_states(&norms).unwrap();
        let got = twin.predict(&patches, 2);
        assert_eq!(want.shape(), got.shape());
        for (a, b) in want.data().iter().zip(got.data().iter()) {
            assert_eq!(a.to_bits(), b.to_bits(), "restored model must be bit-identical");
        }
    }

    #[test]
    fn load_params_rejects_wrong_count_and_shape() {
        let cfg = tiny_config();
        let mut model = VitModel::new(cfg);
        assert!(model.load_params(&[]).is_err());
        let mut params: Vec<Tensor> = model.params().into_iter().cloned().collect();
        params[0] = Tensor::zeros(&[1, 1]);
        assert!(model.load_params(&params).is_err());
    }

    #[test]
    fn load_norm_states_rejects_bad_lengths() {
        let cfg = tiny_config();
        let mut model = VitModel::new(cfg);
        assert!(model.load_norm_states(&[]).is_err());
        let mut states = model.norm_states();
        states[1].0.pop();
        assert!(model.load_norm_states(&states).is_err());
    }

    #[test]
    #[should_panic(expected = "patch tensor shape mismatch")]
    fn forward_checks_patch_shape() {
        let cfg = tiny_config();
        let model = VitModel::new(cfg);
        let g = Graph::new();
        let bad = Tensor::zeros(&[3, cfg.patch_dim()]);
        model.forward(&g, &bad, 2, Mode::Eval);
    }
}
