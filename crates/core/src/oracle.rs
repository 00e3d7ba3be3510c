//! Test oracle for the encoder kernel: the batched `Tensor`-op dataflow
//! the kernel replaced, plus a copy of the batched calibration probe.
//!
//! Every op here allocates a fresh [`Tensor`] and runs over the whole
//! batch at once — `[batch·s, d]` linears, one `reshape`/`permute` to put
//! heads first and one to merge them back, a 2-D [`Tensor::matmul`] per
//! image and head — so it shares none of the kernel's fused loops, scratch
//! layout or per-image framing. The tests below hold the kernel
//! (`FrozenNet::forward`, `calibrate`) to it bit for bit.

use ascend_obs::{NoopObserver, StageObserver, StageTimer};
use ascend_tensor::Tensor;
use ascend_vit::{PrecisionPlan, VitConfig, VitModel};
use sc_core::ScError;

use crate::backend::{InferenceBackend, RefEngine};
use crate::engine::{
    calibrate, calibrate_in_parts, Calibration, EngineConfig, ForwardScratch, FrozenNet, ScEngine,
};

fn fake_quant(x: &Tensor, step: f32, bsl: Option<usize>) -> Tensor {
    match bsl {
        None => x.clone(),
        Some(l) => {
            let half = (l / 2) as f32;
            x.map(|v| (v / step).clamp(-half, half).round() * step)
        }
    }
}

fn linear(x: &Tensor, w: &Tensor, b: &Tensor) -> Tensor {
    let mut out = x.matmul(w);
    let m = out.shape()[1];
    for row in out.data_mut().chunks_exact_mut(m) {
        for (o, bj) in row.iter_mut().zip(b.data()) {
            *o += bj;
        }
    }
    out
}

fn affine(x: &Tensor, (scale, shift): &(Vec<f32>, Vec<f32>)) -> Tensor {
    let mut out = x.clone();
    let m = out.shape()[1];
    for row in out.data_mut().chunks_exact_mut(m) {
        for ((v, sc), sh) in row.iter_mut().zip(scale).zip(shift) {
            *v = *v * sc + sh;
        }
    }
    out
}

/// `[batch·p, d]` tokens to the `[batch·s, d]` sequence: cls first, then
/// the tokens, plus the positional embedding.
fn assemble_sequence(tokens: &Tensor, net: &FrozenNet, batch: usize) -> Tensor {
    let (p, s, d) = (net.vit.num_patches(), net.vit.seq_len(), net.vit.dim);
    let mut out = vec![0.0f32; batch * s * d];
    for (bi, seq) in out.chunks_exact_mut(s * d).enumerate() {
        seq[..d].copy_from_slice(net.cls_token.data());
        seq[d..].copy_from_slice(&tokens.data()[bi * p * d..(bi + 1) * p * d]);
        for (v, pos) in seq.iter_mut().zip(net.pos_embedding.data()) {
            *v += pos;
        }
    }
    Tensor::from_vec(out, &[batch * s, d])
}

/// `[batch·s, h·dh]` to one `[s, dh]` matrix per image and head, image-major.
fn heads_of(x: &Tensor, batch: usize, s: usize, h: usize, dh: usize) -> Vec<Tensor> {
    let t = x.reshape(&[batch, s, h, dh]).permute(&[0, 2, 1, 3]);
    t.data()
        .chunks_exact(s * dh)
        .map(|c| Tensor::from_vec(c.to_vec(), &[s, dh]))
        .collect()
}

/// Stacks per-image-and-head matrices (image-major) into one tensor of
/// `shape`.
fn stack(parts: impl Iterator<Item = Tensor>, shape: &[usize]) -> Tensor {
    Tensor::from_vec(parts.flat_map(Tensor::into_data).collect(), shape)
}

/// The batched forward over `net`: `softmax(layer, scores)` maps each
/// layer's `[batch·h, s, s]` scaled scores to attention weights and
/// `gelu(layer, pre)` its `[batch·s, hd]` fc1 outputs to fc2 inputs.
/// Returns `[batch, classes]` logits.
fn forward(
    net: &FrozenNet,
    patches: &Tensor,
    batch: usize,
    softmax: &mut dyn FnMut(usize, Tensor) -> Tensor,
    gelu: &mut dyn FnMut(usize, Tensor) -> Tensor,
) -> Tensor {
    let (cfg, plan) = (&net.vit, &net.plan);
    let (s, d, h, dh) = (cfg.seq_len(), cfg.dim, cfg.heads, cfg.head_dim());
    let tokens = linear(patches, &net.patch_embed.w, &net.patch_embed.b);
    let mut x = assemble_sequence(&tokens, net, batch);
    for (li, l) in net.layers.iter().enumerate() {
        let xq = fake_quant(&affine(&x, &l.norm1_affine), l.attn_in_step, plan.acts);
        let q = heads_of(&linear(&xq, &l.q.w, &l.q.b), batch, s, h, dh);
        let k = heads_of(&linear(&xq, &l.k.w, &l.k.b), batch, s, h, dh);
        let v = heads_of(&linear(&xq, &l.v.w, &l.v.b), batch, s, h, dh);
        let scores = stack(
            q.iter().zip(&k).map(|(q, k)| q.matmul(&k.transpose2())),
            &[batch * h, s, s],
        )
        .scale(1.0 / (dh as f32).sqrt());
        let probs = softmax(li, scores);
        let per_head = probs
            .data()
            .chunks_exact(s * s)
            .zip(&v)
            .map(|(p, v)| Tensor::from_vec(p.to_vec(), &[s, s]).matmul(v));
        let ctx = stack(per_head, &[batch, h, s, dh])
            .permute(&[0, 2, 1, 3])
            .reshape(&[batch * s, d]);
        let ctxq = fake_quant(&ctx, l.attn_out_step, plan.acts);
        let attn_out = linear(&ctxq, &l.proj.w, &l.proj.b);
        x = fake_quant(&x.add(&attn_out), l.res1_step, plan.residual);

        let hq = fake_quant(&affine(&x, &l.norm2_affine), l.mlp_in_step, plan.acts);
        let act = gelu(li, linear(&hq, &l.fc1.w, &l.fc1.b));
        let out = linear(&act, &l.fc2.w, &l.fc2.b);
        x = fake_quant(&x.add(&out), l.res2_step, plan.residual);
    }
    let hn = affine(&x, &net.head_affine);
    let cls = hn.reshape(&[batch, s, d]).select_axis1(0);
    linear(&cls, &net.head.w, &net.head.b)
}

/// The SC engine's forward through the oracle: its softmax program row by
/// row and its gate-SI GELU tables. Also says whether any attention
/// weight came out non-zero.
fn sc_forward(
    engine: &ScEngine,
    patches: &Tensor,
    batch: usize,
) -> Result<(Tensor, bool), ScError> {
    let mut err = None;
    let mut live = false;
    let mut levels = Default::default();
    let logits = forward(
        &engine.net,
        patches,
        batch,
        &mut |_, mut scores| {
            let s = scores.shape()[2];
            for row in scores.data_mut().chunks_exact_mut(s) {
                if let Err(e) = engine.softmax.run_in_place(row, &mut levels) {
                    err = Some(e);
                }
                live |= row.iter().any(|&w| w != 0.0);
            }
            scores
        },
        &mut |li, pre| {
            let block = &engine.gelu[li];
            let table = block.ones_table();
            let in_scale = block.input().scale();
            let in_half = (block.input().len() / 2) as f64;
            let out_scale = block.output().scale();
            let out_half = (block.output().len() / 2) as i64;
            pre.map(|v| {
                let t = ((v as f64 / in_scale).round().clamp(-in_half, in_half) + in_half) as usize;
                (out_scale * (table[t] as i64 - out_half) as f64) as f32
            })
        },
    );
    err.map_or(Ok((logits, live)), Err)
}

/// The float forward through the oracle: exact softmax, float GELU
/// fake-quantized at the MLP mid site.
fn float_forward(net: &FrozenNet, patches: &Tensor, batch: usize) -> Tensor {
    forward(
        net,
        patches,
        batch,
        &mut |_, scores| scores.softmax_last(),
        &mut |li, pre| float_gelu(net, li, &pre),
    )
}

fn float_gelu(net: &FrozenNet, li: usize, pre: &Tensor) -> Tensor {
    fake_quant(
        &pre.map(ascend_tensor::graph::gelu_f),
        net.layers[li].mlp_mid_step,
        net.plan.acts,
    )
}

/// The batched calibration probe as it ran before the kernel: every
/// |score|, every `step`-th stacked score row per layer until 64 are held
/// at a layer boundary, and each layer's largest |fc1 output|.
fn batched_probe(net: &FrozenNet, patches: &Tensor, batch: usize) -> Calibration {
    let s = net.vit.seq_len();
    let mut score_samples: Vec<f32> = Vec::new();
    let mut score_rows: Vec<Vec<f64>> = Vec::new();
    let mut gelu_absmax = Vec::new();
    forward(
        net,
        patches,
        batch,
        &mut |_, scores| {
            score_samples.extend(scores.data().iter().map(|v| v.abs()));
            if score_rows.len() < 64 {
                let rows = scores.numel() / s;
                for r in (0..rows).step_by((rows / 8).max(1)) {
                    score_rows.push(
                        scores.data()[r * s..(r + 1) * s]
                            .iter()
                            .map(|v| *v as f64)
                            .collect(),
                    );
                }
            }
            scores.softmax_last()
        },
        &mut |li, pre| {
            let mut mx = 0.0f64;
            for v in pre.data() {
                mx = mx.max(v.abs() as f64);
            }
            gelu_absmax.push(mx);
            float_gelu(net, li, &pre)
        },
    );
    let score_scale = if score_samples.is_empty() {
        1.0
    } else {
        score_samples.sort_by(f32::total_cmp);
        let idx = (((score_samples.len() as f64) * 0.98) as usize).min(score_samples.len() - 1);
        f64::from(score_samples[idx])
    };
    Calibration {
        score_scale,
        gelu_absmax,
        score_rows,
    }
}

/// An untrained BatchNorm model at `m = (image/4)² + 1` under `plan`,
/// its parameters offset by a fixed pattern and its quantizer steps
/// calibrated on two images (no training), plus `n`
/// images of patches. Full precision lets every float-order slip reach
/// the logits; W2-A2-R16 adds the fake-quant sites and zero inputs.
fn model_at(
    image: usize,
    heads: usize,
    layers: usize,
    n: usize,
    plan: PrecisionPlan,
) -> (VitModel, Tensor) {
    let cfg = VitConfig {
        image,
        patch: 4,
        dim: 16,
        layers,
        heads,
        classes: 4,
        ..Default::default()
    };
    let mut model = VitModel::new(cfg);
    // Untrained biases and norm shifts are exactly zero, which would hide
    // a misplaced bias add: offset every parameter by a fixed pattern.
    for (i, t) in model.params_mut().into_iter().enumerate() {
        for (j, v) in t.data_mut().iter_mut().enumerate() {
            *v += 0.1 * (((i * 7919 + j * 104_729) % 201) as f32 / 100.0 - 1.0);
        }
    }
    let (train, _) = ascend_vit::data::synth_cifar(4, n.max(2), 2, image, 11);
    let patches = train.patches(&(0..n).collect::<Vec<_>>(), 4);
    let calib = train.patches(&[0, 1], 4);
    model.set_plan(plan);
    model.calibrate_steps(&calib, 2);
    (model, patches)
}

fn assert_same_bits(got: &[f32], want: &[f32], what: &str) {
    assert_eq!(got.len(), want.len(), "{what}: length");
    for (i, (g, w)) in got.iter().zip(want).enumerate() {
        assert_eq!(g.to_bits(), w.to_bits(), "{what}: element {i}: {g} vs {w}");
    }
}

/// Runs `backend` image by image through `scratch`, alternating a
/// [`NoopObserver`] and a [`StageTimer`].
fn per_image(
    backend: &dyn InferenceBackend,
    patches: &Tensor,
    scratch: &mut ForwardScratch,
) -> Result<Vec<f32>, ScError> {
    let cfg = backend.vit_config();
    let mut out = Vec::new();
    for (i, img) in patches
        .data()
        .chunks_exact(cfg.num_patches() * cfg.patch_dim())
        .enumerate()
    {
        let (mut noop, mut timer) = (NoopObserver, StageTimer::new());
        let observer: &mut dyn StageObserver = if i % 2 == 0 { &mut noop } else { &mut timer };
        out.extend(backend.forward_one(img, scratch, observer)?);
    }
    Ok(out)
}

#[test]
fn kernel_is_bit_identical_to_the_tensor_dataflow() -> Result<(), ScError> {
    // One scratch across every geometry and backend: it is resized on use.
    let mut scratch = ForwardScratch::empty();
    let n = 3;
    let plans = [PrecisionPlan::fp(), PrecisionPlan::w2_a2_r16()];
    for image in [8usize, 16, 32] {
        for heads in [1usize, 2, 4] {
            for plan in plans {
                let (model, patches) = model_at(image, heads, 2, n, plan);
                let m = model.config.seq_len();
                let what = format!("m = {m}, {heads} heads, {plan:?}");

                let reference = RefEngine::compile(&model)?;
                let want = float_forward(&reference.net, &patches, n);
                let got = per_image(&reference, &patches, &mut scratch)?;
                assert_same_bits(&got, want.data(), &what);

                for quad in [
                    EngineConfig::default(),
                    EngineConfig::from_quad(32, 8, 4, 3),
                ] {
                    let engine = ScEngine::compile(&model, quad, &patches, n)?;
                    let (want, live) = sc_forward(&engine, &patches, n)?;
                    let what = format!("{what}, By = {}", quad.softmax_by);
                    // At By = 8 the m = 65 rows may all decode to zero; the
                    // By = 32 leg must exercise real attention weights.
                    assert!(
                        live || quad.softmax_by != 32,
                        "{what}: all attention weights zero"
                    );
                    let got = per_image(&engine, &patches, &mut scratch)?;
                    assert_same_bits(&got, want.data(), &what);
                    assert_same_bits(engine.forward(&patches, n)?.data(), want.data(), &what);
                }
            }
        }
    }
    Ok(())
}

fn assert_same_calibration(got: &Calibration, want: &Calibration, layers: usize, what: &str) {
    assert_eq!(
        got.score_scale.to_bits(),
        want.score_scale.to_bits(),
        "{what}: scale"
    );
    assert_eq!(
        got.gelu_absmax.len(),
        layers,
        "{what}: one GELU maximum per layer"
    );
    for (g, w) in got.gelu_absmax.iter().zip(&want.gelu_absmax) {
        assert_eq!(g.to_bits(), w.to_bits(), "{what}: GELU maximum");
    }
    assert_eq!(
        got.score_rows.len(),
        want.score_rows.len(),
        "{what}: sampled rows"
    );
    for (g, w) in got.score_rows.iter().zip(&want.score_rows) {
        assert!(
            g.iter()
                .map(|v| v.to_bits())
                .eq(w.iter().map(|v| v.to_bits())),
            "{what}"
        );
    }
}

#[test]
fn calibration_matches_the_batched_probe() -> Result<(), ScError> {
    // (image, heads, layers): m = 5 and m = 65, plus a deep m = 5 model
    // whose later layers fall past the 64-row sampling cap (at batch 16
    // its ninth layer starts with exactly 64 rows held).
    for (image, heads, layers) in [(8usize, 2usize, 2usize), (32, 2, 2), (8, 2, 9)] {
        for batch in [0usize, 1, 3, 16] {
            let plan = PrecisionPlan::w2_a2_r16();
            let (model, patches) = model_at(image, heads, layers, batch, plan);
            let net = FrozenNet::capture(&model);
            let want = batched_probe(&net, &patches, batch);
            let what = format!(
                "m = {}, {layers} layers, batch {batch}",
                model.config.seq_len()
            );
            assert_same_calibration(&calibrate(&net, &patches, batch)?, &want, layers, &what);
            // `calibrate` splits the batch by the host's core count; every
            // split must give the same bits, and a batch the patches do not
            // hold must stay a typed error.
            for parts in [1, 2, 3, batch] {
                let what = format!("{what}, {parts} parts");
                let got = calibrate_in_parts(&net, &patches, batch, parts)?;
                assert_same_calibration(&got, &want, layers, &what);
                for wrong in [batch.wrapping_sub(1), batch + 1] {
                    assert!(
                        matches!(
                            calibrate_in_parts(&net, &patches, wrong, parts),
                            Err(ScError::InvalidParam { .. })
                        ),
                        "{what}: batch {wrong}"
                    );
                }
            }
            if batch == 0 {
                assert_eq!(want.score_scale, 1.0, "{what}");
                assert!(want.gelu_absmax.iter().all(|&m| m == 0.0), "{what}");
            }
        }
    }
    Ok(())
}
