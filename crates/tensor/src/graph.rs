//! Tape-based reverse-mode automatic differentiation.
//!
//! A [`Graph`] is an append-only arena of nodes; construction order is a
//! topological order, so backpropagation is a single reverse sweep. Each
//! operator pushes a node whose backward closure captures (clones of) the
//! values it needs — no lifetimes or borrows escape into user code, and a
//! [`Var`] is just `(graph, index)`.

use std::cell::RefCell;

use crate::tensor::Tensor;

type BackFn = Box<dyn Fn(&Tensor) -> Vec<Tensor>>;

struct Node {
    value: Tensor,
    parents: Vec<usize>,
    backward: Option<BackFn>,
}

/// The autodiff tape.
#[derive(Default)]
pub struct Graph {
    nodes: RefCell<Vec<Node>>,
    grads: RefCell<Vec<Option<Tensor>>>,
}

impl Graph {
    /// Creates an empty tape.
    pub fn new() -> Self {
        Graph::default()
    }

    /// Number of nodes recorded so far.
    pub fn len(&self) -> usize {
        self.nodes.borrow().len()
    }

    /// True if no nodes have been recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Records a leaf (parameter or input) and returns its handle.
    pub fn leaf(&self, value: Tensor) -> Var<'_> {
        self.push(value, Vec::new(), None)
    }

    /// Alias of [`Graph::leaf`] for values that only need forward flow;
    /// gradients still accumulate but are typically not queried.
    pub fn constant(&self, value: Tensor) -> Var<'_> {
        self.leaf(value)
    }

    fn push(&self, value: Tensor, parents: Vec<usize>, backward: Option<BackFn>) -> Var<'_> {
        let mut nodes = self.nodes.borrow_mut();
        nodes.push(Node { value, parents, backward });
        Var { g: self, id: nodes.len() - 1 }
    }

    /// The forward value of a node (cloned).
    pub fn value(&self, v: Var<'_>) -> Tensor {
        self.nodes.borrow()[v.id].value.clone()
    }

    /// Runs backpropagation from `root` (which must be a scalar).
    ///
    /// # Panics
    ///
    /// Panics if `root` has more than one element.
    pub fn backward(&self, root: Var<'_>) {
        let nodes = self.nodes.borrow();
        assert_eq!(
            nodes[root.id].value.numel(),
            1,
            "backward root must be scalar, got shape {:?}",
            nodes[root.id].value.shape()
        );
        let mut grads: Vec<Option<Tensor>> = vec![None; nodes.len()];
        grads[root.id] = Some(Tensor::ones(nodes[root.id].value.shape()));
        for id in (0..=root.id).rev() {
            let Some(gout) = grads[id].clone() else { continue };
            let node = &nodes[id];
            if let Some(back) = &node.backward {
                let pgrads = back(&gout);
                assert_eq!(pgrads.len(), node.parents.len(), "backward arity mismatch");
                for (pid, pg) in node.parents.iter().zip(pgrads) {
                    match &mut grads[*pid] {
                        Some(acc) => *acc = acc.add(&pg),
                        slot => *slot = Some(pg),
                    }
                }
            }
        }
        *self.grads.borrow_mut() = grads;
    }

    /// The gradient of the last [`Graph::backward`] call w.r.t. `v`, if it
    /// received any.
    pub fn grad(&self, v: Var<'_>) -> Option<Tensor> {
        self.grads.borrow().get(v.id).and_then(|g| g.clone())
    }
}

/// A handle to a node in a [`Graph`]. Cheap to copy.
#[derive(Clone, Copy)]
pub struct Var<'g> {
    g: &'g Graph,
    id: usize,
}

impl std::fmt::Debug for Var<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Var(#{}, shape={:?})", self.id, self.value().shape())
    }
}

impl<'g> Var<'g> {
    /// The forward value (cloned).
    pub fn value(&self) -> Tensor {
        self.g.value(*self)
    }

    /// The graph this variable belongs to.
    pub fn graph(&self) -> &'g Graph {
        self.g
    }

    /// 2-D matrix product with a constant right-hand side (no gradient flows
    /// into the constant).
    pub fn matmul_const(self, rhs: &Tensor) -> Var<'g> {
        let b = rhs.clone();
        let out = self.value().matmul(&b);
        self.g.push(
            out,
            vec![self.id],
            Some(Box::new(move |go: &Tensor| vec![go.matmul(&b.transpose2())])),
        )
    }

    /// Batched 3-D matrix product with a constant right-hand side.
    pub fn batched_matmul_const(self, rhs: &Tensor) -> Var<'g> {
        let b = rhs.clone();
        let out = self.value().batched_matmul(&b);
        self.g.push(
            out,
            vec![self.id],
            Some(Box::new(move |go: &Tensor| {
                vec![go.batched_matmul(&b.batched_transpose())]
            })),
        )
    }

    /// Shape of the forward value.
    pub fn shape(&self) -> Vec<usize> {
        self.value().shape().to_vec()
    }

    /// Elementwise addition (same shape).
    #[expect(
        clippy::should_implement_trait,
        reason = "method-call style is this API's idiom; `Var` handles are consumed by value, which std operator traits on references would obscure"
    )]
    pub fn add(self, o: Var<'g>) -> Var<'g> {
        let out = self.value().add(&o.value());
        self.g.push(
            out,
            vec![self.id, o.id],
            Some(Box::new(|go: &Tensor| vec![go.clone(), go.clone()])),
        )
    }

    /// Elementwise subtraction (same shape).
    #[expect(
        clippy::should_implement_trait,
        reason = "method-call style is this API's idiom; `Var` handles are consumed by value, which std operator traits on references would obscure"
    )]
    pub fn sub(self, o: Var<'g>) -> Var<'g> {
        let out = self.value().sub(&o.value());
        self.g.push(
            out,
            vec![self.id, o.id],
            Some(Box::new(|go: &Tensor| vec![go.clone(), go.scale(-1.0)])),
        )
    }

    /// Elementwise multiplication (same shape).
    #[expect(
        clippy::should_implement_trait,
        reason = "method-call style is this API's idiom; `Var` handles are consumed by value, which std operator traits on references would obscure"
    )]
    pub fn mul(self, o: Var<'g>) -> Var<'g> {
        let a = self.value();
        let b = o.value();
        let out = a.mul(&b);
        self.g.push(
            out,
            vec![self.id, o.id],
            Some(Box::new(move |go: &Tensor| vec![go.mul(&b), go.mul(&a)])),
        )
    }

    /// Scalar multiply.
    pub fn scale(self, s: f32) -> Var<'g> {
        let out = self.value().scale(s);
        self.g.push(
            out,
            vec![self.id],
            Some(Box::new(move |go: &Tensor| vec![go.scale(s)])),
        )
    }

    /// Adds a scalar constant.
    pub fn add_scalar(self, s: f32) -> Var<'g> {
        let out = self.value().map(|v| v + s);
        self.g
            .push(out, vec![self.id], Some(Box::new(|go: &Tensor| vec![go.clone()])))
    }

    /// Negation.
    #[expect(
        clippy::should_implement_trait,
        reason = "method-call style is this API's idiom; `Var` handles are consumed by value, which std operator traits on references would obscure"
    )]
    pub fn neg(self) -> Var<'g> {
        self.scale(-1.0)
    }

    /// 2-D matrix product.
    pub fn matmul(self, o: Var<'g>) -> Var<'g> {
        let a = self.value();
        let b = o.value();
        let out = a.matmul(&b);
        self.g.push(
            out,
            vec![self.id, o.id],
            Some(Box::new(move |go: &Tensor| {
                vec![go.matmul(&b.transpose2()), a.transpose2().matmul(go)]
            })),
        )
    }

    /// Batched 3-D matrix product.
    pub fn batched_matmul(self, o: Var<'g>) -> Var<'g> {
        let a = self.value();
        let b = o.value();
        let out = a.batched_matmul(&b);
        self.g.push(
            out,
            vec![self.id, o.id],
            Some(Box::new(move |go: &Tensor| {
                vec![
                    go.batched_matmul(&b.batched_transpose()),
                    a.batched_transpose().batched_matmul(go),
                ]
            })),
        )
    }

    /// Axis permutation; gradient applies the inverse permutation.
    pub fn permute(self, perm: &[usize]) -> Var<'g> {
        let out = self.value().permute(perm);
        let mut inverse = vec![0usize; perm.len()];
        for (i, &p) in perm.iter().enumerate() {
            inverse[p] = i;
        }
        self.g.push(
            out,
            vec![self.id],
            Some(Box::new(move |go: &Tensor| vec![go.permute(&inverse)])),
        )
    }

    /// Reshape; gradient reshapes back.
    pub fn reshape(self, shape: &[usize]) -> Var<'g> {
        let old = self.shape();
        let out = self.value().reshape(shape);
        self.g.push(
            out,
            vec![self.id],
            Some(Box::new(move |go: &Tensor| vec![go.reshape(&old)])),
        )
    }

    /// GELU (tanh approximation — the form quantized ViTs train against).
    pub fn gelu(self) -> Var<'g> {
        let x = self.value();
        let out = x.map(gelu_f);
        self.g.push(
            out,
            vec![self.id],
            Some(Box::new(move |go: &Tensor| {
                vec![go.zip_map(&x, |g, v| g * gelu_grad_f(v))]
            })),
        )
    }

    /// ReLU.
    pub fn relu(self) -> Var<'g> {
        let x = self.value();
        let out = x.map(|v| v.max(0.0));
        self.g.push(
            out,
            vec![self.id],
            Some(Box::new(move |go: &Tensor| {
                vec![go.zip_map(&x, |g, v| if v > 0.0 { g } else { 0.0 })]
            })),
        )
    }

    /// Elementwise square.
    pub fn square(self) -> Var<'g> {
        let x = self.value();
        let out = x.map(|v| v * v);
        self.g.push(
            out,
            vec![self.id],
            Some(Box::new(move |go: &Tensor| {
                vec![go.zip_map(&x, |g, v| 2.0 * g * v)]
            })),
        )
    }

    /// `1/√(x + eps)` — the normalization kernel.
    pub fn rsqrt_eps(self, eps: f32) -> Var<'g> {
        let x = self.value();
        let out = x.map(|v| 1.0 / (v + eps).sqrt());
        let saved = out.clone();
        self.g.push(
            out,
            vec![self.id],
            Some(Box::new(move |go: &Tensor| {
                vec![go.zip_map(&saved, |g, y| -0.5 * g * y * y * y)]
            })),
        )
    }

    /// Row-wise softmax over the last axis.
    pub fn softmax_last(self) -> Var<'g> {
        let out = self.value().softmax_last();
        let s = out.clone();
        self.g.push(
            out,
            vec![self.id],
            Some(Box::new(move |go: &Tensor| {
                // gx = s ∘ (go − rowsum(go ∘ s))
                #[expect(
                    clippy::expect_used,
                    reason = "`s` came out of `softmax_last`, which already required rank ≥ 1"
                )]
                let m = *s.shape().last().expect("rank ≥ 1");
                let rows = s.numel() / m;
                let mut gx = vec![0.0f32; s.numel()];
                for i in 0..rows {
                    let srow = &s.data()[i * m..(i + 1) * m];
                    let grow = &go.data()[i * m..(i + 1) * m];
                    let dot: f32 = srow.iter().zip(grow.iter()).map(|(a, b)| a * b).sum();
                    for j in 0..m {
                        gx[i * m + j] = srow[j] * (grow[j] - dot);
                    }
                }
                vec![Tensor::from_vec(gx, s.shape())]
            })),
        )
    }

    /// Column means `[n,m] → [m]`.
    pub fn mean_axis0(self) -> Var<'g> {
        let x = self.value();
        let n = x.shape()[0];
        let out = x.mean_axis0();
        let shape = x.shape().to_vec();
        self.g.push(
            out,
            vec![self.id],
            Some(Box::new(move |go: &Tensor| {
                let (rows, cols) = (shape[0], shape[1]);
                let mut gx = vec![0.0f32; rows * cols];
                for i in 0..rows {
                    for j in 0..cols {
                        gx[i * cols + j] = go.data()[j] / n as f32;
                    }
                }
                vec![Tensor::from_vec(gx, &shape)]
            })),
        )
    }

    /// Row means `[n,m] → [n]`.
    pub fn mean_axis1(self) -> Var<'g> {
        let x = self.value();
        let m = x.shape()[1];
        let out = x.mean_axis1();
        let shape = x.shape().to_vec();
        self.g.push(
            out,
            vec![self.id],
            Some(Box::new(move |go: &Tensor| {
                let (rows, cols) = (shape[0], shape[1]);
                let mut gx = vec![0.0f32; rows * cols];
                for i in 0..rows {
                    for j in 0..cols {
                        gx[i * cols + j] = go.data()[i] / m as f32;
                    }
                }
                vec![Tensor::from_vec(gx, &shape)]
            })),
        )
    }

    /// Adds a `[m]` vector to every row of a `[n,m]` matrix.
    pub fn broadcast_row_add(self, bias: Var<'g>) -> Var<'g> {
        let x = self.value();
        let b = bias.value();
        let (n, m) = (x.shape()[0], x.shape()[1]);
        assert_eq!(b.numel(), m, "bias length mismatch");
        let mut out = x.clone();
        for i in 0..n {
            for j in 0..m {
                out.data_mut()[i * m + j] += b.data()[j];
            }
        }
        self.g.push(
            out,
            vec![self.id, bias.id],
            Some(Box::new(move |go: &Tensor| {
                let mut gb = vec![0.0f32; m];
                for i in 0..n {
                    for j in 0..m {
                        gb[j] += go.data()[i * m + j];
                    }
                }
                vec![go.clone(), Tensor::from_vec(gb, &[m])]
            })),
        )
    }

    /// Multiplies every row of a `[n,m]` matrix by a `[m]` vector.
    pub fn broadcast_row_mul(self, gamma: Var<'g>) -> Var<'g> {
        let x = self.value();
        let gm = gamma.value();
        let (n, m) = (x.shape()[0], x.shape()[1]);
        assert_eq!(gm.numel(), m, "gamma length mismatch");
        let mut out = x.clone();
        for i in 0..n {
            for j in 0..m {
                out.data_mut()[i * m + j] *= gm.data()[j];
            }
        }
        self.g.push(
            out,
            vec![self.id, gamma.id],
            Some(Box::new(move |go: &Tensor| {
                let mut gx = vec![0.0f32; n * m];
                let mut gg = vec![0.0f32; m];
                for i in 0..n {
                    for j in 0..m {
                        gx[i * m + j] = go.data()[i * m + j] * gm.data()[j];
                        gg[j] += go.data()[i * m + j] * x.data()[i * m + j];
                    }
                }
                vec![Tensor::from_vec(gx, x.shape()), Tensor::from_vec(gg, &[m])]
            })),
        )
    }

    /// Adds a `[n]` vector to every column of a `[n,m]` matrix.
    pub fn broadcast_col_add(self, col: Var<'g>) -> Var<'g> {
        let x = self.value();
        let c = col.value();
        let (n, m) = (x.shape()[0], x.shape()[1]);
        assert_eq!(c.numel(), n, "column vector length mismatch");
        let mut out = x.clone();
        for i in 0..n {
            for j in 0..m {
                out.data_mut()[i * m + j] += c.data()[i];
            }
        }
        self.g.push(
            out,
            vec![self.id, col.id],
            Some(Box::new(move |go: &Tensor| {
                let mut gc = vec![0.0f32; n];
                for i in 0..n {
                    for j in 0..m {
                        gc[i] += go.data()[i * m + j];
                    }
                }
                vec![go.clone(), Tensor::from_vec(gc, &[n])]
            })),
        )
    }

    /// Multiplies every column of a `[n,m]` matrix by a `[n]` vector.
    pub fn broadcast_col_mul(self, col: Var<'g>) -> Var<'g> {
        let x = self.value();
        let c = col.value();
        let (n, m) = (x.shape()[0], x.shape()[1]);
        assert_eq!(c.numel(), n, "column vector length mismatch");
        let mut out = x.clone();
        for i in 0..n {
            for j in 0..m {
                out.data_mut()[i * m + j] *= c.data()[i];
            }
        }
        self.g.push(
            out,
            vec![self.id, col.id],
            Some(Box::new(move |go: &Tensor| {
                let mut gx = vec![0.0f32; n * m];
                let mut gc = vec![0.0f32; n];
                for i in 0..n {
                    for j in 0..m {
                        gx[i * m + j] = go.data()[i * m + j] * c.data()[i];
                        gc[i] += go.data()[i * m + j] * x.data()[i * m + j];
                    }
                }
                vec![Tensor::from_vec(gx, x.shape()), Tensor::from_vec(gc, &[n])]
            })),
        )
    }

    /// Extracts `x[:, index, :]` from a 3-D tensor; gradient scatters back.
    pub fn select_axis1(self, index: usize) -> Var<'g> {
        let x = self.value();
        let shape = x.shape().to_vec();
        let out = x.select_axis1(index);
        self.g.push(
            out,
            vec![self.id],
            Some(Box::new(move |go: &Tensor| {
                let (b, s, d) = (shape[0], shape[1], shape[2]);
                let mut gx = vec![0.0f32; b * s * d];
                for bi in 0..b {
                    let dst = bi * s * d + index * d;
                    gx[dst..dst + d].copy_from_slice(&go.data()[bi * d..(bi + 1) * d]);
                }
                vec![Tensor::from_vec(gx, &shape)]
            })),
        )
    }

    /// Repeats a `[d]` vector into `[n, d]` rows; the gradient sums over
    /// rows. Used to broadcast the class token across a batch.
    pub fn repeat_as_rows(self, n: usize) -> Var<'g> {
        let x = self.value();
        let d = x.numel();
        let mut out = vec![0.0f32; n * d];
        for i in 0..n {
            out[i * d..(i + 1) * d].copy_from_slice(x.data());
        }
        self.g.push(
            Tensor::from_vec(out, &[n, d]),
            vec![self.id],
            Some(Box::new(move |go: &Tensor| {
                let mut gx = vec![0.0f32; d];
                for i in 0..n {
                    for j in 0..d {
                        gx[j] += go.data()[i * d + j];
                    }
                }
                vec![Tensor::from_vec(gx, &[d])]
            })),
        )
    }

    /// Concatenates two 3-D tensors along axis 1 (`[b,s1,d] ⧺ [b,s2,d]`).
    ///
    /// # Panics
    ///
    /// Panics unless both operands are 3-D with matching batch and feature
    /// dimensions.
    pub fn concat_axis1(self, other: Var<'g>) -> Var<'g> {
        let a = self.value();
        let b = other.value();
        assert_eq!(a.shape().len(), 3, "concat_axis1 needs 3-D lhs");
        assert_eq!(b.shape().len(), 3, "concat_axis1 needs 3-D rhs");
        let (ba, s1, d) = (a.shape()[0], a.shape()[1], a.shape()[2]);
        let (bb, s2, d2) = (b.shape()[0], b.shape()[1], b.shape()[2]);
        assert_eq!(ba, bb, "batch mismatch");
        assert_eq!(d, d2, "feature mismatch");
        let s = s1 + s2;
        let mut out = vec![0.0f32; ba * s * d];
        for bi in 0..ba {
            out[bi * s * d..bi * s * d + s1 * d]
                .copy_from_slice(&a.data()[bi * s1 * d..(bi + 1) * s1 * d]);
            out[bi * s * d + s1 * d..(bi + 1) * s * d]
                .copy_from_slice(&b.data()[bi * s2 * d..(bi + 1) * s2 * d]);
        }
        self.g.push(
            Tensor::from_vec(out, &[ba, s, d]),
            vec![self.id, other.id],
            Some(Box::new(move |go: &Tensor| {
                let mut ga = vec![0.0f32; ba * s1 * d];
                let mut gb = vec![0.0f32; ba * s2 * d];
                for bi in 0..ba {
                    ga[bi * s1 * d..(bi + 1) * s1 * d]
                        .copy_from_slice(&go.data()[bi * s * d..bi * s * d + s1 * d]);
                    gb[bi * s2 * d..(bi + 1) * s2 * d]
                        .copy_from_slice(&go.data()[bi * s * d + s1 * d..(bi + 1) * s * d]);
                }
                vec![
                    Tensor::from_vec(ga, &[ba, s1, d]),
                    Tensor::from_vec(gb, &[ba, s2, d]),
                ]
            })),
        )
    }

    /// Sums over the last axis and broadcasts back to the input shape
    /// (`out[.., j] = Σ_j x[.., j]`). Self-adjoint: the gradient applies the
    /// same reduction to the upstream gradient. This is the building block
    /// of the in-graph iterative approximate softmax.
    pub fn row_sum_bcast(self) -> Var<'g> {
        let x = self.value();
        #[expect(
            clippy::expect_used,
            reason = "a reduction over the last axis needs rank ≥ 1, a shape precondition like the asserts on every other op"
        )]
        let m = *x.shape().last().expect("rank ≥ 1");
        let rows = x.numel() / m;
        let mut out = vec![0.0f32; x.numel()];
        for i in 0..rows {
            let s: f32 = x.data()[i * m..(i + 1) * m].iter().sum();
            for o in out[i * m..(i + 1) * m].iter_mut() {
                *o = s;
            }
        }
        let shape = x.shape().to_vec();
        self.g.push(
            Tensor::from_vec(out, &shape),
            vec![self.id],
            Some(Box::new(move |go: &Tensor| {
                let mut gx = vec![0.0f32; go.numel()];
                for i in 0..rows {
                    let s: f32 = go.data()[i * m..(i + 1) * m].iter().sum();
                    for o in gx[i * m..(i + 1) * m].iter_mut() {
                        *o = s;
                    }
                }
                vec![Tensor::from_vec(gx, &shape)]
            })),
        )
    }

    /// Sum of all elements → scalar.
    pub fn sum_all(self) -> Var<'g> {
        let x = self.value();
        let shape = x.shape().to_vec();
        let out = Tensor::scalar(x.sum_all());
        self.g.push(
            out,
            vec![self.id],
            Some(Box::new(move |go: &Tensor| {
                vec![Tensor::full(&shape, go.item())]
            })),
        )
    }

    /// Mean of all elements → scalar.
    pub fn mean_all(self) -> Var<'g> {
        let n = self.value().numel() as f32;
        self.sum_all().scale(1.0 / n)
    }

    /// LSQ fake quantization (\[25\]): `y = round(clamp(x/s, qn, qp))·s` with
    /// the straight-through estimator for `x` and the LSQ gradient for the
    /// learned step `s` (a scalar leaf), scaled by `grad_scale`.
    ///
    /// # Panics
    ///
    /// Panics if `step` is not scalar-shaped.
    pub fn lsq_quantize(self, step: Var<'g>, qn: f32, qp: f32, grad_scale: f32) -> Var<'g> {
        let x = self.value();
        let s_t = step.value();
        assert_eq!(s_t.numel(), 1, "LSQ step must be a scalar");
        let s = s_t.item().abs().max(1e-8);
        let out = x.map(|v| (v / s).clamp(qn, qp).round() * s);
        self.g.push(
            out,
            vec![self.id, step.id],
            Some(Box::new(move |go: &Tensor| {
                let mut gs = 0.0f32;
                let mut gx = vec![0.0f32; x.numel()];
                for ((gxi, &g), &v) in gx.iter_mut().zip(go.data().iter()).zip(x.data().iter()) {
                    let r = v / s;
                    if r <= qn {
                        gs += g * qn;
                    } else if r >= qp {
                        gs += g * qp;
                    } else {
                        gs += g * (r.round() - r);
                        *gxi = g;
                    }
                }
                vec![Tensor::from_vec(gx, x.shape()), Tensor::scalar(gs * grad_scale)]
            })),
        )
    }

    /// Mean cross-entropy of logits `[n,c]` against integer labels.
    ///
    /// # Panics
    ///
    /// Panics if `labels.len()` differs from the row count or any label is
    /// out of range.
    pub fn cross_entropy(self, labels: &[usize]) -> Var<'g> {
        let logits = self.value();
        let (n, c) = (logits.shape()[0], logits.shape()[1]);
        assert_eq!(labels.len(), n, "label count mismatch");
        assert!(labels.iter().all(|&l| l < c), "label out of range");
        let probs = logits.softmax_last();
        let mut loss = 0.0f32;
        for (i, &l) in labels.iter().enumerate() {
            loss -= probs.data()[i * c + l].max(1e-12).ln();
        }
        loss /= n as f32;
        let labels = labels.to_vec();
        self.g.push(
            Tensor::scalar(loss),
            vec![self.id],
            Some(Box::new(move |go: &Tensor| {
                let g = go.item() / n as f32;
                let mut gx = probs.clone();
                for (i, &l) in labels.iter().enumerate() {
                    gx.data_mut()[i * c + l] -= 1.0;
                }
                vec![gx.scale(g)]
            })),
        )
    }

    /// Mean KL divergence `KL(teacher ‖ student)` where `self` is the
    /// student's logits and `teacher_logits` a constant — the distillation
    /// objective `ℓ_KL(Z_s, Z_t)` of paper §V.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn kl_from_teacher(self, teacher_logits: &Tensor) -> Var<'g> {
        let logits = self.value();
        assert_eq!(logits.shape(), teacher_logits.shape(), "teacher/student shape mismatch");
        let (n, c) = (logits.shape()[0], logits.shape()[1]);
        let ps = logits.softmax_last();
        let pt = teacher_logits.softmax_last();
        let mut loss = 0.0f32;
        for i in 0..n * c {
            let t = pt.data()[i];
            if t > 0.0 {
                loss += t * (t.max(1e-12).ln() - ps.data()[i].max(1e-12).ln());
            }
        }
        loss /= n as f32;
        self.g.push(
            Tensor::scalar(loss),
            vec![self.id],
            Some(Box::new(move |go: &Tensor| {
                let g = go.item() / n as f32;
                vec![ps.sub(&pt).scale(g)]
            })),
        )
    }

    /// Mean squared error against another variable (both receive grads) —
    /// the per-layer distillation term `ℓ_MSE(S_i, T_i)`.
    pub fn mse(self, other: Var<'g>) -> Var<'g> {
        let a = self.value();
        let b = other.value();
        assert_eq!(a.shape(), b.shape(), "mse shape mismatch");
        let n = a.numel() as f32;
        let diff = a.sub(&b);
        let loss = diff.data().iter().map(|v| v * v).sum::<f32>() / n;
        self.g.push(
            Tensor::scalar(loss),
            vec![self.id, other.id],
            Some(Box::new(move |go: &Tensor| {
                let g = 2.0 * go.item() / n;
                vec![diff.scale(g), diff.scale(-g)]
            })),
        )
    }
}

/// GELU, tanh approximation (f32).
pub fn gelu_f(x: f32) -> f32 {
    const C: f32 = 0.797_884_6; // sqrt(2/π)
    0.5 * x * (1.0 + (C * (x + 0.044_715 * x * x * x)).tanh())
}

/// Derivative of [`gelu_f`].
pub fn gelu_grad_f(x: f32) -> f32 {
    const C: f32 = 0.797_884_6;
    let u = C * (x + 0.044_715 * x * x * x);
    let t = u.tanh();
    let du = C * (1.0 + 3.0 * 0.044_715 * x * x);
    0.5 * (1.0 + t) + 0.5 * x * (1.0 - t * t) * du
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_mul_backward() {
        let g = Graph::new();
        let a = g.leaf(Tensor::from_vec(vec![1.0, 2.0], &[2]));
        let b = g.leaf(Tensor::from_vec(vec![3.0, 4.0], &[2]));
        let y = a.mul(b).sum_all();
        g.backward(y);
        assert_eq!(g.grad(a).unwrap().data(), &[3.0, 4.0]);
        assert_eq!(g.grad(b).unwrap().data(), &[1.0, 2.0]);
    }

    #[test]
    fn matmul_backward_shapes() {
        let g = Graph::new();
        let a = g.leaf(Tensor::ones(&[3, 4]));
        let b = g.leaf(Tensor::ones(&[4, 5]));
        let y = a.matmul(b).sum_all();
        g.backward(y);
        assert_eq!(g.grad(a).unwrap().shape(), &[3, 4]);
        assert_eq!(g.grad(b).unwrap().shape(), &[4, 5]);
        // d/dA sum(AB) = B·1ᵀ summed: every entry = 5 (cols of B).
        assert!(g.grad(a).unwrap().data().iter().all(|&v| (v - 5.0).abs() < 1e-6));
    }

    #[test]
    fn grad_accumulates_over_fanout() {
        let g = Graph::new();
        let a = g.leaf(Tensor::from_vec(vec![2.0], &[1]));
        let y = a.add(a).sum_all(); // y = 2a
        g.backward(y);
        assert_eq!(g.grad(a).unwrap().data(), &[2.0]);
    }

    #[test]
    fn softmax_backward_zero_for_uniform_upstream() {
        // Softmax is shift-invariant: with uniform upstream grad the input
        // gradient must vanish.
        let g = Graph::new();
        let x = g.leaf(Tensor::from_vec(vec![0.3, -0.7, 1.1], &[1, 3]));
        let y = x.softmax_last().sum_all();
        g.backward(y);
        for v in g.grad(x).unwrap().data() {
            assert!(v.abs() < 1e-6);
        }
    }

    #[test]
    fn cross_entropy_gradient_is_probs_minus_onehot() {
        let g = Graph::new();
        let x = g.leaf(Tensor::from_vec(vec![1.0, 2.0, 0.5, 0.1, 0.1, 3.0], &[2, 3]));
        let loss = x.cross_entropy(&[1, 2]);
        g.backward(loss);
        let probs = x.value().softmax_last();
        let gx = g.grad(x).unwrap();
        for i in 0..2 {
            for j in 0..3 {
                let onehot = if (i == 0 && j == 1) || (i == 1 && j == 2) { 1.0 } else { 0.0 };
                let want = (probs.data()[i * 3 + j] - onehot) / 2.0;
                assert!((gx.data()[i * 3 + j] - want).abs() < 1e-6);
            }
        }
    }

    #[test]
    fn kl_is_zero_when_student_equals_teacher() {
        let g = Graph::new();
        let t = Tensor::from_vec(vec![0.5, 1.5, -0.3, 0.2, 0.2, 0.2], &[2, 3]);
        let s = g.leaf(t.clone());
        let loss = s.kl_from_teacher(&t);
        assert!(loss.value().item().abs() < 1e-6);
        g.backward(loss);
        for v in g.grad(s).unwrap().data() {
            assert!(v.abs() < 1e-6);
        }
    }

    #[test]
    fn mse_backward_symmetric() {
        let g = Graph::new();
        let a = g.leaf(Tensor::from_vec(vec![1.0, 2.0], &[2]));
        let b = g.leaf(Tensor::from_vec(vec![0.0, 0.0], &[2]));
        let loss = a.mse(b);
        assert!((loss.value().item() - 2.5).abs() < 1e-6);
        g.backward(loss);
        let ga = g.grad(a).unwrap();
        let gb = g.grad(b).unwrap();
        for (x, y) in ga.data().iter().zip(gb.data().iter()) {
            assert!((x + y).abs() < 1e-6, "grads must be opposite");
        }
    }

    #[test]
    fn lsq_straight_through_and_step_grad() {
        let g = Graph::new();
        let x = g.leaf(Tensor::from_vec(vec![0.3, 5.0, -5.0], &[3]));
        let s = g.leaf(Tensor::scalar(1.0));
        let q = x.lsq_quantize(s, -1.0, 1.0, 1.0);
        // Forward: round(clamp(x)) = [0, 1, −1].
        assert_eq!(q.value().data(), &[0.0, 1.0, -1.0]);
        let y = q.sum_all();
        g.backward(y);
        // STE: in-range element passes grad, clipped ones don't.
        assert_eq!(g.grad(x).unwrap().data(), &[1.0, 0.0, 0.0]);
        // Step grad: (round(r)−r) for in-range + qp + qn = (0−0.3) + 1 − 1.
        assert!((g.grad(s).unwrap().item() - (-0.3)).abs() < 1e-6);
    }

    #[test]
    fn permute_and_reshape_roundtrip_grads() {
        let g = Graph::new();
        let x = g.leaf(Tensor::from_vec((0..6).map(|v| v as f32).collect(), &[2, 3]));
        let y = x.permute(&[1, 0]).reshape(&[6]).sum_all();
        g.backward(y);
        assert!(g.grad(x).unwrap().data().iter().all(|&v| (v - 1.0).abs() < 1e-6));
    }

    #[test]
    #[should_panic(expected = "must be scalar")]
    fn backward_requires_scalar_root() {
        let g = Graph::new();
        let x = g.leaf(Tensor::ones(&[2]));
        g.backward(x);
    }

    #[test]
    fn select_axis1_scatters_gradient() {
        let g = Graph::new();
        let x = g.leaf(Tensor::from_vec((0..12).map(|v| v as f32).collect(), &[2, 3, 2]));
        let y = x.select_axis1(1).sum_all();
        g.backward(y);
        let gx = g.grad(x).unwrap();
        // Only token 1 positions receive gradient 1.
        let want = [0., 0., 1., 1., 0., 0., 0., 0., 1., 1., 0., 0.];
        for (got, want) in gx.data().iter().zip(want.iter()) {
            assert!((got - want).abs() < 1e-6);
        }
    }
}
