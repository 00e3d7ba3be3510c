//! Gradient checking: every operator's analytic gradient is verified
//! against central differences on randomized inputs.

#![allow(clippy::expect_used, reason = "an integration test fails by panicking, helpers included")]

use ascend_tensor::{Graph, Tensor, Var};
use proptest::prelude::*;

/// Central-difference gradient of `f` (as a scalar function of the leaf
/// tensor `x`) compared against the autograd gradient.
fn check_grad<F>(x0: Tensor, f: F, tol: f32)
where
    F: Fn(Var<'_>) -> Var<'_>,
{
    // Analytic gradient.
    let g = Graph::new();
    let x = g.leaf(x0.clone());
    let y = f(x);
    g.backward(y);
    let analytic = g.grad(x).expect("leaf must receive gradient");

    // Numeric gradient, one coordinate at a time.
    let eps = 1e-2f32;
    for i in 0..x0.numel() {
        let mut plus = x0.clone();
        plus.data_mut()[i] += eps;
        let mut minus = x0.clone();
        minus.data_mut()[i] -= eps;

        let gp = Graph::new();
        let yp = f(gp.leaf(plus)).value().item();
        let gm = Graph::new();
        let ym = f(gm.leaf(minus)).value().item();
        let numeric = (yp - ym) / (2.0 * eps);
        let got = analytic.data()[i];
        assert!(
            (got - numeric).abs() < tol * (1.0 + numeric.abs()),
            "coordinate {i}: analytic {got} vs numeric {numeric}"
        );
    }
}

fn arb_tensor(shape: &'static [usize]) -> impl Strategy<Value = Tensor> {
    let n: usize = shape.iter().product();
    proptest::collection::vec(-2.0f32..2.0, n).prop_map(move |v| Tensor::from_vec(v, shape))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn grad_mul_sum(x in arb_tensor(&[2, 3])) {
        check_grad(x, |v| v.mul(v).sum_all(), 5e-2);
    }

    #[test]
    fn grad_matmul(x in arb_tensor(&[2, 3])) {
        let b = Tensor::from_vec(vec![0.5, -1.0, 0.3, 2.0, 0.7, -0.2], &[3, 2]);
        check_grad(x, move |v| v.matmul_const(&b).sum_all(), 5e-2);
    }

    #[test]
    fn grad_gelu(x in arb_tensor(&[2, 3])) {
        check_grad(x, |v| v.gelu().sum_all(), 5e-2);
    }

    #[test]
    fn grad_softmax_weighted(x in arb_tensor(&[2, 3])) {
        // Weighted sum to make the objective sensitive to each coordinate.
        let w = Tensor::from_vec(vec![0.3, -1.0, 2.0, 0.7, 0.1, -0.4], &[2, 3]);
        check_grad(x, move |v| {
            let wv = v.graph().constant(w.clone());
            v.softmax_last().mul(wv).sum_all()
        }, 8e-2);
    }

    #[test]
    fn grad_norm_pipeline(x in arb_tensor(&[3, 4])) {
        // The layer-norm composition: (x − mean)·rsqrt(var + eps).
        check_grad(x, |v| {
            let mu = v.mean_axis1();
            let centered = v.broadcast_col_add(mu.neg());
            let var = centered.square().mean_axis1();
            let inv = var.rsqrt_eps(1e-3);
            centered.broadcast_col_mul(inv).square().sum_all()
        }, 1e-1);
    }

    #[test]
    fn grad_bn_pipeline(x in arb_tensor(&[4, 3])) {
        // The batch-norm composition over axis 0.
        check_grad(x, |v| {
            let mu = v.mean_axis0();
            let centered = v.broadcast_row_add(mu.neg());
            let var = centered.square().mean_axis0();
            let inv = var.rsqrt_eps(1e-3);
            centered.broadcast_row_mul(inv).square().sum_all()
        }, 1e-1);
    }

    #[test]
    fn grad_cross_entropy(x in arb_tensor(&[2, 3])) {
        check_grad(x, |v| v.cross_entropy(&[0, 2]), 5e-2);
    }

    #[test]
    fn grad_kl(x in arb_tensor(&[2, 3])) {
        let teacher = Tensor::from_vec(vec![0.5, 0.1, -0.2, 1.0, -1.0, 0.0], &[2, 3]);
        check_grad(x, move |v| v.kl_from_teacher(&teacher), 5e-2);
    }

    #[test]
    fn grad_batched_matmul(x in arb_tensor(&[2, 2, 3])) {
        let b = Tensor::from_vec((0..12).map(|v| (v as f32) * 0.2 - 1.0).collect(), &[2, 3, 2]);
        check_grad(x, move |v| v.batched_matmul_const(&b).sum_all(), 8e-2);
    }

    #[test]
    fn grad_permute_reshape_select(x in arb_tensor(&[2, 3, 2])) {
        check_grad(x, |v| v.permute(&[0, 2, 1]).reshape(&[2, 2, 3]).select_axis1(1).sum_all(), 5e-2);
    }

    #[test]
    fn grad_repeat_as_rows(x in arb_tensor(&[3])) {
        let w = Tensor::from_vec(vec![1.0, -2.0, 0.5, 0.3, 1.1, -0.7], &[2, 3]);
        check_grad(x, move |v| {
            let wv = v.graph().constant(w.clone());
            v.repeat_as_rows(2).mul(wv).sum_all()
        }, 5e-2);
    }

    #[test]
    fn grad_concat_axis1(x in arb_tensor(&[2, 2, 2])) {
        check_grad(x, |v| {
            let other = v.graph().constant(Tensor::ones(&[2, 1, 2]));
            v.concat_axis1(other).square().sum_all()
        }, 5e-2);
    }

    #[test]
    fn grad_row_sum_bcast(x in arb_tensor(&[2, 3])) {
        let w = Tensor::from_vec(vec![0.2, -0.9, 1.3, 0.4, 0.8, -0.1], &[2, 3]);
        check_grad(x, move |v| {
            let wv = v.graph().constant(w.clone());
            v.row_sum_bcast().mul(wv).square().sum_all()
        }, 1e-1);
    }

    #[test]
    fn grad_iterative_softmax_composition(x in arb_tensor(&[2, 4])) {
        // The in-graph Algorithm 1 must be differentiable end to end.
        let w = Tensor::from_vec(
            vec![0.3, -1.0, 2.0, 0.7, 0.1, -0.4, 0.9, -0.2],
            &[2, 4],
        );
        check_grad(x, move |v| {
            let g = v.graph();
            let k = 4usize;
            let mut y = g.constant(Tensor::full(&[2, 4], 0.25));
            for _ in 0..k {
                let z = v.mul(y);
                let sum_z = z.row_sum_bcast();
                y = y.add(z.sub(y.mul(sum_z)).scale(1.0 / k as f32));
            }
            let wv = g.constant(w.clone());
            y.mul(wv).sum_all()
        }, 1.5e-1);
    }
}
