//! # ascend-tensor — minimal f32 tensors with reverse-mode autodiff
//!
//! The training substrate for the ASCEND reproduction: a row-major f32
//! [`Tensor`], a tape-based autodiff [`Graph`] whose [`Var`] handles carry
//! the operator set a ViT needs (matmul, batched matmul, permute, softmax,
//! GELU, normalization statistics, LSQ fake-quantization, distillation
//! losses), and [`optim`] with AdamW and LR schedules.
//!
//! The design goal is *correctness you can check*: every operator's gradient
//! is property-tested against central differences (`tests/gradcheck.rs`).
//!
//! ```
//! use ascend_tensor::{Graph, Tensor};
//!
//! let g = Graph::new();
//! let x = g.leaf(Tensor::from_vec(vec![1.0, 2.0], &[1, 2]));
//! let w = g.leaf(Tensor::from_vec(vec![0.5, -1.0, 0.25, 2.0], &[2, 2]));
//! let y = x.matmul(w).sum_all();
//! g.backward(y);
//! let gx = g.grad(x).expect("leaf gradient");
//! // d(sum(xW))/dx = row sums of Wᵀ = [0.5 − 1.0, 0.25 + 2.0]
//! assert!((gx.data()[0] - (-0.5)).abs() < 1e-6);
//! assert!((gx.data()[1] - 2.25).abs() < 1e-6);
//! ```

#![warn(missing_docs)]

pub mod graph;
pub mod init;
pub mod optim;
pub mod tensor;

pub use graph::{Graph, Var};
pub use tensor::Tensor;
