//! # ascend-vit — the ViT-lite network substrate
//!
//! The network side of the ASCEND co-design: a compact Vision Transformer
//! (7 layers / 4 heads following \[24\], paper §VI-A) built on
//! [`ascend_tensor`], with everything the two-stage training pipeline needs:
//!
//! * [`norm`] — LayerNorm *and* the BatchNorm the paper swaps in for SC
//!   friendliness (§V);
//! * [`quant`] — LSQ fake quantization \[25\] and the `W·-A·-R·` precision
//!   plans (`W2-A2-R16` et al., following \[15\]);
//! * [`model`] — the ViT with per-block output taps for distillation and a
//!   switchable softmax (exact ↔ iterative approximate, in-graph and
//!   differentiable, enabling the approximate-softmax-aware fine-tune);
//! * [`data`] — SynthCIFAR, the seeded procedural stand-in for CIFAR-10/100
//!   (DESIGN.md, substitution S2);
//! * [`train`] — minibatch training with AdamW, cosine LR and the KD
//!   objective `ℓ_KL + β·(1/M)Σ ℓ_MSE` (§V).

#![warn(missing_docs)]

pub mod binder;
pub mod config;
pub mod data;
pub mod model;
pub mod norm;
pub mod quant;
pub mod train;

pub use config::{NormKind, SoftmaxKind, VitConfig};
pub use model::VitModel;
pub use quant::PrecisionPlan;
