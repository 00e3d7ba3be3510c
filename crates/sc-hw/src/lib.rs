//! # sc-hw — analytic synthesis-cost model for SC blocks
//!
//! The ASCEND paper reports area/delay from Synopsys Design Compiler with a
//! TSMC 28nm library (§VI-A). That toolchain is proprietary, so this crate
//! substitutes an *analytic, gate-count-based* model (DESIGN.md, S1):
//!
//! 1. [`cell`] defines a standard-cell library: per-cell area (µm²) and
//!    intrinsic delay (ns) with 28nm-class values, plus a wire/overhead
//!    factor standing in for placement and routing.
//! 2. [`blocks`] describes each SC block as a bag of cells with a critical
//!    path and a cycle count, derived from the *actual structure* of the
//!    simulated circuits (CAS counts from real bitonic schedules, tap and
//!    assist-gate counts from compiled gate-SI blocks, datapath widths from
//!    the softmax simulator's [`sc_nonlinear::IterSoftmaxDims`]).
//! 3. [`metrics`] defines [`metrics::HwCost`] (area, delay, ADP) and
//!    [`pareto`] the Pareto-front utilities for the design-space sweeps.
//!
//! Because every scaling law in the model is structural — BSN area
//! `Θ(n·log²n)`, gate-SI area linear in output BSL with a mux-tree constant,
//! sequential delay linear in BSL — relative comparisons (the paper's ADP
//! ratios and Pareto fronts) are preserved even where absolute µm² differ
//! from a real synthesis run.

#![warn(missing_docs)]

pub mod blocks;
pub mod cell;
pub mod metrics;
pub mod pareto;

pub use cell::{CellKind, CellLibrary};
pub use metrics::HwCost;
pub use pareto::{pareto_front, DesignPoint};
