//! # sc-nonlinear — SC blocks for nonlinear functions
//!
//! Implements every nonlinear-function circuit family the ASCEND paper
//! discusses, at bit-accurate functional fidelity:
//!
//! | Family | Paper role | Module |
//! |--------|------------|--------|
//! | FSM / saturating counters (\[6\]–\[9\]) | baseline; saturates at 0 for negative GELU inputs (Fig. 2a) | [`fsm`] |
//! | Bernstein polynomials (\[18\]) | baseline; needs long streams + many SNGs (Fig. 2b) | [`bernstein`] |
//! | Naive selective interconnect (\[5\], \[15\]) | baseline; monotone-only (Fig. 2c) | [`si`] |
//! | **Gate-assisted SI** | **ASCEND §IV-A**: exact non-monotonic transfer (Fig. 2d, Fig. 4) | [`gate_si`] |
//! | FSM/binary softmax (\[17\]) | baseline for Table IV | [`softmax_fsm`] |
//! | **Iterative approximate softmax** | **ASCEND §IV-B**: Algorithm 1 on thermometer SC (Fig. 5) | [`softmax_iter`] |
//!
//! [`ref_fn`] provides float-exact references and [`mae`] the error harness
//! used by the table/figure benches.

#![warn(missing_docs)]

pub mod bernstein;
pub mod fsm;
pub mod gate_si;
pub mod mae;
pub mod ref_fn;
pub mod si;
pub mod softmax_fsm;
pub mod softmax_iter;

pub use gate_si::GateAssistedSi;
pub use softmax_iter::{IterSoftmaxBlock, IterSoftmaxConfig, IterSoftmaxDims};
