//! # sc-core — stochastic computing substrate
//!
//! This crate implements the stochastic-computing (SC) foundation used by the
//! ASCEND reproduction: bitstreams, value encodings, stochastic number
//! generators, arithmetic primitives, bitonic sorting networks, deterministic
//! thermometer arithmetic and re-scaling blocks.
//!
//! ## Representations
//!
//! SC represents a number by a *bitstream*; the fraction of 1-bits carries the
//! value. Three encodings are supported (paper §II-A):
//!
//! * [`encoding::Unipolar`] — value `p ∈ [0, 1]` is the probability of 1s.
//! * [`encoding::Bipolar`] — value `v ∈ [−1, 1]` is `2p − 1`.
//! * [`encoding::Thermometer`] — *deterministic* encoding where all 1s appear
//!   at the head of the stream: a data `x` is represented with an `L`-bit
//!   sequence as `x = α·x_q` with `x_q = Σᵢ x[i] − L/2 ∈ [−L/2, L/2]`.
//!
//! The thermometer encoding underpins ASCEND's end-to-end deterministic
//! pipeline: multiplication becomes a truth table ([`ttmul`]), addition
//! becomes bitstream concatenation plus a bitonic sorting network ([`bsn`]),
//! and scale alignment becomes bit sub-sampling ([`rescale`]).
//!
//! ## Quickstart
//!
//! ```
//! use sc_core::encoding::Thermometer;
//! use sc_core::therm::ThermStream;
//!
//! // Encode 0.75 with an 8-bit thermometer code at scale 0.25.
//! let enc = Thermometer::new(8, 0.25)?;
//! let x: ThermStream = enc.encode(0.75);
//! assert_eq!(x.level(), 3);              // 0.75 / 0.25
//! assert!((x.value() - 0.75).abs() < 1e-9);
//! # Ok::<(), sc_core::ScError>(())
//! ```

#![warn(missing_docs)]

pub mod arith;
pub mod bitstream;
pub mod bsn;
pub mod encoding;
pub mod error;
pub mod rescale;
pub mod sng;
pub mod therm;
pub mod ttmul;

pub use bitstream::Bitstream;
pub use error::ScError;
pub use therm::ThermStream;
