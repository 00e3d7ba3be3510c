//! `perfbench` — the end-to-end and per-layer benchmark of the ASCEND
//! serving stack.
//!
//! One command runs a workload from seeded inputs, checks every output
//! against a serial forward of the same build, and prints every metric by
//! name with its unit; the last line of standard output is the result
//! object. `--trace 1` is the separate traced run that gives the
//! per-layer numbers. `compare` sets two directories of results side by
//! side against the bounds in `BENCHMARK.json`.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload interactive-m5 --seed 1 --seconds 20 --trace 0
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     compare .perfbench/results-a .perfbench/results-b
//! ```
//!
//! The benchmark only calls the program's public entry points (`Session`,
//! `ServePool::submit`/`collect`, `HttpServer`, `ModelRegistry`,
//! `load_backend`, `StageStats`) and speaks HTTP with its own client.

pub mod client;
pub mod compare;
pub mod host;
pub mod json;
pub mod models;
pub mod rng;
pub mod stats;
pub mod trace;
pub mod workloads;
