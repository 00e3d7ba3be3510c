//! `ascend-lint` — the workspace invariant checker.
//!
//! The runtime suite proves ASCEND's core guarantees dynamically: parallel
//! `ServePool` output is bit-identical to serial, artifacts fail closed on
//! corruption, serving errors are typed `ScError`s. The workspace rustc
//! and clippy lints (root `Cargo.toml`, `clippy.toml`) keep `unsafe`,
//! panics, clock reads, bare condvar waits, hash containers and
//! artifact-codec casts out of the code statically. This crate checks what
//! rustc and clippy cannot: a hand-rolled, std-only token-level analysis of
//! lock discipline (no blocking call while a guard is held, an acyclic lock
//! order) over the workspace's own sources on every push.
//!
//! * [`lexer`] — a real Rust surface lexer (comments, strings, raw
//!   strings, char literals, `#[cfg(test)]` regions), so rules never fire
//!   on commented-out or test code.
//! * [`scope`] — brace/scope structure over the token stream: function
//!   boundaries, lock-guard binding lifetimes, blocking/wait/call events
//!   — the substrate for the concurrency-discipline rules.
//! * [`rules`] — the invariant catalog (see `RULES.md`).
//! * [`waiver`] — `// ascend-lint: allow(rule) -- reason` escape hatch
//!   with a mandatory justification; unused and malformed waivers are
//!   themselves violations.
//! * [`workspace`] — file discovery and the whole-tree run.
//! * [`report`] — the `--check` renderings.

pub mod lexer;
pub mod report;
pub mod rules;
pub mod scope;
pub mod waiver;
pub mod workspace;
