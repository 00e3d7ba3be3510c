//! `ascend-lint` — the workspace invariant checker.
//!
//! The runtime suite proves ASCEND's core guarantees dynamically: parallel
//! `ServePool` output is bit-identical to serial, artifacts fail closed on
//! corruption, serving errors are typed `ScError`s. Nothing *static*
//! stopped a future change from sneaking a panicking `unwrap()`, a
//! wall-clock read, or a `HashMap` iteration into a forward path the tests
//! happen not to cover. This crate is that static gate: a hand-rolled,
//! std-only token-level analysis over the workspace's own sources,
//! enforcing the invariants on every push.
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
//! * [`baseline`] — the per-rule/per-crate ratchet (counts may only go
//!   down), mirroring the CI test-count floor.
//! * [`workspace`] — file discovery and the whole-tree run.
//! * [`report`] — the `--check` / `--report` renderings.

#![forbid(unsafe_code)]

pub mod baseline;
pub mod lexer;
pub mod report;
pub mod rules;
pub mod scope;
pub mod waiver;
pub mod workspace;
