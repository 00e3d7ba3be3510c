//! The workspace's static gates, checked from inside `cargo test`.
//!
//! Two gates guard the invariants behind bit-identical, panic-free serving:
//!
//! 1. **ascend-lint.** Lock discipline (no blocking under a lock, an
//!    acyclic lock order) must stay at zero violations (or carry a reasoned
//!    waiver); the linter runs here against the live tree, exactly as CI
//!    runs `--check`.
//! 2. **The workspace rustc and clippy lints.** `unsafe`, panics,
//!    wall-clock reads, bare condvar waits, hash containers and
//!    artifact-codec casts are denied by lints that only CI's clippy step
//!    runs over every target. These tests fail when the configuration that
//!    denies them is weakened: a lint dropped from the root
//!    `[workspace.lints.*]` tables, a path dropped from `clippy.toml`, or a
//!    member manifest that stops inheriting the workspace lints.

#![allow(
    clippy::expect_used,
    reason = "an integration test fails by panicking, helpers included"
)]

use std::path::{Path, PathBuf};

use ascend_lint::report;
use ascend_lint::workspace;

fn repo_root() -> PathBuf {
    // crates/lint -> crates -> workspace root
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(Path::parent)
        .expect("crates/lint sits two levels below the workspace root")
        .to_path_buf()
}

fn read(rel: &str) -> String {
    std::fs::read_to_string(repo_root().join(rel)).expect("workspace file is readable")
}

/// The TOML lines that carry content: `#` comments and blank lines
/// dropped (no key or value this test reads contains a `#`).
fn content_lines(toml: &str) -> Vec<&str> {
    toml.lines()
        .map(|l| l.split('#').next().unwrap_or("").trim())
        .filter(|l| !l.is_empty())
        .collect()
}

/// The `key = value` pairs of one `[header]` table, values unquoted.
fn table(toml: &str, header: &str) -> Vec<(String, String)> {
    let lines = content_lines(toml);
    let Some(start) = lines.iter().position(|l| *l == header) else {
        return Vec::new();
    };
    lines[start + 1..]
        .iter()
        .take_while(|l| !l.starts_with('['))
        .filter_map(|l| l.split_once('='))
        .map(|(k, v)| (k.trim().to_string(), v.trim().trim_matches('"').to_string()))
        .collect()
}

/// The body of the top-level array `key = [ … ]`, joined onto one line.
fn array(toml: &str, key: &str) -> String {
    let lines = content_lines(toml);
    let mut body = String::new();
    let mut open = false;
    for l in lines {
        if !open {
            match l.split_once('=') {
                Some((k, v)) if k.trim() == key => {
                    open = true;
                    body.push_str(v.trim());
                }
                _ => continue,
            }
        } else {
            body.push(' ');
            body.push_str(l);
        }
        if body.matches('[').count() == body.matches(']').count() {
            break;
        }
    }
    body
}

#[test]
fn workspace_has_no_deny_violations() {
    let root = repo_root();
    let outcome = workspace::run(&root).expect("lint run over the live workspace");
    assert!(
        outcome.files > 20,
        "walker found only {} files — the source walk is broken",
        outcome.files
    );
    let rendered: Vec<String> = outcome.violations.iter().map(|v| v.render()).collect();
    assert!(
        rendered.is_empty(),
        "lint violations in the workspace:\n{}",
        rendered.join("\n")
    );
}

#[test]
fn check_entrypoint_agrees_with_the_gate() {
    let root = repo_root();
    let outcome = workspace::run(&root).expect("lint run over the live workspace");
    let errors = report::check(&outcome);
    assert!(
        errors.is_empty(),
        "ascend-lint --check would fail CI:\n{}",
        errors.join("\n")
    );
}

#[test]
fn workspace_lints_deny_every_moved_rule() {
    let manifest = read("Cargo.toml");
    let clippy = table(&manifest, "[workspace.lints.clippy]");
    for lint in [
        // panics (outside test code, see clippy.toml)
        "unwrap_used",
        "expect_used",
        "panic",
        "unreachable",
        "todo",
        "unimplemented",
        "dbg_macro",
        // clock reads and hash containers (the paths are in clippy.toml)
        "disallowed_methods",
        "disallowed_types",
        // every exemption says why
        "allow_attributes_without_reason",
    ] {
        assert!(
            clippy.iter().any(|(k, v)| k == lint && v == "deny"),
            "[workspace.lints.clippy] must set `{lint} = \"deny\"`"
        );
    }
    let rust = table(&manifest, "[workspace.lints.rust]");
    assert!(
        rust.iter()
            .any(|(k, v)| k == "unsafe_code" && v == "forbid"),
        "[workspace.lints.rust] must set `unsafe_code = \"forbid\"` (`deny` \
         would let an inner #[allow] reopen it)"
    );
    assert!(
        rust.iter()
            .any(|(k, v)| k == "unfulfilled_lint_expectations" && v == "deny"),
        "[workspace.lints.rust] must deny unfulfilled_lint_expectations, \
         or a stale #[expect] lingers"
    );
    // The artifact codec denies every `as` at its crate root.
    assert!(
        read("crates/io/src/lib.rs")
            .lines()
            .any(|l| l.trim() == "#![deny(clippy::as_conversions)]"),
        "crates/io/src/lib.rs must carry #![deny(clippy::as_conversions)]"
    );
}

#[test]
fn clippy_toml_disallows_the_clock_and_the_hash_types() {
    let config = read("clippy.toml");
    let methods = array(&config, "disallowed-methods");
    for path in [
        "std::time::Instant::now",
        "std::time::SystemTime::now",
        // bare waits: the `_while` forms recheck their predicate
        "std::sync::Condvar::wait",
        "std::sync::Condvar::wait_timeout",
    ] {
        assert!(
            methods.contains(&format!("\"{path}\"")),
            "clippy.toml disallowed-methods must list {path}: {methods}"
        );
    }
    let types = array(&config, "disallowed-types");
    for path in ["std::collections::HashMap", "std::collections::HashSet"] {
        assert!(
            types.contains(&format!("\"{path}\"")),
            "clippy.toml disallowed-types must list {path}: {types}"
        );
    }
}

#[test]
fn every_member_inherits_the_workspace_lints() {
    let members = array(&read("Cargo.toml"), "members");
    let members: Vec<&str> = members
        .trim_matches(|c| c == '[' || c == ']')
        .split(',')
        .map(|m| m.trim().trim_matches('"'))
        .filter(|m| !m.is_empty())
        .collect();
    assert!(
        members.len() > 10,
        "workspace members not parsed: {members:?}"
    );
    for member in members {
        let manifest = read(&format!("{member}/Cargo.toml"));
        assert!(
            table(&manifest, "[lints]")
                .iter()
                .any(|(k, v)| k == "workspace" && v == "true"),
            "{member}/Cargo.toml lacks `[lints] workspace = true`: the crate \
             escapes every workspace lint"
        );
    }
}
