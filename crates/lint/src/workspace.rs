//! Workspace discovery and the whole-tree lint run.
//!
//! The walker visits exactly the source the invariants govern: every
//! `.rs` file under `crates/*/src` plus the top-level `examples/*.rs`
//! bins. Integration-test trees (`crates/*/tests`, the repo-level
//! `tests/`), criterion benches, vendored shims, and `target/` are test
//! or third-party code and are skipped wholesale — rules already skip
//! `#[cfg(test)]` regions inside the files they do visit.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

use crate::rules::{self, Violation};

/// Everything one lint run produces.
#[derive(Debug)]
pub struct Outcome {
    /// Unwaived violations (must be zero for the gate to pass).
    pub violations: Vec<Violation>,
    /// Files scanned.
    pub files: usize,
    /// Well-formed waivers found across the tree.
    pub waivers: usize,
}

/// Locates the workspace root: walks up from `start` to the first
/// directory whose `Cargo.toml` declares `[workspace]`.
///
/// # Errors
///
/// A description if no ancestor qualifies.
pub fn find_root(start: &Path) -> Result<PathBuf, String> {
    let mut dir = Some(start.to_path_buf());
    while let Some(d) = dir {
        let manifest = d.join("Cargo.toml");
        if let Ok(body) = std::fs::read_to_string(&manifest) {
            if body.contains("[workspace]") {
                return Ok(d);
            }
        }
        dir = d.parent().map(Path::to_path_buf);
    }
    Err(format!(
        "no workspace root found above {} (looked for a Cargo.toml with [workspace])",
        start.display()
    ))
}

/// Lists the workspace-relative paths of every file the linter governs,
/// sorted for deterministic reports.
///
/// # Errors
///
/// Propagates filesystem errors as strings.
pub fn source_files(root: &Path) -> Result<Vec<String>, String> {
    let mut out = Vec::new();
    let crates_dir = root.join("crates");
    let entries = std::fs::read_dir(&crates_dir)
        .map_err(|e| format!("cannot list {}: {e}", crates_dir.display()))?;
    for entry in entries {
        let entry = entry.map_err(|e| format!("read_dir: {e}"))?;
        let src = entry.path().join("src");
        if src.is_dir() {
            collect_rs(&src, root, &mut out)?;
        }
    }
    let examples = root.join("examples");
    if examples.is_dir() {
        let entries = std::fs::read_dir(&examples)
            .map_err(|e| format!("cannot list {}: {e}", examples.display()))?;
        for entry in entries {
            let entry = entry.map_err(|e| format!("read_dir: {e}"))?;
            let p = entry.path();
            if p.extension().is_some_and(|e| e == "rs") {
                out.push(relative(&p, root));
            }
        }
    }
    out.sort();
    Ok(out)
}

/// Recursively collects `.rs` files under `dir`.
fn collect_rs(dir: &Path, root: &Path, out: &mut Vec<String>) -> Result<(), String> {
    let entries =
        std::fs::read_dir(dir).map_err(|e| format!("cannot list {}: {e}", dir.display()))?;
    for entry in entries {
        let entry = entry.map_err(|e| format!("read_dir: {e}"))?;
        let p = entry.path();
        if p.is_dir() {
            collect_rs(&p, root, out)?;
        } else if p.extension().is_some_and(|e| e == "rs") {
            out.push(relative(&p, root));
        }
    }
    Ok(())
}

/// Workspace-relative path with forward slashes (stable across hosts).
fn relative(p: &Path, root: &Path) -> String {
    let rel = p.strip_prefix(root).unwrap_or(p);
    rel.components()
        .map(|c| c.as_os_str().to_string_lossy())
        .collect::<Vec<_>>()
        .join("/")
}

/// Runs every rule over the whole workspace.
///
/// # Errors
///
/// Propagates filesystem errors as strings.
pub fn run(root: &Path) -> Result<Outcome, String> {
    let files = source_files(root)?;
    // Phase 1: per-file rules + scope analysis.
    let mut lints = Vec::new();
    let mut waivers = 0usize;
    for rel in &files {
        let full = root.join(rel);
        let src = std::fs::read_to_string(&full)
            .map_err(|e| format!("cannot read {}: {e}", full.display()))?;
        let lint = rules::analyze_file(rel, &src);
        waivers += lint.waiver_count();
        lints.push(lint);
    }
    // Phase 2: the workspace-wide lock-order graph needs every file's
    // scope analysis at once (an AB-BA inversion spans functions and
    // crates); its violations are attributed back to the acquiring line.
    let mut cross: BTreeMap<String, Vec<Violation>> = BTreeMap::new();
    for v in rules::lock_order(&lints) {
        cross.entry(v.path.clone()).or_default().push(v);
    }
    // Phase 3: waivers apply per file.
    let mut violations = Vec::new();
    for lint in lints {
        let extra = cross.remove(&lint.path).unwrap_or_default();
        violations.extend(rules::finish(lint, extra));
    }
    Ok(Outcome {
        violations,
        files: files.len(),
        waivers,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn repo_root() -> PathBuf {
        // crates/lint → workspace root, two levels up.
        let here = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
        find_root(&here).expect("manifest dir sits inside the workspace")
    }

    #[test]
    fn find_root_locates_the_workspace_from_a_nested_dir() {
        let root = repo_root();
        assert!(root.join("crates/lint/Cargo.toml").is_file());
        assert!(root.join("Cargo.toml").is_file());
    }

    #[test]
    fn walker_sees_the_core_sources_and_skips_tests_and_vendor() {
        let files = source_files(&repo_root()).expect("walk");
        assert!(files.iter().any(|f| f == "crates/core/src/serve.rs"));
        assert!(files.iter().any(|f| f == "crates/lint/src/rules.rs"));
        assert!(files.iter().any(|f| f == "examples/serve_demo.rs"));
        assert!(files.iter().all(|f| !f.contains("/tests/")));
        assert!(files.iter().all(|f| !f.starts_with("vendor/")));
        assert!(files.iter().all(|f| !f.starts_with("target/")));
        assert!(files.iter().all(|f| !f.contains("/benches/")));
        // Sorted, deterministic.
        let mut sorted = files.clone();
        sorted.sort();
        assert_eq!(files, sorted);
    }
}
