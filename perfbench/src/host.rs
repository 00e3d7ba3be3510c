//! Facts about the host and the process: the provenance block every
//! result carries, and the process's peak resident memory.

use crate::json::Value;

/// Cores the process may run on.
pub fn cores() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// The CPU model name from `/proc/cpuinfo`, or `"unknown"`.
pub fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|text| {
            text.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

/// `"release"` or `"debug"`: the profile this binary was built with.
pub fn build_profile() -> &'static str {
    if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    }
}

/// The commit checked out in the working directory, read from `.git`
/// without running git; `"unknown"` outside a git checkout (or when the
/// branch's ref is packed).
pub fn git_rev() -> String {
    let read = |path: &str| {
        std::fs::read_to_string(path)
            .ok()
            .map(|s| s.trim().to_string())
    };
    match read(".git/HEAD") {
        Some(head) => match head.strip_prefix("ref: ") {
            Some(reference) => read(&format!(".git/{reference}")),
            None => Some(head),
        },
        None => None,
    }
    .unwrap_or_else(|| "unknown".into())
}

/// A `kB` field of `/proc/self/status` in MiB.
fn status_mib(field: &str) -> Option<f64> {
    let text = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = text.lines().find(|l| l.starts_with(field))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Peak resident memory of this process so far (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    status_mib("VmHWM:").unwrap_or(0.0)
}

/// The host part of the provenance block.
pub fn provenance() -> Value {
    Value::obj()
        .with("cores", cores())
        .with("cpu_model", cpu_model())
        .with("build_profile", build_profile())
        .with("git_rev", git_rev())
        .with("os", std::env::consts::OS)
}
