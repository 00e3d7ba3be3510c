//! The invariant rules and the engine that applies them.
//!
//! Each rule backstops a runtime guarantee the test suite already proves
//! dynamically (see `RULES.md` for the catalog and the mapping to tests).
//! Rules come in two severities:
//!
//! * **Deny** — zero unwaived violations allowed anywhere in the rule's
//!   scope. These protect the hot-path contracts directly.
//! * **Ratchet** — existing violations are tolerated up to the counts in
//!   the checked-in baseline (`crates/lint/baseline.tsv`); the count per
//!   (rule, crate) may only go *down*, exactly like the CI test-count
//!   floor may only go up.
//!
//! Detection is token-sequence matching over [`crate::lexer`] output:
//! comments, strings, and `#[cfg(test)]` regions can never fire a rule.

use std::collections::BTreeMap;

use crate::lexer::{lex, Tok};
use crate::scope;
use crate::waiver;

/// Rule: no `unwrap`/`expect`/`panic!`/`unreachable!`/`todo!`/
/// `unimplemented!` in hot-path modules.
pub const NO_PANIC_HOT: &str = "no-panic-in-hot-path";
/// Rule: same panic surface, counted (ratcheted) in the rest of the
/// library code.
pub const NO_PANIC_LIB: &str = "no-panic-in-lib";
/// Rule: no wall-clock reads in forward/compute crates.
pub const NO_WALLCLOCK: &str = "no-wallclock-in-forward";
/// Rule: no `HashMap`/`HashSet` in deterministic-output crates.
pub const NO_UNORDERED: &str = "no-unordered-iteration";
/// Rule: no potentially-truncating `as` casts in the artifact codec.
pub const NO_LOSSY_CAST: &str = "no-lossy-cast-in-io";
/// Rule: every crate root must carry `#![forbid(unsafe_code)]`.
pub const MISSING_FORBID_UNSAFE: &str = "missing-forbid-unsafe";
/// Rule: no potentially-blocking operation (channel `recv`/`send`,
/// thread `join`, `ServePool::submit`, file I/O, `thread::sleep`, a
/// `Condvar::wait` on a *different* mutex) while a lock guard is live.
pub const NO_BLOCKING_UNDER_LOCK: &str = "no-blocking-under-lock";
/// Rule: the workspace-wide lock-acquisition graph (unioned through
/// direct callees by name) must stay acyclic — no AB-BA inversions.
pub const LOCK_ORDER: &str = "lock-order";
/// Rule: `Condvar::wait` results must be re-checked in a `while`-style
/// loop, never consumed from a bare `if` or straight-line code.
pub const CONDVAR_WAIT_LOOP: &str = "condvar-wait-loop";
/// Meta-rule: a comment that looks like a waiver but does not parse.
pub const INVALID_WAIVER: &str = "invalid-waiver";
/// Meta-rule: a well-formed waiver no violation ever matched.
pub const UNUSED_WAIVER: &str = "unused-waiver";

/// Every real (waivable) rule id, in catalog order.
pub const RULES: [&str; 9] = [
    NO_PANIC_HOT,
    NO_PANIC_LIB,
    NO_WALLCLOCK,
    NO_UNORDERED,
    NO_LOSSY_CAST,
    MISSING_FORBID_UNSAFE,
    NO_BLOCKING_UNDER_LOCK,
    LOCK_ORDER,
    CONDVAR_WAIT_LOOP,
];

/// One rule hit at a source location.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Rule id (one of the constants above).
    pub rule: &'static str,
    /// Workspace-relative path, forward slashes.
    pub path: String,
    /// Crate the path belongs to (directory name under `crates/`, or
    /// `examples`).
    pub crate_name: String,
    /// 1-based line.
    pub line: u32,
    /// Human-readable description.
    pub msg: String,
}

impl Violation {
    /// `path:line rule — msg`, the clickable report form.
    pub fn render(&self) -> String {
        format!("{}:{} {} — {}", self.path, self.line, self.rule, self.msg)
    }
}

/// Whether a rule ratchets against the baseline instead of failing
/// outright: everything except [`NO_PANIC_LIB`] is deny-class.
pub fn is_ratcheted(rule: &str) -> bool {
    rule == NO_PANIC_LIB
}

/// The crate a workspace-relative path belongs to.
pub fn crate_of(rel_path: &str) -> String {
    let mut parts = rel_path.split('/');
    match parts.next() {
        Some("crates") => parts.next().unwrap_or("unknown").to_string(),
        Some("examples") => "examples".to_string(),
        _ => "unknown".to_string(),
    }
}

/// Hot-path modules: the serving/backend/engine forward files, every
/// `sc-*` kernel crate, the HTTP front-end (the whole `ascend-http`
/// crate — a panic there kills a socket thread or the listener, so it is
/// held to the same deny-class bar), the model registry
/// (`ascend-registry` — its lock/warm/evict machinery runs on request
/// threads, and a panic while the slot table is mid-update wedges every
/// model behind the poisoned mutex), and the `ascend-obs` observability
/// primitives (they run inside pool workers and connection threads — a
/// panic in a metric update takes the request down with it).
fn in_hot_path(rel: &str) -> bool {
    matches!(
        rel,
        "crates/core/src/serve.rs"
            | "crates/core/src/session.rs"
            | "crates/core/src/backend.rs"
            | "crates/core/src/engine.rs"
            | "crates/core/src/instrument.rs"
    ) || rel.starts_with("crates/sc-core/src/")
        || rel.starts_with("crates/sc-nonlinear/src/")
        || rel.starts_with("crates/sc-hw/src/")
        || rel.starts_with("crates/obs/src/")
        || rel.starts_with("crates/registry/src/")
        || rel.starts_with("crates/http/src/")
}

/// Crates whose outputs must be bit-identical across runs and worker
/// counts — unordered iteration is banned here.
fn in_forward_scope(rel: &str) -> bool {
    matches!(
        crate_of(rel).as_str(),
        "sc-core" | "sc-nonlinear" | "sc-hw" | "tensor" | "vit" | "io" | "core"
    )
}

/// Files where wall-clock reads are deny-class: every library file in the
/// workspace *except* `ascend-obs` (the one sanctioned timing authority —
/// all durations flow through its `StageTimer`/histograms/trace ring),
/// the linter itself, and per-crate tooling bins under `src/bin/`.
/// Serving code is in scope on purpose: its few sanctioned timestamp
/// sites (the admission stamp, the queue-wait/service split, the
/// `/metrics` uptime anchor) each carry an explicit waiver stating why
/// the read can never reach the logits.
fn in_wallclock_scope(rel: &str) -> bool {
    rel.starts_with("crates/")
        && rel.contains("/src/")
        && !rel.contains("/src/bin/")
        && !rel.starts_with("crates/obs/")
        && !rel.starts_with("crates/lint/")
}

/// The artifact codec: parsing paths must fail closed, never truncate.
fn in_io_scope(rel: &str) -> bool {
    rel.starts_with("crates/io/src/")
}

/// Crate roots that must carry `#![forbid(unsafe_code)]`: every `lib.rs`
/// and `main.rs` under `crates/*/src`, every extra binary under
/// `crates/*/src/bin/` (each is its own crate root — the attribute on
/// `lib.rs` does not cover it), and every top-level bin/lib file of the
/// `examples` crate.
fn is_crate_root(rel: &str) -> bool {
    (rel.starts_with("crates/") && (rel.ends_with("/src/lib.rs") || rel.ends_with("/src/main.rs")))
        || (rel.starts_with("crates/") && rel.contains("/src/bin/") && rel.ends_with(".rs"))
        || (rel.starts_with("examples/") && rel.ends_with(".rs") && rel.matches('/').count() == 1)
}

/// Integer targets an `as` cast can truncate into from a wider source.
const NARROW_INTS: [&str; 8] = ["u8", "u16", "u32", "i8", "i16", "i32", "usize", "isize"];

/// Macro names whose invocation aborts instead of returning an error.
const PANIC_MACROS: [&str; 4] = ["panic", "unreachable", "todo", "unimplemented"];

/// One file's analysis, before waiver application: the per-file
/// violations, the waivers available to consume them, and the scope
/// analysis the workspace-wide [`lock_order`] phase reads.
///
/// The lint pipeline is split in three so cross-file rules stay
/// per-line-waivable: [`analyze_file`] per file → [`lock_order`] over
/// all files → [`finish`] per file (waivers + meta-violations).
/// [`lint_source`] composes all three for the single-file case.
#[derive(Debug)]
pub struct FileLint {
    /// Workspace-relative path, forward slashes.
    pub path: String,
    /// Crate the path belongs to.
    pub crate_name: String,
    /// Per-function scope analysis (lock sites, calls, blocking ops).
    pub fns: Vec<scope::FnScope>,
    /// Pre-waiver violations from the per-file rules.
    raw: Vec<Violation>,
    /// Waivers extracted from the file's comments.
    waivers: Vec<waiver::Waiver>,
}

impl FileLint {
    /// Well-formed waivers the file carries (for `--report` statistics).
    pub fn waiver_count(&self) -> usize {
        self.waivers.iter().filter(|w| w.malformed.is_none()).count()
    }
}

/// Renders a held-site list for a message: `` `a` + `b` ``.
fn site_list(sites: &[String]) -> String {
    sites
        .iter()
        .map(|s| format!("`{s}`"))
        .collect::<Vec<_>>()
        .join(" + ")
}

/// Phase 1: runs every per-file rule over one source file.
pub fn analyze_file(rel_path: &str, src: &str) -> FileLint {
    let toks = lex(src);
    let waivers = waiver::extract(&toks);
    let crate_name = crate_of(rel_path);
    let mut raw: Vec<Violation> = Vec::new();
    let mk = |rule: &'static str, line: u32, msg: String| Violation {
        rule,
        path: rel_path.to_string(),
        crate_name: crate_name.clone(),
        line,
        msg,
    };

    let code: Vec<&Tok> = toks.iter().filter(|t| t.is_code() && !t.in_test).collect();

    // --- panic surface (hot-path deny + library ratchet) ------------------
    let panic_rule = if in_hot_path(rel_path) {
        NO_PANIC_HOT
    } else {
        NO_PANIC_LIB
    };
    for (i, t) in code.iter().enumerate() {
        let next_is = |s: &str| matches!(code.get(i + 1), Some(n) if n.is(s));
        let prev_is = |s: &str| i > 0 && code[i - 1].is(s);
        if PANIC_MACROS.contains(&t.text.as_str()) && next_is("!") {
            raw.push(mk(
                panic_rule,
                t.line,
                format!("`{}!` aborts instead of returning an error", t.text),
            ));
        }
        if (t.text == "unwrap" || t.text == "expect") && prev_is(".") && next_is("(") {
            raw.push(mk(
                panic_rule,
                t.line,
                format!(
                    "`.{}()` panics on the error path; return a typed `ScError` instead",
                    t.text
                ),
            ));
        }
    }

    // --- wall-clock reads outside the timing authority --------------------
    if in_wallclock_scope(rel_path) {
        for (i, t) in code.iter().enumerate() {
            if t.is("Instant")
                && matches!(code.get(i + 1), Some(a) if a.is(":"))
                && matches!(code.get(i + 2), Some(b) if b.is(":"))
                && matches!(code.get(i + 3), Some(n) if n.is("now"))
            {
                raw.push(mk(
                    NO_WALLCLOCK,
                    t.line,
                    "`Instant::now()` makes output depend on the clock".to_string(),
                ));
            }
            if t.is("SystemTime") {
                raw.push(mk(
                    NO_WALLCLOCK,
                    t.line,
                    "`SystemTime` makes output depend on the clock".to_string(),
                ));
            }
        }
    }

    // --- unordered containers in deterministic crates ---------------------
    if in_forward_scope(rel_path) {
        for t in &code {
            if t.is("HashMap") || t.is("HashSet") {
                raw.push(mk(
                    NO_UNORDERED,
                    t.line,
                    format!(
                        "`{}` iteration order is unspecified; use `BTreeMap`/`BTreeSet` in \
                         bit-identical-output crates",
                        t.text
                    ),
                ));
            }
        }
    }

    // --- lossy casts in the artifact codec --------------------------------
    if in_io_scope(rel_path) {
        for (i, t) in code.iter().enumerate() {
            if t.is("as") {
                if let Some(target) = code.get(i + 1) {
                    if NARROW_INTS.contains(&target.text.as_str()) {
                        raw.push(mk(
                            NO_LOSSY_CAST,
                            t.line,
                            format!(
                                "`as {}` silently truncates; use `{}::try_from` in codec paths",
                                target.text, target.text
                            ),
                        ));
                    }
                }
            }
        }
    }

    // --- missing #![forbid(unsafe_code)] on crate roots -------------------
    if is_crate_root(rel_path) {
        let all_code: Vec<&Tok> = toks.iter().filter(|t| t.is_code()).collect();
        let has = all_code.windows(8).any(|w| {
            w[0].is("#")
                && w[1].is("!")
                && w[2].is("[")
                && w[3].is("forbid")
                && w[4].is("(")
                && w[5].is("unsafe_code")
                && w[6].is(")")
                && w[7].is("]")
        });
        if !has {
            raw.push(mk(
                MISSING_FORBID_UNSAFE,
                1,
                "crate root lacks `#![forbid(unsafe_code)]`".to_string(),
            ));
        }
    }

    // --- concurrency discipline (scope-aware) -----------------------------
    let fns = scope::analyze(&toks, &format!("{crate_name}:"));
    for f in &fns {
        for b in &f.blocking {
            if !b.held.is_empty() {
                raw.push(mk(
                    NO_BLOCKING_UNDER_LOCK,
                    b.line,
                    format!(
                        "`{}` in `{}` may block while lock guard(s) {} are held — every \
                         thread contending for the lock stalls behind it; drop the guard first",
                        b.what,
                        f.name,
                        site_list(&b.held)
                    ),
                ));
            }
        }
        for w in &f.waits {
            if !w.held_other.is_empty() {
                raw.push(mk(
                    NO_BLOCKING_UNDER_LOCK,
                    w.line,
                    format!(
                        "`Condvar::{}` in `{}` releases only its own mutex; guard(s) {} stay \
                         held across the wait",
                        w.what,
                        f.name,
                        site_list(&w.held_other)
                    ),
                ));
            }
            if !w.in_loop {
                raw.push(mk(
                    CONDVAR_WAIT_LOOP,
                    w.line,
                    format!(
                        "`Condvar::{}` in `{}` outside a loop — spurious wakeups require a \
                         while-style recheck of the condition",
                        w.what, f.name
                    ),
                ));
            }
        }
    }

    FileLint {
        path: rel_path.to_string(),
        crate_name,
        fns,
        raw,
        waivers,
    }
}

/// Phase 2: the workspace-wide lock-order analysis.
///
/// Builds the lock-acquisition graph — a direct edge `A → B` whenever a
/// function acquires site `B` while holding `A`, plus union edges through
/// *direct* callees matched by name (`A → B` when a function holding `A`
/// calls a function that acquires `B`) — and flags every edge that
/// participates in a cycle. An `A → B` / `B → A` pair is exactly an AB-BA
/// inversion; a self-edge is a re-entrant acquisition, which deadlocks
/// `std::sync::Mutex` outright. Violations anchor at the acquiring (or
/// calling) line in the *caller*, so each end of an inversion is
/// individually waivable.
pub fn lock_order(files: &[FileLint]) -> Vec<Violation> {
    use std::collections::BTreeSet;

    // Direct acquisitions per function name, merged workspace-wide. Two
    // crates defining same-named helpers merge — a documented
    // over-approximation that keeps the union O(names).
    let mut fn_sites: BTreeMap<&str, BTreeSet<&str>> = BTreeMap::new();
    for fl in files {
        for f in &fl.fns {
            let entry = fn_sites.entry(f.name.as_str()).or_default();
            for a in &f.acquires {
                entry.insert(a.site.as_str());
            }
        }
    }

    // Edge instances: (from, to, path, line, via-callee or "").
    let mut edges: BTreeSet<(String, String, String, u32, String)> = BTreeSet::new();
    for fl in files {
        for f in &fl.fns {
            for a in &f.acquires {
                for h in &a.held {
                    edges.insert((h.clone(), a.site.clone(), fl.path.clone(), a.line, String::new()));
                }
            }
            for c in &f.calls {
                if c.held.is_empty() {
                    continue;
                }
                if let Some(sites) = fn_sites.get(c.callee.as_str()) {
                    for s in sites {
                        for h in &c.held {
                            edges.insert((
                                h.clone(),
                                (*s).to_string(),
                                fl.path.clone(),
                                c.line,
                                c.callee.clone(),
                            ));
                        }
                    }
                }
            }
        }
    }

    // Site-level adjacency for cycle detection.
    let mut adj: BTreeMap<&str, BTreeSet<&str>> = BTreeMap::new();
    for (from, to, ..) in &edges {
        adj.entry(from.as_str()).or_default().insert(to.as_str());
    }
    // BFS: shortest path `from → … → to`, as site names.
    let path_between = |from: &str, to: &str| -> Option<Vec<String>> {
        let mut prev: BTreeMap<&str, &str> = BTreeMap::new();
        let mut queue = std::collections::VecDeque::from([from]);
        while let Some(n) = queue.pop_front() {
            if n == to && !prev.is_empty() {
                let mut chain = vec![to.to_string()];
                let mut cur = to;
                while let Some(p) = prev.get(cur) {
                    chain.push((*p).to_string());
                    cur = p;
                    if cur == from {
                        break;
                    }
                }
                chain.reverse();
                return Some(chain);
            }
            if let Some(next) = adj.get(n) {
                for m in next {
                    if !prev.contains_key(m) {
                        prev.insert(m, n);
                        queue.push_back(m);
                    }
                }
            }
        }
        None
    };

    let mut out = Vec::new();
    for (from, to, path, line, via) in &edges {
        let cycle = if from == to {
            Some(vec![from.clone()])
        } else {
            // The edge closes a cycle iff `to` reaches back to `from`.
            path_between(to, from)
        };
        let Some(back) = cycle else { continue };
        let mut chain: Vec<&str> = vec![from.as_str(), to.as_str()];
        chain.extend(back.iter().skip(1).map(String::as_str));
        if chain.last() != Some(&from.as_str()) {
            chain.push(from.as_str());
        }
        let cycle_str = chain.join(" -> ");
        let msg = if from == to {
            format!(
                "re-entrant acquisition of `{from}` (already held) — `std::sync::Mutex` \
                 is not re-entrant, this deadlocks"
            )
        } else if via.is_empty() {
            format!(
                "acquiring `{to}` while holding `{from}` inverts the lock order used \
                 elsewhere (cycle: {cycle_str}) — an AB-BA deadlock window"
            )
        } else {
            format!(
                "call to `{via}` acquires `{to}` while `{from}` is held, inverting the \
                 lock order used elsewhere (cycle: {cycle_str}) — an AB-BA deadlock window"
            )
        };
        out.push(Violation {
            rule: LOCK_ORDER,
            path: path.clone(),
            crate_name: crate_of(path),
            line: *line,
            msg,
        });
    }
    out
}

/// Phase 3: applies the file's waivers to its violations (per-file rules
/// plus any cross-file `cross` violations attributed to this file) and
/// surfaces malformed/unused waivers as meta-violations.
pub fn finish(file: FileLint, cross: Vec<Violation>) -> Vec<Violation> {
    let FileLint {
        path,
        crate_name,
        mut raw,
        mut waivers,
        ..
    } = file;
    raw.extend(cross);
    let mut out: Vec<Violation> = Vec::new();
    for v in raw {
        let matching = waivers.iter_mut().find(|w| {
            w.malformed.is_none()
                && (w.line == v.line || w.covers == v.line)
                && w.rules.iter().any(|r| r == v.rule)
        });
        match matching {
            Some(w) => w.used = true,
            None => out.push(v),
        }
    }
    for w in &waivers {
        if let Some(why) = &w.malformed {
            out.push(Violation {
                rule: INVALID_WAIVER,
                path: path.clone(),
                crate_name: crate_name.clone(),
                line: w.line,
                msg: format!("malformed waiver: {why}"),
            });
        } else if !w.used {
            out.push(Violation {
                rule: UNUSED_WAIVER,
                path: path.clone(),
                crate_name: crate_name.clone(),
                line: w.line,
                msg: format!(
                    "waiver for `{}` matched no violation; delete it",
                    w.rules.join(", ")
                ),
            });
        }
    }
    out.sort_by(|a, b| (a.line, a.rule).cmp(&(b.line, b.rule)));
    out
}

/// Lints one file's source in isolation: the per-file rules, a
/// single-file lock-order pass, and waiver application. The workspace
/// runner uses the phased API instead so `lock-order` sees every file.
pub fn lint_source(rel_path: &str, src: &str) -> Vec<Violation> {
    let file = analyze_file(rel_path, src);
    let cross = lock_order(std::slice::from_ref(&file));
    finish(file, cross)
}

/// Ratchet-class violations grouped per `(rule, crate)` key.
pub type RatchetMap = BTreeMap<(String, String), Vec<Violation>>;

/// Splits violations into deny-class and ratchet-class, the latter counted
/// per (rule, crate).
pub fn partition(violations: Vec<Violation>) -> (Vec<Violation>, RatchetMap) {
    let mut deny = Vec::new();
    let mut ratchet: RatchetMap = BTreeMap::new();
    for v in violations {
        if is_ratcheted(v.rule) {
            ratchet
                .entry((v.rule.to_string(), v.crate_name.clone()))
                .or_default()
                .push(v);
        } else {
            deny.push(v);
        }
    }
    (deny, ratchet)
}

/// Exposes waiver bookkeeping for reporting: how many waivers a file
/// carries (used by `--report` statistics).
pub fn count_waivers(src: &str) -> usize {
    waiver::extract(&lex(src))
        .iter()
        .filter(|w| w.malformed.is_none())
        .count()
}

#[cfg(test)]
mod tests {
    use super::*;

    const HOT: &str = "crates/core/src/serve.rs";
    const LIB: &str = "crates/vit/src/model.rs";
    const IO: &str = "crates/io/src/format.rs";
    const TOOLING_BIN: &str = "crates/bench/src/bin/fig8_dse.rs";

    fn rules_fired(path: &str, src: &str) -> Vec<&'static str> {
        lint_source(path, src).into_iter().map(|v| v.rule).collect()
    }

    #[test]
    fn unwrap_in_hot_path_is_deny_class() {
        let vs = lint_source(HOT, "fn f() { x.unwrap(); }");
        assert_eq!(vs.len(), 1);
        assert_eq!(vs[0].rule, NO_PANIC_HOT);
        assert_eq!(vs[0].line, 1);
        assert!(!is_ratcheted(NO_PANIC_HOT));
    }

    #[test]
    fn http_code_is_hot_path_but_tooling_bins_are_not() {
        // A panic in the HTTP front-end kills a socket thread: the whole
        // `ascend-http` crate is deny-class. A tooling bin stays on the
        // ratchet, but — being its own crate root — it must carry
        // `#![forbid(unsafe_code)]` itself.
        let src = "fn f() { x.unwrap(); }";
        for file in ["crates/http/src/server.rs", "crates/http/src/http1.rs"] {
            let vs = lint_source(file, src);
            assert_eq!(vs.len(), 1, "{file}");
            assert_eq!(vs[0].rule, NO_PANIC_HOT, "{file}");
        }
        let vs = lint_source(TOOLING_BIN, src);
        assert_eq!(vs.iter().filter(|v| v.rule == NO_PANIC_LIB).count(), 1);
        assert_eq!(vs.iter().filter(|v| v.rule == MISSING_FORBID_UNSAFE).count(), 1);
        let clean = lint_source(TOOLING_BIN, "#![forbid(unsafe_code)]\nfn f() {}");
        assert!(clean.is_empty());
    }

    #[test]
    fn unwrap_in_library_code_is_ratchet_class() {
        let vs = lint_source(LIB, "fn f() { x.unwrap(); y.expect(\"m\"); }");
        assert_eq!(vs.iter().filter(|v| v.rule == NO_PANIC_LIB).count(), 2);
        assert!(is_ratcheted(NO_PANIC_LIB));
    }

    #[test]
    fn panic_macros_fire_but_assert_does_not() {
        let src = "fn f() { assert!(ok); assert_eq!(a, b); panic!(\"boom\"); unreachable!(); }";
        let fired = rules_fired(HOT, src);
        assert_eq!(fired, [NO_PANIC_HOT, NO_PANIC_HOT]);
    }

    #[test]
    fn unwrap_or_variants_do_not_fire() {
        let src = "fn f() { x.unwrap_or(0); y.unwrap_or_else(|| 1); z.unwrap_or_default(); \
                   r.expect_end(); e.expect_err(\"m\"); }";
        assert!(rules_fired(HOT, src).is_empty());
    }

    #[test]
    fn commented_and_quoted_panics_do_not_fire() {
        let src = "// x.unwrap() would panic!\n/* y.expect(\"no\") */\n\
                   let s = \"unwrap() panic!\"; let r = r#\".unwrap()\"#;";
        assert!(rules_fired(HOT, src).is_empty());
    }

    #[test]
    fn test_module_panics_do_not_fire() {
        let src = "fn live() {}\n#[cfg(test)]\nmod tests {\n  #[test]\n  fn t() { x.unwrap(); panic!(); }\n}";
        assert!(rules_fired(HOT, src).is_empty());
    }

    #[test]
    fn instant_now_is_deny_class_everywhere_but_the_timing_authority() {
        let src = "use std::time::Instant;\nfn f() { let t = Instant::now(); }";
        let vs = lint_source(HOT, src);
        assert_eq!(vs.iter().filter(|v| v.rule == NO_WALLCLOCK).count(), 1);
        assert_eq!(
            vs.iter().find(|v| v.rule == NO_WALLCLOCK).map(|v| v.line),
            Some(2)
        );
        // The CLI and the HTTP front-end are library-surface code: a
        // clock read there needs a waiver naming why it is sanctioned.
        for file in ["crates/cli/src/main.rs", "crates/http/src/metrics.rs"] {
            assert!(
                lint_source(file, src).iter().any(|v| v.rule == NO_WALLCLOCK),
                "{file} must be in wallclock scope"
            );
        }
        // ascend-obs IS the timing authority: its clock reads are the
        // sanctioned ones every other crate routes through.
        assert!(lint_source("crates/obs/src/stage.rs", src)
            .iter()
            .all(|v| v.rule != NO_WALLCLOCK));
        // Tooling bins (the bench figures) measure time by nature.
        assert!(lint_source(TOOLING_BIN, src)
            .iter()
            .all(|v| v.rule != NO_WALLCLOCK));
    }

    #[test]
    fn obs_primitives_are_hot_path_for_the_panic_rule() {
        // A panic inside a metric update or span record runs on a pool
        // worker or connection thread: deny-class, like the serve layer.
        let vs = lint_source("crates/obs/src/metrics.rs", "fn f() { x.unwrap(); }");
        assert_eq!(vs.iter().filter(|v| v.rule == NO_PANIC_HOT).count(), 1);
        let vs = lint_source("crates/core/src/instrument.rs", "fn f() { x.unwrap(); }");
        assert_eq!(vs.iter().filter(|v| v.rule == NO_PANIC_HOT).count(), 1);
    }

    #[test]
    fn importing_instant_without_calling_now_is_fine() {
        let src = "use std::time::Instant;\nfn f(t: Instant) -> Instant { t }";
        assert!(rules_fired(HOT, src).iter().all(|r| *r != NO_WALLCLOCK));
    }

    #[test]
    fn system_time_fires_anywhere_in_forward_scope() {
        let src = "fn f() { let t = std::time::SystemTime::now(); }";
        assert!(rules_fired("crates/tensor/src/tensor.rs", src).contains(&NO_WALLCLOCK));
    }

    #[test]
    fn hashmap_fires_in_deterministic_crates_only() {
        let src =
            "use std::collections::HashMap;\nfn f() { let m: HashMap<u32, u32> = HashMap::new(); }";
        let vs = lint_source("crates/sc-core/src/bitstream.rs", src);
        assert!(vs.iter().any(|v| v.rule == NO_UNORDERED));
        assert!(lint_source("crates/bench/src/lib.rs", src)
            .iter()
            .all(|v| v.rule != NO_UNORDERED));
    }

    #[test]
    fn btreemap_is_always_fine() {
        let src = "use std::collections::BTreeMap;\nfn f() { let m: BTreeMap<u32, u32> = BTreeMap::new(); }";
        assert!(rules_fired("crates/sc-core/src/bitstream.rs", src).is_empty());
    }

    #[test]
    fn narrowing_casts_fire_in_io_only() {
        let src = "fn f(x: u64) -> usize { x as usize }";
        assert!(rules_fired(IO, src).contains(&NO_LOSSY_CAST));
        assert!(rules_fired("crates/core/src/artifact.rs", src)
            .iter()
            .all(|r| *r != NO_LOSSY_CAST));
    }

    #[test]
    fn widening_casts_do_not_fire() {
        let src = "fn f(x: u32) -> u64 { let a = x as u64; let b = x as f64; a }";
        assert!(rules_fired(IO, src).is_empty());
    }

    #[test]
    fn missing_forbid_unsafe_fires_on_crate_roots_only() {
        let bare = "pub fn f() {}";
        assert_eq!(
            rules_fired("crates/io/src/lib.rs", bare),
            [MISSING_FORBID_UNSAFE]
        );
        assert_eq!(
            rules_fired("crates/cli/src/main.rs", bare),
            [MISSING_FORBID_UNSAFE]
        );
        assert_eq!(
            rules_fired("examples/quickstart.rs", bare),
            [MISSING_FORBID_UNSAFE]
        );
        assert!(rules_fired("crates/io/src/format.rs", bare).is_empty());
        let good = "#![forbid(unsafe_code)]\npub fn f() {}";
        assert!(rules_fired("crates/io/src/lib.rs", good).is_empty());
    }

    #[test]
    fn waiver_suppresses_exactly_its_rule_on_its_line() {
        let src = "// ascend-lint: allow(no-panic-in-hot-path) -- clamp makes this total\n\
                   fn f() { x.unwrap(); }";
        assert!(rules_fired(HOT, src).is_empty());
        // Same waiver, wrong rule: violation survives AND the waiver is
        // flagged unused.
        let src = "// ascend-lint: allow(no-wallclock-in-forward) -- wrong rule\n\
                   fn f() { x.unwrap(); }";
        let fired = rules_fired(HOT, src);
        assert!(fired.contains(&NO_PANIC_HOT));
        assert!(fired.contains(&UNUSED_WAIVER));
    }

    #[test]
    fn trailing_waiver_works_on_the_same_line() {
        let src = "fn f() { x.unwrap() } // ascend-lint: allow(no-panic-in-hot-path) -- total by construction";
        assert!(rules_fired(HOT, src).is_empty());
    }

    #[test]
    fn waiver_does_not_leak_past_the_next_code_line() {
        let src = "// ascend-lint: allow(no-panic-in-hot-path) -- only the next line\n\
                   fn f() { x.unwrap(); }\n\
                   fn g() { y.unwrap(); }";
        let vs = lint_source(HOT, src);
        assert_eq!(vs.iter().filter(|v| v.rule == NO_PANIC_HOT).count(), 1);
        assert_eq!(
            vs.iter().find(|v| v.rule == NO_PANIC_HOT).map(|v| v.line),
            Some(3)
        );
    }

    #[test]
    fn malformed_waiver_is_a_violation() {
        let src = "// ascend-lint: allow(no-panic-in-hot-path)\nfn f() { x.unwrap(); }";
        let fired = rules_fired(HOT, src);
        assert!(fired.contains(&INVALID_WAIVER));
        // And it does NOT suppress the violation.
        assert!(fired.contains(&NO_PANIC_HOT));
    }

    #[test]
    fn one_waiver_can_cover_two_rules() {
        let src = "fn f() { let t = Instant::now().elapsed(); t.unwrap() }\
                   // ascend-lint: allow(no-panic-in-hot-path, no-wallclock-in-forward) -- report timing only";
        assert!(rules_fired(HOT, src).is_empty());
    }

    #[test]
    fn crate_of_maps_paths() {
        assert_eq!(crate_of("crates/sc-core/src/bsn.rs"), "sc-core");
        assert_eq!(crate_of("crates/core/src/serve.rs"), "core");
        assert_eq!(crate_of("examples/quickstart.rs"), "examples");
    }

    #[test]
    fn partition_routes_by_severity() {
        let vs = vec![
            Violation {
                rule: NO_PANIC_HOT,
                path: HOT.into(),
                crate_name: "core".into(),
                line: 1,
                msg: String::new(),
            },
            Violation {
                rule: NO_PANIC_LIB,
                path: LIB.into(),
                crate_name: "vit".into(),
                line: 2,
                msg: String::new(),
            },
        ];
        let (deny, ratchet) = partition(vs);
        assert_eq!(deny.len(), 1);
        assert_eq!(
            ratchet
                .get(&(NO_PANIC_LIB.to_string(), "vit".to_string()))
                .map(Vec::len),
            Some(1)
        );
    }

    #[test]
    fn recv_under_a_live_guard_is_flagged_at_the_blocking_line() {
        let src = "fn worker(rx: &Mutex<Receiver<u32>>) {\n\
                   \x20   let guard = rx.lock();\n\
                   \x20   let job = guard.recv();\n\
                   }";
        let vs = lint_source(HOT, src);
        assert_eq!(vs.len(), 1, "{vs:?}");
        assert_eq!(vs[0].rule, NO_BLOCKING_UNDER_LOCK);
        assert_eq!(vs[0].path, HOT);
        assert_eq!(vs[0].line, 3);
        assert!(vs[0].msg.contains("recv"), "{}", vs[0].msg);
        assert!(vs[0].msg.contains("core:rx"), "{}", vs[0].msg);
        assert!(!is_ratcheted(NO_BLOCKING_UNDER_LOCK));
    }

    #[test]
    fn blocking_after_the_guard_scope_closes_is_fine() {
        let src = "fn worker(rx: &Mutex<Receiver<u32>>) {\n\
                   \x20   let job = {\n\
                   \x20       let guard = rx.lock();\n\
                   \x20       guard.try_recv()\n\
                   \x20   };\n\
                   \x20   other.recv();\n\
                   }";
        assert!(rules_fired(HOT, src).is_empty());
    }

    #[test]
    fn ab_ba_inversion_is_flagged_at_both_acquiring_lines() {
        let src = "fn first(x: &S) {\n\
                   \x20   let g1 = x.a.lock();\n\
                   \x20   let g2 = x.b.lock();\n\
                   }\n\
                   fn second(x: &S) {\n\
                   \x20   let g2 = x.b.lock();\n\
                   \x20   let g1 = x.a.lock();\n\
                   }";
        let vs = lint_source(HOT, src);
        let order: Vec<_> = vs.iter().filter(|v| v.rule == LOCK_ORDER).collect();
        assert_eq!(order.len(), 2, "{vs:?}");
        assert_eq!((order[0].path.as_str(), order[0].line), (HOT, 3));
        assert_eq!((order[1].path.as_str(), order[1].line), (HOT, 7));
        assert!(order[0].msg.contains("inverts the lock order"), "{}", order[0].msg);
        assert!(order[0].msg.contains("core:a") && order[0].msg.contains("core:b"));
    }

    #[test]
    fn consistent_lock_order_across_functions_is_fine() {
        let src = "fn first(x: &S) {\n\
                   \x20   let g1 = x.a.lock();\n\
                   \x20   let g2 = x.b.lock();\n\
                   }\n\
                   fn second(x: &S) {\n\
                   \x20   let g1 = x.a.lock();\n\
                   \x20   let g2 = x.b.lock();\n\
                   }";
        assert!(rules_fired(HOT, src).is_empty());
    }

    #[test]
    fn reentrant_acquisition_of_the_same_site_is_a_self_deadlock() {
        let src = "fn f(x: &S) {\n\
                   \x20   let g = x.a.lock();\n\
                   \x20   let h = x.a.lock();\n\
                   }";
        let vs = lint_source(HOT, src);
        assert_eq!(vs.len(), 1, "{vs:?}");
        assert_eq!(vs[0].rule, LOCK_ORDER);
        assert_eq!(vs[0].line, 3);
        assert!(vs[0].msg.contains("re-entrant"), "{}", vs[0].msg);
    }

    #[test]
    fn lock_order_union_spans_files_through_a_named_callee() {
        let caller = "fn outer(x: &S) {\n\
                      \x20   let g = x.a.lock();\n\
                      \x20   helper(x);\n\
                      }";
        let callee = "fn helper(x: &S) {\n\
                      \x20   let g = x.b.lock();\n\
                      }\n\
                      fn other(x: &S) {\n\
                      \x20   let g = x.b.lock();\n\
                      \x20   let h = x.a.lock();\n\
                      }";
        let f1 = analyze_file("crates/core/src/a.rs", caller);
        let f2 = analyze_file("crates/core/src/b.rs", callee);
        let vs = lock_order(&[f1, f2]);
        assert_eq!(vs.len(), 2, "{vs:?}");
        let via = vs.iter().find(|v| v.path == "crates/core/src/a.rs").unwrap();
        assert_eq!(via.line, 3);
        assert!(via.msg.contains("helper"), "{}", via.msg);
        let direct = vs.iter().find(|v| v.path == "crates/core/src/b.rs").unwrap();
        assert_eq!(direct.line, 6);
    }

    #[test]
    fn condvar_wait_outside_a_loop_is_flagged() {
        let src = "fn f(m: &Mutex<bool>, cv: &Condvar) {\n\
                   \x20   let g = m.lock();\n\
                   \x20   let g2 = cv.wait(g);\n\
                   }";
        let vs = lint_source(HOT, src);
        assert_eq!(vs.len(), 1, "{vs:?}");
        assert_eq!(vs[0].rule, CONDVAR_WAIT_LOOP);
        assert_eq!(vs[0].line, 3);
        assert!(vs[0].msg.contains("loop"), "{}", vs[0].msg);
    }

    #[test]
    fn condvar_wait_in_a_while_recheck_loop_is_fine() {
        let src = "fn f(m: &Mutex<bool>, cv: &Condvar) {\n\
                   \x20   let mut g = m.lock();\n\
                   \x20   while !*g {\n\
                   \x20       g = cv.wait(g);\n\
                   \x20   }\n\
                   }";
        assert!(rules_fired(HOT, src).is_empty());
    }

    #[test]
    fn condvar_wait_with_a_second_guard_held_is_blocking() {
        // Waiting releases only its own mutex; any other guard stays
        // held for the whole sleep.
        let src = "fn f(x: &S) {\n\
                   \x20   let other = x.state.lock();\n\
                   \x20   let mut g = x.m.lock();\n\
                   \x20   while !*g {\n\
                   \x20       g = x.cv.wait(g);\n\
                   \x20   }\n\
                   }";
        let vs = lint_source(HOT, src);
        let fired: Vec<_> = vs.iter().map(|v| v.rule).collect();
        assert!(fired.contains(&NO_BLOCKING_UNDER_LOCK), "{vs:?}");
        assert!(!fired.contains(&CONDVAR_WAIT_LOOP), "{vs:?}");
        let v = vs.iter().find(|v| v.rule == NO_BLOCKING_UNDER_LOCK).unwrap();
        assert_eq!(v.line, 5);
        assert!(v.msg.contains("core:state"), "{}", v.msg);
    }

    #[test]
    fn waiver_suppresses_blocking_under_lock() {
        let src = "fn worker(rx: &Mutex<Receiver<u32>>) {\n\
                   \x20   let guard = rx.lock();\n\
                   \x20   // ascend-lint: allow(no-blocking-under-lock) -- designed pull point\n\
                   \x20   let job = guard.recv();\n\
                   }";
        assert!(rules_fired(HOT, src).is_empty());
        // A waiver for the wrong rule leaves the violation AND goes unused.
        let src = "fn worker(rx: &Mutex<Receiver<u32>>) {\n\
                   \x20   let guard = rx.lock();\n\
                   \x20   // ascend-lint: allow(lock-order) -- wrong rule\n\
                   \x20   let job = guard.recv();\n\
                   }";
        let fired = rules_fired(HOT, src);
        assert!(fired.contains(&NO_BLOCKING_UNDER_LOCK));
        assert!(fired.contains(&UNUSED_WAIVER));
    }

    #[test]
    fn waiver_suppresses_a_cross_file_lock_order_violation() {
        // The inversion is computed workspace-wide but lands on a line,
        // so the normal per-line waiver machinery covers it.
        let src = "fn first(x: &S) {\n\
                   \x20   let g1 = x.a.lock();\n\
                   \x20   // ascend-lint: allow(lock-order) -- b is only probed, never held back\n\
                   \x20   let g2 = x.b.lock();\n\
                   }\n\
                   fn second(x: &S) {\n\
                   \x20   let g2 = x.b.lock();\n\
                   \x20   // ascend-lint: allow(lock-order) -- shutdown path, serialized by caller\n\
                   \x20   let g1 = x.a.lock();\n\
                   }";
        assert!(rules_fired(HOT, src).is_empty());
    }
}
