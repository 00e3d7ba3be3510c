//! The invariant rules and the engine that applies them.
//!
//! Each rule backstops a runtime guarantee the test suite already proves
//! dynamically (see `RULES.md` for the catalog and the mapping to tests).
//! Every rule is deny-class: an unwaived violation fails the gate. Panics,
//! clock reads, hash containers, artifact-codec casts, `unsafe` and bare
//! condvar waits are checked by the workspace rustc and clippy lints (root
//! `Cargo.toml` and `clippy.toml`), which see types.
//!
//! Detection is token-sequence matching over [`crate::lexer`] output and
//! the [`crate::scope`] layer built on it: comments, strings, and
//! `#[cfg(test)]` regions can never fire a rule.

use std::collections::BTreeMap;

use crate::lexer::lex;
use crate::scope;
use crate::waiver;

/// Rule: no potentially-blocking operation (channel `recv`/`send`,
/// thread `join`, `ServePool::submit`, file I/O, `thread::sleep`, a
/// `Condvar::wait` on a *different* mutex) while a lock guard is live.
pub const NO_BLOCKING_UNDER_LOCK: &str = "no-blocking-under-lock";
/// Rule: the workspace-wide lock-acquisition graph (unioned through
/// direct callees by name) must stay acyclic — no AB-BA inversions.
pub const LOCK_ORDER: &str = "lock-order";
/// Meta-rule: a comment that looks like a waiver but does not parse.
pub const INVALID_WAIVER: &str = "invalid-waiver";
/// Meta-rule: a well-formed waiver no violation ever matched.
pub const UNUSED_WAIVER: &str = "unused-waiver";

/// Every real (waivable) rule id, in catalog order.
pub const RULES: [&str; 2] = [NO_BLOCKING_UNDER_LOCK, LOCK_ORDER];

/// One rule hit at a source location.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Rule id (one of the constants above).
    pub rule: &'static str,
    /// Workspace-relative path, forward slashes.
    pub path: String,
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

/// The crate a workspace-relative path belongs to (the directory name
/// under `crates/`, or `examples`): the prefix of its lock-site names.
pub fn crate_of(rel_path: &str) -> String {
    let mut parts = rel_path.split('/');
    match parts.next() {
        Some("crates") => parts.next().unwrap_or("unknown").to_string(),
        Some("examples") => "examples".to_string(),
        _ => "unknown".to_string(),
    }
}

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
    /// Per-function scope analysis (lock sites, calls, blocking ops).
    pub fns: Vec<scope::FnScope>,
    /// Pre-waiver violations from the per-file rules.
    raw: Vec<Violation>,
    /// Waivers extracted from the file's comments.
    waivers: Vec<waiver::Waiver>,
}

impl FileLint {
    /// Well-formed waivers the file carries (for the `--check` summary).
    pub fn waiver_count(&self) -> usize {
        self.waivers
            .iter()
            .filter(|w| w.malformed.is_none())
            .count()
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
    let mut raw: Vec<Violation> = Vec::new();
    let mk = |rule: &'static str, line: u32, msg: String| Violation {
        rule,
        path: rel_path.to_string(),
        line,
        msg,
    };

    // --- concurrency discipline (scope-aware) -----------------------------
    let fns = scope::analyze(&toks, &format!("{}:", crate_of(rel_path)));
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
        }
    }

    FileLint {
        path: rel_path.to_string(),
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
                    edges.insert((
                        h.clone(),
                        a.site.clone(),
                        fl.path.clone(),
                        a.line,
                        String::new(),
                    ));
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
                line: w.line,
                msg: format!("malformed waiver: {why}"),
            });
        } else if !w.used {
            out.push(Violation {
                rule: UNUSED_WAIVER,
                path: path.clone(),
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

#[cfg(test)]
mod tests {
    use super::*;

    const SERVE: &str = "crates/core/src/serve.rs";

    fn rules_fired(path: &str, src: &str) -> Vec<&'static str> {
        lint_source(path, src).into_iter().map(|v| v.rule).collect()
    }

    #[test]
    fn waiver_suppresses_exactly_its_rule_on_its_line() {
        let src = "// ascend-lint: allow(no-blocking-under-lock) -- designed pull point\n\
                   fn f(rx: &Mutex<Receiver<u32>>) { let guard = rx.lock(); let job = guard.recv(); }";
        assert!(rules_fired(SERVE, src).is_empty());
        // Same waiver, wrong rule: violation survives AND the waiver is
        // flagged unused.
        let src = "// ascend-lint: allow(lock-order) -- wrong rule\n\
                   fn f(rx: &Mutex<Receiver<u32>>) { let guard = rx.lock(); let job = guard.recv(); }";
        let fired = rules_fired(SERVE, src);
        assert!(fired.contains(&NO_BLOCKING_UNDER_LOCK));
        assert!(fired.contains(&UNUSED_WAIVER));
    }

    #[test]
    fn trailing_waiver_works_on_the_same_line() {
        let src =
            "fn f(rx: &Mutex<Receiver<u32>>) { let guard = rx.lock(); let job = guard.recv(); } \
                   // ascend-lint: allow(no-blocking-under-lock) -- designed pull point";
        assert!(rules_fired(SERVE, src).is_empty());
    }

    #[test]
    fn waiver_does_not_leak_past_the_next_code_line() {
        let src = "// ascend-lint: allow(no-blocking-under-lock) -- only the next line\n\
                   fn f(rx: &Mutex<Receiver<u32>>) { let guard = rx.lock(); let job = guard.recv(); }\n\
                   fn f(rx: &Mutex<Receiver<u32>>) { let guard = rx.lock(); let job = guard.recv(); }";
        let vs = lint_source(SERVE, src);
        assert_eq!(
            vs.iter()
                .filter(|v| v.rule == NO_BLOCKING_UNDER_LOCK)
                .count(),
            1
        );
        assert_eq!(
            vs.iter()
                .find(|v| v.rule == NO_BLOCKING_UNDER_LOCK)
                .map(|v| v.line),
            Some(3)
        );
    }

    #[test]
    fn malformed_waiver_is_a_violation() {
        let src = "// ascend-lint: allow(no-blocking-under-lock)\nfn f(rx: &Mutex<Receiver<u32>>) { let guard = rx.lock(); let job = guard.recv(); }";
        let fired = rules_fired(SERVE, src);
        assert!(fired.contains(&INVALID_WAIVER));
        // And it does NOT suppress the violation.
        assert!(fired.contains(&NO_BLOCKING_UNDER_LOCK));
    }

    #[test]
    fn one_waiver_can_cover_two_rules() {
        // A re-entrant acquisition followed by a `recv` under the guards
        // breaks both lock rules on the same line.
        let src = "fn f(x: &S) { let g = x.a.lock(); let h = x.a.lock(); x.rx.recv(); }";
        let fired = rules_fired(SERVE, src);
        assert!(fired.contains(&NO_BLOCKING_UNDER_LOCK), "{fired:?}");
        assert!(fired.contains(&LOCK_ORDER), "{fired:?}");
        let src = format!(
            "{src} // ascend-lint: allow(no-blocking-under-lock, lock-order) -- \
             fixture: both rules on one line"
        );
        assert!(rules_fired(SERVE, &src).is_empty());
    }

    #[test]
    fn crate_of_maps_paths() {
        assert_eq!(crate_of("crates/sc-core/src/bsn.rs"), "sc-core");
        assert_eq!(crate_of("crates/core/src/serve.rs"), "core");
        assert_eq!(crate_of("examples/quickstart.rs"), "examples");
    }

    #[test]
    fn recv_under_a_live_guard_is_flagged_at_the_blocking_line() {
        let src = "fn worker(rx: &Mutex<Receiver<u32>>) {\n\
                   \x20   let guard = rx.lock();\n\
                   \x20   let job = guard.recv();\n\
                   }";
        let vs = lint_source(SERVE, src);
        assert_eq!(vs.len(), 1, "{vs:?}");
        assert_eq!(vs[0].rule, NO_BLOCKING_UNDER_LOCK);
        assert_eq!(vs[0].path, SERVE);
        assert_eq!(vs[0].line, 3);
        assert!(vs[0].msg.contains("recv"), "{}", vs[0].msg);
        assert!(vs[0].msg.contains("core:rx"), "{}", vs[0].msg);
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
        assert!(rules_fired(SERVE, src).is_empty());
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
        let vs = lint_source(SERVE, src);
        let order: Vec<_> = vs.iter().filter(|v| v.rule == LOCK_ORDER).collect();
        assert_eq!(order.len(), 2, "{vs:?}");
        assert_eq!((order[0].path.as_str(), order[0].line), (SERVE, 3));
        assert_eq!((order[1].path.as_str(), order[1].line), (SERVE, 7));
        assert!(
            order[0].msg.contains("inverts the lock order"),
            "{}",
            order[0].msg
        );
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
        assert!(rules_fired(SERVE, src).is_empty());
    }

    #[test]
    fn reentrant_acquisition_of_the_same_site_is_a_self_deadlock() {
        let src = "fn f(x: &S) {\n\
                   \x20   let g = x.a.lock();\n\
                   \x20   let h = x.a.lock();\n\
                   }";
        let vs = lint_source(SERVE, src);
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
        let via = vs
            .iter()
            .find(|v| v.path == "crates/core/src/a.rs")
            .unwrap();
        assert_eq!(via.line, 3);
        assert!(via.msg.contains("helper"), "{}", via.msg);
        let direct = vs
            .iter()
            .find(|v| v.path == "crates/core/src/b.rs")
            .unwrap();
        assert_eq!(direct.line, 6);
    }

    #[test]
    fn condvar_wait_with_a_second_guard_held_is_blocking() {
        // Waiting releases only its own mutex; any other guard stays
        // held for the whole sleep.
        let src = "fn f(x: &S) {\n\
                   \x20   let other = x.state.lock();\n\
                   \x20   let g = x.m.lock();\n\
                   \x20   let g = x.cv.wait_while(g, |open| !*open);\n\
                   }";
        let vs = lint_source(SERVE, src);
        assert_eq!(vs.len(), 1, "{vs:?}");
        let v = &vs[0];
        assert_eq!(v.rule, NO_BLOCKING_UNDER_LOCK);
        assert_eq!(v.line, 4);
        assert!(v.msg.contains("core:state"), "{}", v.msg);
    }

    #[test]
    fn waiver_suppresses_blocking_under_lock() {
        let src = "fn worker(rx: &Mutex<Receiver<u32>>) {\n\
                   \x20   let guard = rx.lock();\n\
                   \x20   // ascend-lint: allow(no-blocking-under-lock) -- designed pull point\n\
                   \x20   let job = guard.recv();\n\
                   }";
        assert!(rules_fired(SERVE, src).is_empty());
        // A waiver for the wrong rule leaves the violation AND goes unused.
        let src = "fn worker(rx: &Mutex<Receiver<u32>>) {\n\
                   \x20   let guard = rx.lock();\n\
                   \x20   // ascend-lint: allow(lock-order) -- wrong rule\n\
                   \x20   let job = guard.recv();\n\
                   }";
        let fired = rules_fired(SERVE, src);
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
        assert!(rules_fired(SERVE, src).is_empty());
    }
}
