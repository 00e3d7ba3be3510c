//! Brace/scope structure over the lexer's flat token stream.
//!
//! The token rules in [`crate::rules`] match fixed token windows; the
//! concurrency rules cannot — "a channel `recv()` while a `MutexGuard`
//! is live" is a property of *scopes*, not of any token window. This
//! module is the layer in between a lexer and a parser: it brace-matches
//! blocks, tracks function-item boundaries, and follows lock-guard
//! *bindings* (`let guard = m.lock()…`, `if let Ok(g) = m.lock()`, the
//! poison-recovery `let g = match m.lock` form) through their lexical
//! lifetime — scope end, `drop(guard)`, or end-of-statement for an
//! unbound temporary. On top of that structure it records four event
//! kinds per function, each annotated with the guard sites held at that
//! point:
//!
//! * [`Acquire`] — a `.lock()` / `.read()` / `.write()` acquisition.
//! * [`Call`] — a function or method call (fuel for the workspace-wide
//!   lock-order union in [`crate::rules::lock_order`]).
//! * [`Blocking`] — a potentially-blocking operation (`recv`, `send`,
//!   thread `join`, `ServePool::submit`, `thread::sleep`, file I/O).
//! * [`Wait`] — a `Condvar::wait`-family call, with the *other* guards
//!   that stay held across it.
//!
//! Known over-approximations, by design (the rules stay waivable):
//!
//! * Lock sites are named by the receiver identifier (`self.inner.lock()`
//!   → site `inner`), prefixed with the crate name by the caller — two
//!   different mutexes reached through same-named fields alias to one
//!   site.
//! * A shadowing rebind (`let g = a.lock(); let g = b.lock();`) keeps
//!   **both** guards held, which is exactly what Rust does: the shadowed
//!   guard lives until scope end. `drop(g)` releases only the newest
//!   binding.
//! * Closure bodies count as part of the enclosing function: a blocking
//!   call inside a closure built while a guard is held is flagged even
//!   though the closure may run later.

use crate::lexer::{Tok, TokKind};

/// A lock acquisition event.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Acquire {
    /// Site name: `{prefix}{receiver-ident}` (e.g. `registry:self`).
    pub site: String,
    /// 1-based source line of the `.lock()` call.
    pub line: u32,
    /// Sites whose guards were already live when this acquisition ran.
    pub held: Vec<String>,
}

/// A function or method call observed inside a function body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Call {
    /// Callee name (bare identifier — matched workspace-wide by name).
    pub callee: String,
    /// 1-based source line of the call.
    pub line: u32,
    /// Sites whose guards were live at the call.
    pub held: Vec<String>,
}

/// A potentially-blocking operation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Blocking {
    /// What blocks: `.recv()`, `.join()`, `thread::sleep`, `File::open`…
    pub what: String,
    /// 1-based source line.
    pub line: u32,
    /// Sites whose guards were live at the operation.
    pub held: Vec<String>,
}

/// A `Condvar::wait`-family call (`wait`, `wait_timeout`, `wait_while`,
/// `wait_timeout_while`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Wait {
    /// The wait method name.
    pub what: String,
    /// 1-based source line.
    pub line: u32,
    /// Guard sites that stay held across the wait, *excluding* the guard
    /// passed to the wait itself (a condvar releases only its own mutex).
    pub held_other: Vec<String>,
}

/// Everything the parser learned about one function item.
#[derive(Debug, Clone)]
pub struct FnScope {
    /// The function's name (bare identifier).
    pub name: String,
    /// 1-based line of the `fn` keyword.
    pub line: u32,
    /// Lock acquisitions, in source order.
    pub acquires: Vec<Acquire>,
    /// Calls, in source order.
    pub calls: Vec<Call>,
    /// Potentially-blocking operations, in source order.
    pub blocking: Vec<Blocking>,
    /// Condvar waits, in source order.
    pub waits: Vec<Wait>,
}

/// Methods that return a lock guard when called with no arguments.
const ACQUIRE_METHODS: [&str; 3] = ["lock", "read", "write"];
/// Methods that can block the calling thread. `.join()` counts only with
/// empty arguments (thread-handle join) — `slice.join(", ")` is string
/// glue, not a park.
const BLOCKING_METHODS: [&str; 5] = ["recv", "recv_timeout", "send", "join", "submit"];
/// The `Condvar` wait family.
const WAIT_METHODS: [&str; 4] = ["wait", "wait_timeout", "wait_while", "wait_timeout_while"];
/// Method-chain links after `.lock()` through which the value is still a
/// guard: `m.lock().unwrap()`, `.expect("…")`, `.map_err(…)?`, `.ok()`.
/// Any other continuation (`.len()`, field access…) means the guard was a
/// temporary that dies at the end of the statement.
const GUARD_CHAIN: [&str; 4] = ["unwrap", "expect", "map_err", "ok"];

/// Keywords that can precede `(` or occupy a binding position.
const KEYWORDS: [&str; 22] = [
    "if", "else", "while", "for", "loop", "match", "return", "break", "continue", "fn", "let",
    "in", "as", "move", "ref", "mut", "pub", "use", "impl", "where", "unsafe", "dyn",
];

fn is_keyword(s: &str) -> bool {
    KEYWORDS.contains(&s)
}

/// Parses the token stream into per-function scope analyses.
///
/// `site_prefix` is prepended to every lock-site name (the rules pass
/// `"{crate}:"` so sites are comparable across files but never collide
/// across crates). Tokens inside `#[cfg(test)]` / `#[test]` regions keep
/// the braces balanced but generate no functions or events — test code
/// may lock and block freely.
pub fn analyze(toks: &[Tok], site_prefix: &str) -> Vec<FnScope> {
    Parser::new(toks, site_prefix).run()
}

struct Block {
    is_fn_body: bool,
    fn_idx: Option<usize>,
}

struct Guard {
    var: String,
    site: String,
    depth: usize,
    temp: bool,
    alive: bool,
}

struct LetCtx {
    name: Option<String>,
    cond: bool,
    saw_match: bool,
}

struct Parser<'a> {
    code: Vec<&'a Tok>,
    prefix: &'a str,
    fns: Vec<FnScope>,
    blocks: Vec<Block>,
    guards: Vec<Guard>,
    /// `fn name` seen, body `{` not yet: (name, line, in_test).
    pending_fn: Option<(String, u32, bool)>,
    /// An `if let`/`while let` guard binding waiting for its block.
    pending_cond_guard: Option<(String, String)>,
    let_ctx: Option<LetCtx>,
    /// Token indices of method calls chained directly onto a lock
    /// acquisition (`self.lock().len()`) — calls on the guard itself.
    on_guard_calls: std::collections::BTreeSet<usize>,
}

impl<'a> Parser<'a> {
    fn new(toks: &'a [Tok], site_prefix: &'a str) -> Self {
        Parser {
            code: toks.iter().filter(|t| t.is_code()).collect(),
            prefix: site_prefix,
            fns: Vec::new(),
            blocks: Vec::new(),
            guards: Vec::new(),
            pending_fn: None,
            pending_cond_guard: None,
            let_ctx: None,
            on_guard_calls: std::collections::BTreeSet::new(),
        }
    }

    fn run(mut self) -> Vec<FnScope> {
        for i in 0..self.code.len() {
            let t = self.code[i];
            match t.text.as_str() {
                "{" => self.open_block(),
                "}" => self.close_block(),
                ";" => {
                    self.let_ctx = None;
                    self.pending_fn = None; // trait-method declaration
                    for g in &mut self.guards {
                        if g.temp {
                            g.alive = false;
                        }
                    }
                }
                "fn" => {
                    if let Some(name) = self.code.get(i + 1).filter(|n| n.kind == TokKind::Ident) {
                        self.pending_fn = Some((name.text.clone(), t.line, t.in_test));
                    }
                }
                "let" => self.let_ctx = Some(self.parse_let(i)),
                "match" => {
                    if let Some(lc) = &mut self.let_ctx {
                        lc.saw_match = true;
                    }
                }
                _ => {}
            }
            if t.kind == TokKind::Ident
                && matches!(self.code.get(i + 1), Some(n) if n.is("("))
                && !is_keyword(&t.text)
            {
                self.ident_call(i);
            }
        }
        self.fns
    }

    fn open_block(&mut self) {
        let mut fn_idx = None;
        let is_fn_body = self.pending_fn.is_some();
        if let Some((name, line, in_test)) = self.pending_fn.take() {
            if !in_test {
                self.fns.push(FnScope {
                    name,
                    line,
                    acquires: Vec::new(),
                    calls: Vec::new(),
                    blocking: Vec::new(),
                    waits: Vec::new(),
                });
                fn_idx = Some(self.fns.len() - 1);
            }
        }
        self.blocks.push(Block { is_fn_body, fn_idx });
        if let Some((var, site)) = self.pending_cond_guard.take() {
            self.guards.push(Guard {
                var,
                site,
                depth: self.blocks.len(),
                temp: false,
                alive: true,
            });
        }
        self.let_ctx = None;
    }

    fn close_block(&mut self) {
        let depth = self.blocks.len();
        for g in &mut self.guards {
            if g.alive && g.depth >= depth {
                g.alive = false;
            }
        }
        self.blocks.pop();
        self.let_ctx = None;
    }

    /// The function the current position belongs to, if any.
    fn cur_fn(&self) -> Option<usize> {
        self.blocks
            .iter()
            .rev()
            .find(|b| b.is_fn_body)
            .and_then(|b| b.fn_idx)
    }

    /// Live guard sites, in acquisition order, deduplicated.
    fn held_sites(&self) -> Vec<String> {
        let mut out = Vec::new();
        for g in self.guards.iter().filter(|g| g.alive) {
            if !out.contains(&g.site) {
                out.push(g.site.clone());
            }
        }
        out
    }

    /// Parses the binding position after a `let` at index `i`.
    fn parse_let(&self, i: usize) -> LetCtx {
        let cond = i > 0 && (self.code[i - 1].is("if") || self.code[i - 1].is("while"));
        let mut j = i + 1;
        // `let Ok(g)` / `let Some(g)` unwrap one constructor layer.
        if matches!(self.code.get(j), Some(t) if matches!(t.text.as_str(), "Ok" | "Some" | "Err"))
            && matches!(self.code.get(j + 1), Some(t) if t.is("("))
        {
            j += 2;
        }
        if matches!(self.code.get(j), Some(t) if t.is("mut")) {
            j += 1;
        }
        let name = match self.code.get(j) {
            Some(t) if t.kind == TokKind::Ident && !is_keyword(&t.text) => Some(t.text.clone()),
            _ => None,
        };
        LetCtx {
            name,
            cond,
            saw_match: false,
        }
    }

    /// Index just past the `)` matching the `(` at `open`.
    fn skip_parens(&self, open: usize) -> usize {
        let mut depth = 0usize;
        let mut j = open;
        while j < self.code.len() {
            if self.code[j].is("(") {
                depth += 1;
            } else if self.code[j].is(")") {
                depth -= 1;
                if depth == 0 {
                    return j + 1;
                }
            }
            j += 1;
        }
        self.code.len()
    }

    /// Dispatches an identifier followed by `(` — method call, bare call,
    /// lock acquisition, condvar wait, or blocking operation.
    fn ident_call(&mut self, i: usize) {
        let t = self.code[i];
        let name = t.text.as_str();
        let is_method = i > 0 && self.code[i - 1].is(".");
        let empty_args = matches!(self.code.get(i + 2), Some(n) if n.is(")"));
        if is_method && empty_args && ACQUIRE_METHODS.contains(&name) {
            self.acquisition(i);
            return;
        }
        if is_method && WAIT_METHODS.contains(&name) {
            if t.in_test {
                return;
            }
            if empty_args {
                // No guard argument: `Barrier::wait()`-style park.
                let held = self.held_sites();
                if let Some(f) = self.cur_fn() {
                    self.fns[f].blocking.push(Blocking {
                        what: format!(".{name}()"),
                        line: t.line,
                        held,
                    });
                }
            } else {
                self.condvar_wait(i);
            }
            return;
        }
        if t.in_test {
            return;
        }
        if is_method && (GUARD_CHAIN.contains(&name) || ACQUIRE_METHODS.contains(&name)) {
            return;
        }
        if name == "drop" && !is_method {
            // `drop(guard)` ends the newest binding of that name early.
            if let Some(arg) = self.code.get(i + 2).filter(|a| a.kind == TokKind::Ident) {
                if matches!(self.code.get(i + 3), Some(c) if c.is(")")) {
                    if let Some(g) = self
                        .guards
                        .iter_mut()
                        .rev()
                        .find(|g| g.alive && g.var == arg.text)
                    {
                        g.alive = false;
                        return;
                    }
                }
            }
        }
        let held = self.held_sites();
        let Some(f) = self.cur_fn() else { return };
        if is_method && BLOCKING_METHODS.contains(&name) && (name != "join" || empty_args) {
            self.fns[f].blocking.push(Blocking {
                what: format!(".{name}()"),
                line: t.line,
                held: held.clone(),
            });
        }
        // Qualified-path blocking: `thread::sleep(`, `File::open(`, `fs::*(`.
        if !is_method
            && i >= 3
            && self.code[i - 1].is(":")
            && self.code[i - 2].is(":")
            && self.code[i - 3].kind == TokKind::Ident
        {
            let qual = self.code[i - 3].text.as_str();
            let what = match (qual, name) {
                ("thread", "sleep") => Some("thread::sleep".to_string()),
                ("File", "open" | "create") => Some(format!("File::{name}")),
                ("fs", _) => Some(format!("fs::{name}")),
                _ => None,
            };
            if let Some(what) = what {
                self.fns[f].blocking.push(Blocking {
                    what,
                    line: t.line,
                    held: held.clone(),
                });
            }
        }
        // Calls *through* a guard reach the protected container (`Vec`,
        // `BTreeMap`…), not a workspace function — feeding them to the
        // by-name lock-order union would alias `guard.len()` with any
        // workspace `fn len` that happens to lock. Skip both forms: a
        // receiver that is a live guard variable, and a method chained
        // directly onto the acquisition.
        let through_guard = self.on_guard_calls.contains(&i)
            || (is_method
                && i >= 2
                && self.code[i - 2].kind == TokKind::Ident
                && self
                    .guards
                    .iter()
                    .any(|g| g.alive && !g.var.is_empty() && g.var == self.code[i - 2].text));
        if !through_guard {
            self.fns[f].calls.push(Call {
                callee: t.text.clone(),
                line: t.line,
                held,
            });
        }
    }

    /// Handles `receiver.lock()` (and RwLock `.read()`/`.write()`).
    fn acquisition(&mut self, i: usize) {
        let t = self.code[i];
        let receiver = if i >= 2 && self.code[i - 2].kind == TokKind::Ident {
            self.code[i - 2].text.as_str()
        } else {
            "expr"
        };
        let site = format!("{}{receiver}", self.prefix);
        if !t.in_test {
            let held = self.held_sites();
            if let Some(f) = self.cur_fn() {
                self.fns[f].acquires.push(Acquire {
                    site: site.clone(),
                    line: t.line,
                    held,
                });
            }
        }
        // Does the produced guard get bound, and to what?
        let mut j = i + 3; // past `( )`
        loop {
            match self.code.get(j) {
                Some(d)
                    if d.is(".")
                        && matches!(self.code.get(j + 1),
                            Some(m) if GUARD_CHAIN.contains(&m.text.as_str()))
                        && matches!(self.code.get(j + 2), Some(p) if p.is("(")) =>
                {
                    j = self.skip_parens(j + 2);
                }
                Some(q) if q.is("?") => j += 1,
                _ => break,
            }
        }
        let term = self.code.get(j).map(|t| t.text.as_str()).unwrap_or("");
        if term == "." {
            // `m.lock().foo(…)` — `foo` is called on the guard itself.
            self.on_guard_calls.insert(j + 1);
        }
        let depth = self.blocks.len();
        match &self.let_ctx {
            Some(lc) if lc.name.is_some() && lc.cond && term == "{" => {
                // `if let Ok(g) = m.lock() {` — binds into the next block.
                self.pending_cond_guard = Some((lc.name.clone().unwrap_or_default(), site));
            }
            Some(lc)
                if lc.name.is_some()
                    && !lc.cond
                    && (term == ";" || (lc.saw_match && term == "{")) =>
            {
                // `let g = m.lock()…;` or the poison-recovery
                // `let g = match m.lock() { … };` — a real binding,
                // live to the end of the enclosing block.
                self.guards.push(Guard {
                    var: lc.name.clone().unwrap_or_default(),
                    site,
                    depth,
                    temp: false,
                    alive: true,
                });
            }
            _ => {
                // Unbound (or chained-past) guard: a temporary that holds
                // the lock until the end of the statement.
                self.guards.push(Guard {
                    var: String::new(),
                    site,
                    depth,
                    temp: true,
                    alive: true,
                });
            }
        }
    }

    /// Handles `cv.wait(guard)` and the rest of the wait family.
    fn condvar_wait(&mut self, i: usize) {
        let t = self.code[i];
        let arg = self
            .code
            .get(i + 2)
            .filter(|a| a.kind == TokKind::Ident)
            .map(|a| a.text.clone());
        let own = arg.and_then(|a| {
            self.guards
                .iter()
                .enumerate()
                .rev()
                .find(|(_, g)| g.alive && g.var == a)
                .map(|(k, _)| k)
        });
        let mut held_other = Vec::new();
        for (k, g) in self.guards.iter().enumerate() {
            if g.alive && Some(k) != own && !held_other.contains(&g.site) {
                held_other.push(g.site.clone());
            }
        }
        if let Some(f) = self.cur_fn() {
            self.fns[f].waits.push(Wait {
                what: t.text.clone(),
                line: t.line,
                held_other,
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn analyze_src(src: &str) -> Vec<FnScope> {
        analyze(&lex(src), "t:")
    }

    fn only_fn(src: &str) -> FnScope {
        let fns = analyze_src(src);
        assert_eq!(fns.len(), 1, "expected one fn in {src:?}");
        fns.into_iter().next().unwrap()
    }

    #[test]
    fn function_boundaries_and_lines() {
        let fns = analyze_src("fn a() { }\nfn b() { }\n");
        assert_eq!(fns.len(), 2);
        assert_eq!((fns[0].name.as_str(), fns[0].line), ("a", 1));
        assert_eq!((fns[1].name.as_str(), fns[1].line), ("b", 2));
    }

    #[test]
    fn bound_guard_is_held_to_scope_end() {
        let fns = analyze_src(
            "fn f() {\n  let g = m.lock().unwrap();\n  x.recv();\n}\nfn h() { y.recv(); }",
        );
        assert_eq!(fns.len(), 2);
        let f = &fns[0];
        assert_eq!(f.blocking.len(), 1);
        assert_eq!(f.blocking[0].what, ".recv()");
        assert_eq!(f.blocking[0].line, 3);
        assert_eq!(f.blocking[0].held, ["t:m"]);
        // The guard does not leak into the next function.
        assert_eq!(fns[1].blocking[0].held, Vec::<String>::new());
    }

    #[test]
    fn guard_dies_with_its_block_not_the_function() {
        let f = only_fn("fn f() {\n  {\n    let g = m.lock().unwrap();\n  }\n  x.recv();\n}");
        assert_eq!(f.blocking[0].held, Vec::<String>::new());
    }

    #[test]
    fn drop_ends_the_held_region_early() {
        let f = only_fn("fn f() {\n  let g = m.lock().unwrap();\n  drop(g);\n  x.recv();\n}");
        assert_eq!(f.blocking[0].held, Vec::<String>::new());
    }

    #[test]
    fn shadowing_rebind_keeps_both_guards_held() {
        // Rust semantics: the shadowed guard is NOT dropped at the rebind;
        // it lives to scope end. Both locks are held.
        let f = only_fn(
            "fn f() {\n  let g = a.lock().unwrap();\n  let g = b.lock().unwrap();\n  x.recv();\n}",
        );
        assert_eq!(f.blocking[0].held, ["t:a", "t:b"]);
    }

    #[test]
    fn drop_after_shadowing_releases_only_the_newest_binding() {
        let f = only_fn(
            "fn f() {\n  let g = a.lock().unwrap();\n  let g = b.lock().unwrap();\n  drop(g);\n  x.recv();\n}",
        );
        assert_eq!(f.blocking[0].held, ["t:a"]);
    }

    #[test]
    fn unbound_lock_is_a_statement_temporary() {
        let f = only_fn("fn f() {\n  m.lock().unwrap().push(1);\n  x.recv();\n}");
        // The temporary guard died at the `;`, so recv holds nothing.
        assert_eq!(f.blocking[0].held, Vec::<String>::new());
        // But within its own statement it IS held.
        let f = only_fn("fn f() { rx.lock().unwrap().recv(); }");
        assert_eq!(f.blocking[0].held, ["t:rx"]);
    }

    #[test]
    fn chained_past_guard_does_not_bind() {
        // `let n = m.lock().unwrap().len();` — n is a usize, not a guard.
        let f = only_fn("fn f() {\n  let n = m.lock().unwrap().len();\n  x.recv();\n}");
        assert_eq!(f.blocking[0].held, Vec::<String>::new());
    }

    #[test]
    fn poison_recovery_match_form_binds_the_guard() {
        let f = only_fn(
            "fn f() {\n  let g = match m.lock() {\n    Ok(g) => g,\n    Err(p) => p.into_inner(),\n  };\n  x.recv();\n}",
        );
        assert_eq!(f.blocking.last().unwrap().held, ["t:m"]);
    }

    #[test]
    fn if_let_guard_binds_into_the_block_only() {
        let f = only_fn(
            "fn f() {\n  if let Ok(mut g) = m.lock() {\n    x.recv();\n  }\n  y.recv();\n}",
        );
        assert_eq!(f.blocking.len(), 2);
        assert_eq!(f.blocking[0].held, ["t:m"]);
        assert_eq!(f.blocking[1].held, Vec::<String>::new());
    }

    #[test]
    fn map_err_question_mark_chain_still_binds() {
        let f = only_fn(
            "fn f() -> Result<(), E> {\n  let mut g = m.lock().map_err(|e| drop_err(e))?;\n  x.recv();\n  Ok(())\n}",
        );
        assert_eq!(f.blocking[0].held, ["t:m"]);
    }

    #[test]
    fn acquire_records_already_held_sites() {
        let f =
            only_fn("fn f() {\n  let ga = a.lock().unwrap();\n  let gb = b.lock().unwrap();\n}");
        assert_eq!(f.acquires.len(), 2);
        assert_eq!(f.acquires[0].held, Vec::<String>::new());
        assert_eq!(f.acquires[1].site, "t:b");
        assert_eq!(f.acquires[1].held, ["t:a"]);
    }

    #[test]
    fn condvar_wait_in_loop_on_own_mutex_is_clean() {
        let f = only_fn(
            "fn f() {\n  let mut g = m.lock().unwrap();\n  while !*g {\n    g = cv.wait(g).unwrap();\n  }\n}",
        );
        assert_eq!(f.waits.len(), 1);
        assert_eq!(f.waits[0].held_other, Vec::<String>::new());
    }

    #[test]
    fn condvar_wait_with_a_second_guard_reports_it() {
        let f = only_fn(
            "fn f() {\n  let other = n.lock().unwrap();\n  let mut g = m.lock().unwrap();\n  loop {\n    g = cv.wait(g).unwrap();\n  }\n}",
        );
        assert_eq!(f.waits[0].held_other, ["t:n"]);
        // The predicate forms the clippy configuration asks for are waits too.
        let f = only_fn(
            "fn f() {\n  let other = n.lock().unwrap();\n  let g = m.lock().unwrap();\n  let r = cv.wait_timeout_while(g, d, |s| !*s);\n}",
        );
        assert_eq!(f.waits[0].what, "wait_timeout_while");
        assert_eq!(f.waits[0].held_other, ["t:n"]);
    }

    #[test]
    fn calls_record_held_guards_for_the_lock_order_union() {
        let f =
            only_fn("fn f() {\n  let g = m.lock().unwrap();\n  helper(1);\n  self.other(2);\n}");
        let helper = f.calls.iter().find(|c| c.callee == "helper").unwrap();
        assert_eq!(helper.held, ["t:m"]);
        assert!(f.calls.iter().any(|c| c.callee == "other"));
    }

    #[test]
    fn qualified_path_blocking_forms() {
        let f = only_fn(
            "fn f() {\n  let g = m.lock().unwrap();\n  std::thread::sleep(d);\n  File::open(p);\n  std::fs::write(p, b);\n}",
        );
        let whats: Vec<&str> = f.blocking.iter().map(|b| b.what.as_str()).collect();
        assert_eq!(whats, ["thread::sleep", "File::open", "fs::write"]);
        assert!(f.blocking.iter().all(|b| b.held == ["t:m"]));
    }

    #[test]
    fn slice_join_with_args_is_not_blocking_but_thread_join_is() {
        let f = only_fn(
            "fn f() {\n  let g = m.lock().unwrap();\n  let s = parts.join(\", \");\n  handle.join();\n}",
        );
        let whats: Vec<&str> = f.blocking.iter().map(|b| b.what.as_str()).collect();
        assert_eq!(whats, [".join()"]);
        assert_eq!(f.blocking[0].line, 4);
    }

    #[test]
    fn raw_strings_with_braces_do_not_unbalance_scopes() {
        let f = only_fn(
            "fn f() {\n  let s = r#\"{ \"nested\": { } }\"#;\n  let t = \"}}{{\";\n  let g = m.lock().unwrap();\n  x.recv();\n}",
        );
        assert_eq!(f.blocking[0].held, ["t:m"]);
        // The fn closed where it should: a second fn is still parsed.
        let fns = analyze_src("fn a() { let s = r#\"{\"#; }\nfn b() { x.recv(); }");
        assert_eq!(fns.len(), 2);
        assert_eq!(fns[1].name, "b");
    }

    #[test]
    fn nested_block_comments_around_braces_are_ignored() {
        let f = only_fn(
            "fn f() {\n  /* { */ /* /* } */ { */\n  let g = m.lock().unwrap();\n  // }\n  x.recv();\n}",
        );
        assert_eq!(f.blocking[0].held, ["t:m"]);
    }

    #[test]
    fn test_regions_produce_no_functions_or_events() {
        let fns = analyze_src(
            "fn live() { x.recv(); }\n#[cfg(test)]\nmod tests {\n  #[test]\n  fn t() { let g = m.lock().unwrap(); x.recv(); }\n}",
        );
        assert_eq!(fns.len(), 1);
        assert_eq!(fns[0].name, "live");
        assert_eq!(fns[0].blocking.len(), 1);
    }

    #[test]
    fn rwlock_read_and_write_are_acquisitions() {
        let f = only_fn(
            "fn f() {\n  let r = rw.read().unwrap();\n  let w = rw.write().unwrap();\n  x.recv();\n}",
        );
        assert_eq!(f.acquires.len(), 2);
        assert_eq!(f.blocking[0].held, ["t:rw"]);
    }

    #[test]
    fn io_read_with_arguments_is_not_an_acquisition() {
        let f = only_fn("fn f() { file.read(&mut buf); file.read_exact(&mut buf); }");
        assert!(f.acquires.is_empty());
    }
}
