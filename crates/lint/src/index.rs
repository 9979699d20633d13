//! Phase-1 symbol index: what the whole-tree rules see.
//!
//! Built once per analysis run from the already-lexed [`FileCtx`]s, the
//! index records, per file, every `fn` definition (with its body token
//! range) and — per function — the lock acquisitions, lock-guard
//! bindings with their liveness ranges, blocking channel/thread/condvar
//! calls, and plain call sites. The lock-order pass
//! ([`crate::rules::lock_order`]) consumes it via the conservative
//! name-based call graph in [`crate::callgraph`].
//!
//! Soundness model (documented, deliberate): lock *identity* is the
//! last identifier of the receiver path (`self.sessions.lock()` →
//! class `sessions`), so two locks that alias through differently
//! named locals are distinct classes (under-approximation), and two
//! unrelated fields sharing a name in one crate merge (conservative
//! over-approximation). Calls resolve by bare name within the defining
//! crate only; cross-crate edges and closures are out of scope.

use crate::file::FileCtx;
use crate::lex::TokKind;

/// Method tails that acquire a lock guard.
pub const ACQUIRERS: [&str; 3] = ["lock", "read", "write"];
/// Method names that can block on peer progress (channel, thread or
/// condition variable). The `wait*` ones take a lock guard as their
/// first argument and release it while they block.
pub const BLOCKERS: [&str; 7] =
    ["send", "try_send", "recv", "join", "wait", "wait_while", "wait_timeout"];

/// Idents that look like calls but never resolve to an in-crate `fn`.
const NON_CALLS: [&str; 13] = [
    "if", "while", "for", "match", "return", "loop", "fn", "let", "move", "Some", "None", "Ok",
    "Err",
];

/// One lock acquisition site (binding or temporary).
#[derive(Debug, Clone)]
pub struct LockSite {
    /// Lock class: the receiver path's last identifier.
    pub class: String,
    /// `lock()`/`write()` (true) vs `read()` (false).
    pub exclusive: bool,
    /// Token index of the acquirer ident.
    pub tok: usize,
    /// 1-based source line.
    pub line: u32,
}

/// One `let`-bound guard with its liveness token range.
#[derive(Debug, Clone)]
pub struct GuardSite {
    /// The binding name.
    pub name: String,
    /// Lock class of the acquired lock.
    pub class: String,
    /// Whether the guard is exclusive (`lock`/`write`).
    pub exclusive: bool,
    /// Half-open token range the guard is live over (after the binding
    /// statement's `;`, until scope end or `drop(<name>)`).
    pub live: (usize, usize),
    /// Line of the `let`.
    pub line: u32,
}

/// One call site (free `f(…)` or method `.f(…)`).
#[derive(Debug, Clone)]
pub struct CallSite {
    /// The called name (no path qualification).
    pub name: String,
    /// Token index of the name.
    pub tok: usize,
    /// 1-based source line.
    pub line: u32,
}

/// One `fn` definition and the per-function facts rules consume.
#[derive(Debug, Clone)]
pub struct FnDef {
    /// The function's bare name.
    pub name: String,
    /// Owning crate (`serve` for `crates/serve/src/...`).
    pub crate_name: String,
    /// Index into [`SymbolIndex::files`].
    pub file: usize,
    /// Line of the `fn` keyword.
    pub line: u32,
    /// Half-open token range of the body (inside the braces).
    pub body: (usize, usize),
    /// Whether the definition sits in a test region.
    pub in_test: bool,
    /// Direct lock acquisitions (bindings and temporaries).
    pub locks: Vec<LockSite>,
    /// `let`-bound guards with liveness.
    pub guards: Vec<GuardSite>,
    /// Direct blocking calls (a `.` then one of [`BLOCKERS`] then `(`).
    pub blocking: Vec<CallSite>,
    /// Every plain call site, for the call graph.
    pub calls: Vec<CallSite>,
}

/// The whole-tree symbol index (phase 1's output).
pub struct SymbolIndex {
    /// Every analyzed file, sorted by path (the pipeline sorts).
    pub files: Vec<FileCtx>,
    /// Every `fn` definition, in (file, token) order.
    pub fns: Vec<FnDef>,
}

impl SymbolIndex {
    /// Build the index over already-constructed file contexts. `files`
    /// must be sorted by path (the pipeline guarantees it), so the
    /// index — and everything derived from it — is independent of walk
    /// order.
    pub fn build(files: Vec<FileCtx>) -> SymbolIndex {
        let mut fns = Vec::new();
        for (fi, ctx) in files.iter().enumerate() {
            index_file(fi, ctx, &mut fns);
        }
        SymbolIndex { files, fns }
    }

    /// `file:line` for a function (finding/provenance rendering).
    pub fn fn_site(&self, f: &FnDef) -> String {
        format!("{}:{} fn {}", self.files[f.file].path, f.line, f.name)
    }
}

/// `crates/<name>/src/…` → `<name>`; anything else isolates as itself.
pub fn crate_of(path: &str) -> String {
    path.strip_prefix("crates/")
        .and_then(|rest| rest.split('/').next())
        .unwrap_or(path)
        .to_string()
}

fn index_file(fi: usize, ctx: &FileCtx, fns: &mut Vec<FnDef>) {
    let toks = &ctx.toks;
    let text = |i: usize| toks.get(i).map(|t| t.text.as_str());
    let crate_name = crate_of(&ctx.path);
    let mut i = 0;
    while i < toks.len() {
        match text(i) {
            Some("fn") if toks.get(i + 1).is_some_and(|t| t.kind == TokKind::Ident) => {
                let d = ctx.depth[i];
                // Body opens at the first `{` back at the fn's depth; a
                // `;` there first means a bodiless trait declaration.
                let mut j = i + 2;
                let mut open = None;
                let mut bodiless = false;
                while j < toks.len() {
                    if ctx.depth[j] == d {
                        match text(j) {
                            Some("{") => {
                                open = Some(j);
                                break;
                            }
                            Some(";") => {
                                bodiless = true;
                                break;
                            }
                            Some("fn") => break,
                            _ => {}
                        }
                    }
                    j += 1;
                }
                let Some(open) = open else {
                    // A bodiless trait declaration still gets an entry
                    // (empty body range) so name lookups see it.
                    if bodiless {
                        fns.push(FnDef {
                            name: toks[i + 1].text.clone(),
                            crate_name: crate_name.clone(),
                            file: fi,
                            line: toks[i].line,
                            body: (j, j),
                            in_test: ctx.in_test(i),
                            locks: Vec::new(),
                            guards: Vec::new(),
                            blocking: Vec::new(),
                            calls: Vec::new(),
                        });
                    }
                    i += 2;
                    continue;
                };
                // The matching `}` is the first close recorded at d+1.
                let close = (open + 1..toks.len())
                    .find(|&k| text(k) == Some("}") && ctx.depth[k] == d + 1)
                    .unwrap_or(toks.len());
                let body = (open + 1, close);
                let mut def = FnDef {
                    name: toks[i + 1].text.clone(),
                    crate_name: crate_name.clone(),
                    file: fi,
                    line: toks[i].line,
                    body,
                    in_test: ctx.in_test(i),
                    locks: Vec::new(),
                    guards: Vec::new(),
                    blocking: Vec::new(),
                    calls: Vec::new(),
                };
                index_body(ctx, &mut def);
                fns.push(def);
                // Nested fns are rare and still indexed: resume right
                // after the name so the inner scan revisits the body.
                i += 2;
            }
            _ => i += 1,
        }
    }
}

/// Fill a function's lock/guard/blocking/call site lists.
fn index_body(ctx: &FileCtx, def: &mut FnDef) {
    let toks = &ctx.toks;
    let text = |i: usize| toks.get(i).map(|t| t.text.as_str());
    let (start, end) = def.body;
    // Closures handed to `spawn(…)` run on *another* thread: nothing
    // inside the spawn call's argument group counts as this function's
    // own locking/blocking behaviour.
    let spawned = spawn_arg_ranges(ctx, start, end.min(toks.len()));
    for k in start..end.min(toks.len()) {
        if spawned.iter().any(|&(s, e)| k >= s && k < e) {
            continue;
        }
        // Lock acquisition: `.lock()` / `.read()` / `.write()` — the
        // zero-argument call is what distinguishes guard acquisition
        // from `io::Read::read(buf)`-style calls.
        if text(k) == Some(".")
            && toks.get(k + 1).is_some_and(|t| ACQUIRERS.contains(&t.text.as_str()))
            && text(k + 2) == Some("(")
            && text(k + 3) == Some(")")
        {
            def.locks.push(LockSite {
                class: receiver_class(ctx, k),
                exclusive: toks[k + 1].text != "read",
                tok: k + 1,
                line: toks[k + 1].line,
            });
        }
        // Blocking calls, same shape the per-file rule matches — except
        // `join`, which must be zero-arg: `handle.join()` blocks on a
        // thread, `path.join(seg)` and `vec.join(sep)` do not.
        if text(k) == Some(".")
            && toks.get(k + 1).is_some_and(|t| BLOCKERS.contains(&t.text.as_str()))
            && text(k + 2) == Some("(")
            && (toks[k + 1].text != "join" || text(k + 3) == Some(")"))
        {
            def.blocking.push(CallSite {
                name: toks[k + 1].text.clone(),
                tok: k + 1,
                line: toks[k + 1].line,
            });
        }
        // Plain call sites: `name(` that is not a definition, keyword,
        // or tuple-constructor-ish ident. Macros (`name!`) are skipped
        // by the `(` requirement.
        if toks[k].kind == TokKind::Ident
            && text(k + 1) == Some("(")
            && !NON_CALLS.contains(&toks[k].text.as_str())
            && text(k.wrapping_sub(1)) != Some("fn")
        {
            def.calls.push(CallSite { name: toks[k].text.clone(), tok: k, line: toks[k].line });
        }
        // Guard bindings: `let [mut] name = … .lock|read|write();`
        if text(k) == Some("let") {
            let d = ctx.depth[k];
            let mut j = k + 1;
            if text(j) == Some("mut") {
                j += 1;
            }
            let Some(name_tok) = toks.get(j) else { continue };
            if name_tok.kind != TokKind::Ident {
                continue;
            }
            let Some(semi) =
                (j..end.min(toks.len())).find(|&m| text(m) == Some(";") && ctx.depth[m] == d)
            else {
                continue;
            };
            let is_guard = semi >= 4
                && text(semi - 4) == Some(".")
                && toks.get(semi - 3).is_some_and(|t| ACQUIRERS.contains(&t.text.as_str()))
                && text(semi - 2) == Some("(")
                && text(semi - 1) == Some(")");
            if !is_guard {
                continue;
            }
            let guard_name = name_tok.text.clone();
            // Liveness: to scope end (`}` at the let's depth) or an
            // explicit `drop(<name>)`.
            let mut stop = end.min(toks.len());
            let mut m = semi + 1;
            while m < end.min(toks.len()) {
                if text(m) == Some("}") && ctx.depth[m] == d {
                    stop = m;
                    break;
                }
                if ctx.seq(m, &["drop", "(", &guard_name, ")"]) {
                    stop = m;
                    break;
                }
                m += 1;
            }
            def.guards.push(GuardSite {
                name: guard_name,
                class: receiver_class(ctx, semi - 4),
                exclusive: toks[semi - 3].text != "read",
                live: (semi + 1, stop),
                line: toks[k].line,
            });
        }
    }
}

/// Token ranges covered by the argument group of every `spawn(…)` call
/// in `[start, end)` — half-open, starting at the `(`.
fn spawn_arg_ranges(ctx: &FileCtx, start: usize, end: usize) -> Vec<(usize, usize)> {
    let toks = &ctx.toks;
    let mut out = Vec::new();
    let mut k = start;
    while k < end {
        if toks[k].text == "spawn" && toks.get(k + 1).is_some_and(|t| t.text == "(") {
            let mut depth = 0i64;
            let mut m = k + 1;
            while m < toks.len() {
                match toks[m].text.as_str() {
                    "(" => depth += 1,
                    ")" => {
                        depth -= 1;
                        if depth == 0 {
                            break;
                        }
                    }
                    _ => {}
                }
                m += 1;
            }
            out.push((k + 1, (m + 1).min(toks.len())));
            k = m + 1;
        } else {
            k += 1;
        }
    }
    out
}

/// The lock class for an acquisition whose `.` sits at `dot`: the last
/// identifier of the receiver path (`self.sessions.lock()` →
/// `sessions`, `shard(name).write()` → `shard`). Unresolvable shapes
/// collapse to `<expr>` — still a class, just a merged one.
fn receiver_class(ctx: &FileCtx, dot: usize) -> String {
    let toks = &ctx.toks;
    if dot == 0 {
        return "<expr>".to_string();
    }
    let prev = &toks[dot - 1];
    match prev.text.as_str() {
        ")" | "]" => {
            // Walk back over the bracketed group to the ident before it.
            let (open, close) = if prev.text == ")" { ("(", ")") } else { ("[", "]") };
            let mut depth = 0i64;
            let mut k = dot - 1;
            loop {
                let t = toks[k].text.as_str();
                if t == close {
                    depth += 1;
                } else if t == open {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                if k == 0 {
                    return "<expr>".to_string();
                }
                k -= 1;
            }
            if k > 0 && toks[k - 1].kind == TokKind::Ident {
                toks[k - 1].text.clone()
            } else {
                "<expr>".to_string()
            }
        }
        _ if prev.kind == TokKind::Ident || prev.kind == TokKind::Lit => prev.text.clone(),
        _ => "<expr>".to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn index_of(src: &str) -> SymbolIndex {
        let ctx = FileCtx::new("crates/serve/src/x.rs", src, &crate::rules::names());
        SymbolIndex::build(vec![ctx])
    }

    #[test]
    fn fn_bodies_and_nesting() {
        let idx = index_of(
            "fn outer(a: u8) -> u8 { inner(a) }\n\
             fn inner(a: u8) -> u8 { a }\n\
             trait T { fn decl(&self); }\n\
             impl S { fn method(&self) { self.field.lock(); } }",
        );
        let names: Vec<&str> = idx.fns.iter().map(|f| f.name.as_str()).collect();
        assert_eq!(names, vec!["outer", "inner", "decl", "method"]);
        assert_eq!(idx.fns[0].calls.len(), 1);
        assert_eq!(idx.fns[0].calls[0].name, "inner");
        // The bodiless trait decl has an empty body range.
        assert_eq!(idx.fns[2].body.0, idx.fns[2].body.1);
        assert_eq!(idx.fns[3].locks.len(), 1);
        assert_eq!(idx.fns[3].locks[0].class, "field");
    }

    #[test]
    fn guards_lock_classes_and_liveness() {
        let idx = index_of(
            "fn f(&self) {\n  let g = self.sessions.lock();\n  use_it(&g);\n  drop(g);\n  after();\n}\n\
             fn t(&self) { let n = self.map.read().len(); }",
        );
        let f = &idx.fns[0];
        assert_eq!(f.guards.len(), 1);
        assert_eq!(f.guards[0].class, "sessions");
        assert!(f.guards[0].exclusive);
        // Liveness ends at drop: the `after` call is outside the range.
        let after = f.calls.iter().find(|c| c.name == "after").unwrap();
        assert!(after.tok >= f.guards[0].live.1);
        // `.read().len()` is a temporary: a lock site, not a guard.
        let t = &idx.fns[1];
        assert!(t.guards.is_empty());
        assert_eq!(t.locks.len(), 1);
        assert!(!t.locks[0].exclusive);
    }

    #[test]
    fn receiver_classes_resolve_through_calls_and_io_reads_are_excluded() {
        let idx = index_of(
            "fn f(&self, i: usize) {\n  self.shard(i).write();\n  self.shards[i].state.lock();\n}\n\
             fn g(r: &mut impl Read, buf: &mut [u8]) { r.read(buf); }",
        );
        let classes: Vec<&str> = idx.fns[0].locks.iter().map(|l| l.class.as_str()).collect();
        assert_eq!(classes, vec!["shard", "state"]);
        // `read(buf)` takes an argument — not a guard acquisition.
        assert!(idx.fns[1].locks.is_empty());
    }

    #[test]
    fn crate_names_come_from_paths() {
        assert_eq!(crate_of("crates/serve/src/router.rs"), "serve");
        assert_eq!(crate_of("crates/query/src/a/b.rs"), "query");
        assert_eq!(crate_of("weird.rs"), "weird.rs");
    }
}
