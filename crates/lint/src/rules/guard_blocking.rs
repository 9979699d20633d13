//! `guard-across-blocking` — no lock guard held across a blocking
//! channel/thread/condvar call.
//!
//! A thread that blocks until a peer makes progress while holding a
//! `Mutex`/`RwLock` guard can be the very thing preventing that peer
//! from progressing (e.g. holding a session lock while waiting on the
//! serving layer's admission gate for a permit whose holder needs the
//! same session). The rule flags a guard *binding* — a `let` whose
//! initializer ends in `.lock()`, `.read()` or `.write()` — that is
//! still live in the same block when a call to one of
//! [`BLOCKERS`](crate::index::BLOCKERS) appears. An explicit
//! `drop(guard)` before the call ends the guard's liveness, and so does
//! a condvar wait that takes the guard itself as its first argument
//! (`cv.wait(g)`, `cv.wait_while(g, …)`): the condvar releases that
//! guard while it blocks.
//!
//! Temporary guards (`map.read().get(..)` chains that end the statement)
//! are not bindings and are not flagged.

use crate::file::FileCtx;
use crate::findings::Finding;
use crate::index::{ACQUIRERS, BLOCKERS};
use crate::lex::TokKind;
use crate::rules::Rule;

/// The rule. Test code is exempt (tests routinely hold guards across
/// `join` on purpose, with the full schedule in view).
pub struct GuardAcrossBlocking;

impl Rule for GuardAcrossBlocking {
    fn name(&self) -> &'static str {
        "guard-across-blocking"
    }

    fn check(&self, ctx: &FileCtx, out: &mut Vec<Finding>) {
        let toks = &ctx.toks;
        let text = |i: usize| toks.get(i).map(|t| t.text.as_str());
        for i in 0..toks.len() {
            if text(i) != Some("let") || ctx.in_test(i) {
                continue;
            }
            let d = ctx.depth[i];
            // `let [mut] <name> [: T] = …;` — simple bindings only.
            let mut j = i + 1;
            if text(j) == Some("mut") {
                j += 1;
            }
            let Some(name_tok) = toks.get(j) else { continue };
            if name_tok.kind != TokKind::Ident {
                continue;
            }
            let guard_name = name_tok.text.clone();
            // Find the statement-ending `;` back at the let's depth.
            let Some(end) = (j..toks.len()).find(|&k| text(k) == Some(";") && ctx.depth[k] == d)
            else {
                continue;
            };
            // Guard binding iff the initializer ends `.lock()`/`.read()`/`.write()`.
            let is_guard = end >= 4
                && text(end - 4) == Some(".")
                && toks.get(end - 3).is_some_and(|t| ACQUIRERS.contains(&t.text.as_str()))
                && text(end - 2) == Some("(")
                && text(end - 1) == Some(")");
            if !is_guard {
                continue;
            }
            let acquired_line = toks[i].line;
            // Scan the rest of the enclosing block for a blocking call,
            // stopping at `drop(<guard>)` or the block's closing brace.
            let mut k = end + 1;
            while k < toks.len() {
                if text(k) == Some("}") && ctx.depth[k] == d {
                    break; // end of the guard's scope
                }
                if ctx.seq(k, &["drop", "(", &guard_name, ")"]) {
                    break; // explicitly released
                }
                if text(k) == Some(".")
                    && toks.get(k + 1).is_some_and(|t| BLOCKERS.contains(&t.text.as_str()))
                    && text(k + 2) == Some("(")
                {
                    let releases_guard = toks[k + 1].text.starts_with("wait")
                        && text(k + 3) == Some(guard_name.as_str())
                        && matches!(text(k + 4), Some(",") | Some(")"));
                    if releases_guard {
                        // Released while blocked, held again on return:
                        // keep scanning.
                        k += 1;
                        continue;
                    }
                    ctx.report(
                        out,
                        self.name(),
                        toks[k + 1].line,
                        format!(
                            ".{}( while guard `{}` (acquired line {acquired_line}) is live — \
                             a blocking call under a lock can deadlock against the peer \
                             it waits for; drop the guard first",
                            toks[k + 1].text, guard_name
                        ),
                    );
                    break; // one finding per guard binding
                }
                k += 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::rules::testutil::run_at;

    #[test]
    fn guard_live_across_send_fires() {
        let src = "fn f(m: &Mutex<u8>, tx: &Sender<u8>) {\n  let g = m.lock();\n  \
                   tx.send(*g);\n}";
        let found = run_at("crates/serve/src/x.rs", src);
        assert_eq!(found.len(), 1);
        assert_eq!(found[0].rule, "guard-across-blocking");
        assert_eq!(found[0].line, 3);
    }

    #[test]
    fn drop_before_send_and_inner_scope_pass() {
        let dropped = "fn f(m: &Mutex<u8>, tx: &Sender<u8>) {\n  let g = m.lock();\n  \
                       let v = *g;\n  drop(g);\n  tx.send(v);\n}";
        assert!(run_at("crates/serve/src/x.rs", dropped).is_empty());
        let scoped = "fn f(m: &Mutex<u8>, tx: &Sender<u8>) {\n  let v = { let g = m.lock(); *g };\n  \
                      tx.send(v);\n}";
        assert!(run_at("crates/serve/src/x.rs", scoped).is_empty());
    }

    #[test]
    fn temporary_guards_and_rwlock_variants() {
        let temp = "fn f(m: &RwLock<Map>) -> usize { let n = m.read().len();\n  n }";
        assert!(run_at("crates/serve/src/x.rs", temp).is_empty());
        let write = "fn f(m: &RwLock<u8>, rx: &Receiver<u8>) {\n  let mut g = m.write();\n  \
                     *g = rx.recv().unwrap_or(0);\n}";
        let found = run_at("crates/core/src/x.rs", write);
        assert_eq!(found.len(), 1);
        assert_eq!(found[0].rule, "guard-across-blocking");
    }

    #[test]
    fn join_under_guard_fires() {
        let src = "fn f(m: &Mutex<u8>, h: JoinHandle<()>) {\n  let g = m.lock();\n  \
                   let _ = h.join();\n}";
        assert_eq!(run_at("crates/graph/src/x.rs", src).len(), 1);
    }
}
