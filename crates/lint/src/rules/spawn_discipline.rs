//! `spawn-discipline` — no free-running threads outside tests.
//!
//! `thread::spawn` creates a detached thread unless someone remembers
//! its `JoinHandle`; a forgotten handle is a thread that outlives
//! shutdown, races drains, and turns deterministic tests flaky. No
//! non-test code owns long-lived threads: requests run on their
//! caller's thread, and everything that fans out uses
//! `std::thread::scope`, whose `scope.spawn` is structurally joined
//! (and, not being `thread::spawn`, does not trip this rule).

use crate::file::FileCtx;
use crate::findings::Finding;
use crate::rules::Rule;

/// The rule. Test code is exempt — tests spawn throwaway clients and
/// join them in view of the assertion.
pub struct SpawnDiscipline;

impl Rule for SpawnDiscipline {
    fn name(&self) -> &'static str {
        "spawn-discipline"
    }

    fn check(&self, ctx: &FileCtx, out: &mut Vec<Finding>) {
        for needle in [&["thread", "::", "spawn"][..], &["thread", "::", "Builder"][..]] {
            for i in ctx.find_all(needle) {
                if ctx.in_test(i) {
                    continue;
                }
                ctx.report(
                    out,
                    self.name(),
                    ctx.toks[i].line,
                    format!(
                        "thread::{} in non-test code — use std::thread::scope \
                         (structurally joined)",
                        needle[2]
                    ),
                );
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::rules::testutil::run_at;

    #[test]
    fn loose_spawn_fires_outside_the_pool() {
        let src = "fn f() { std::thread::spawn(|| work()); }";
        let found = run_at("crates/graph/src/x.rs", src);
        assert_eq!(found.len(), 1);
        assert_eq!(found[0].rule, "spawn-discipline");
        let builder = "fn f() { thread::Builder::new().name(n).spawn(w); }";
        assert_eq!(run_at("crates/core/src/x.rs", builder).len(), 1);
    }

    #[test]
    fn pool_scoped_spawns_and_tests_pass() {
        // The deleted worker pool's path is no longer exempt.
        let src = "fn f() { std::thread::spawn(|| work()); }";
        assert_eq!(run_at("crates/serve/src/pool.rs", src).len(), 1);
        let scoped = "fn f() { std::thread::scope(|s| { s.spawn(|| work()); }); }";
        assert!(run_at("crates/graph/src/x.rs", scoped).is_empty());
        let test = "#[test]\nfn t() { std::thread::spawn(|| work()).join(); }";
        assert!(run_at("crates/graph/src/x.rs", test).is_empty());
    }
}
