//! `panic-path` — no panics on `crates/serve` request paths.
//!
//! A panic in a pooled worker has two failure modes, both worse than an
//! error response: without a catch it kills the worker (shrinking the
//! pool until the server deadlocks), and even with the pool's
//! `catch_unwind` net it turns a typed, client-dispatchable error into a
//! generic `internal`. Request-path code must route failures through the
//! [`ErrorKind`] taxonomy instead.
//!
//! Scope: all non-test code under `crates/serve/src/` **except**
//! `smoke.rs` — the scenario replay and the crash-storm and herd smokes
//! are client-side checkers whose job is to abort loudly when a response
//! is malformed; they run no requests, they issue them.

use crate::file::FileCtx;
use crate::findings::Finding;
use crate::rules::Rule;

/// Panicking idents followed by `(`.
const CALLS: [&str; 2] = ["unwrap", "expect"];
/// Panicking macros followed by `!`.
const MACROS: [&str; 4] = ["panic", "unreachable", "todo", "unimplemented"];

/// The rule.
pub struct PanicPath;

impl Rule for PanicPath {
    fn name(&self) -> &'static str {
        "panic-path"
    }

    fn check(&self, ctx: &FileCtx, out: &mut Vec<Finding>) {
        if !ctx.path.starts_with("crates/serve/src/") || ctx.path == "crates/serve/src/smoke.rs" {
            return;
        }
        for (name, follower, what) in CALLS
            .iter()
            .map(|c| (*c, "(", "panics the worker on Err/None"))
            .chain(MACROS.iter().map(|m| (*m, "!", "panics the worker")))
        {
            for i in ctx.find_all(&[name, follower]) {
                if ctx.in_test(i) {
                    continue;
                }
                ctx.report(
                    out,
                    self.name(),
                    ctx.toks[i].line,
                    format!(
                        "{name}{} on a serve request path {what}; route through the \
                         ErrorKind taxonomy (`internal` for invariant failures)",
                        if follower == "(" { "()" } else { "!" }
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
    fn flags_each_panicking_form() {
        let src = "fn f(x: Option<u8>) {\n  x.unwrap();\n  x.expect(\"boom\");\n  \
                   panic!(\"no\");\n  unreachable!();\n}";
        let found = run_at("crates/serve/src/server.rs", src);
        assert_eq!(found.len(), 4);
        assert!(found.iter().all(|f| f.rule == "panic-path"));
        assert_eq!(found.iter().map(|f| f.line).collect::<Vec<_>>(), vec![2, 3, 4, 5]);
    }

    #[test]
    fn tests_other_crates_and_the_smoke_harness_pass() {
        let src = "fn f(x: Option<u8>) { x.unwrap(); }";
        assert!(run_at("crates/core/src/engine.rs", src).is_empty());
        assert!(run_at("crates/serve/src/smoke.rs", src).is_empty());
        let in_test = "#[cfg(test)]\nmod tests {\n  #[test]\n  fn t() { None::<u8>.unwrap(); }\n}";
        assert!(run_at("crates/serve/src/pool.rs", in_test).is_empty());
    }

    #[test]
    fn unwrap_or_variants_pass() {
        let src = "fn f(x: Option<u8>) { x.unwrap_or(0); x.unwrap_or_else(|| 1); x.unwrap_or_default(); }";
        assert!(run_at("crates/serve/src/server.rs", src).is_empty());
    }
}
