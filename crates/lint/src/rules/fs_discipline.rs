//! `fs-discipline` — direct filesystem access is banned outside the
//! one module that owns it.
//!
//! Every byte the store writes must flow through the [`StoreFs`] trait
//! (`crates/store/src/io.rs`): that is what lets the deterministic
//! fault-injecting filesystem (`SimFs`) see — and corrupt — every WAL
//! append, snapshot rewrite, and fsync in the crash-storm sweep. A
//! stray `std::fs::write` or `File::create` anywhere on the durable
//! path is I/O the storm cannot reach: it looks crash-safe in every
//! test and tears on a real disk. So `std::fs`, `File::`, and
//! `OpenOptions::` are confined to: `crates/store/src/io.rs` (the
//! `RealFs` passthrough itself), `crates/lint/` (the linter reads the
//! source tree it audits), and `crates/bench/` (bench roots live in
//! `temp_dir`, and the trait-overhead guard times a raw `std::fs` loop
//! *on purpose* as its baseline). Test code is exempt: fixtures and
//! temp-dir helpers are not on the durable path.
//!
//! [`StoreFs`]: ../../../store/src/io.rs

use crate::file::FileCtx;
use crate::findings::Finding;
use crate::rules::Rule;

const ALLOWED_FILES: [&str; 1] = ["crates/store/src/io.rs"];
const ALLOWED_DIRS: [&str; 2] = ["crates/lint/", "crates/bench/"];

/// The rule: see the module docs for the confinement rationale.
pub struct FsDiscipline;

impl Rule for FsDiscipline {
    fn name(&self) -> &'static str {
        "fs-discipline"
    }

    fn check(&self, ctx: &FileCtx, out: &mut Vec<Finding>) {
        if ALLOWED_FILES.contains(&ctx.path.as_str())
            || ALLOWED_DIRS.iter().any(|d| ctx.path.starts_with(d))
        {
            return;
        }
        for (needle, what) in [
            (&["std", "::", "fs"][..], "std::fs"),
            (&["File", "::"][..], "File::"),
            (&["OpenOptions", "::"][..], "OpenOptions::"),
        ] {
            for i in ctx.find_all(needle) {
                if ctx.in_test(i) {
                    continue;
                }
                ctx.report(
                    out,
                    self.name(),
                    ctx.toks[i].line,
                    format!(
                        "{what} outside store::io bypasses the StoreFs trait — I/O the \
                         fault-injecting SimFs can never reach"
                    ),
                );
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::rules::testutil::{rules_fired, run_at};

    #[test]
    fn flags_direct_fs_access_in_production_code() {
        let src = "use std::fs;\n\
                   fn save(p: &std::path::Path) { fs::write(p, b\"x\").unwrap(); }\n\
                   fn open(p: &std::path::Path) { let _ = File::open(p); }\n\
                   fn opts() { let _ = OpenOptions::new(); }";
        let found = run_at("crates/store/src/x.rs", src);
        assert_eq!(found.len(), 3, "{found:?}");
        assert!(found.iter().all(|f| f.rule == "fs-discipline"));
        assert_eq!(found[0].line, 1);
        assert_eq!(found[1].line, 3);
        assert_eq!(found[2].line, 4);
    }

    #[test]
    fn store_io_lint_and_bench_are_sanctioned() {
        let src = "fn f(p: &std::path::Path) { std::fs::write(p, b\"x\").unwrap(); }";
        assert!(run_at("crates/store/src/io.rs", src).is_empty());
        assert!(run_at("crates/lint/src/walk.rs", src).is_empty());
        assert!(run_at("crates/bench/src/fault_recovery.rs", src).is_empty());
    }

    #[test]
    fn store_allowlist_is_io_only() {
        // The WAL and snapshot modules must go through the trait too —
        // they are exactly the code the fault sweep exists to exercise.
        let src = "fn f(p: &std::path::Path) { std::fs::write(p, b\"x\").unwrap(); }";
        assert_eq!(run_at("crates/store/src/wal.rs", src).len(), 1);
        assert_eq!(run_at("crates/store/src/snapshot.rs", src).len(), 1);
    }

    #[test]
    fn test_code_is_exempt() {
        let src = "#[cfg(test)]\nmod tests {\n\
                   fn temp() { let _ = std::fs::remove_dir_all(\"/tmp/x\"); }\n}";
        assert!(run_at("crates/serve/src/router.rs", src).is_empty());
    }

    #[test]
    fn trait_usage_and_string_mentions_do_not_fire() {
        let src = "fn f(fs: &Fs, p: &std::path::Path) { fs.write_sync(p, b\"x\").unwrap(); }\n\
                   pub const DOC: &str = \"std::fs::File::open is banned\";\n\
                   fn g(file: &mut Box<dyn StoreFile>) { file.sync_data().unwrap(); }";
        assert_eq!(rules_fired("crates/store/src/wal.rs", src), Vec::<&str>::new());
    }

    #[test]
    fn suppression_with_reason_silences() {
        let src = "// lint:allow(fs-discipline) one-shot migration tool, not on the durable path\n\
                   fn f() { let _ = std::fs::read(\"x\"); }";
        assert!(run_at("crates/core/src/x.rs", src).is_empty());
    }
}
