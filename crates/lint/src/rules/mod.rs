//! The rule engine: per-file invariants are a [`Rule`] over a
//! [`FileCtx`]; cross-file invariants are a [`TreeRule`] over the
//! phase-1 [`SymbolIndex`] and call graph.
//!
//! Rule catalogue (see `DESIGN.md` § Static analysis for the rationale):
//!
//! | rule | strict | scope |
//! |------|--------|-------|
//! | `wallclock` | yes | everywhere except `serve::deadline`, `util::bench`, `crates/bench` |
//! | `fs-discipline` | yes | non-test code everywhere except `store::io`, `crates/lint`, `crates/bench` |
//! | `randomstate` | yes | everywhere except `crates/util` |
//! | `panic-path` | yes | `crates/serve/src` request paths (not tests, not the smoke harness) |
//! | `unsafe-safety` | yes | everywhere |
//! | `hot-path-alloc` | yes | declared `lint:hotpath` regions |
//! | `lock-order` | yes | non-test code, all crates except `crates/util` |
//! | `protocol-exhaustiveness` | yes | the `Op` enum and its companion artifacts |
//! | `relaxed-atomics` | no | non-test code, all crates |
//! | `guard-across-blocking` | no | non-test code, all crates (single-block and interprocedural) |
//! | `spawn-discipline` | no | non-test code, all crates |
//! | `stale-suppression` | yes | every `lint:allow` that silences nothing |
//!
//! *Strict* rules may never appear in the baseline: a finding is fixed
//! or suppressed inline with a reason, never ratcheted.
//! `stale-suppression` is stricter still — it is not a suppressible
//! rule name at all, so a stale allow cannot be allowed; it is deleted.

pub mod fs_discipline;
pub mod guard_blocking;
pub mod hotpath;
pub mod lock_order;
pub mod panic_path;
pub mod protocol;
pub mod randomstate;
pub mod relaxed_atomics;
pub mod spawn_discipline;
pub mod unsafe_safety;
pub mod wallclock;

use crate::callgraph::CallGraph;
use crate::file::FileCtx;
use crate::findings::Finding;
use crate::index::SymbolIndex;

/// One per-file invariant checker (phase 1).
pub trait Rule {
    /// The kebab-case rule name used in findings, suppressions, and the
    /// baseline.
    fn name(&self) -> &'static str;
    /// Scan one file, appending findings.
    fn check(&self, ctx: &FileCtx, out: &mut Vec<Finding>);
}

/// One whole-tree invariant checker (phase 2): sees every file at once
/// through the symbol index and the call graph.
pub trait TreeRule {
    /// The kebab-case rule name.
    fn name(&self) -> &'static str;
    /// Scan the tree, appending findings.
    fn check(&self, index: &SymbolIndex, graph: &CallGraph, out: &mut Vec<Finding>);
}

/// Every per-file rule, in catalogue order.
pub fn all() -> Vec<Box<dyn Rule>> {
    vec![
        Box::new(wallclock::Wallclock),
        Box::new(fs_discipline::FsDiscipline),
        Box::new(randomstate::RandomStateRule),
        Box::new(panic_path::PanicPath),
        Box::new(relaxed_atomics::RelaxedAtomics),
        Box::new(guard_blocking::GuardAcrossBlocking),
        Box::new(spawn_discipline::SpawnDiscipline),
        Box::new(unsafe_safety::UnsafeSafety),
        Box::new(hotpath::HotPathAlloc),
    ]
}

/// Every whole-tree rule, in catalogue order.
pub fn tree_rules() -> Vec<Box<dyn TreeRule>> {
    vec![
        Box::new(lock_order::LockOrder),
        Box::new(protocol::ProtocolExhaustiveness),
    ]
}

/// Rule names whose findings can never be baselined ("strict"): they
/// guard the determinism and deadlock-freedom contracts themselves, so
/// the only ways past them are a fix or an inline `lint:allow` with a
/// reason.
pub const STRICT: &[&str] = &[
    "wallclock",
    "fs-discipline",
    "randomstate",
    "panic-path",
    "unsafe-safety",
    "hot-path-alloc",
    "lock-order",
    "protocol-exhaustiveness",
];

/// Every suppressible rule name (for `lint:allow` validation). Note
/// `stale-suppression` is deliberately absent: allowing a stale allow
/// is itself a `bad-suppression`.
pub fn names() -> Vec<&'static str> {
    let mut n: Vec<&'static str> = all().iter().map(|r| r.name()).collect();
    n.extend(tree_rules().iter().map(|r| r.name()));
    n
}

#[cfg(test)]
pub(crate) mod testutil {
    use super::Finding;

    /// Run the full two-phase pipeline over `src` as if it lived at
    /// `path`; return the surviving findings in canonical order.
    pub fn run_at(path: &str, src: &str) -> Vec<Finding> {
        crate::analyze_source(path, src)
    }

    /// Rule names that fired, deduplicated, sorted.
    pub fn rules_fired(path: &str, src: &str) -> Vec<&'static str> {
        let mut rules: Vec<&'static str> = run_at(path, src).iter().map(|f| f.rule).collect();
        rules.sort();
        rules.dedup();
        rules
    }
}
