//! The rule engine: per-file invariants are a [`Rule`] over a
//! [`FileCtx`]; the cross-file lock-order pass ([`lock_order::check`])
//! runs over the phase-1 symbol index and call graph.
//!
//! Rule catalogue (see `DESIGN.md` § Static analysis for the rationale).
//! Wall-clock reads, direct `std::fs` access, std's random-seeded
//! hashers, undocumented `unsafe`, detached threads and panics on the
//! serve request paths are clippy's, and the protocol's wiring is a
//! typed test in `crates/serve`; none of those is this crate's.
//!
//! | rule | scope |
//! |------|-------|
//! | `hot-path-alloc` | declared `lint:hotpath` regions |
//! | `lock-order` | non-test code, all crates except `crates/util` |
//! | `relaxed-atomics` | non-test code, all crates |
//! | `guard-across-blocking` | non-test code, all crates (single-block and interprocedural) |
//! | `stale-suppression` | every `lint:allow` that silences nothing |
//!
//! Every finding fails `check`: it is fixed or suppressed inline with a
//! reason. `stale-suppression` is not a suppressible rule name at all,
//! so a stale allow cannot be allowed; it is deleted.

pub mod guard_blocking;
pub mod hotpath;
pub mod lock_order;
pub mod relaxed_atomics;

use crate::file::FileCtx;
use crate::findings::Finding;

/// One per-file invariant checker (phase 1).
pub trait Rule {
    /// The kebab-case rule name used in findings and suppressions.
    fn name(&self) -> &'static str;
    /// Scan one file, appending findings.
    fn check(&self, ctx: &FileCtx, out: &mut Vec<Finding>);
}

/// Every per-file rule, in catalogue order.
pub fn all() -> Vec<Box<dyn Rule>> {
    vec![
        Box::new(relaxed_atomics::RelaxedAtomics),
        Box::new(guard_blocking::GuardAcrossBlocking),
        Box::new(hotpath::HotPathAlloc),
    ]
}

/// Every suppressible rule name (for `lint:allow` validation). Note
/// `stale-suppression` is deliberately absent: allowing a stale allow
/// is itself a `bad-suppression`.
pub fn names() -> Vec<&'static str> {
    let mut n: Vec<&'static str> = all().iter().map(|r| r.name()).collect();
    n.push(lock_order::NAME);
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
}
