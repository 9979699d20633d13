//! Phase-1½: a conservative, name-based, intra-crate call graph over
//! the symbol index, with transitive lock/blocking closures.
//!
//! Resolution is deliberately blunt: a call site `f(…)` or `.f(…)`
//! edges to **every** non-test `fn f` defined in the same crate.
//! That over-approximates (same-named methods on different types
//! merge) and under-approximates (cross-crate calls, closures, and
//! trait dispatch into other crates are invisible) — both directions
//! are documented soundness caveats in `DESIGN.md § Cross-file static
//! analysis`. The closures answer the two questions the lock-order
//! rules ask: *which lock classes can running `f` acquire?* and *can
//! running `f` block on channel/thread progress?*

use crate::index::SymbolIndex;
use std::collections::{BTreeMap, BTreeSet};

/// Method names so common across std types (maps, vecs, options,
/// builders) that resolving them by bare name to same-crate `fn`s is
/// pure noise: `sessions.lock().remove(k)` is `HashMap::remove`, not
/// whatever `fn remove` the crate happens to define. Call sites with
/// these names never resolve — a documented under-approximation.
const UBIQUITOUS: [&str; 24] = [
    "new", "default", "from", "get", "get_mut", "insert", "remove", "push", "pop", "len",
    "is_empty", "contains", "contains_key", "entry", "iter", "next", "clone", "parse", "clear",
    "take", "drain", "extend", "with_capacity", "flush",
];

/// The call graph plus fixpoint closures, indexed like
/// [`SymbolIndex::fns`].
pub struct CallGraph {
    /// `(crate, name)` → defining fn indices (non-test only).
    by_name: BTreeMap<(String, String), Vec<usize>>,
    /// Per fn: resolved same-crate callee indices, sorted, deduped.
    pub callees: Vec<Vec<usize>>,
    /// Per fn: every `(lock class, exclusive)` it can acquire, itself
    /// or transitively through callees.
    pub reachable_locks: Vec<BTreeSet<(String, bool)>>,
    /// Per fn: whether it can block (`send`/`recv`/`join`), itself or
    /// transitively.
    pub can_block: Vec<bool>,
}

impl CallGraph {
    /// Build the graph and run the closures to fixpoint.
    pub fn build(index: &SymbolIndex) -> CallGraph {
        let n = index.fns.len();
        let mut by_name: BTreeMap<(String, String), Vec<usize>> = BTreeMap::new();
        for (i, f) in index.fns.iter().enumerate() {
            if !f.in_test {
                by_name.entry((f.crate_name.clone(), f.name.clone())).or_default().push(i);
            }
        }
        let mut callees: Vec<Vec<usize>> = vec![Vec::new(); n];
        for (i, f) in index.fns.iter().enumerate() {
            let mut out = BTreeSet::new();
            for c in &f.calls {
                if UBIQUITOUS.contains(&c.name.as_str()) {
                    continue;
                }
                if let Some(defs) = by_name.get(&(f.crate_name.clone(), c.name.clone())) {
                    out.extend(defs.iter().copied());
                }
            }
            callees[i] = out.into_iter().collect();
        }
        let mut reachable_locks: Vec<BTreeSet<(String, bool)>> = index
            .fns
            .iter()
            .map(|f| f.locks.iter().map(|l| (l.class.clone(), l.exclusive)).collect())
            .collect();
        let mut can_block: Vec<bool> = index.fns.iter().map(|f| !f.blocking.is_empty()).collect();
        // Fixpoint propagation over the (possibly cyclic) graph.
        loop {
            let mut changed = false;
            for i in 0..n {
                for &c in &callees[i] {
                    if c == i {
                        continue;
                    }
                    if can_block[c] && !can_block[i] {
                        can_block[i] = true;
                        changed = true;
                    }
                    if !reachable_locks[c].is_subset(&reachable_locks[i]) {
                        let add: Vec<_> = reachable_locks[c]
                            .difference(&reachable_locks[i])
                            .cloned()
                            .collect();
                        reachable_locks[i].extend(add);
                        changed = true;
                    }
                }
            }
            if !changed {
                break;
            }
        }
        CallGraph { by_name, callees, reachable_locks, can_block }
    }

    /// Non-test fns named `name` in `crate_name` (call-site resolution).
    /// Ubiquitous std-ish names never resolve, matching edge building.
    pub fn resolve(&self, crate_name: &str, name: &str) -> &[usize] {
        if UBIQUITOUS.contains(&name) {
            return &[];
        }
        self.by_name
            .get(&(crate_name.to_string(), name.to_string()))
            .map(Vec::as_slice)
            .unwrap_or(&[])
    }

    /// A shortest call chain from `from` to a fn that *directly*
    /// satisfies `hit`, as `file:line fn name` strings — the provenance
    /// attached to interprocedural findings. `None` if unreachable.
    pub fn chain_to(
        &self,
        index: &SymbolIndex,
        from: usize,
        hit: impl Fn(usize) -> bool,
    ) -> Option<Vec<String>> {
        let mut prev: BTreeMap<usize, usize> = BTreeMap::new();
        let mut queue = std::collections::VecDeque::from([from]);
        let mut seen = BTreeSet::from([from]);
        while let Some(i) = queue.pop_front() {
            if hit(i) {
                let mut path = vec![i];
                let mut at = i;
                while at != from {
                    at = prev[&at];
                    path.push(at);
                }
                path.reverse();
                return Some(path.iter().map(|&f| index.fn_site(&index.fns[f])).collect());
            }
            for &c in &self.callees[i] {
                if seen.insert(c) {
                    prev.insert(c, i);
                    queue.push_back(c);
                }
            }
        }
        None
    }

    /// Provenance chain from `from` to a direct acquisition of `class`.
    pub fn lock_chain(&self, index: &SymbolIndex, from: usize, class: &str) -> Vec<String> {
        self.chain_to(index, from, |i| index.fns[i].locks.iter().any(|l| l.class == class))
            .unwrap_or_default()
    }

    /// Provenance chain from `from` to a direct blocking call.
    pub fn block_chain(&self, index: &SymbolIndex, from: usize) -> Vec<String> {
        self.chain_to(index, from, |i| !index.fns[i].blocking.is_empty()).unwrap_or_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::file::FileCtx;

    fn graph(src: &str) -> (SymbolIndex, CallGraph) {
        let ctx = FileCtx::new("crates/serve/src/x.rs", src, &crate::rules::names());
        let idx = SymbolIndex::build(vec![ctx]);
        let g = CallGraph::build(&idx);
        (idx, g)
    }

    #[test]
    fn transitive_locks_and_blocking_propagate_through_cycles() {
        let (idx, g) = graph(
            "fn a(&self) { self.b(); }\n\
             fn b(&self) { self.c(); self.a() }\n\
             fn c(&self) { self.state.lock(); self.rx.recv(); }",
        );
        let pos = |n: &str| idx.fns.iter().position(|f| f.name == n).unwrap();
        for f in ["a", "b", "c"] {
            assert!(g.can_block[pos(f)], "{f} blocks transitively");
            assert!(
                g.reachable_locks[pos(f)].contains(&("state".to_string(), true)),
                "{f} reaches the state lock"
            );
        }
        let chain = g.lock_chain(&idx, pos("a"), "state");
        assert_eq!(chain.len(), 3, "a -> b -> c: {chain:?}");
    }

    #[test]
    fn test_fns_and_other_crates_do_not_resolve() {
        let ctx1 = FileCtx::new(
            "crates/serve/src/x.rs",
            "fn caller(&self) { helper(); }",
            &crate::rules::names(),
        );
        let ctx2 = FileCtx::new(
            "crates/query/src/y.rs",
            "fn helper() { x.lock(); }\n#[test]\nfn caller() { helper(); }",
            &crate::rules::names(),
        );
        let idx = SymbolIndex::build(vec![ctx1, ctx2]);
        let g = CallGraph::build(&idx);
        let caller = idx.fns.iter().position(|f| f.name == "caller" && !f.in_test).unwrap();
        // `helper` lives in another crate: no edge, no reachable lock.
        assert!(g.callees[caller].is_empty());
        assert!(g.reachable_locks[caller].is_empty());
        // Test fns never appear as resolution targets.
        assert!(g.resolve("query", "caller").is_empty());
        assert_eq!(g.resolve("query", "helper").len(), 1);
    }
}
