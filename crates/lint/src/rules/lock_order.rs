//! `lock-order` — cross-function lock-acquisition order analysis.
//!
//! Phase 2's deadlock pass. From the symbol index it derives, per
//! crate, a directed graph over lock *classes* (see
//! [`crate::index::receiver_class`] naming): an edge `A → B` means
//! some non-test function acquires `B` — directly, or transitively
//! through the intra-crate call graph — while holding a guard on `A`.
//! Three finding shapes come out:
//!
//! 1. **Cycles** (`lock-order`): `A → B` and `B → … → A` both exist —
//!    two threads taking the classes in opposite orders can deadlock.
//!    Every edge participating in a cycle is reported at its
//!    acquisition site, with the call-path provenance attached.
//! 2. **Re-entry** (`lock-order`): a guard on `A` is still live when
//!    `A` is acquired again (directly or via a callee) and at least
//!    one side is exclusive — guaranteed self-deadlock on the
//!    non-reentrant `util::sync` shims (read→read is allowed).
//! 3. **Interprocedural guard-across-blocking**
//!    (`guard-across-blocking`): a call made under a live guard
//!    reaches a `send`/`recv`/`join` somewhere down the call chain —
//!    the same deadlock shape the per-file rule catches in a single
//!    block, upgraded across function boundaries.
//!
//! `crates/util` is exempt: it *implements* the lock and channel
//! primitives (condvar loops legitimately hold the state lock), and
//! its internals are covered by their own property tests.

use crate::callgraph::CallGraph;
use crate::findings::Finding;
use crate::index::SymbolIndex;
use crate::rules::TreeRule;
use std::collections::{BTreeMap, BTreeSet};

/// Crates whose lock usage is the primitive layer itself.
const EXEMPT_CRATES: [&str; 1] = ["util"];

/// One recorded order edge `from → to` with its site and provenance.
struct Edge {
    file: String,
    line: u32,
    provenance: Vec<String>,
}

/// The rule.
pub struct LockOrder;

impl TreeRule for LockOrder {
    fn name(&self) -> &'static str {
        "lock-order"
    }

    fn check(&self, index: &SymbolIndex, graph: &CallGraph, out: &mut Vec<Finding>) {
        // (crate, from class, to class) → first recorded edge.
        let mut edges: BTreeMap<(String, String, String), Edge> = BTreeMap::new();
        for (fi, f) in index.fns.iter().enumerate() {
            if f.in_test || EXEMPT_CRATES.contains(&f.crate_name.as_str()) {
                continue;
            }
            let file = index.files[f.file].path.clone();
            for g in &f.guards {
                let in_range = |tok: usize| tok >= g.live.0 && tok < g.live.1;
                // Direct acquisitions under the guard.
                for l in &f.locks {
                    if !in_range(l.tok) {
                        continue;
                    }
                    if l.class == g.class {
                        if l.exclusive || g.exclusive {
                            out.push(Finding::new(
                                self.name(),
                                file.clone(),
                                l.line,
                                format!(
                                    "lock `{}` acquired again while guard `{}` (line {}) already \
                                     holds it — self-deadlock on non-reentrant locks",
                                    l.class, g.name, g.line
                                ),
                            ));
                        }
                    } else {
                        edges
                            .entry((f.crate_name.clone(), g.class.clone(), l.class.clone()))
                            .or_insert_with(|| Edge {
                                file: file.clone(),
                                line: l.line,
                                provenance: vec![index.fn_site(f)],
                            });
                    }
                }
                // Calls under the guard: what the callee can acquire or
                // block on counts as happening here.
                for c in &f.calls {
                    if !in_range(c.tok) {
                        continue;
                    }
                    // One report per call site and lock class: a name
                    // resolving to several defs is one diagnosis.
                    let mut blocked_reported = false;
                    let mut classes_reported: BTreeSet<&str> = BTreeSet::new();
                    for &callee in graph.resolve(&f.crate_name, &c.name) {
                        if callee == fi {
                            continue;
                        }
                        if graph.can_block[callee] && !blocked_reported {
                            blocked_reported = true;
                            let mut prov = vec![index.fn_site(f)];
                            prov.extend(graph.block_chain(index, callee));
                            out.push(Finding {
                                rule: "guard-across-blocking",
                                file: file.clone(),
                                line: c.line,
                                message: format!(
                                    "call to {}() while guard `{}` (class `{}`, line {}) is live \
                                     reaches a blocking send/recv/join or condvar wait down the \
                                     call chain; drop the guard first",
                                    c.name, g.name, g.class, g.line
                                ),
                                provenance: prov,
                            });
                        }
                        for (class, exclusive) in graph.reachable_locks[callee].iter() {
                            if !classes_reported.insert(class.as_str()) {
                                continue;
                            }
                            let mut prov = vec![index.fn_site(f)];
                            prov.extend(graph.lock_chain(index, callee, class));
                            if *class == g.class {
                                if *exclusive || g.exclusive {
                                    out.push(Finding {
                                        rule: self.name(),
                                        file: file.clone(),
                                        line: c.line,
                                        message: format!(
                                            "call to {}() while guard `{}` holds `{}` (line {}) \
                                             re-acquires the same lock class down the call \
                                             chain — self-deadlock on non-reentrant locks",
                                            c.name, g.name, g.class, g.line
                                        ),
                                        provenance: prov,
                                    });
                                }
                            } else {
                                edges
                                    .entry((
                                        f.crate_name.clone(),
                                        g.class.clone(),
                                        class.clone(),
                                    ))
                                    .or_insert_with(|| Edge {
                                        file: file.clone(),
                                        line: c.line,
                                        provenance: prov,
                                    });
                            }
                        }
                    }
                }
            }
        }
        // Cycle detection per crate over the class graph.
        let mut adj: BTreeMap<&str, BTreeMap<&str, BTreeSet<&str>>> = BTreeMap::new();
        for (krate, from, to) in edges.keys() {
            adj.entry(krate).or_default().entry(from).or_default().insert(to);
        }
        for ((krate, from, to), edge) in &edges {
            let Some(crate_adj) = adj.get(krate.as_str()) else { continue };
            if let Some(back) = path_between(crate_adj, to, from) {
                let cycle: Vec<&str> =
                    std::iter::once(from.as_str()).chain(back.iter().copied()).collect();
                out.push(Finding {
                    rule: self.name(),
                    file: edge.file.clone(),
                    line: edge.line,
                    message: format!(
                        "lock-order cycle in crate `{krate}`: {} — two threads taking these \
                         locks in opposite orders can deadlock; pick one global order",
                        cycle.join(" -> "),
                    ),
                    provenance: edge.provenance.clone(),
                });
            }
        }
    }
}

/// BFS path `from → … → to` over the class adjacency, inclusive of
/// both endpoints. `None` if unreachable.
fn path_between<'a>(
    adj: &BTreeMap<&'a str, BTreeSet<&'a str>>,
    from: &'a str,
    to: &str,
) -> Option<Vec<&'a str>> {
    let mut prev: BTreeMap<&str, &str> = BTreeMap::new();
    let mut queue = std::collections::VecDeque::from([from]);
    let mut seen: BTreeSet<&str> = BTreeSet::from([from]);
    while let Some(at) = queue.pop_front() {
        if at == to {
            let mut path = vec![at];
            let mut cur = at;
            while cur != from {
                cur = prev[cur];
                path.push(cur);
            }
            path.reverse();
            return Some(path);
        }
        for &next in adj.get(at).into_iter().flatten() {
            if seen.insert(next) {
                prev.insert(next, at);
                queue.push_back(next);
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use crate::analyze_source;

    #[test]
    fn opposing_orders_across_functions_are_a_cycle() {
        let src = "impl R {\n\
                   fn close(&self) {\n  let j = self.journal.lock();\n  self.sessions.lock();\n}\n\
                   fn stats(&self) {\n  let map = self.sessions.lock();\n  self.journal.lock();\n}\n\
                   }";
        let found = analyze_source("crates/serve/src/x.rs", src);
        assert!(
            found.iter().filter(|f| f.rule == "lock-order").count() >= 2,
            "both edges of the cycle report: {found:?}"
        );
        assert!(found.iter().any(|f| f.message.contains("journal -> sessions")));
    }

    #[test]
    fn consistent_order_is_clean() {
        let src = "impl R {\n\
                   fn a(&self) {\n  let j = self.journal.lock();\n  self.sessions.lock();\n}\n\
                   fn b(&self) {\n  let j = self.journal.lock();\n  self.sessions.lock();\n}\n\
                   }";
        assert!(analyze_source("crates/serve/src/x.rs", src).is_empty());
    }

    #[test]
    fn reentry_through_a_callee_is_flagged_with_provenance() {
        let src = "impl R {\n\
                   fn outer(&self) {\n  let g = self.sessions.lock();\n  self.inner();\n}\n\
                   fn inner(&self) {\n  self.sessions.lock();\n}\n\
                   }";
        let found = analyze_source("crates/serve/src/x.rs", src);
        assert_eq!(found.len(), 1, "{found:?}");
        assert_eq!(found[0].rule, "lock-order");
        assert!(found[0].message.contains("re-acquires the same lock class"));
        assert!(found[0].provenance.iter().any(|p| p.contains("fn inner")));
    }

    #[test]
    fn read_read_reentry_is_allowed_but_write_read_is_not() {
        let rr = "fn f(&self) {\n  let g = self.map.read();\n  self.map.read();\n}";
        assert!(analyze_source("crates/query/src/x.rs", rr).is_empty());
        let wr = "fn f(&self) {\n  let g = self.map.write();\n  self.map.read();\n}";
        let found = analyze_source("crates/query/src/x.rs", wr);
        assert_eq!(found.len(), 1);
        assert!(found[0].message.contains("self-deadlock"));
    }

    #[test]
    fn blocking_via_callee_upgrades_guard_across_blocking() {
        let src = "impl W {\n\
                   fn publish(&self) {\n  let g = self.state.lock();\n  self.fanout();\n}\n\
                   fn fanout(&self) {\n  self.tx.send(1);\n}\n\
                   }";
        let found = analyze_source("crates/serve/src/x.rs", src);
        assert_eq!(found.len(), 1, "{found:?}");
        assert_eq!(found[0].rule, "guard-across-blocking");
        assert!(found[0].provenance.iter().any(|p| p.contains("fn fanout")));
    }

    #[test]
    fn util_crate_is_exempt_and_tests_are_skipped() {
        let src = "fn close(&self) {\n  let j = self.journal.lock();\n  self.sessions.lock();\n}\n\
                   fn stats(&self) {\n  let map = self.sessions.lock();\n  self.journal.lock();\n}";
        assert!(analyze_source("crates/util/src/channel.rs", src).is_empty());
        let in_test = format!("#[cfg(test)]\nmod tests {{\n{src}\n}}");
        assert!(analyze_source("crates/serve/src/x.rs", &in_test).is_empty());
    }
}
