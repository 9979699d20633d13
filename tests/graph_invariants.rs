//! Property-based invariants for the integration learner's algorithms:
//! Steiner optimality ordering, the SPCSH approximation bound, and MIRA
//! constraint satisfaction. Runs on the in-tree `copycat::util::check`
//! harness.

use copycat::graph::{
    spcsh, steiner_exact, top_k_steiner, EdgeKind, Mira, NodeId, SourceGraph,
};
use copycat::query::Schema;
use copycat::util::check::{check, Gen, DEFAULT_CASES};
use copycat::{prop_ensure, prop_ensure_eq};

/// A random connected graph from generator-chosen parameters.
fn build_graph(n: usize, extra: &[(usize, usize, u32)]) -> SourceGraph {
    let mut g = SourceGraph::new();
    let nodes: Vec<NodeId> = (0..n)
        .map(|i| g.add_relation(format!("n{i}"), Schema::of(&["X"])))
        .collect();
    let join = || EdgeKind::Join { pairs: vec![("X".into(), "X".into())] };
    // Deterministic backbone.
    for i in 1..n {
        g.add_edge_with_cost(nodes[i], nodes[i / 2], join(), 1.0 + (i % 3) as f64 * 0.5);
    }
    for &(a, b, c) in extra {
        let (a, b) = (a % n, b % n);
        if a != b {
            g.add_edge_with_cost(
                nodes[a],
                nodes[b],
                join(),
                0.5 + (c % 20) as f64 / 10.0,
            );
        }
    }
    g
}

/// Draw the shared `(n, extra)` graph parameters.
fn gen_graph_params(g: &mut Gen, n_range: std::ops::Range<usize>, extra_range: std::ops::Range<usize>) -> (usize, Vec<(usize, usize, u32)>) {
    let n = g.usize_in(n_range);
    let extra = {
        let len = g.usize_in(extra_range);
        (0..len)
            .map(|_| {
                (
                    g.usize_in(0..16),
                    g.usize_in(0..16),
                    g.u64_in(0..40) as u32,
                )
            })
            .collect()
    };
    (n, extra)
}

/// SPCSH is feasible and within the 2(1 − 1/k) bound of the optimum;
/// the exact tree never costs more than the approximation.
#[test]
fn spcsh_within_bound() {
    check("spcsh_within_bound", 48, &[], |gen| {
        let (n, extra) = gen_graph_params(gen, 4..14, 0..12);
        let g = build_graph(n, &extra);
        let mut terminals: Vec<NodeId> = (0..3)
            .map(|_| NodeId((gen.usize_in(0..16) % n) as u32))
            .collect();
        terminals.sort();
        terminals.dedup();
        let exact = steiner_exact(&g, &terminals).expect("backbone connects");
        let approx = spcsh(&g, &terminals, 1.0).expect("connected");
        let k = terminals.len() as f64;
        prop_ensure!(exact.cost <= approx.cost + 1e-9);
        let bound = if k > 1.0 { 2.0 * (1.0 - 1.0 / k) } else { 1.0 };
        prop_ensure!(
            approx.cost <= exact.cost * bound.max(1.0) + 1e-9,
            "approx {} vs exact {} (k={})",
            approx.cost,
            exact.cost,
            k
        );
        // Both span every terminal.
        for t in &terminals {
            prop_ensure!(exact.nodes.contains(t));
            prop_ensure!(approx.nodes.contains(t));
        }
        Ok(())
    });
}

/// top-k is sorted, distinct, and headed by the optimum.
#[test]
fn top_k_sorted_distinct() {
    check("top_k_sorted_distinct", 48, &[], |gen| {
        let (n, extra) = gen_graph_params(gen, 4..10, 2..10);
        let extra: Vec<_> = extra
            .into_iter()
            .map(|(a, b, c)| (a % 12, b % 12, c))
            .collect();
        let g = build_graph(n, &extra);
        let terminals = vec![NodeId(0), NodeId((n - 1) as u32)];
        let trees = top_k_steiner(&g, &terminals, 4);
        prop_ensure!(!trees.is_empty());
        let exact = steiner_exact(&g, &terminals).expect("connected");
        prop_ensure!((trees[0].cost - exact.cost).abs() < 1e-9);
        for w in trees.windows(2) {
            prop_ensure!(w[0].cost <= w[1].cost + 1e-9);
            prop_ensure!(w[0].edges != w[1].edges);
        }
        Ok(())
    });
}

/// After a MIRA update, the constraint it was given holds (when the
/// trees differ), and shared edges are untouched.
#[test]
fn mira_satisfies_its_constraint() {
    check("mira_satisfies_its_constraint", 48, &[], |gen| {
        let (n, extra) = gen_graph_params(gen, 4..10, 2..10);
        let extra: Vec<_> = extra
            .into_iter()
            .map(|(a, b, c)| (a % 12, b % 12, c))
            .collect();
        let mut g = build_graph(n, &extra);
        let terminals = vec![NodeId(0), NodeId((n - 1) as u32)];
        let trees = top_k_steiner(&g, &terminals, 2);
        if trees.len() != 2 {
            return Ok(());
        }
        let (better, worse) = (trees[1].edges.clone(), trees[0].edges.clone());
        if better == worse {
            return Ok(());
        }
        let mira = Mira::default();
        // Repeated application converges because τ is capped.
        for _ in 0..50 {
            if mira.apply(&mut g, &better, &worse) == 0.0 {
                break;
            }
        }
        prop_ensure!(
            g.tree_cost(&better) <= g.tree_cost(&worse) - mira.margin + 1e-6,
            "constraint unsatisfied: {} vs {}",
            g.tree_cost(&better),
            g.tree_cost(&worse)
        );
        Ok(())
    });
}

/// A learned transform program reproduces every training example.
#[test]
fn transforms_fit_their_examples() {
    check("transforms_fit_their_examples", DEFAULT_CASES, &[], |gen| {
        let cap_word = |g: &mut Gen| {
            let head = *g.choose(&['A', 'B', 'K', 'M', 'P', 'T']);
            let tail = g.string_of("abcdeimnorst", 2..7);
            format!("{head}{tail}")
        };
        let count = gen.usize_in(2..5);
        let names: Vec<String> = (0..count).map(|_| cap_word(gen)).collect();
        let cities: Vec<String> = (0..count).map(|_| cap_word(gen)).collect();
        let examples: Vec<(Vec<String>, String)> = (0..count)
            .map(|i| {
                (
                    vec![names[i].clone(), cities[i].clone()],
                    format!("{}, {}", cities[i], names[i]),
                )
            })
            .collect();
        let Some(p) = copycat::transform::learn(&examples) else {
            return Err(format!("no program for {examples:?}"));
        };
        for (inp, out) in &examples {
            let got = p.apply(inp);
            prop_ensure_eq!(got.as_deref(), Some(out.as_str()), "{}", p);
        }
        Ok(())
    });
}
