//! E3 — Steiner-search scale-up (§4.2): exact top-k for small graphs,
//! SPCSH for larger ones. We measure wall time and approximation quality
//! as the graph and terminal set grow; the paper's qualitative claim is
//! that the exact algorithm is fine at CopyCat scale ("the number of
//! sources is often relatively small") while SPCSH's pruning buys
//! scaling.

use crate::gen::{random_graph, GraphSpec};
use copycat_graph::{spcsh, steiner_exact};
use std::time::{Duration, Instant};

/// One measurement row.
#[derive(Debug, Clone)]
pub struct E3Row {
    /// Nodes in the graph.
    pub nodes: usize,
    /// Terminals.
    pub terminals: usize,
    /// Exact solve time (None when skipped as infeasible).
    pub exact_time: Option<Duration>,
    /// SPCSH solve time.
    pub spcsh_time: Duration,
    /// SPCSH cost / exact cost (1.0 = optimal; None without exact).
    pub cost_ratio: Option<f64>,
}

/// Largest terminal count the E3 sweep runs the exact algorithm at. The
/// flat-array DP completes k=14 at 60 nodes in well under a second;
/// `MAX_EXACT_TERMINALS` (16) is the hard ceiling.
pub const EXACT_TERMINAL_SWEEP_LIMIT: usize = 14;

/// Sweep graph sizes at fixed terminal count, and terminal counts at a
/// fixed size. Returns (size sweep, terminal sweep).
pub fn run(sizes: &[usize], terminal_counts: &[usize]) -> (Vec<E3Row>, Vec<E3Row>) {
    let size_sweep = sizes.iter().map(|&n| measure(n, 4, true)).collect();
    let term_sweep = terminal_counts
        .iter()
        .map(|&k| measure(60, k, k <= EXACT_TERMINAL_SWEEP_LIMIT))
        .collect();
    (size_sweep, term_sweep)
}

fn measure(nodes: usize, terminals: usize, run_exact: bool) -> E3Row {
    let (g, t) = random_graph(
        &GraphSpec { nodes, extra_edges: nodes * 2, seed: nodes as u64 * 31 + terminals as u64 },
        terminals,
    );
    let (exact_time, exact_cost) = if run_exact {
        let start = Instant::now();
        let tree = steiner_exact(&g, &t).expect("backbone keeps it connected");
        (Some(start.elapsed()), Some(tree.cost))
    } else {
        (None, None)
    };
    let start = Instant::now();
    let approx = spcsh(&g, &t, 0.8).expect("connected");
    let spcsh_time = start.elapsed();
    E3Row {
        nodes,
        terminals,
        exact_time,
        spcsh_time,
        cost_ratio: exact_cost.map(|c| approx.cost / c),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use copycat_graph::{steiner_exact_in, SteinerScratch};

    #[test]
    fn spcsh_within_guarantee_and_scales() {
        let (sizes, terms) = run(&[20, 60], &[2, 6]);
        for row in sizes.iter().chain(terms.iter()) {
            if let Some(r) = row.cost_ratio {
                assert!(
                    (1.0..=2.0 + 1e-9).contains(&r),
                    "ratio {r} out of the 2(1-1/k) guarantee at n={}",
                    row.nodes
                );
            }
        }
    }

    #[test]
    fn exact_blows_up_in_terminals_not_nodes() {
        // The Dreyfus–Wagner table is 2^k · n cells: going from k=2 to
        // k=8 terminals must grow it far more than doubling the nodes.
        let cells = |nodes: usize, terminals: usize| {
            let (g, t) = random_graph(
                &GraphSpec { nodes, extra_edges: nodes * 2, seed: 7 },
                terminals,
            );
            let mut scratch = SteinerScratch::new();
            steiner_exact_in(&g, &t, &mut scratch).expect("backbone keeps it connected");
            scratch.table_cells()
        };
        let k_growth = cells(60, 8) / cells(60, 2);
        let n_growth = cells(120, 4) / cells(60, 4);
        assert_eq!(k_growth, 1 << 6, "k=8 fills 2^6 times the cells of k=2 at n=60");
        assert_eq!(n_growth, 2, "n=120 fills twice the cells of n=60 at k=4");
        assert!(k_growth > n_growth, "terminals, not nodes, drive the table size");
    }
}
