//! Steiner-tree query search (§4.2).
//!
//! "The learner finds the most likely explanations for the tuples
//! (queries) by discovering Steiner trees connecting the data sources in
//! the source graph. For small source graphs, we can compute the most
//! promising queries using an exact top-k Steiner tree algorithm … For
//! larger graphs we use the SPCSH Steiner tree approximation algorithm,
//! which prunes 'non-promising' edges from the source graph for better
//! scaling."
//!
//! The paper's exact algorithm is an ILP; we use the Dreyfus–Wagner
//! dynamic program, which computes the same optima without an external
//! solver, plus edge-exclusion branching for top-k. The approximation is
//! a shortest-path component heuristic with optional cost-quantile edge
//! pruning (the SPCSH knob ablated in experiment A3).
//!
//! The DP is laid out for speed: flat `mask*n` tables in a reusable
//! [`SteinerScratch`], a branchless vectorizable min-plus merge (merge
//! derivations are re-found at traceback instead of stored), a queued
//! Bellman–Ford grow step over a banned-edge-filtered CSR adjacency
//! built once per solve, and a greedy feasible upper bound that skips
//! hopeless merge pairs and caps label propagation. Top-k branching
//! solves its independent child subproblems on scoped worker threads
//! when the host has cores to spare and the subproblem is large enough
//! to pay for them.

use crate::source_graph::{EdgeId, NodeId, SourceGraph};
use copycat_util::hash::{FxHashSet, FxHasher};
use std::collections::BinaryHeap;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

/// A Steiner tree: the chosen edges, the spanned nodes, and total cost.
#[derive(Debug, Clone, PartialEq)]
pub struct SteinerTree {
    /// Tree edges, sorted.
    pub edges: Vec<EdgeId>,
    /// Spanned nodes (terminals plus any intermediates), sorted.
    pub nodes: Vec<NodeId>,
    /// Sum of edge costs.
    pub cost: f64,
}

impl SteinerTree {
    fn from_edges(g: &SourceGraph, mut edges: Vec<EdgeId>, terminals: &[NodeId]) -> SteinerTree {
        edges.sort_unstable();
        edges.dedup();
        let mut nodes: Vec<NodeId> = terminals.to_vec();
        for &e in &edges {
            nodes.push(g.edge(e).a);
            nodes.push(g.edge(e).b);
        }
        nodes.sort_unstable();
        nodes.dedup();
        let cost = g.tree_cost(&edges);
        SteinerTree { edges, nodes, cost }
    }
}

/// Maximum supported terminal count for the exact algorithm (the DP is
/// exponential in it). The flat-table DP keeps 16 terminals tractable
/// (≈2 s at 60 nodes); interactive workloads stay well below that.
pub const MAX_EXACT_TERMINALS: usize = 16;

const INF: f64 = f64::INFINITY;

/// DP table size (`2^k * n` cells) past which computing the greedy
/// upper bound pays for itself. Below this the solve is microseconds
/// anyway and the extra Dijkstras would dominate.
const UB_PRUNE_MIN_CELLS: usize = 1 << 12;

/// Sentinel for "no backpointer" in the packed reconstruction tables.
const NONE32: u32 = u32::MAX;

/// Reusable scratch buffers for exact Steiner searches. Allocate one per
/// search session (or per worker thread) and pass it to
/// [`steiner_exact_in`]; repeated solves then reuse the DP tables, the
/// relaxation worklist, and the filtered adjacency instead of
/// reallocating.
#[derive(Debug, Default)]
pub struct SteinerScratch {
    /// `dp[mask * n + v]`: cheapest tree spanning terminal set `mask`
    /// rooted at node `v`.
    dp: Vec<f64>,
    /// Backpointers, packed into two flat `u32` planes (see
    /// [`SteinerScratch::reconstruct`] for the encoding).
    back_a: Vec<u32>,
    back_b: Vec<u32>,
    /// Min of `dp[mask]` over nodes, used to skip all-infinite merges.
    mask_min: Vec<f64>,
    /// Binary min-heap storage (upper-bound pass only).
    heap: Vec<(f64, u32)>,
    /// Grow-step worklist: FIFO of nodes with pending relaxations plus
    /// membership flags, reused across masks.
    queue: Vec<u32>,
    in_queue: Vec<bool>,
    /// Banned-filtered CSR adjacency: node `v`'s neighbors live at
    /// `adj_*[adj_off[v]..adj_off[v + 1]]`.
    adj_off: Vec<u32>,
    adj_node: Vec<u32>,
    adj_edge: Vec<u32>,
    adj_cost: Vec<f64>,
    /// Per-edge banned flags, rebuilt per solve (O(banned), not O(m)).
    banned_flag: Vec<bool>,
    /// Upper-bound pass state: per-node distance, predecessor, and
    /// tree-membership (0 = outside, 1 = in tree, 2 = unreached terminal).
    ub_dist: Vec<f64>,
    ub_pred: Vec<u32>,
    ub_state: Vec<u8>,
}

impl SteinerScratch {
    /// Fresh, empty scratch (buffers grow on first use).
    pub fn new() -> Self {
        Self::default()
    }

    /// Cells in the Dreyfus–Wagner table the last solve filled:
    /// `2^k · n` for `k` terminals over `n` nodes.
    pub fn table_cells(&self) -> usize {
        self.dp.len()
    }

    /// Rebuild the CSR adjacency for `g` with `banned` edges removed.
    /// After this, the inner relaxation loop touches only flat arrays.
    fn build_adjacency(&mut self, g: &SourceGraph, banned: &[EdgeId]) {
        let n = g.node_count();
        self.banned_flag.clear();
        self.banned_flag.resize(g.edge_count(), false);
        for &e in banned {
            self.banned_flag[e.0 as usize] = true;
        }
        self.adj_off.clear();
        self.adj_node.clear();
        self.adj_edge.clear();
        self.adj_cost.clear();
        self.adj_off.push(0);
        for v in 0..n {
            let vid = NodeId(v as u32);
            for &e in g.incident(vid) {
                if self.banned_flag[e.0 as usize] {
                    continue;
                }
                self.adj_node.push(g.other_end(e, vid).0);
                self.adj_edge.push(e.0);
                self.adj_cost.push(g.cost(e));
            }
            self.adj_off.push(self.adj_node.len() as u32);
        }
    }

    /// Walk the derivation from `(full, best_v)` and collect tree edges.
    /// Grow steps are recorded as backpointers (`back_b` = edge,
    /// `back_a` = predecessor node); merge steps store nothing — the
    /// merge loop is branchless — and are re-derived here by finding a
    /// submask pair whose stored sums reproduce the cell's value
    /// bit-exactly (the winning write computed exactly that sum from the
    /// same, by-then-final rows).
    fn reconstruct(&self, n: usize, full: usize, best_v: usize) -> Vec<EdgeId> {
        let mut edges = Vec::new();
        let mut stack = vec![(full, best_v)];
        while let Some((mask, v)) = stack.pop() {
            let idx = mask * n + v;
            let b = self.back_b[idx];
            if b != NONE32 {
                edges.push(EdgeId(b));
                stack.push((mask, self.back_a[idx] as usize));
                continue;
            }
            if mask & (mask - 1) == 0 {
                continue; // singleton terminal
            }
            let val = self.dp[idx];
            let mut sub = (mask - 1) & mask;
            let mut found = false;
            while sub > 0 {
                let other = mask ^ sub;
                if sub < other && self.dp[sub * n + v] + self.dp[other * n + v] == val {
                    stack.push((sub, v));
                    stack.push((other, v));
                    found = true;
                    break;
                }
                sub = (sub - 1) & mask;
            }
            assert!(found, "no merge derivation for a finite DP cell");
        }
        edges
    }

    /// Feasible-cost upper bound over the filtered CSR adjacency: greedy
    /// nearest-terminal attachment (the SPCSH core without pruning), so
    /// the bound respects banned edges. Returns `INF` when the terminals
    /// are disconnected. Any DP label above this bound can never sit on
    /// an optimal derivation (labels only grow along one), so the solver
    /// uses it to cut merges, heap pushes, and whole masks.
    fn upper_bound(&mut self, n: usize, terminals: &[NodeId]) -> f64 {
        self.ub_state.clear();
        self.ub_state.resize(n, 0);
        let mut left = 0usize;
        for &t in &terminals[1..] {
            if self.ub_state[t.0 as usize] == 0 {
                self.ub_state[t.0 as usize] = 2;
                left += 1;
            }
        }
        if self.ub_state[terminals[0].0 as usize] == 2 {
            left -= 1;
        }
        self.ub_state[terminals[0].0 as usize] = 1;
        let mut total = 0.0;
        while left > 0 {
            self.ub_dist.clear();
            self.ub_dist.resize(n, INF);
            self.ub_pred.clear();
            self.ub_pred.resize(n, NONE32);
            self.heap.clear();
            for v in 0..n {
                if self.ub_state[v] == 1 {
                    self.ub_dist[v] = 0.0;
                    heap_push(&mut self.heap, (0.0, v as u32));
                }
            }
            let mut reached = NONE32;
            while let Some((c, v)) = heap_pop(&mut self.heap) {
                let vu = v as usize;
                if c > self.ub_dist[vu] {
                    continue;
                }
                if self.ub_state[vu] == 2 {
                    reached = v;
                    break;
                }
                for i in self.adj_off[vu] as usize..self.adj_off[vu + 1] as usize {
                    let u = self.adj_node[i] as usize;
                    let nc = c + self.adj_cost[i];
                    if nc < self.ub_dist[u] {
                        self.ub_dist[u] = nc;
                        self.ub_pred[u] = v;
                        heap_push(&mut self.heap, (nc, u as u32));
                    }
                }
            }
            if reached == NONE32 {
                return INF;
            }
            total += self.ub_dist[reached as usize];
            let mut v = reached as usize;
            while self.ub_state[v] != 1 {
                if self.ub_state[v] == 2 {
                    left -= 1;
                }
                self.ub_state[v] = 1;
                let p = self.ub_pred[v];
                if p == NONE32 {
                    break;
                }
                v = p as usize;
            }
        }
        total
    }
}

/// Push onto the in-place binary min-heap.
fn heap_push(h: &mut Vec<(f64, u32)>, item: (f64, u32)) {
    h.push(item);
    let mut i = h.len() - 1;
    while i > 0 {
        let parent = (i - 1) / 2;
        if h[parent].0 <= h[i].0 {
            break;
        }
        h.swap(parent, i);
        i = parent;
    }
}

/// Pop the minimum from the in-place binary min-heap.
fn heap_pop(h: &mut Vec<(f64, u32)>) -> Option<(f64, u32)> {
    if h.is_empty() {
        return None;
    }
    let last = h.len() - 1;
    h.swap(0, last);
    let top = h.pop();
    let mut i = 0;
    loop {
        let (l, r) = (2 * i + 1, 2 * i + 2);
        let mut smallest = i;
        if l < h.len() && h[l].0 < h[smallest].0 {
            smallest = l;
        }
        if r < h.len() && h[r].0 < h[smallest].0 {
            smallest = r;
        }
        if smallest == i {
            break;
        }
        h.swap(i, smallest);
        i = smallest;
    }
    top
}

/// Exact minimum-cost Steiner tree via Dreyfus–Wagner. Returns `None`
/// when the terminals are not connected (or `terminals` is empty).
///
/// Allocates fresh scratch; use [`steiner_exact_in`] to amortize
/// allocations across repeated solves.
///
/// # Panics
/// Panics when more than [`MAX_EXACT_TERMINALS`] terminals are given.
pub fn steiner_exact(g: &SourceGraph, terminals: &[NodeId]) -> Option<SteinerTree> {
    steiner_exact_in(g, terminals, &mut SteinerScratch::new())
}

/// [`steiner_exact`] with caller-provided scratch buffers.
pub fn steiner_exact_in(
    g: &SourceGraph,
    terminals: &[NodeId],
    scratch: &mut SteinerScratch,
) -> Option<SteinerTree> {
    steiner_exact_banned_in(g, terminals, &[], scratch)
}

fn steiner_exact_banned_in(
    g: &SourceGraph,
    terminals: &[NodeId],
    banned: &[EdgeId],
    s: &mut SteinerScratch,
) -> Option<SteinerTree> {
    let k = terminals.len();
    assert!(
        k <= MAX_EXACT_TERMINALS,
        "exact Steiner supports at most {MAX_EXACT_TERMINALS} terminals, got {k}"
    );
    if k == 0 {
        return None;
    }
    if k == 1 {
        return Some(SteinerTree::from_edges(g, Vec::new(), terminals));
    }
    let n = g.node_count();
    let full: u32 = (1u32 << k) - 1;
    let masks = full as usize + 1;
    s.build_adjacency(g, banned);
    // A feasible solution's cost bounds every label worth keeping. The
    // greedy bound costs a few Dijkstras, so only pay for it when the DP
    // table is big enough for pruning to matter. The tiny relative slack
    // keeps the optimum itself alive under float-summation-order noise.
    let ub = if masks * n >= UB_PRUNE_MIN_CELLS {
        s.upper_bound(n, terminals) * (1.0 + 1e-9)
    } else {
        INF
    };
    s.dp.clear();
    s.dp.resize(masks * n, INF);
    s.back_a.clear();
    s.back_a.resize(masks * n, NONE32);
    s.back_b.clear();
    s.back_b.resize(masks * n, NONE32);
    s.mask_min.clear();
    s.mask_min.resize(masks, INF);
    for (i, &t) in terminals.iter().enumerate() {
        s.dp[(1usize << i) * n + t.0 as usize] = 0.0;
        s.mask_min[1 << i] = 0.0;
    }
    for mask in 1..=full {
        let m = mask as usize;
        let base = m * n;
        // Split so submask rows (strictly below `base`) stay readable
        // while this mask's row is written.
        let (lower, upper) = s.dp.split_at_mut(base);
        let dpm = &mut upper[..n];
        // Merge step: combine disjoint submask halves at the same node.
        // The inner loop is a pure min-plus scan — no backpointers
        // (merges are re-derived at traceback) and no branches — so it
        // vectorizes. A pair is skipped outright when the sum of its
        // halves' row minima already exceeds the feasible upper bound,
        // or when either half is everywhere-infinite.
        if mask & (mask - 1) != 0 {
            let mut sub = (mask - 1) & mask;
            while sub > 0 {
                let other = mask ^ sub;
                if sub < other {
                    let floor = s.mask_min[sub as usize] + s.mask_min[other as usize];
                    if floor < INF && floor <= ub {
                        let sb = sub as usize * n;
                        let ob = other as usize * n;
                        for v in 0..n {
                            let c = lower[sb + v] + lower[ob + v];
                            dpm[v] = if c < dpm[v] { c } else { dpm[v] };
                        }
                    }
                }
                sub = (sub - 1) & mask;
            }
        }
        // Grow step: shortest-path closure of the row over the filtered
        // CSR adjacency via queued relaxation (Bellman–Ford with a
        // worklist). After the first pass only nodes that actually
        // improved re-enter the queue, so near-fixpoint rows — the
        // common case once small masks are done — cost almost nothing.
        // Labels above the feasible bound are useless and not propagated.
        s.queue.clear();
        s.in_queue.clear();
        s.in_queue.resize(n, false);
        for (v, &c) in dpm.iter().enumerate() {
            if c < INF {
                s.queue.push(v as u32);
                s.in_queue[v] = true;
            }
        }
        let mut head = 0;
        while head < s.queue.len() {
            let v = s.queue[head] as usize;
            head += 1;
            s.in_queue[v] = false;
            let dv = dpm[v];
            let (lo, hi) = (s.adj_off[v] as usize, s.adj_off[v + 1] as usize);
            for i in lo..hi {
                let u = s.adj_node[i] as usize;
                let nc = dv + s.adj_cost[i];
                if nc < dpm[u] && nc <= ub {
                    dpm[u] = nc;
                    s.back_a[base + u] = v as u32;
                    s.back_b[base + u] = s.adj_edge[i];
                    if !s.in_queue[u] {
                        s.in_queue[u] = true;
                        s.queue.push(u as u32);
                    }
                }
            }
        }
        let mut mask_min = INF;
        for &c in dpm.iter() {
            if c < mask_min {
                mask_min = c;
            }
        }
        s.mask_min[m] = mask_min;
    }
    // Optimum: min over v of dp[full][v].
    let full_base = full as usize * n;
    let (mut best_v, mut best_cost) = (0usize, INF);
    for v in 0..n {
        let c = s.dp[full_base + v];
        if c < best_cost {
            best_cost = c;
            best_v = v;
        }
    }
    if best_cost.is_infinite() {
        return None;
    }
    let edges = s.reconstruct(n, full as usize, best_v);
    Some(SteinerTree::from_edges(g, edges, terminals))
}

/// Total order wrapper for finite f64 costs.
#[derive(Debug, Clone, Copy, PartialEq)]
struct OrdF64(f64);

impl Eq for OrdF64 {}

impl PartialOrd for OrdF64 {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for OrdF64 {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0.partial_cmp(&other.0).expect("finite costs")
    }
}

/// A top-k branching candidate: a solved tree plus the edge set its
/// subproblem banned. Ordered so the candidate `BinaryHeap` pops the
/// cheapest tree first, with a deterministic tie-break — sequential and
/// parallel branching therefore enumerate identical sequences.
#[derive(Debug)]
struct Candidate {
    cost: f64,
    /// Tree edges, sorted (the reconstruction output is sorted).
    edges: Vec<EdgeId>,
    /// Banned edges of the subproblem that produced this tree.
    banned: Vec<EdgeId>,
}

impl PartialEq for Candidate {
    fn eq(&self, other: &Self) -> bool {
        self.cost == other.cost && self.edges == other.edges && self.banned == other.banned
    }
}

impl Eq for Candidate {}

impl PartialOrd for Candidate {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Candidate {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Max-heap: cheapest cost wins, ties broken structurally.
        other
            .cost
            .partial_cmp(&self.cost)
            .expect("finite costs")
            .then_with(|| self.edges.cmp(&other.edges))
            .then_with(|| self.banned.cmp(&other.banned))
    }
}

/// Cheap dedup key for a sorted edge set (the `seen` set stores these
/// 64-bit keys instead of cloning whole edge vectors).
fn edge_key(edges: &[EdgeId]) -> u64 {
    let mut h = FxHasher::default();
    edges.hash(&mut h);
    h.finish()
}

/// Whether a banned-child solve is big enough to pay for worker threads:
/// the DP table is `2^k * n` cells, and thread startup costs ~tens of µs.
/// On a single-core host there is nothing to win, so never spawn there.
/// The size test runs first: it is false for every interactive-sized
/// graph, and the core count is a cached read besides.
fn parallel_worthwhile(g: &SourceGraph, terminals: &[NodeId]) -> bool {
    terminals.len() <= MAX_EXACT_TERMINALS
        && g.node_count().saturating_mul(1usize << terminals.len()) >= 1 << 14
        && cores() > 1
}

/// The host's available parallelism, asked of the OS once per process
/// (the query can read cgroup files and cost tens of µs per call).
fn cores() -> usize {
    static CORES: OnceLock<usize> = OnceLock::new();
    *CORES.get_or_init(|| std::thread::available_parallelism().map_or(1, |p| p.get()))
}

/// Solve every child subproblem (one banned set each) on scoped worker
/// threads, each with its own scratch. Results keep child order, so the
/// caller's heap evolution is identical to the sequential path.
fn solve_children_parallel(
    g: &SourceGraph,
    terminals: &[NodeId],
    children: &[Vec<EdgeId>],
) -> Vec<Option<SteinerTree>> {
    let workers = cores().min(children.len());
    let next = AtomicUsize::new(0);
    let mut out: Vec<Option<SteinerTree>> = vec![None; children.len()];
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                let next = &next;
                scope.spawn(move || {
                    let mut scratch = SteinerScratch::new();
                    let mut local = Vec::new();
                    loop {
                        // relaxed: a work-index dispenser needs only the
                        // RMW's atomicity; the scope join publishes results.
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= children.len() {
                            break;
                        }
                        local.push((
                            i,
                            steiner_exact_banned_in(g, terminals, &children[i], &mut scratch),
                        ));
                    }
                    local
                })
            })
            .collect();
        for h in handles {
            for (i, t) in h.join().expect("steiner worker panicked") {
                out[i] = t;
            }
        }
    });
    out
}

/// Exact top-k Steiner trees by nondecreasing cost, via edge-exclusion
/// branching over [`steiner_exact`]. Distinct edge sets only. Child
/// subproblems run on worker threads when large enough to pay for them.
pub fn top_k_steiner(g: &SourceGraph, terminals: &[NodeId], k: usize) -> Vec<SteinerTree> {
    top_k_steiner_banned(g, terminals, k, &[])
}

/// [`top_k_steiner`] with an initial set of banned edges that no
/// returned tree may use. This is the failover entry point: when a
/// service's circuit breaker trips, its incident edges are banned and
/// the search re-plans over the remaining sources (§3.2's "propose
/// replacement sources").
pub fn top_k_steiner_banned(
    g: &SourceGraph,
    terminals: &[NodeId],
    k: usize,
    banned: &[EdgeId],
) -> Vec<SteinerTree> {
    top_k_steiner_banned_opts(g, terminals, k, banned, parallel_worthwhile(g, terminals))
}

/// [`top_k_steiner_banned`] with explicit control over parallel
/// branching (`parallel = false` forces the sequential path; both modes
/// return identical results). The initial ban seeds every branch, so
/// the exclusion holds across the whole top-k enumeration, not just the
/// first tree.
fn top_k_steiner_banned_opts(
    g: &SourceGraph,
    terminals: &[NodeId],
    k: usize,
    init_banned: &[EdgeId],
    parallel: bool,
) -> Vec<SteinerTree> {
    let mut out: Vec<SteinerTree> = Vec::new();
    if k == 0 {
        return out;
    }
    let mut scratch = SteinerScratch::new();
    let Some(first) = steiner_exact_banned_in(g, terminals, init_banned, &mut scratch) else {
        return out;
    };
    let mut seen: FxHashSet<u64> = FxHashSet::default();
    let mut heap: BinaryHeap<Candidate> = BinaryHeap::new();
    heap.push(Candidate { cost: first.cost, edges: first.edges, banned: init_banned.to_vec() });
    while let Some(cand) = heap.pop() {
        if !seen.insert(edge_key(&cand.edges)) {
            continue;
        }
        let Candidate { edges, banned, .. } = cand;
        out.push(SteinerTree::from_edges(g, edges, terminals));
        if out.len() >= k {
            break;
        }
        // Branch: ban each edge of this tree in turn (any distinct tree
        // must omit at least one of them). The child solves share no
        // state, so they can run concurrently.
        let tree_edges = &out.last().expect("just pushed").edges;
        let children: Vec<Vec<EdgeId>> = tree_edges
            .iter()
            .map(|&e| {
                let mut b = banned.clone();
                b.push(e);
                b
            })
            .collect();
        let solved: Vec<Option<SteinerTree>> = if parallel && children.len() >= 2 {
            solve_children_parallel(g, terminals, &children)
        } else {
            children
                .iter()
                .map(|b| steiner_exact_banned_in(g, terminals, b, &mut scratch))
                .collect()
        };
        for (b, t) in children.into_iter().zip(solved) {
            if let Some(t) = t {
                heap.push(Candidate { cost: t.cost, edges: t.edges, banned: b });
            }
        }
    }
    out
}

/// SPCSH-style approximation: shortest-path component heuristic with
/// optional edge pruning. `prune_quantile` ∈ (0, 1]: edges costlier than
/// that cost quantile are ignored (1.0 = no pruning); if pruning
/// disconnects the terminals the search transparently retries unpruned.
pub fn spcsh(g: &SourceGraph, terminals: &[NodeId], prune_quantile: f64) -> Option<SteinerTree> {
    if terminals.is_empty() {
        return None;
    }
    let banned = prune_set(g, prune_quantile);
    match spcsh_banned(g, terminals, &banned) {
        Some(t) => Some(t),
        None if !banned.is_empty() => spcsh_banned(g, terminals, &FxHashSet::default()),
        None => None,
    }
}

fn prune_set(g: &SourceGraph, quantile: f64) -> FxHashSet<EdgeId> {
    if quantile >= 1.0 || g.edge_count() == 0 {
        return FxHashSet::default();
    }
    let mut costs: Vec<f64> = g.edge_ids().map(|e| g.cost(e)).collect();
    costs.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    let idx = ((costs.len() as f64 - 1.0) * quantile.clamp(0.0, 1.0)).round() as usize;
    let threshold = costs[idx];
    g.edge_ids().filter(|&e| g.cost(e) > threshold).collect()
}

fn spcsh_banned(
    g: &SourceGraph,
    terminals: &[NodeId],
    banned: &FxHashSet<EdgeId>,
) -> Option<SteinerTree> {
    let n = g.node_count();
    // Start with the tree containing terminal 0; repeatedly attach the
    // nearest other terminal via its shortest path to the current tree.
    let mut in_tree = vec![false; n];
    in_tree[terminals[0].0 as usize] = true;
    let mut tree_edges: Vec<EdgeId> = Vec::new();
    let mut remaining: FxHashSet<NodeId> = terminals[1..].iter().copied().collect();

    while !remaining.is_empty() {
        // Multi-source Dijkstra from the current tree.
        let mut dist = vec![INF; n];
        let mut pred: Vec<Option<(NodeId, EdgeId)>> = vec![None; n];
        let mut heap: BinaryHeap<(std::cmp::Reverse<OrdF64>, usize)> = BinaryHeap::new();
        for v in 0..n {
            if in_tree[v] {
                dist[v] = 0.0;
                heap.push((std::cmp::Reverse(OrdF64(0.0)), v));
            }
        }
        let mut reached: Option<NodeId> = None;
        while let Some((std::cmp::Reverse(OrdF64(c)), v)) = heap.pop() {
            if c > dist[v] {
                continue;
            }
            let vid = NodeId(v as u32);
            if remaining.contains(&vid) {
                reached = Some(vid);
                break;
            }
            for &e in g.incident(vid) {
                if banned.contains(&e) {
                    continue;
                }
                let u = g.other_end(e, vid).0 as usize;
                let nc = c + g.cost(e);
                if nc < dist[u] {
                    dist[u] = nc;
                    pred[u] = Some((vid, e));
                    heap.push((std::cmp::Reverse(OrdF64(nc)), u));
                }
            }
        }
        let target = reached?;
        // Trace the path back into the tree.
        let mut cur = target;
        while !in_tree[cur.0 as usize] {
            in_tree[cur.0 as usize] = true;
            let (prev, e) = pred[cur.0 as usize].expect("path exists");
            tree_edges.push(e);
            cur = prev;
        }
        remaining.remove(&target);
    }
    Some(SteinerTree::from_edges(g, tree_edges, terminals))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source_graph::EdgeKind;
    use copycat_query::Schema;
    use copycat_util::check::{check, Gen};
    use copycat_util::rng::{Rng, SeedableRng, StdRng};
    use copycat_util::{prop_ensure, prop_ensure_eq};

    fn chain(costs: &[f64]) -> (SourceGraph, Vec<NodeId>) {
        let mut g = SourceGraph::new();
        let nodes: Vec<NodeId> = (0..=costs.len())
            .map(|i| g.add_relation(format!("n{i}"), Schema::of(&["X"])))
            .collect();
        for (i, &c) in costs.iter().enumerate() {
            g.add_edge_with_cost(
                nodes[i],
                nodes[i + 1],
                EdgeKind::Join { pairs: vec![("X".into(), "X".into())] },
                c,
            );
        }
        (g, nodes)
    }

    /// Random connected-ish graph for cross-validation.
    fn random_graph(seed: u64, n: usize, extra_edges: usize) -> SourceGraph {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut g = SourceGraph::new();
        let nodes: Vec<NodeId> = (0..n)
            .map(|i| g.add_relation(format!("n{i}"), Schema::of(&["X"])))
            .collect();
        // Random spanning structure, then extra edges.
        for i in 1..n {
            let j = rng.gen_range(0..i);
            g.add_edge_with_cost(
                nodes[i],
                nodes[j],
                EdgeKind::Join { pairs: vec![("X".into(), "X".into())] },
                rng.gen_range(0.5..3.0),
            );
        }
        for _ in 0..extra_edges {
            let i = rng.gen_range(0..n);
            let j = rng.gen_range(0..n);
            if i != j {
                g.add_edge_with_cost(
                    nodes[i],
                    nodes[j],
                    EdgeKind::Join { pairs: vec![("X".into(), "X".into())] },
                    rng.gen_range(0.5..3.0),
                );
            }
        }
        g
    }

    /// Brute-force optimum: try every node subset containing the
    /// terminals; for each, the MST of the induced subgraph.
    fn brute_force(g: &SourceGraph, terminals: &[NodeId]) -> Option<f64> {
        let n = g.node_count();
        assert!(n <= 12);
        let term_mask: u32 = terminals.iter().map(|t| 1u32 << t.0).sum();
        let mut best: Option<f64> = None;
        for mask in 0..(1u32 << n) {
            if mask & term_mask != term_mask {
                continue;
            }
            if let Some(c) = induced_mst(g, mask) {
                best = Some(best.map_or(c, |b: f64| b.min(c)));
            }
        }
        best
    }

    fn induced_mst(g: &SourceGraph, mask: u32) -> Option<f64> {
        let nodes: Vec<usize> = (0..g.node_count()).filter(|v| mask & (1 << v) != 0).collect();
        if nodes.is_empty() {
            return None;
        }
        // Prim's.
        let mut in_mst = vec![false; g.node_count()];
        in_mst[nodes[0]] = true;
        let mut count = 1;
        let mut total = 0.0;
        while count < nodes.len() {
            let mut best: Option<(f64, usize)> = None;
            for &v in &nodes {
                if !in_mst[v] {
                    continue;
                }
                for &e in g.incident(NodeId(v as u32)) {
                    let u = g.other_end(e, NodeId(v as u32)).0 as usize;
                    if mask & (1 << u) != 0 && !in_mst[u] {
                        let c = g.cost(e);
                        if best.is_none_or(|(bc, _)| c < bc) {
                            best = Some((c, u));
                        }
                    }
                }
            }
            let (c, u) = best?;
            in_mst[u] = true;
            total += c;
            count += 1;
        }
        Some(total)
    }

    #[test]
    fn chain_tree_is_whole_chain() {
        let (g, nodes) = chain(&[1.0, 2.0, 3.0]);
        let t = steiner_exact(&g, &[nodes[0], nodes[3]]).unwrap();
        assert_eq!(t.cost, 6.0);
        assert_eq!(t.edges.len(), 3);
    }

    #[test]
    fn intermediate_nodes_are_used() {
        // Star: terminals on leaves, hub is a non-terminal Steiner point.
        let mut g = SourceGraph::new();
        let hub = g.add_relation("hub", Schema::of(&["X"]));
        let leaves: Vec<NodeId> = (0..3)
            .map(|i| g.add_relation(format!("l{i}"), Schema::of(&["X"])))
            .collect();
        for &l in &leaves {
            g.add_edge_with_cost(
                hub,
                l,
                EdgeKind::Join { pairs: vec![("X".into(), "X".into())] },
                1.0,
            );
        }
        let t = steiner_exact(&g, &leaves).unwrap();
        assert_eq!(t.cost, 3.0);
        assert!(t.nodes.contains(&hub));
    }

    #[test]
    fn single_terminal_is_empty_tree() {
        let (g, nodes) = chain(&[1.0]);
        let t = steiner_exact(&g, &[nodes[0]]).unwrap();
        assert!(t.edges.is_empty());
        assert_eq!(t.cost, 0.0);
    }

    #[test]
    fn disconnected_terminals_yield_none() {
        let mut g = SourceGraph::new();
        let a = g.add_relation("a", Schema::of(&["X"]));
        let b = g.add_relation("b", Schema::of(&["X"]));
        assert!(steiner_exact(&g, &[a, b]).is_none());
        assert!(spcsh(&g, &[a, b], 1.0).is_none());
    }

    #[test]
    fn scratch_reuse_is_sound() {
        // Solving different problems through one scratch must not leak
        // state between solves.
        let mut scratch = SteinerScratch::new();
        for seed in 0..10 {
            let g = random_graph(seed, 9, 8);
            let terminals = vec![NodeId(0), NodeId(4), NodeId(8)];
            let fresh = steiner_exact(&g, &terminals).map(|t| t.cost);
            let reused = steiner_exact_in(&g, &terminals, &mut scratch).map(|t| t.cost);
            assert_eq!(fresh, reused, "seed {seed}");
        }
    }

    #[test]
    fn exact_matches_brute_force_on_random_graphs() {
        for seed in 0..20 {
            let g = random_graph(seed, 9, 8);
            let terminals = vec![NodeId(0), NodeId(4), NodeId(8)];
            let exact = steiner_exact(&g, &terminals).map(|t| t.cost);
            let brute = brute_force(&g, &terminals);
            match (exact, brute) {
                (Some(a), Some(b)) => {
                    assert!((a - b).abs() < 1e-9, "seed {seed}: exact {a} vs brute {b}")
                }
                (None, None) => {}
                other => panic!("seed {seed}: {other:?}"),
            }
        }
    }

    /// Draw a small random graph from the property-test tape: ≤8 nodes,
    /// optional spanning backbone (absent → possibly disconnected),
    /// random extra edges, and 1–5 distinct terminals.
    fn gen_graph(gen: &mut Gen) -> (SourceGraph, Vec<NodeId>) {
        let n = gen.usize_in(2..9);
        let mut g = SourceGraph::new();
        let nodes: Vec<NodeId> = (0..n)
            .map(|i| g.add_relation(format!("n{i}"), Schema::of(&["X"])))
            .collect();
        let join = || EdgeKind::Join { pairs: vec![("X".into(), "X".into())] };
        if gen.bool_p(0.8) {
            for i in 1..n {
                let j = gen.usize_in(0..i);
                g.add_edge_with_cost(nodes[i], nodes[j], join(), gen.f64_in(0.1..3.0));
            }
        }
        for _ in 0..gen.usize_in(0..10) {
            let a = gen.usize_in(0..n);
            let b = gen.usize_in(0..n);
            if a != b {
                g.add_edge_with_cost(nodes[a], nodes[b], join(), gen.f64_in(0.1..3.0));
            }
        }
        let k = gen.usize_in(1..n.min(5) + 1);
        let mut terminals = Vec::with_capacity(k);
        while terminals.len() < k {
            let cand = nodes[gen.usize_in(0..n)];
            if !terminals.contains(&cand) {
                terminals.push(cand);
            }
        }
        (g, terminals)
    }

    #[test]
    fn prop_exact_matches_brute_force() {
        check("steiner-exact-vs-brute", 64, &[], |gen| {
            let (g, terminals) = gen_graph(gen);
            let exact = steiner_exact(&g, &terminals);
            let brute = brute_force(&g, &terminals);
            match (&exact, brute) {
                (Some(t), Some(b)) => {
                    prop_ensure!(
                        (t.cost - b).abs() < 1e-9,
                        "exact {} vs brute {b} on {g}",
                        t.cost
                    );
                    // The reported cost is consistent with the edge set,
                    // and the tree spans every terminal.
                    prop_ensure!((g.tree_cost(&t.edges) - t.cost).abs() < 1e-9);
                    for term in &terminals {
                        prop_ensure!(t.nodes.contains(term), "terminal {term:?} not spanned");
                    }
                }
                (None, None) => {}
                other => return Err(format!("exact/brute disagree on feasibility: {other:?}")),
            }
            Ok(())
        });
    }

    #[test]
    fn prop_top_k_sorted_distinct_and_mode_independent() {
        check("top-k-parallel-vs-seq", 32, &[], |gen| {
            let (g, terminals) = gen_graph(gen);
            let k = gen.usize_in(1..7);
            let seq = top_k_steiner_banned_opts(&g, &terminals, k, &[], false);
            let par = top_k_steiner_banned_opts(&g, &terminals, k, &[], true);
            for trees in [&seq, &par] {
                for pair in trees.windows(2) {
                    prop_ensure!(pair[0].cost <= pair[1].cost + 1e-9, "costs decrease");
                    prop_ensure!(pair[0].edges != pair[1].edges, "duplicate tree");
                }
            }
            prop_ensure_eq!(seq.len(), par.len());
            for (a, b) in seq.iter().zip(par.iter()) {
                prop_ensure_eq!(a.edges, b.edges);
                prop_ensure!((a.cost - b.cost).abs() < 1e-9);
            }
            if let Some(first) = seq.first() {
                let opt = steiner_exact(&g, &terminals).expect("feasible");
                prop_ensure!((first.cost - opt.cost).abs() < 1e-9, "first tree not optimal");
            }
            Ok(())
        });
    }

    #[test]
    fn spcsh_is_feasible_and_close() {
        for seed in 0..20 {
            let g = random_graph(100 + seed, 12, 14);
            let terminals = vec![NodeId(0), NodeId(5), NodeId(11)];
            let exact = steiner_exact(&g, &terminals).unwrap();
            let approx = spcsh(&g, &terminals, 1.0).unwrap();
            // Feasible: spans all terminals and is connected by construction.
            for t in &terminals {
                assert!(approx.nodes.contains(t));
            }
            // Approximation guarantee for SPH is 2(1 - 1/k).
            assert!(
                approx.cost <= exact.cost * 2.0 + 1e-9,
                "seed {seed}: {} vs {}",
                approx.cost,
                exact.cost
            );
            assert!(approx.cost >= exact.cost - 1e-9);
        }
    }

    #[test]
    fn top_k_is_sorted_and_distinct() {
        let g = random_graph(7, 8, 10);
        let terminals = vec![NodeId(0), NodeId(7)];
        let trees = top_k_steiner(&g, &terminals, 5);
        assert!(!trees.is_empty());
        for pair in trees.windows(2) {
            assert!(pair[0].cost <= pair[1].cost + 1e-9);
            assert_ne!(pair[0].edges, pair[1].edges);
        }
        // The first is the optimum.
        let exact = steiner_exact(&g, &terminals).unwrap();
        assert!((trees[0].cost - exact.cost).abs() < 1e-9);
    }

    #[test]
    fn top_k_on_diamond_finds_both_paths() {
        // a -1- b -1- d ; a -1.5- c -1.5- d
        let mut g = SourceGraph::new();
        let ids: Vec<NodeId> = ["a", "b", "c", "d"]
            .iter()
            .map(|n| g.add_relation(*n, Schema::of(&["X"])))
            .collect();
        let j = |a: &str, b: &str| EdgeKind::Join { pairs: vec![(a.into(), b.into())] };
        g.add_edge_with_cost(ids[0], ids[1], j("X", "X"), 1.0);
        g.add_edge_with_cost(ids[1], ids[3], j("X", "X"), 1.0);
        g.add_edge_with_cost(ids[0], ids[2], j("X", "X"), 1.5);
        g.add_edge_with_cost(ids[2], ids[3], j("X", "X"), 1.5);
        let trees = top_k_steiner(&g, &[ids[0], ids[3]], 3);
        // Exactly the two alternative paths exist: every subproblem's
        // optimum is redundancy-free, so trees with a dangling extra
        // branch are (correctly) never enumerated.
        assert_eq!(trees.len(), 2);
        assert_eq!(trees[0].cost, 2.0);
        assert_eq!(trees[1].cost, 3.0);
    }

    #[test]
    fn pruning_speeds_but_may_cost() {
        let g = random_graph(42, 30, 60);
        let terminals = vec![NodeId(0), NodeId(15), NodeId(29)];
        let unpruned = spcsh(&g, &terminals, 1.0).unwrap();
        let pruned = spcsh(&g, &terminals, 0.5).unwrap();
        // Pruned still feasible; cost can only be >= (fewer edges available).
        assert!(pruned.cost + 1e-9 >= unpruned.cost * 0.999 || pruned.cost >= unpruned.cost);
        for t in &terminals {
            assert!(pruned.nodes.contains(t));
        }
    }

    #[test]
    fn banned_top_k_excludes_edges_everywhere() {
        // Same diamond: banning the cheap path's first edge must drop
        // *every* tree using it from the enumeration, not just the first.
        let mut g = SourceGraph::new();
        let ids: Vec<NodeId> = ["a", "b", "c", "d"]
            .iter()
            .map(|n| g.add_relation(*n, Schema::of(&["X"])))
            .collect();
        let j = |a: &str, b: &str| EdgeKind::Join { pairs: vec![(a.into(), b.into())] };
        let ab = g.add_edge_with_cost(ids[0], ids[1], j("X", "X"), 1.0);
        g.add_edge_with_cost(ids[1], ids[3], j("X", "X"), 1.0);
        g.add_edge_with_cost(ids[0], ids[2], j("X", "X"), 1.5);
        g.add_edge_with_cost(ids[2], ids[3], j("X", "X"), 1.5);
        let trees = top_k_steiner_banned(&g, &[ids[0], ids[3]], 3, &[ab]);
        assert_eq!(trees.len(), 1, "only the c-path survives the ban");
        assert_eq!(trees[0].cost, 3.0);
        for t in &trees {
            assert!(!t.edges.contains(&ab));
        }
        // Empty ban is exactly the plain top-k.
        let plain = top_k_steiner(&g, &[ids[0], ids[3]], 3);
        let unbanned = top_k_steiner_banned(&g, &[ids[0], ids[3]], 3, &[]);
        assert_eq!(plain.len(), unbanned.len());
        for (a, b) in plain.iter().zip(&unbanned) {
            assert_eq!(a.edges, b.edges);
        }
        // Banning everything on one side of a cut → no trees.
        let touches = |e: EdgeId, u: NodeId, v: NodeId| {
            let edge = g.edge(e);
            (edge.a == u && edge.b == v) || (edge.a == v && edge.b == u)
        };
        let cd = g.edge_ids().find(|&e| touches(e, ids[2], ids[3])).unwrap();
        let bd = g.edge_ids().find(|&e| touches(e, ids[1], ids[3])).unwrap();
        assert!(top_k_steiner_banned(&g, &[ids[0], ids[3]], 3, &[cd, bd]).is_empty());
    }

    #[test]
    fn parallel_edges_are_handled() {
        let mut g = SourceGraph::new();
        let a = g.add_relation("a", Schema::of(&["X"]));
        let b = g.add_relation("b", Schema::of(&["X"]));
        let j = EdgeKind::Join { pairs: vec![("X".into(), "X".into())] };
        g.add_edge_with_cost(a, b, j.clone(), 2.0);
        let cheap = g.add_edge_with_cost(a, b, j, 1.0);
        let t = steiner_exact(&g, &[a, b]).unwrap();
        assert_eq!(t.edges, vec![cheap]);
        let trees = top_k_steiner(&g, &[a, b], 2);
        assert_eq!(trees.len(), 2);
        assert_eq!(trees[1].cost, 2.0);
    }
}
