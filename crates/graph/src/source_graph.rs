//! The source graph data structure.

use copycat_query::Schema;
use copycat_util::hash::FxHashMap;
use copycat_util::json::{FromJson, JsonError, JsonWriter, ToJson};
use copycat_util::zjson::ZRef;
use std::fmt;

/// Node handle.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub u32);

/// Edge handle.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct EdgeId(pub u32);

/// What a node is.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NodeKind {
    /// A materialized source relation (shadowed rectangle in Figure 4).
    Relation,
    /// A parameterized service (rounded rectangle in Figure 4).
    Service,
}

/// A node: a source or service with its visible schema. For services the
/// schema is inputs-then-outputs, with `input_arity` marking the split.
#[derive(Debug, Clone)]
pub struct Node {
    /// Catalog name.
    pub name: String,
    /// Relation or service.
    pub kind: NodeKind,
    /// Visible columns (for services: inputs ++ outputs).
    pub schema: Schema,
    /// For services, the number of leading input (bound) columns.
    pub input_arity: usize,
    /// Relative access cost (1.0 = nominal). Association discovery scales
    /// bind-edge costs by this, so slow/flaky services start demoted.
    pub cost_hint: f64,
}

/// How an edge connects two nodes.
#[derive(Debug, Clone, PartialEq)]
pub enum EdgeKind {
    /// Equi-join on the conjunction of these column-name pairs (§4.1's
    /// default: "the conjunction of all possible join predicates").
    Join {
        /// `(a column, b column)` pairs.
        pairs: Vec<(String, String)>,
    },
    /// Dependent-join binding: columns of `a` feed the service `b`'s
    /// inputs in order.
    Bind {
        /// Column names of `a`, aligned with `b`'s inputs.
        bindings: Vec<String>,
    },
    /// Approximate record-link on these column pairs.
    Link {
        /// `(a column, b column)` pairs.
        pairs: Vec<(String, String)>,
    },
    /// A learned string transform: `program` maps `a`'s `from` column
    /// into `b`'s `to` column, so the two sides equi-join through the
    /// derived value (WebRelate-style join-with-transformation).
    Transform {
        /// Column of `a` the program reads.
        from: String,
        /// Column of `b` the derived value joins against.
        to: String,
        /// The learned program (renders human-readably for provenance).
        program: copycat_transform::Program,
    },
}

/// A weighted association edge. `weight` is a *cost*: lower is more
/// relevant. (The paper's query score is "the sum of its constituent edge
/// weights", minimized by the Steiner search.)
#[derive(Debug, Clone)]
pub struct Edge {
    /// One endpoint.
    pub a: NodeId,
    /// The other endpoint (for `Bind`, the service).
    pub b: NodeId,
    /// Edge kind.
    pub kind: EdgeKind,
    /// Cost (lower = more relevant); adjusted by MIRA.
    pub weight: f64,
}

impl ToJson for NodeId {
    fn write_json(&self, w: &mut JsonWriter<'_>) {
        self.0.write_json(w);
    }
}

impl FromJson for NodeId {
    fn from_json(j: ZRef<'_>) -> Result<Self, JsonError> {
        Ok(NodeId(u32::from_json(j)?))
    }
}

impl ToJson for EdgeId {
    fn write_json(&self, w: &mut JsonWriter<'_>) {
        self.0.write_json(w);
    }
}

impl FromJson for EdgeId {
    fn from_json(j: ZRef<'_>) -> Result<Self, JsonError> {
        Ok(EdgeId(u32::from_json(j)?))
    }
}

impl ToJson for NodeKind {
    fn write_json(&self, w: &mut JsonWriter<'_>) {
        w.str(match self {
            NodeKind::Relation => "Relation",
            NodeKind::Service => "Service",
        });
    }
}

impl FromJson for NodeKind {
    fn from_json(j: ZRef<'_>) -> Result<Self, JsonError> {
        match j.as_str() {
            Some("Relation") => Ok(NodeKind::Relation),
            Some("Service") => Ok(NodeKind::Service),
            _ => Err(JsonError::expected("node kind", j)),
        }
    }
}

impl ToJson for Node {
    fn write_json(&self, w: &mut JsonWriter<'_>) {
        w.obj(|w| {
            w.field("name", &self.name);
            w.field("kind", &self.kind);
            w.field("schema", &self.schema);
            w.field("input_arity", &self.input_arity);
            w.field("cost_hint", &self.cost_hint);
        });
    }
}

impl FromJson for Node {
    fn from_json(j: ZRef<'_>) -> Result<Self, JsonError> {
        Ok(Node {
            name: String::from_json(j.require("name")?)?,
            kind: NodeKind::from_json(j.require("kind")?)?,
            schema: Schema::from_json(j.require("schema")?)?,
            input_arity: usize::from_json(j.require("input_arity")?)?,
            cost_hint: f64::from_json(j.require("cost_hint")?)?,
        })
    }
}

impl ToJson for EdgeKind {
    fn write_json(&self, w: &mut JsonWriter<'_>) {
        match self {
            EdgeKind::Join { pairs } => w.tagged("Join", |w| w.obj(|w| w.field("pairs", pairs))),
            EdgeKind::Bind { bindings } => {
                w.tagged("Bind", |w| w.obj(|w| w.field("bindings", bindings)))
            }
            EdgeKind::Link { pairs } => w.tagged("Link", |w| w.obj(|w| w.field("pairs", pairs))),
            EdgeKind::Transform { from, to, program } => w.tagged("Transform", |w| {
                w.obj(|w| {
                    w.field("from", from);
                    w.field("to", to);
                    w.field("program", program);
                })
            }),
        }
    }
}

impl FromJson for EdgeKind {
    fn from_json(j: ZRef<'_>) -> Result<Self, JsonError> {
        if let Some(body) = j.get("Join") {
            return Ok(EdgeKind::Join { pairs: Vec::from_json(body.require("pairs")?)? });
        }
        if let Some(body) = j.get("Bind") {
            return Ok(EdgeKind::Bind { bindings: Vec::from_json(body.require("bindings")?)? });
        }
        if let Some(body) = j.get("Link") {
            return Ok(EdgeKind::Link { pairs: Vec::from_json(body.require("pairs")?)? });
        }
        if let Some(body) = j.get("Transform") {
            return Ok(EdgeKind::Transform {
                from: String::from_json(body.require("from")?)?,
                to: String::from_json(body.require("to")?)?,
                program: copycat_transform::Program::from_json(body.require("program")?)?,
            });
        }
        Err(JsonError::expected("edge kind", j))
    }
}

impl ToJson for Edge {
    fn write_json(&self, w: &mut JsonWriter<'_>) {
        w.obj(|w| {
            w.field("a", &self.a);
            w.field("b", &self.b);
            w.field("kind", &self.kind);
            w.field("weight", &self.weight);
        });
    }
}

impl FromJson for Edge {
    fn from_json(j: ZRef<'_>) -> Result<Self, JsonError> {
        Ok(Edge {
            a: NodeId::from_json(j.require("a")?)?,
            b: NodeId::from_json(j.require("b")?)?,
            kind: EdgeKind::from_json(j.require("kind")?)?,
            weight: f64::from_json(j.require("weight")?)?,
        })
    }
}

/// Default cost assigned to discovered associations. It sits below the
/// suggestion threshold, per §4.1: "a default value that exceeds the
/// threshold necessary for the edge to be suggested".
pub const DEFAULT_EDGE_COST: f64 = 1.0;

/// Associations with cost at or below this are offered as auto-complete
/// suggestions.
pub const SUGGESTION_COST_THRESHOLD: f64 = 2.0;

/// Minimum edge cost (MIRA updates never drive costs to zero or below).
pub const MIN_EDGE_COST: f64 = 0.01;

/// The frozen, immutable prefix of a [`SourceGraph`]: the world every
/// tenant session shares. Built once with [`SourceGraph::freeze`],
/// wrapped in an `Arc`, and layered under per-session overlay graphs
/// via [`SourceGraph::with_base`]. Node/edge ids in the base are the
/// low ids `0..nodes.len()` / `0..edges.len()`; overlay graphs append
/// their own nodes and edges after them.
#[derive(Debug)]
pub struct GraphBase {
    nodes: Vec<Node>,
    edges: Vec<Edge>,
    by_name: FxHashMap<String, NodeId>,
    adjacency: Vec<Vec<EdgeId>>,
    /// The version watermark overlay graphs start from.
    version: u64,
}

impl GraphBase {
    /// Number of base nodes.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Number of base edges.
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// The version watermark overlay graphs start from.
    pub fn version(&self) -> u64 {
        self.version
    }
}

/// The source graph.
///
/// Two representations share one API: a *flat* graph owns every node
/// and edge (the default; also what [`from_parts`](Self::from_parts)
/// restores), while an *overlay* graph ([`with_base`](Self::with_base))
/// layers session-private deltas over a shared immutable
/// [`GraphBase`]. An overlay stores only what the session changed:
/// locally added nodes/edges (ids continue after the base), CoW
/// copies of base nodes/edges it mutated (MIRA cost updates, health
/// cost hints), and merged incident lists for base nodes that gained
/// local edges. Reads go through the same accessors either way, so
/// search, discovery, and session save/restore never distinguish the
/// two.
#[derive(Debug, Clone, Default)]
pub struct SourceGraph {
    /// The shared immutable prefix, if this is an overlay graph.
    base: Option<std::sync::Arc<GraphBase>>,
    /// Locally added nodes; global id = base node count + index.
    nodes: Vec<Node>,
    /// Locally added edges; global id = base edge count + index.
    edges: Vec<Edge>,
    /// Names of locally added nodes only (base names resolve via the
    /// base's own map).
    by_name: FxHashMap<String, NodeId>,
    /// Incident lists of locally added nodes (edge ids are global).
    adjacency: Vec<Vec<EdgeId>>,
    /// Copy-on-write clones of base nodes this session mutated
    /// (cost-hint updates), keyed by base node id.
    node_overrides: FxHashMap<u32, Node>,
    /// Copy-on-write clones of base edges this session mutated (MIRA
    /// cost updates), keyed by base edge id.
    edge_overrides: FxHashMap<u32, Edge>,
    /// Full merged incident lists for base nodes that gained local
    /// edges, keyed by base node id.
    adj_overrides: FxHashMap<u32, Vec<EdgeId>>,
    /// Monotonic structure/cost version; see [`SourceGraph::version`].
    version: u64,
}

impl SourceGraph {
    /// An empty graph.
    pub fn new() -> Self {
        Self::default()
    }

    /// Rebuild a graph from saved nodes and edges (session restore). Node
    /// and edge ids are their positions in the vectors.
    ///
    /// The version starts at `nodes + edges` — exactly where it would
    /// stand had the graph been built incrementally — never at 0. A
    /// non-empty restored graph therefore cannot share a version stamp
    /// with the fresh graph a new engine starts from, so any
    /// [`version`](Self::version)-keyed cache that (incorrectly)
    /// survived a graph swap can never validate its stale entries
    /// against the restored graph.
    pub fn from_parts(nodes: Vec<Node>, edges: Vec<Edge>) -> Self {
        let mut by_name = FxHashMap::default();
        let mut adjacency = vec![Vec::new(); nodes.len()];
        for (i, n) in nodes.iter().enumerate() {
            by_name.insert(n.name.clone(), NodeId(i as u32));
        }
        for (i, e) in edges.iter().enumerate() {
            adjacency[e.a.0 as usize].push(EdgeId(i as u32));
            adjacency[e.b.0 as usize].push(EdgeId(i as u32));
        }
        let version = (nodes.len() + edges.len()) as u64;
        Self { nodes, edges, by_name, adjacency, version, ..Self::default() }
    }

    /// Freeze the current (merged) contents into an immutable
    /// [`GraphBase`] that overlay graphs can share. The base's version
    /// watermark is `nodes + edges` — the same stamp
    /// [`from_parts`](Self::from_parts) would assign — so an overlay
    /// over the base and a flat restore of the same graph agree on
    /// where version counting stands.
    pub fn freeze(&self) -> GraphBase {
        let nodes: Vec<Node> = self.node_ids().map(|n| self.node(n).clone()).collect();
        let edges: Vec<Edge> = self.edge_ids().map(|e| self.edge(e).clone()).collect();
        let mut by_name = FxHashMap::default();
        let mut adjacency = vec![Vec::new(); nodes.len()];
        for (i, n) in nodes.iter().enumerate() {
            by_name.insert(n.name.clone(), NodeId(i as u32));
        }
        for (i, e) in edges.iter().enumerate() {
            adjacency[e.a.0 as usize].push(EdgeId(i as u32));
            adjacency[e.b.0 as usize].push(EdgeId(i as u32));
        }
        let version = (nodes.len() + edges.len()) as u64;
        GraphBase { nodes, edges, by_name, adjacency, version }
    }

    /// An overlay graph over a shared base: reads see the base until
    /// this session mutates, writes copy the touched base entry into
    /// session-private override maps. Costs kilobytes per session
    /// instead of a full graph copy.
    pub fn with_base(base: std::sync::Arc<GraphBase>) -> Self {
        let version = base.version;
        Self { base: Some(base), version, ..Self::default() }
    }

    /// Whether this graph is an overlay over a shared [`GraphBase`].
    pub fn has_base(&self) -> bool {
        self.base.is_some()
    }

    /// Base node count (0 for flat graphs).
    fn base_nodes(&self) -> usize {
        self.base.as_ref().map_or(0, |b| b.nodes.len())
    }

    /// Base edge count (0 for flat graphs).
    fn base_edges(&self) -> usize {
        self.base.as_ref().map_or(0, |b| b.edges.len())
    }

    /// Monotonic version stamp. Bumped whenever the search-relevant shape
    /// of the graph changes: node/edge insertion or an effective cost
    /// update (MIRA feedback). Query caches key on this to invalidate.
    /// Overlay graphs start at the base's watermark and count on from
    /// there.
    pub fn version(&self) -> u64 {
        self.version
    }

    /// Add a relation node.
    pub fn add_relation(&mut self, name: impl Into<String>, schema: Schema) -> NodeId {
        self.add_node(name.into(), NodeKind::Relation, schema, 0, 1.0)
    }

    /// Add a service node (schema = inputs ++ outputs) at nominal cost.
    pub fn add_service(
        &mut self,
        name: impl Into<String>,
        schema: Schema,
        input_arity: usize,
    ) -> NodeId {
        self.add_node(name.into(), NodeKind::Service, schema, input_arity, 1.0)
    }

    /// Add a service node with an explicit access-cost hint.
    pub fn add_service_with_cost(
        &mut self,
        name: impl Into<String>,
        schema: Schema,
        input_arity: usize,
        cost_hint: f64,
    ) -> NodeId {
        self.add_node(name.into(), NodeKind::Service, schema, input_arity, cost_hint.max(0.1))
    }

    fn add_node(
        &mut self,
        name: String,
        kind: NodeKind,
        schema: Schema,
        input_arity: usize,
        cost_hint: f64,
    ) -> NodeId {
        debug_assert!(
            self.node_by_name(&name).is_none(),
            "duplicate node name {name}"
        );
        let id = NodeId((self.base_nodes() + self.nodes.len()) as u32);
        self.by_name.insert(name.clone(), id);
        self.nodes.push(Node { name, kind, schema, input_arity, cost_hint });
        self.adjacency.push(Vec::new());
        self.version += 1;
        id
    }

    /// Add an association edge with the default cost.
    pub fn add_edge(&mut self, a: NodeId, b: NodeId, kind: EdgeKind) -> EdgeId {
        self.add_edge_with_cost(a, b, kind, DEFAULT_EDGE_COST)
    }

    /// Add an association edge with an explicit cost.
    pub fn add_edge_with_cost(
        &mut self,
        a: NodeId,
        b: NodeId,
        kind: EdgeKind,
        weight: f64,
    ) -> EdgeId {
        let id = EdgeId((self.base_edges() + self.edges.len()) as u32);
        self.edges.push(Edge { a, b, kind, weight });
        for end in [a, b] {
            let base_nodes = self.base_nodes();
            if (end.0 as usize) < base_nodes {
                // A base node gains a session-local edge: materialize
                // its merged incident list once, then append.
                let base = self.base.as_ref().map(std::sync::Arc::clone);
                self.adj_overrides
                    .entry(end.0)
                    .or_insert_with(|| {
                        base.map_or_else(Vec::new, |b| b.adjacency[end.0 as usize].clone())
                    })
                    .push(id);
            } else {
                self.adjacency[end.0 as usize - base_nodes].push(id);
            }
        }
        self.version += 1;
        id
    }

    /// Remove every edge with id ≥ `keep` (undo of edges added after a
    /// checkpoint — e.g. a learned transform edge the user backed out
    /// of). Only session-local edges can be removed; `keep` below the
    /// shared base's edge count is clamped to it. Adjacency lists and
    /// overlay merge lists are rewritten, and the version bumps once
    /// when anything was actually removed, so version-keyed caches and
    /// top-k rankings can never resurrect a truncated edge.
    pub fn truncate_edges(&mut self, keep: usize) -> usize {
        let base_edges = self.base_edges();
        let keep = keep.max(base_edges);
        let local_keep = keep - base_edges;
        if local_keep >= self.edges.len() {
            return 0;
        }
        let removed = self.edges.len() - local_keep;
        self.edges.truncate(local_keep);
        let cutoff = EdgeId(keep as u32);
        for adj in &mut self.adjacency {
            adj.retain(|&e| e < cutoff);
        }
        for merged in self.adj_overrides.values_mut() {
            merged.retain(|&e| e < cutoff);
        }
        self.version += 1;
        removed
    }

    /// Node lookup by name.
    pub fn node_by_name(&self, name: &str) -> Option<NodeId> {
        if let Some(base) = &self.base {
            if let Some(&id) = base.by_name.get(name) {
                return Some(id);
            }
        }
        self.by_name.get(name).copied()
    }

    /// Borrow a node.
    pub fn node(&self, id: NodeId) -> &Node {
        let base_nodes = self.base_nodes();
        if (id.0 as usize) < base_nodes {
            if !self.node_overrides.is_empty() {
                if let Some(n) = self.node_overrides.get(&id.0) {
                    return n;
                }
            }
            // Overlay graphs always have a base when base_nodes > 0.
            &self.base.as_ref().map(|b| &b.nodes).unwrap_or(&self.nodes)[id.0 as usize]
        } else {
            &self.nodes[id.0 as usize - base_nodes]
        }
    }

    /// Borrow an edge.
    pub fn edge(&self, id: EdgeId) -> &Edge {
        let base_edges = self.base_edges();
        if (id.0 as usize) < base_edges {
            if !self.edge_overrides.is_empty() {
                if let Some(e) = self.edge_overrides.get(&id.0) {
                    return e;
                }
            }
            &self.base.as_ref().map(|b| &b.edges).unwrap_or(&self.edges)[id.0 as usize]
        } else {
            &self.edges[id.0 as usize - base_edges]
        }
    }

    /// Set an edge's cost (used by MIRA), clamped to [`MIN_EDGE_COST`].
    /// Bumps the graph version only when the effective cost changes.
    /// For overlay graphs, a base edge's first effective update copies
    /// it into the session-private override map; the shared base is
    /// never written.
    pub fn set_cost(&mut self, id: EdgeId, cost: f64) {
        let clamped = cost.max(MIN_EDGE_COST);
        let base_edges = self.base_edges();
        if (id.0 as usize) < base_edges {
            if self.edge(id).weight != clamped {
                let mut copy = self.edge(id).clone();
                copy.weight = clamped;
                self.edge_overrides.insert(id.0, copy);
                self.version += 1;
            }
        } else if self.edges[id.0 as usize - base_edges].weight != clamped {
            self.edges[id.0 as usize - base_edges].weight = clamped;
            self.version += 1;
        }
    }

    /// Edge cost.
    pub fn cost(&self, id: EdgeId) -> f64 {
        self.edge(id).weight
    }

    /// Update a node's access-cost hint (clamped like
    /// [`SourceGraph::add_service_with_cost`]) and return the previous
    /// value. Observed service health feeds in here; callers re-price
    /// the incident edges themselves via [`SourceGraph::set_cost`]
    /// (which bumps the version only on an effective change). Base
    /// nodes copy-on-write like [`SourceGraph::set_cost`].
    pub fn set_cost_hint(&mut self, n: NodeId, hint: f64) -> f64 {
        let clamped = hint.max(0.1);
        let base_nodes = self.base_nodes();
        if (n.0 as usize) < base_nodes {
            let old = self.node(n).cost_hint;
            if old != clamped {
                let mut copy = self.node(n).clone();
                copy.cost_hint = clamped;
                self.node_overrides.insert(n.0, copy);
            }
            old
        } else {
            let local = &mut self.nodes[n.0 as usize - base_nodes];
            let old = local.cost_hint;
            local.cost_hint = clamped;
            old
        }
    }

    /// Number of nodes (base + local).
    pub fn node_count(&self) -> usize {
        self.base_nodes() + self.nodes.len()
    }

    /// Number of edges (base + local).
    pub fn edge_count(&self) -> usize {
        self.base_edges() + self.edges.len()
    }

    /// All node ids.
    pub fn node_ids(&self) -> impl Iterator<Item = NodeId> {
        (0..self.node_count() as u32).map(NodeId)
    }

    /// All edge ids.
    pub fn edge_ids(&self) -> impl Iterator<Item = EdgeId> {
        (0..self.edge_count() as u32).map(EdgeId)
    }

    /// Edges incident to a node.
    pub fn incident(&self, n: NodeId) -> &[EdgeId] {
        let base_nodes = self.base_nodes();
        if (n.0 as usize) < base_nodes {
            if !self.adj_overrides.is_empty() {
                if let Some(merged) = self.adj_overrides.get(&n.0) {
                    return merged;
                }
            }
            &self.base.as_ref().map(|b| &b.adjacency).unwrap_or(&self.adjacency)[n.0 as usize]
        } else {
            &self.adjacency[n.0 as usize - base_nodes]
        }
    }

    /// The endpoint of `e` that is not `n`.
    pub fn other_end(&self, e: EdgeId, n: NodeId) -> NodeId {
        let edge = self.edge(e);
        if edge.a == n {
            edge.b
        } else {
            edge.a
        }
    }

    /// Associations from any of `from` to nodes outside `from`, with cost
    /// ≤ `max_cost` — the candidate *column completions* of §4.2, sorted
    /// by ascending cost (most relevant first).
    pub fn associations_from(&self, from: &[NodeId], max_cost: f64) -> Vec<EdgeId> {
        let mut out: Vec<EdgeId> = self
            .edge_ids()
            .filter(|&e| {
                let edge = self.edge(e);
                let a_in = from.contains(&edge.a);
                let b_in = from.contains(&edge.b);
                (a_in ^ b_in) && edge.weight <= max_cost
            })
            .collect();
        out.sort_by(|&x, &y| {
            self.cost(x)
                .partial_cmp(&self.cost(y))
                .expect("finite costs")
                .then_with(|| x.cmp(&y))
        });
        out
    }

    /// Total cost of a set of edges.
    pub fn tree_cost(&self, edges: &[EdgeId]) -> f64 {
        edges.iter().map(|&e| self.cost(e)).sum()
    }
}

impl fmt::Display for SourceGraph {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "SourceGraph ({} nodes, {} edges)", self.node_count(), self.edge_count())?;
        for e in self.edge_ids() {
            let edge = self.edge(e);
            writeln!(
                f,
                "  {} -- {} (c={:.2}, {:?})",
                self.node(edge.a).name,
                self.node(edge.b).name,
                edge.weight,
                match &edge.kind {
                    EdgeKind::Join { pairs } => format!("join {pairs:?}"),
                    EdgeKind::Bind { bindings } => format!("bind {bindings:?}"),
                    EdgeKind::Link { pairs } => format!("link {pairs:?}"),
                    EdgeKind::Transform { from, to, program } => {
                        format!("transform {from}→{to} via {program}")
                    }
                }
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> (SourceGraph, NodeId, NodeId, NodeId) {
        let mut g = SourceGraph::new();
        let a = g.add_relation("shelters", Schema::of(&["Name", "Street", "City"]));
        let b = g.add_service("zip_resolver", Schema::of(&["street", "city", "Zip"]), 2);
        let c = g.add_relation("contacts", Schema::of(&["Venue", "Phone"]));
        g.add_edge(a, b, EdgeKind::Bind { bindings: vec!["Street".into(), "City".into()] });
        g.add_edge_with_cost(
            a,
            c,
            EdgeKind::Link { pairs: vec![("Name".into(), "Venue".into())] },
            1.5,
        );
        (g, a, b, c)
    }

    #[test]
    fn lookup_and_adjacency() {
        let (g, a, b, _) = tiny();
        assert_eq!(g.node_by_name("shelters"), Some(a));
        assert_eq!(g.incident(a).len(), 2);
        assert_eq!(g.other_end(g.incident(a)[0], a), b);
    }

    #[test]
    fn associations_sorted_by_cost() {
        let (g, a, b, c) = tiny();
        let assocs = g.associations_from(&[a], SUGGESTION_COST_THRESHOLD);
        assert_eq!(assocs.len(), 2);
        assert_eq!(g.other_end(assocs[0], a), b); // cost 1.0 before 1.5
        assert_eq!(g.other_end(assocs[1], a), c);
        // Edges inside the set are excluded.
        assert!(g.associations_from(&[a, b, c], 10.0).is_empty());
    }

    #[test]
    fn threshold_filters() {
        let (g, a, _, _) = tiny();
        assert_eq!(g.associations_from(&[a], 1.2).len(), 1);
    }

    #[test]
    fn set_cost_clamps() {
        let (mut g, _, _, _) = tiny();
        let e = EdgeId(0);
        g.set_cost(e, -5.0);
        assert_eq!(g.cost(e), MIN_EDGE_COST);
    }

    #[test]
    fn version_bumps_on_change_only() {
        let (mut g, _, _, _) = tiny();
        let v0 = g.version();
        // No-op cost update: version unchanged.
        let current = g.cost(EdgeId(0));
        g.set_cost(EdgeId(0), current);
        assert_eq!(g.version(), v0);
        // Effective update bumps.
        g.set_cost(EdgeId(0), current + 0.5);
        assert_eq!(g.version(), v0 + 1);
        // Insertions bump.
        let n = g.add_relation("extra", Schema::of(&["X"]));
        assert_eq!(g.version(), v0 + 2);
        g.add_edge(NodeId(0), n, EdgeKind::Join { pairs: vec![] });
        assert_eq!(g.version(), v0 + 3);
    }

    #[test]
    fn json_roundtrip() {
        let (g, _, _, _) = tiny();
        use copycat_util::json;
        let nodes_json =
            json::to_string(&g.node_ids().map(|n| g.node(n).clone()).collect::<Vec<_>>());
        let edges_json =
            json::to_string(&g.edge_ids().map(|e| g.edge(e).clone()).collect::<Vec<_>>());
        let nodes: Vec<Node> = json::from_str(&nodes_json).unwrap();
        let edges: Vec<Edge> = json::from_str(&edges_json).unwrap();
        let back = SourceGraph::from_parts(nodes, edges);
        assert_eq!(back.node_count(), g.node_count());
        assert_eq!(back.edge_count(), g.edge_count());
        for i in 0..g.edge_count() {
            let (a, b) = (g.edge(EdgeId(i as u32)), back.edge(EdgeId(i as u32)));
            assert_eq!(a.kind, b.kind);
            assert_eq!(a.weight, b.weight);
        }
        assert_eq!(back.node_by_name("zip_resolver"), g.node_by_name("zip_resolver"));
    }

    #[test]
    fn overlay_reads_through_to_base() {
        let (flat, a, b, c) = tiny();
        let base = std::sync::Arc::new(flat.freeze());
        let g = SourceGraph::with_base(std::sync::Arc::clone(&base));
        assert!(g.has_base());
        assert_eq!(g.node_count(), flat.node_count());
        assert_eq!(g.edge_count(), flat.edge_count());
        assert_eq!(g.version(), flat.version());
        assert_eq!(g.node_by_name("shelters"), Some(a));
        assert_eq!(g.node(b).name, "zip_resolver");
        assert_eq!(g.incident(a).len(), 2);
        assert_eq!(g.other_end(g.incident(a)[0], a), b);
        assert_eq!(g.cost(EdgeId(1)), 1.5);
        let _ = c;
    }

    #[test]
    fn overlay_mutations_never_touch_the_base_or_siblings() {
        let (flat, a, _, _) = tiny();
        let base = std::sync::Arc::new(flat.freeze());
        let mut g1 = SourceGraph::with_base(std::sync::Arc::clone(&base));
        let g2 = SourceGraph::with_base(std::sync::Arc::clone(&base));

        // Session 1 re-prices a base edge and a base cost hint …
        g1.set_cost(EdgeId(0), 0.25);
        g1.set_cost_hint(a, 3.0);
        // … and adds a local relation with an edge to a base node.
        let extra = g1.add_relation("extra", Schema::of(&["Name"]));
        assert_eq!(extra.0 as usize, base.node_count());
        let e = g1.add_edge(a, extra, EdgeKind::Join { pairs: vec![("Name".into(), "Name".into())] });
        assert_eq!(e.0 as usize, base.edge_count());

        // Session 1 sees its own writes through the normal accessors.
        assert_eq!(g1.cost(EdgeId(0)), 0.25);
        assert_eq!(g1.node(a).cost_hint, 3.0);
        assert_eq!(g1.incident(a).len(), 3);
        assert!(g1.incident(a).contains(&e));
        assert_eq!(g1.node_by_name("extra"), Some(extra));
        assert_eq!(g1.incident(extra), &[e]);

        // The sibling session and the base itself are untouched.
        assert_eq!(g2.cost(EdgeId(0)), 1.0);
        assert_eq!(g2.node(a).cost_hint, 1.0);
        assert_eq!(g2.incident(a).len(), 2);
        assert_eq!(g2.node_by_name("extra"), None);
        assert_eq!(base.node_count() + 1, g1.node_count());
        assert_eq!(g2.node_count(), base.node_count());
    }

    #[test]
    fn overlay_version_counts_on_from_base_watermark() {
        let (flat, _, _, _) = tiny();
        let base = std::sync::Arc::new(flat.freeze());
        let mut g = SourceGraph::with_base(std::sync::Arc::clone(&base));
        let v0 = g.version();
        assert_eq!(v0, base.version());
        // No-op cost update on a base edge: no CoW copy, no bump.
        g.set_cost(EdgeId(0), g.cost(EdgeId(0)));
        assert_eq!(g.version(), v0);
        // Effective update bumps once.
        g.set_cost(EdgeId(0), 0.5);
        assert_eq!(g.version(), v0 + 1);
        g.add_relation("extra", Schema::of(&["X"]));
        assert_eq!(g.version(), v0 + 2);
    }

    #[test]
    fn overlay_save_view_matches_flat_graph() {
        // What session save serializes — nodes and edges in id order —
        // must be identical whether the session's graph is flat or an
        // overlay that made the same mutations.
        let make_mutations = |g: &mut SourceGraph| {
            g.set_cost(EdgeId(1), 0.7);
            let n = g.add_relation("pasted", Schema::of(&["Venue", "Zip"]));
            let a = g.node_by_name("shelters").unwrap();
            g.add_edge(a, n, EdgeKind::Join { pairs: vec![("Name".into(), "Venue".into())] });
        };
        let (mut flat, _, _, _) = tiny();
        let base = std::sync::Arc::new(flat.freeze());
        let mut overlay = SourceGraph::with_base(base);
        make_mutations(&mut flat);
        make_mutations(&mut overlay);
        let ser = |g: &SourceGraph| {
            let nodes: Vec<Node> = g.node_ids().map(|n| g.node(n).clone()).collect();
            let edges: Vec<Edge> = g.edge_ids().map(|e| g.edge(e).clone()).collect();
            use copycat_util::json::to_string;
            format!("{}{}", to_string(&nodes), to_string(&edges))
        };
        assert_eq!(ser(&flat), ser(&overlay));
        assert_eq!(flat.version(), overlay.version());
    }

    #[test]
    fn restored_graph_version_matches_incremental_construction() {
        let (g, _, _, _) = tiny();
        let nodes: Vec<Node> = g.node_ids().map(|n| g.node(n).clone()).collect();
        let edges: Vec<Edge> = g.edge_ids().map(|e| g.edge(e).clone()).collect();
        let back = SourceGraph::from_parts(nodes, edges);
        // A non-empty restored graph never reports the fresh-graph
        // version 0 — stale version-0-stamped cache entries from an
        // earlier engine can therefore never validate against it.
        assert_eq!(
            back.version(),
            (back.node_count() + back.edge_count()) as u64
        );
        assert!(back.version() > 0);
    }
}
