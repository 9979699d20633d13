//! The auto-complete generator (§2.2, §4.2).
//!
//! Two generation modes, as in the paper:
//!
//! 1. **Column completions** — "it discovers promising associations
//!    (edges in the source graph scoring above a relevance threshold)
//!    from the current query's nodes to other sources … For each such
//!    association, CopyCat defines a query." See [`column_suggestions`],
//!    the one entry point: it also proposes replacement sources for
//!    tripped services (§3.2) and returns the final ranked list.
//! 2. **Query discovery from pasted tuples** — "the learner finds the
//!    most likely explanations for the tuples (queries) by discovering
//!    Steiner trees connecting the data sources in the source graph."
//!    See [`discover_queries`].
//!
//! Both modes grow a plan one edge at a time through one function,
//! `step`. Only a record link differs: column completion links its rows
//! approximately, while discovery approximates the link as an
//! equi-join. Every column completion, direct or failover, is executed
//! and aligned to the tab's rows by one builder, `Base::complete`.

use crate::cache::{Memo, QueryCache};
use copycat_graph::{
    EdgeId, EdgeKind, NodeId, NodeKind, SourceGraph, SteinerTree, SUGGESTION_COST_THRESHOLD,
};
use copycat_linkage::{approximate_join, MatchLearner, Matcher, TfIdfIndex};
use copycat_provenance::Provenance;
use copycat_query::{
    execute_counted, execute_reported, output_schema, Catalog, Field, Plan, Relation, Schema,
    Value,
};
use copycat_services::HealthRegistry;

/// A proposed column auto-completion (Figure 2's highlighted Zip column).
#[derive(Debug, Clone)]
pub struct ColumnSuggestion {
    /// The columns this completion would add.
    pub new_fields: Vec<Field>,
    /// Per current-tab row, the new columns' values (empty strings when
    /// the source had no answer for that row).
    pub values: Vec<Vec<String>>,
    /// Per current-tab row, the provenance of the completed tuple.
    pub provenance: Vec<Option<Provenance>>,
    /// The source-graph edge this completion uses.
    pub edge: EdgeId,
    /// The extended query.
    pub plan: Plan,
    /// Query label (for provenance and feedback).
    pub label: String,
    /// Edge cost (lower ranks first).
    pub cost: f64,
    /// Why this completion is degraded (`"service:kind"` of the first
    /// failure, or a failover note), `None` when the answer is
    /// complete. Degraded completions rank below healthy ones.
    pub degraded: Option<String>,
}

/// A query discovered from a pasted tuple, with the shape and size of
/// its answer: the columns it produces and how many rows it returns.
/// The rows themselves are not built; a caller that needs them
/// executes `plan`.
#[derive(Debug, Clone)]
pub struct ScoredQuery {
    /// The query plan.
    pub plan: Plan,
    /// The Steiner tree it came from.
    pub tree: SteinerTree,
    /// Tree cost (the ranking score; lower is better).
    pub cost: f64,
    /// The answer's columns.
    pub columns: Schema,
    /// The answer's row count.
    pub rows: usize,
    /// Why this query's answer is degraded (service failures during
    /// execution), `None` when complete.
    pub degraded: Option<String>,
}

/// Ranked column completions for the current query (§2.2, §4.2).
///
/// `current_plan` is the active tab's query, `current_nodes` the graph
/// nodes it spans and `current_rows` the tab's committed rows, which
/// each completion's values are aligned to. Every association from
/// those nodes under the §4.1 relevance threshold
/// ([`SUGGESTION_COST_THRESHOLD`]) extends the query by one step. Record
/// links are linked approximately, with `matcher` or an untrained one.
///
/// When `health` reports services whose breakers are open, the list
/// also carries failover proposals (§3.2's "propose replacement
/// sources"), less any whose edge a direct completion already uses.
/// Breakers are read after the direct completions ran, so a service
/// that trips during them is failed over in the same call. The list is
/// ranked healthy before degraded, then by cost, then by label, so a
/// healthy replacement outranks a degraded primary.
///
/// Every plan runs once, in a fixed order: the current query, one plan
/// per association, then, if any service is tripped, the current query
/// again and one plan per failover tree. Service calls advance breakers,
/// retries and virtual time, so this order is observable.
pub fn column_suggestions(
    graph: &SourceGraph,
    catalog: &Catalog,
    current_plan: &Plan,
    current_nodes: &[NodeId],
    current_rows: &[Vec<String>],
    matcher: Option<&Matcher>,
    health: &HealthRegistry,
) -> Vec<ColumnSuggestion> {
    let mut out = direct_suggestions(
        graph,
        catalog,
        current_plan,
        current_nodes,
        current_rows,
        matcher,
    );
    let tripped = health.tripped_services();
    let mut failover =
        failover_suggestions(graph, catalog, current_plan, current_nodes, current_rows, &tripped);
    // Ranked first, so the best proposal per edge is the one kept.
    rank(&mut failover);
    for f in failover {
        if !out.iter().any(|s| s.edge == f.edge) {
            out.push(f);
        }
    }
    rank(&mut out);
    out
}

/// One completion per association from the current query's nodes.
fn direct_suggestions(
    graph: &SourceGraph,
    catalog: &Catalog,
    current_plan: &Plan,
    current_nodes: &[NodeId],
    current_rows: &[Vec<String>],
    matcher: Option<&Matcher>,
) -> Vec<ColumnSuggestion> {
    let Ok(current) = copycat_query::execute(current_plan, catalog) else {
        return Vec::new();
    };
    let schema = current.schema();
    let base = Base { catalog, rows: current_rows, arity: schema.arity() };
    let mut out = Vec::new();
    for edge_id in graph.associations_from(current_nodes, SUGGESTION_COST_THRESHOLD) {
        let edge = graph.edge(edge_id);
        let (inside, outside) = if current_nodes.contains(&edge.a) {
            (edge.a, edge.b)
        } else {
            (edge.b, edge.a)
        };
        let outside_name = &graph.node(outside).name;
        let plan = if let EdgeKind::Link { pairs } = &edge.kind {
            let Some((a, b)) = pairs.first() else {
                continue;
            };
            let (left_key, right_key) = if inside == edge.a { (a, b) } else { (b, a) };
            if schema.index_of(left_key).is_none() {
                continue;
            }
            let Some(aux) =
                materialize_link(catalog, &current, left_key, outside_name, right_key, matcher)
            else {
                continue;
            };
            let aux_name = aux.name().to_string();
            catalog.add_relation(aux);
            current_plan
                .clone()
                .join(Plan::scan(aux_name), &[(left_key.as_str(), left_key.as_str())])
        } else {
            let Ok(plan) = step(graph, current_plan.clone(), edge_id, inside, Some(schema)) else {
                continue;
            };
            plan
        };
        let inside_name = &graph.node(inside).name;
        let label = match &edge.kind {
            EdgeKind::Transform { program, .. } => {
                format!("T:{inside_name}+{outside_name} via {program}")
            }
            _ => format!("Q:{inside_name}+{outside_name}"),
        };
        out.extend(base.complete(plan, label, edge_id, edge.weight, None));
    }
    out
}

/// What the completions of one current query share: the catalog their
/// plans run against, the tab's committed rows, and the number of
/// leading columns the current query contributes to each result.
struct Base<'a> {
    catalog: &'a Catalog,
    rows: &'a [Vec<String>],
    arity: usize,
}

impl Base<'_> {
    /// Execute `plan`, an extension of the current query, and align its
    /// new columns with the tab's rows: each row takes the first result
    /// tuple that agrees with it on the leading columns (the left side
    /// of joins and dependent joins keeps its column order). The
    /// completion is degraded by `note`, or else by the first service
    /// failure. `None` when the plan fails, adds no column or answers no
    /// row — a completion with no values is not worth showing.
    fn complete(
        &self,
        plan: Plan,
        label: String,
        edge: EdgeId,
        cost: f64,
        note: Option<String>,
    ) -> Option<ColumnSuggestion> {
        let (result, report) = execute_reported(&plan, self.catalog, &label).ok()?;
        let new_fields: Vec<Field> = result.schema().fields()[self.arity..].to_vec();
        if new_fields.is_empty() {
            return None;
        }
        let degraded = note.or_else(|| degraded_note(&report));
        let mut values = Vec::with_capacity(self.rows.len());
        let mut provenance = Vec::with_capacity(self.rows.len());
        let mut any = false;
        for row in self.rows {
            let hit = result.tuples().iter().find(|t| {
                row.iter()
                    .take(self.arity)
                    .enumerate()
                    .all(|(i, v)| t.values.get(i).is_some_and(|c| c.text_eq(v)))
            });
            match hit {
                Some(t) => {
                    any = true;
                    values.push(t.values[self.arity..].iter().map(Value::as_text).collect());
                    provenance.push(Some(annotate_degraded(t.provenance.clone(), &degraded)));
                }
                None => {
                    values.push(vec![String::new(); new_fields.len()]);
                    provenance.push(None);
                }
            }
        }
        any.then_some(ColumnSuggestion {
            new_fields,
            values,
            provenance,
            edge,
            plan,
            label,
            cost,
            degraded,
        })
    }
}

/// Ranking for column completions: healthy before degraded, then by
/// cost, then label for determinism.
fn rank(out: &mut [ColumnSuggestion]) {
    out.sort_by(|a, b| {
        a.degraded
            .is_some()
            .cmp(&b.degraded.is_some())
            .then_with(|| a.cost.partial_cmp(&b.cost).expect("finite costs"))
            .then_with(|| a.label.cmp(&b.label))
    });
}

/// Compress an [`copycat_query::ExecReport`] into a one-line degraded
/// note (`None` when the execution was complete).
fn degraded_note(report: &copycat_query::ExecReport) -> Option<String> {
    if report.is_complete() {
        return None;
    }
    let f = &report.failures[0];
    Some(format!("{}:{}", f.service, f.kind))
}

/// Wrap a tuple's provenance in a `degraded:` label so `explain` can
/// say the answer may be incomplete and why.
fn annotate_degraded(p: Provenance, degraded: &Option<String>) -> Provenance {
    match degraded {
        Some(d) => Provenance::labeled(format!("degraded:{d}"), p),
        None => p,
    }
}

/// Materialize a record-link edge as an auxiliary relation
/// `{other}≈{left_key}` with schema `[left_key] ++ other's columns`, one
/// row per linked pair. The default matcher is the untrained uniform
/// combination; a trained one can be supplied (Example 1's learned
/// linkage).
fn materialize_link(
    catalog: &Catalog,
    current: &Relation,
    left_key: &str,
    other_name: &str,
    right_key: &str,
    matcher: Option<&Matcher>,
) -> Option<Relation> {
    let other = catalog.relation(other_name)?;
    let left_idx = current.schema().index_of(left_key)?;
    let right_idx = other.schema().index_of(right_key)?;
    let left_rows: Vec<Vec<String>> = current
        .tuples()
        .iter()
        .map(|t| t.as_texts())
        .collect();
    let right_rows: Vec<Vec<String>> = other.tuples().iter().map(|t| t.as_texts()).collect();
    let default_matcher;
    let m = match matcher {
        Some(m) => m,
        None => {
            let corpus: Vec<String> = left_rows
                .iter()
                .filter_map(|r| r.get(left_idx).cloned())
                .chain(right_rows.iter().filter_map(|r| r.get(right_idx).cloned()))
                .collect();
            default_matcher = MatchLearner::new(1).train(&[], TfIdfIndex::build(&corpus));
            &default_matcher
        }
    };
    let links = approximate_join(&left_rows, &right_rows, &[left_idx], &[right_idx], m);
    if links.is_empty() {
        return None;
    }
    // Schema: [left_key] ++ other's fields (renaming a clash with left_key).
    let mut fields = vec![Field::new(left_key)];
    for f in other.schema().fields() {
        let name = if f.name == left_key {
            format!("{}_linked", f.name)
        } else {
            f.name.clone()
        };
        fields.push(Field { name, sem_type: f.sem_type.clone() });
    }
    let mut rows: Vec<Vec<String>> = links
        .iter()
        .map(|l| {
            let mut row = vec![left_rows[l.left][left_idx].clone()];
            row.extend(right_rows[l.right].iter().cloned());
            row
        })
        .collect();
    // Left-outer semantics: unlinked left keys keep a padding row so the
    // completion never drops existing workspace rows.
    let linked_left: copycat_util::hash::FxHashSet<usize> =
        links.iter().map(|l| l.left).collect();
    for (i, lr) in left_rows.iter().enumerate() {
        if !linked_left.contains(&i) {
            let mut row = vec![lr[left_idx].clone()];
            row.resize(fields.len(), String::new());
            rows.push(row);
        }
    }
    Some(Relation::from_strings(
        format!("{other_name}≈{left_key}"),
        Schema::new(fields),
        &rows,
    ))
}

/// Convert a Steiner tree into an executable plan. Returns `None` when
/// the tree cannot be rooted at a relation or a service's inputs cannot
/// be satisfied in any expansion order.
pub fn tree_to_plan(graph: &SourceGraph, tree: &SteinerTree) -> Option<Plan> {
    // Root: the first relation node of the tree.
    let root = *tree
        .nodes
        .iter()
        .find(|&&n| graph.node(n).kind == NodeKind::Relation)?;
    let plan = Plan::scan(graph.node(root).name.clone());
    expand_plan(graph, plan, vec![root], tree.edges.clone())
}

/// Extend an existing plan along a tree's edges, starting from the
/// nodes the plan already spans. Edges internal to the base node set
/// are dropped (already answered by the base plan); the rest are
/// expanded outward exactly as [`tree_to_plan`] would. This is the
/// failover path: the base plan is the user's current tab and the tree
/// is a banned-edge re-plan that reaches a replacement source.
fn extend_plan_along(
    graph: &SourceGraph,
    base_plan: &Plan,
    base_nodes: &[NodeId],
    tree: &SteinerTree,
) -> Option<Plan> {
    let remaining: Vec<EdgeId> = tree
        .edges
        .iter()
        .copied()
        .filter(|&e| {
            let edge = graph.edge(e);
            !(base_nodes.contains(&edge.a) && base_nodes.contains(&edge.b))
        })
        .collect();
    expand_plan(graph, base_plan.clone(), base_nodes.to_vec(), remaining)
}

/// The shared expansion loop: grow `plan` outward edge by edge until
/// every edge is consumed, deferring an edge that [`step`] refuses
/// until another edge brings its other end in. `None` when no expansion
/// order works.
fn expand_plan(
    graph: &SourceGraph,
    mut plan: Plan,
    mut in_plan: Vec<NodeId>,
    mut remaining: Vec<EdgeId>,
) -> Option<Plan> {
    while !remaining.is_empty() {
        let mut progressed = false;
        let mut i = 0;
        while i < remaining.len() {
            let e = remaining[i];
            let edge = graph.edge(e);
            let a_in = in_plan.contains(&edge.a);
            let b_in = in_plan.contains(&edge.b);
            if a_in && b_in {
                remaining.swap_remove(i);
                progressed = true;
                continue;
            }
            if !a_in && !b_in {
                i += 1;
                continue;
            }
            let (inside, outside) = if a_in { (edge.a, edge.b) } else { (edge.b, edge.a) };
            match step(graph, plan, e, inside, None) {
                Ok(next) => {
                    plan = next;
                    in_plan.push(outside);
                    remaining.swap_remove(i);
                    progressed = true;
                }
                Err(same) => {
                    plan = same;
                    i += 1;
                }
            }
        }
        if !progressed {
            return None;
        }
    }
    Some(plan)
}

/// Extend `plan` one step along `edge`, from its `inside` end (already
/// in the plan) to the other end:
/// - a join edge equi-joins the other relation, and so does a record
///   link, which discovery approximates as an equi-join (column
///   completion links approximately instead);
/// - a bind edge dependent-joins its service;
/// - a transform edge derives the target key from the source column
///   and equi-joins the target relation on it.
///
/// `Err` hands the plan back unchanged when the step is refused. Two
/// edges are one-way: a bind edge toward a relation (the service must
/// wait for its feeding relation) and a transform reached from its
/// target (programs do not invert). Given the plan's `schema`, a step
/// is also refused when a column it reads is missing from it.
fn step(
    graph: &SourceGraph,
    plan: Plan,
    edge: EdgeId,
    inside: NodeId,
    schema: Option<&Schema>,
) -> Result<Plan, Plan> {
    let edge = graph.edge(edge);
    let forward = inside == edge.a;
    let outside = graph.node(if forward { edge.b } else { edge.a });
    let has = |column: &str| schema.is_none_or(|s| s.index_of(column).is_some());
    match &edge.kind {
        EdgeKind::Join { pairs } | EdgeKind::Link { pairs } => {
            let on: Vec<(&str, &str)> = pairs
                .iter()
                .map(|(a, b)| {
                    if forward {
                        (a.as_str(), b.as_str())
                    } else {
                        (b.as_str(), a.as_str())
                    }
                })
                .collect();
            if !on.iter().all(|(l, _)| has(l)) {
                return Err(plan);
            }
            Ok(plan.join(Plan::scan(outside.name.clone()), &on))
        }
        EdgeKind::Bind { bindings } => {
            if outside.kind != NodeKind::Service || !bindings.iter().all(|b| has(b)) {
                return Err(plan);
            }
            let bindings: Vec<&str> = bindings.iter().map(String::as_str).collect();
            Ok(plan.dependent_join(outside.name.clone(), &bindings))
        }
        EdgeKind::Transform { from, to, program } => {
            if !forward || !has(from) {
                return Err(plan);
            }
            let derived = format!("{from}→{to}");
            Ok(plan
                .derive(from.clone(), derived.clone(), program.clone())
                .join(Plan::scan(outside.name.clone()), &[(derived.as_str(), to.as_str())]))
        }
    }
}

/// The Steiner search behind query discovery: exact top-k on small
/// graphs with few terminals, SPCSH on larger ones.
pub fn search_trees(graph: &SourceGraph, terminals: &[NodeId], k: usize) -> Vec<SteinerTree> {
    search_trees_banned(graph, terminals, k, &[])
}

/// [`search_trees`] with a set of banned edges no tree may use — the
/// failover search: a tripped service's edges are banned so the
/// explanations route through replacement sources instead.
pub fn search_trees_banned(
    graph: &SourceGraph,
    terminals: &[NodeId],
    k: usize,
    banned: &[EdgeId],
) -> Vec<SteinerTree> {
    const EXACT_NODE_LIMIT: usize = 64;
    if graph.node_count() <= EXACT_NODE_LIMIT
        && terminals.len() <= copycat_graph::MAX_EXACT_TERMINALS
    {
        copycat_graph::top_k_steiner_banned(graph, terminals, k, banned)
    } else {
        copycat_graph::spcsh(graph, terminals, 0.8)
            .into_iter()
            .filter(|t| !t.edges.iter().any(|e| banned.contains(e)))
            .collect()
    }
}

/// Plan each tree and count its answer, dropping unplannable or
/// failing ones. Beside the queries, one memo per tree records what a
/// later lookup at the same graph version and catalog generation may
/// reuse.
fn trees_to_queries(
    graph: &SourceGraph,
    catalog: &Catalog,
    trees: &[SteinerTree],
) -> (Vec<ScoredQuery>, Vec<Memo>) {
    let mut out = Vec::new();
    let mut memos = Vec::with_capacity(trees.len());
    for tree in trees {
        let (query, memo) = tree_query(graph, catalog, tree, None);
        out.extend(query);
        memos.push(memo);
    }
    (out, memos)
}

/// One tree's query and its memo. A `known` memo skips the work it
/// fixes: a dropped tree is not planned, and a plan whose row count is
/// known is not executed (its columns come from the shape walk,
/// `output_schema`). Otherwise the plan is executed and counted, and
/// the memo is read from the plan (does it call a service?) and that
/// execution.
fn tree_query(
    graph: &SourceGraph,
    catalog: &Catalog,
    tree: &SteinerTree,
    known: Option<Memo>,
) -> (Option<ScoredQuery>, Memo) {
    if known == Some(Memo::Dropped) {
        return (None, Memo::Dropped);
    }
    let Some(plan) = tree_to_plan(graph, tree) else {
        return (None, Memo::Dropped);
    };
    let answer = match known {
        Some(Memo::Rows(rows)) => {
            output_schema(&plan, catalog).map(|columns| (columns, rows, None))
        }
        _ => execute_counted(&plan, catalog)
            .map(|(columns, rows, report)| (columns, rows, degraded_note(&report))),
    };
    let memo = known.unwrap_or_else(|| {
        if plan.calls_services() {
            Memo::Fresh
        } else {
            answer.as_ref().map_or(Memo::Dropped, |(_, rows, _)| Memo::Rows(*rows))
        }
    });
    let query = answer.ok().map(|(columns, rows, degraded)| {
        let tree = tree.clone();
        ScoredQuery { plan, cost: tree.cost, tree, columns, rows, degraded }
    });
    (query, memo)
}

/// Discover ranked queries whose sources cover `terminals` (§4.2 mode 2).
/// Uses the exact top-k search on small graphs, SPCSH on larger ones.
pub fn discover_queries(
    graph: &SourceGraph,
    catalog: &Catalog,
    terminals: &[NodeId],
    k: usize,
) -> Vec<ScoredQuery> {
    trees_to_queries(graph, catalog, &search_trees(graph, terminals, k)).0
}

/// [`discover_queries`] memoized in `cache`. Repeated pastes against an
/// unchanged graph reuse the cached trees; a graph change (feedback,
/// new edges) invalidates them via the version stamp. Each tree's memo
/// holds while the catalog generation stays where it was computed: a
/// plan that calls no service is then neither executed (its row count
/// is memoized) nor, if it failed, planned again, while a plan that
/// calls a service executes on every call, exactly as uncached
/// discovery does. `banned` edges (tripped services' edges during
/// failover) may appear in no tree; the ban set is part of the cache
/// key.
pub fn discover_queries_cached_banned(
    graph: &SourceGraph,
    catalog: &Catalog,
    terminals: &[NodeId],
    k: usize,
    banned: &[EdgeId],
    cache: &QueryCache,
) -> Vec<ScoredQuery> {
    // Read before the catalog: a change meanwhile moves it on.
    let generation = catalog.generation();
    let lookup = cache.lookup(graph, terminals, k, banned, generation, || {
        search_trees_banned(graph, terminals, k, banned)
    });
    if let Some(memos) = &lookup.memos {
        return lookup
            .trees
            .iter()
            .zip(memos.iter())
            .filter_map(|(tree, &memo)| tree_query(graph, catalog, tree, Some(memo)).0)
            .collect();
    }
    let (queries, memos) = trees_to_queries(graph, catalog, &lookup.trees);
    lookup.remember(memos);
    queries
}

/// The one ban rule for tripped services, shared by query discovery
/// and failover: the service nodes named in `tripped` (a relation that
/// shares a tripped service's name is not banned), and every edge
/// incident to them, sorted and deduplicated. No tree may use a banned
/// edge while the breakers stay open.
pub fn ban_set(graph: &SourceGraph, tripped: &[String]) -> (Vec<NodeId>, Vec<EdgeId>) {
    let nodes: Vec<NodeId> = tripped
        .iter()
        .filter_map(|name| graph.node_by_name(name))
        .filter(|&n| graph.node(n).kind == NodeKind::Service)
        .collect();
    let mut banned: Vec<EdgeId> =
        nodes.iter().flat_map(|&n| graph.incident(n).iter().copied()).collect();
    banned.sort_unstable();
    banned.dedup();
    (nodes, banned)
}

/// Output semantic types of a service node (its schema is inputs then
/// outputs; `input_arity` splits them). `None` when any output column
/// is untyped — equivalence needs types on both sides.
fn service_output_types(graph: &SourceGraph, n: NodeId) -> Option<Vec<String>> {
    let node = graph.node(n);
    let outs = &node.schema.fields()[node.input_arity..];
    if outs.is_empty() {
        return None;
    }
    let mut types = Vec::with_capacity(outs.len());
    for f in outs {
        types.push(f.sem_type.clone()?);
    }
    types.sort();
    Some(types)
}

/// Replacement-source completions for services whose circuit breakers
/// have tripped (§3.2: "propose replacement sources if a source is
/// down"). For each tripped service with an *equivalent* replacement —
/// a healthy service producing the same output semantic types — the
/// top-k Steiner search is re-run with every tripped service's edges
/// banned, and the resulting trees are grafted onto the current plan.
/// Each proposal is degraded (provenance-visible) by why the
/// replacement was used.
fn failover_suggestions(
    graph: &SourceGraph,
    catalog: &Catalog,
    current_plan: &Plan,
    current_nodes: &[NodeId],
    current_rows: &[Vec<String>],
    tripped: &[String],
) -> Vec<ColumnSuggestion> {
    let mut out = Vec::new();
    if tripped.is_empty() || current_nodes.is_empty() {
        return out;
    }
    let Ok(current) = copycat_query::execute(current_plan, catalog) else {
        return out;
    };
    let base = Base { catalog, rows: current_rows, arity: current.schema().arity() };
    let (tripped_nodes, banned) = ban_set(graph, tripped);
    if tripped_nodes.is_empty() {
        return out;
    }
    for &t in &tripped_nodes {
        let Some(want) = service_output_types(graph, t) else {
            continue;
        };
        for r in graph.node_ids() {
            if r == t
                || graph.node(r).kind != NodeKind::Service
                || tripped_nodes.contains(&r)
                || current_nodes.contains(&r)
            {
                continue;
            }
            if service_output_types(graph, r).as_ref() != Some(&want) {
                continue; // not an equivalent source
            }
            let mut terminals: Vec<NodeId> = current_nodes.to_vec();
            terminals.push(r);
            for tree in search_trees_banned(graph, &terminals, 2, &banned) {
                let Some(plan) = extend_plan_along(graph, current_plan, current_nodes, &tree)
                else {
                    continue;
                };
                // The proposal's graph edge: the tree edge touching the
                // replacement service (a tree spanning `r` has one).
                let Some(edge) = tree.edges.iter().copied().find(|&e| {
                    let edge = graph.edge(e);
                    edge.a == r || edge.b == r
                }) else {
                    continue;
                };
                let t_name = &graph.node(t).name;
                let r_name = &graph.node(r).name;
                let note = format!("failover:{t_name}->{r_name}");
                let label = format!("Q:{}+{} ({note})", graph.node(current_nodes[0]).name, r_name);
                out.extend(base.complete(plan, label, edge, tree.cost, Some(note)));
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use copycat_graph::{discover_associations, AssocOptions};
    use copycat_query::{FnService, Signature};
    use std::sync::Arc;

    /// Shelters relation + zip service + contacts relation, wired into a
    /// catalog and graph.
    fn setup() -> (SourceGraph, Catalog) {
        let catalog = Catalog::new();
        let shelters_schema = Schema::new(vec![
            Field::new("Name"),
            Field::typed("Street", "PR-Street"),
            Field::typed("City", "PR-City"),
        ]);
        catalog.add_relation(Relation::from_strings(
            "Shelters",
            shelters_schema.clone(),
            &[
                vec!["Creek HS".into(), "100 Oak St".into(), "Margate".into()],
                vec!["Rec Ctr".into(), "200 Elm Ave".into(), "Tamarac".into()],
            ],
        ));
        let contacts_schema = Schema::new(vec![
            Field::new("Venue"),
            Field::typed("Phone", "PR-Phone"),
        ]);
        catalog.add_relation(Relation::from_strings(
            "Contacts",
            contacts_schema.clone(),
            &[
                vec!["Creek High School".into(), "555-0101".into()],
                vec!["Rec Center".into(), "555-0102".into()],
            ],
        ));
        let zip_sig = Signature {
            inputs: Schema::new(vec![
                Field::typed("street", "PR-Street"),
                Field::typed("city", "PR-City"),
            ]),
            outputs: Schema::new(vec![Field::typed("Zip", "PR-Zip")]),
        };
        catalog.add_service(Arc::new(FnService::new(
            "ZipCodes",
            zip_sig.clone(),
            |inp: &[Value]| match inp[1].as_text().as_str() {
                "Margate" => vec![vec![Value::str("33063")]],
                "Tamarac" => vec![vec![Value::str("33321")]],
                _ => vec![],
            },
        )));
        let mut graph = SourceGraph::new();
        graph.add_relation("Shelters", shelters_schema);
        graph.add_relation("Contacts", contacts_schema);
        let mut svc_schema_fields = zip_sig.inputs.fields().to_vec();
        svc_schema_fields.extend(zip_sig.outputs.fields().iter().cloned());
        graph.add_service("ZipCodes", Schema::new(svc_schema_fields), 2);
        // Name–Venue record link (untyped columns): declare explicitly,
        // as a "known link" (§4.1 item 2).
        let s = graph.node_by_name("Shelters").unwrap();
        let c = graph.node_by_name("Contacts").unwrap();
        graph.add_edge_with_cost(
            s,
            c,
            EdgeKind::Link { pairs: vec![("Name".into(), "Venue".into())] },
            1.5,
        );
        discover_associations(&mut graph, &AssocOptions::default());
        (graph, catalog)
    }

    #[test]
    fn zip_column_is_suggested_first() {
        let (graph, catalog) = setup();
        let shelters = graph.node_by_name("Shelters").unwrap();
        let rows = catalog.relation("Shelters").unwrap().as_texts();
        let suggs = column_suggestions(
            &graph,
            &catalog,
            &Plan::scan("Shelters"),
            &[shelters],
            &rows,
            None,
            &HealthRegistry::new(),
        );
        assert!(!suggs.is_empty());
        let top = &suggs[0];
        assert_eq!(top.new_fields[0].name, "Zip");
        assert_eq!(top.values[0], vec!["33063"]);
        assert_eq!(top.values[1], vec!["33321"]);
        assert!(top.provenance[0].is_some());
    }

    #[test]
    fn link_suggestion_brings_contact_columns() {
        let (graph, catalog) = setup();
        let shelters = graph.node_by_name("Shelters").unwrap();
        let rows = catalog.relation("Shelters").unwrap().as_texts();
        let suggs = column_suggestions(
            &graph,
            &catalog,
            &Plan::scan("Shelters"),
            &[shelters],
            &rows,
            None,
            &HealthRegistry::new(),
        );
        let link = suggs
            .iter()
            .find(|s| s.new_fields.iter().any(|f| f.name == "Phone"))
            .expect("phone completion via record link");
        // Creek HS links to Creek High School.
        let creek_row = &link.values[0];
        assert!(creek_row.iter().any(|v| v == "555-0101"), "{creek_row:?}");
    }

    #[test]
    fn tree_to_plan_dependent_join() {
        let (graph, catalog) = setup();
        let shelters = graph.node_by_name("Shelters").unwrap();
        let zip = graph.node_by_name("ZipCodes").unwrap();
        let trees = copycat_graph::top_k_steiner(&graph, &[shelters, zip], 1);
        let plan = tree_to_plan(&graph, &trees[0]).expect("plannable");
        let r = copycat_query::execute(&plan, &catalog).unwrap();
        assert_eq!(r.len(), 2);
        assert!(r.schema().index_of("Zip").is_some());
    }

    #[test]
    fn discover_queries_ranks_by_cost() {
        let (graph, catalog) = setup();
        let shelters = graph.node_by_name("Shelters").unwrap();
        let contacts = graph.node_by_name("Contacts").unwrap();
        let queries = discover_queries(&graph, &catalog, &[shelters, contacts], 3);
        assert!(!queries.is_empty());
        for w in queries.windows(2) {
            assert!(w[0].cost <= w[1].cost + 1e-9);
        }
    }

    #[test]
    fn cached_discovery_tracks_mira_feedback() {
        use crate::cache::QueryCache;
        let (mut graph, catalog) = setup();
        let shelters = graph.node_by_name("Shelters").unwrap();
        let contacts = graph.node_by_name("Contacts").unwrap();
        // The setup graph is a tree; add an alternative (costlier)
        // Shelters–Contacts join so the terminal pair has two distinct
        // explanations to rank.
        graph.add_edge_with_cost(
            shelters,
            contacts,
            EdgeKind::Join { pairs: vec![("Name".into(), "Venue".into())] },
            2.5,
        );
        let terminals = [shelters, contacts];
        let cache = QueryCache::default();
        let warm = discover_queries_cached_banned(&graph, &catalog, &terminals, 3, &[], &cache);
        assert!(warm.len() >= 2, "need alternatives to re-rank");
        // Second call: trees come from the cache and the answers match a
        // cold search exactly.
        let cached = discover_queries_cached_banned(&graph, &catalog, &terminals, 3, &[], &cache);
        let cold = discover_queries(&graph, &catalog, &terminals, 3);
        assert_eq!(cache.stats().hits, 1);
        assert_eq!(cached.len(), cold.len());
        for (a, b) in cached.iter().zip(cold.iter()) {
            assert_eq!(a.tree, b.tree);
        }
        // MIRA feedback prefers the runner-up query; the version bump
        // must invalidate, and the cached path must agree with a cold
        // search on the new ranking.
        let tau = copycat_graph::Mira::default().apply(
            &mut graph,
            &warm[1].tree.edges,
            &warm[0].tree.edges,
        );
        assert!(tau > 0.0, "feedback must change the graph");
        let after = discover_queries_cached_banned(&graph, &catalog, &terminals, 3, &[], &cache);
        let after_cold = discover_queries(&graph, &catalog, &terminals, 3);
        assert_eq!(cache.stats().invalidations, 1);
        assert_eq!(after.len(), after_cold.len());
        for (a, b) in after.iter().zip(after_cold.iter()) {
            assert_eq!(a.tree, b.tree);
            assert!((a.cost - b.cost).abs() < 1e-12);
        }
        // MIRA guarantees preferred-now-cheaper-than-rejected; the
        // re-ranking must be visible through the cache.
        let pos = |qs: &[ScoredQuery], edges: &[copycat_graph::EdgeId]| {
            qs.iter().position(|q| q.tree.edges == edges)
        };
        let pref = pos(&after, &warm[1].tree.edges).expect("preferred query still discovered");
        if let Some(rej) = pos(&after, &warm[0].tree.edges) {
            assert!(pref < rej, "feedback must reorder through the cache");
        }
    }

    #[test]
    fn suggestions_skip_unanswerable_edges() {
        let (graph, catalog) = setup();
        let contacts = graph.node_by_name("Contacts").unwrap();
        let rows = catalog.relation("Contacts").unwrap().as_texts();
        // From Contacts, the zip service cannot bind (no street/city).
        let suggs = column_suggestions(
            &graph,
            &catalog,
            &Plan::scan("Contacts"),
            &[contacts],
            &rows,
            None,
            &HealthRegistry::new(),
        );
        assert!(suggs
            .iter()
            .all(|s| s.new_fields.iter().all(|f| f.name != "Zip")));
    }
}
