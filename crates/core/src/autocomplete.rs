//! The auto-complete generator (§2.2, §4.2).
//!
//! Two generation modes, as in the paper:
//!
//! 1. **Column completions** — "it discovers promising associations
//!    (edges in the source graph scoring above a relevance threshold)
//!    from the current query's nodes to other sources … For each such
//!    association, CopyCat defines a query." See [`column_suggestions`].
//! 2. **Query discovery from pasted tuples** — "the learner finds the
//!    most likely explanations for the tuples (queries) by discovering
//!    Steiner trees connecting the data sources in the source graph."
//!    See [`discover_queries`].

use copycat_graph::{EdgeId, EdgeKind, NodeId, NodeKind, SourceGraph, SteinerTree};
use copycat_linkage::{approximate_join, MatchLearner, Matcher, TfIdfIndex};
use copycat_provenance::Provenance;
use copycat_query::{
    execute_reported, Catalog, Field, Plan, Relation, Schema, Value,
};

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

/// A query discovered from a pasted tuple, with its executed answers.
#[derive(Debug, Clone)]
pub struct ScoredQuery {
    /// The query plan.
    pub plan: Plan,
    /// The Steiner tree it came from.
    pub tree: SteinerTree,
    /// Tree cost (the ranking score; lower is better).
    pub cost: f64,
    /// Executed results.
    pub result: Relation,
    /// Why this query's answer is degraded (service failures during
    /// execution), `None` when complete.
    pub degraded: Option<String>,
}

/// Generate ranked column completions for the current query.
///
/// `current_plan` is the active tab's query; `current_nodes` the graph
/// nodes it spans; `current_rows` the tab's committed rows (for value
/// alignment). `max_cost` is the §4.1 relevance threshold.
pub fn column_suggestions(
    graph: &SourceGraph,
    catalog: &Catalog,
    current_plan: &Plan,
    current_nodes: &[NodeId],
    current_rows: &[Vec<String>],
    max_cost: f64,
    matcher: Option<&Matcher>,
) -> Vec<ColumnSuggestion> {
    let Ok(current) = copycat_query::execute(current_plan, catalog) else {
        return Vec::new();
    };
    let current_schema = current.schema().clone();
    let mut out = Vec::new();
    for edge_id in graph.associations_from(current_nodes, max_cost) {
        let edge = graph.edge(edge_id);
        let inside_is_a = current_nodes.contains(&edge.a);
        let (inside, outside) = if inside_is_a {
            (edge.a, edge.b)
        } else {
            (edge.b, edge.a)
        };
        let outside_node = graph.node(outside);
        let mut label = format!("Q:{}+{}", graph.node(inside).name, outside_node.name);
        let plan = match &edge.kind {
            EdgeKind::Transform { from, to, program } => {
                // Directional: the program maps a's `from` into b's
                // `to`, so only expand away from the source side.
                if !inside_is_a {
                    continue;
                }
                if current_schema.index_of(from).is_none() {
                    continue;
                }
                label = format!(
                    "T:{}+{} via {program}",
                    graph.node(inside).name,
                    outside_node.name
                );
                let derived = format!("{from}→{to}");
                current_plan
                    .clone()
                    .derive(from.clone(), derived.clone(), program.clone())
                    .join(
                        Plan::scan(outside_node.name.clone()),
                        &[(derived.as_str(), to.as_str())],
                    )
            }
            EdgeKind::Bind { bindings } => {
                if outside_node.kind != NodeKind::Service {
                    continue; // binds expand toward the service only
                }
                if bindings
                    .iter()
                    .any(|b| current_schema.index_of(b).is_none())
                {
                    continue; // the bound columns were projected away
                }
                let bindings: Vec<&str> = bindings.iter().map(String::as_str).collect();
                current_plan
                    .clone()
                    .dependent_join(outside_node.name.clone(), &bindings)
            }
            EdgeKind::Join { pairs } => {
                let oriented: Vec<(&str, &str)> = pairs
                    .iter()
                    .map(|(a, b)| {
                        if inside_is_a {
                            (a.as_str(), b.as_str())
                        } else {
                            (b.as_str(), a.as_str())
                        }
                    })
                    .collect();
                if oriented
                    .iter()
                    .any(|(l, _)| current_schema.index_of(l).is_none())
                {
                    continue;
                }
                current_plan
                    .clone()
                    .join(Plan::scan(outside_node.name.clone()), &oriented)
            }
            EdgeKind::Link { pairs } => {
                let Some((left_key, right_key)) = pairs.first().map(|(a, b)| {
                    if inside_is_a {
                        (a.clone(), b.clone())
                    } else {
                        (b.clone(), a.clone())
                    }
                }) else {
                    continue;
                };
                if current_schema.index_of(&left_key).is_none() {
                    continue;
                }
                let Some(aux) = materialize_link(
                    catalog,
                    &current,
                    &left_key,
                    &outside_node.name,
                    &right_key,
                    matcher,
                ) else {
                    continue;
                };
                let aux_name = aux.name().to_string();
                catalog.add_relation(aux);
                current_plan.clone().join(
                    Plan::scan(aux_name),
                    &[(left_key.as_str(), left_key.as_str())],
                )
            }
        };
        let Ok((result, report)) = execute_reported(&plan, catalog, &label) else {
            continue;
        };
        let degraded = degraded_note(&report);
        let new_fields: Vec<Field> = result.schema().fields()[current_schema.arity()..].to_vec();
        if new_fields.is_empty() {
            continue;
        }
        // Align the new columns' values with the current rows by matching
        // the shared prefix (the left side of joins/dependent joins keeps
        // its column order).
        let mut values = Vec::with_capacity(current_rows.len());
        let mut provenance = Vec::with_capacity(current_rows.len());
        let mut any = false;
        for row in current_rows {
            let hit = result.tuples().iter().find(|t| {
                row.iter()
                    .take(current_schema.arity())
                    .enumerate()
                    .all(|(i, v)| t.values.get(i).is_some_and(|c| c.text_eq(v)))
            });
            match hit {
                Some(t) => {
                    any = true;
                    values.push(
                        t.values[current_schema.arity()..]
                            .iter()
                            .map(Value::as_text)
                            .collect(),
                    );
                    provenance.push(Some(annotate_degraded(t.provenance.clone(), &degraded)));
                }
                None => {
                    values.push(vec![String::new(); new_fields.len()]);
                    provenance.push(None);
                }
            }
        }
        if !any {
            continue; // a completion with no values is not worth showing
        }
        out.push(ColumnSuggestion {
            new_fields,
            values,
            provenance,
            edge: edge_id,
            plan,
            label,
            cost: edge.weight,
            degraded,
        });
    }
    sort_suggestions(&mut out);
    out
}

/// Ranking for column completions: healthy before degraded, then by
/// cost, then label for determinism. A healthy equivalent replacement
/// therefore outranks a degraded primary — §3.2's failover, expressed
/// as ranking.
pub fn sort_suggestions(out: &mut [ColumnSuggestion]) {
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
    let linked_left: std::collections::HashSet<usize> =
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
pub fn extend_plan_along(
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
/// every edge is consumed, deferring bind edges whose feeding relation
/// has not joined yet. `None` when no expansion order works.
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
            let outside_node = graph.node(outside);
            let expanded = match &edge.kind {
                EdgeKind::Join { pairs } | EdgeKind::Link { pairs } => {
                    // Record links are approximated as equi-joins during
                    // discovery; the column-completion path performs true
                    // approximate linking.
                    let oriented: Vec<(&str, &str)> = pairs
                        .iter()
                        .map(|(pa, pb)| {
                            if inside == edge.a {
                                (pa.as_str(), pb.as_str())
                            } else {
                                (pb.as_str(), pa.as_str())
                            }
                        })
                        .collect();
                    plan = plan.join(Plan::scan(outside_node.name.clone()), &oriented);
                    true
                }
                EdgeKind::Bind { bindings } => {
                    if outside_node.kind == NodeKind::Service {
                        // Inside side provides the bindings.
                        let b: Vec<&str> = bindings.iter().map(String::as_str).collect();
                        plan = plan.dependent_join(outside_node.name.clone(), &b);
                        true
                    } else {
                        // The service is in the plan but its feeding
                        // relation is not: defer (another edge may bring
                        // the relation in); if nothing else progresses we
                        // give up below.
                        false
                    }
                }
                EdgeKind::Transform { from, to, program } => {
                    if inside == edge.a {
                        // Derive the transformed join key, then equi-join
                        // it against the target column.
                        let derived = format!("{from}→{to}");
                        plan = plan
                            .derive(from.clone(), derived.clone(), program.clone())
                            .join(
                                Plan::scan(outside_node.name.clone()),
                                &[(derived.as_str(), to.as_str())],
                            );
                        true
                    } else {
                        // Programs are one-way: a tree reaching the
                        // source side through its target must wait for
                        // another edge to bring the source in.
                        false
                    }
                }
            };
            if expanded {
                in_plan.push(outside);
                remaining.swap_remove(i);
                progressed = true;
            } else {
                i += 1;
            }
        }
        if !progressed {
            return None;
        }
    }
    Some(plan)
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

/// Plan and execute each tree, dropping unplannable or failing ones.
fn trees_to_queries(
    graph: &SourceGraph,
    catalog: &Catalog,
    trees: &[SteinerTree],
) -> Vec<ScoredQuery> {
    let mut out = Vec::new();
    for tree in trees {
        let Some(plan) = tree_to_plan(graph, tree) else {
            continue;
        };
        let label = format!("Q:{}", plan);
        let Ok((result, report)) = execute_reported(&plan, catalog, &label) else {
            continue;
        };
        let degraded = degraded_note(&report);
        let result = match &degraded {
            // Re-wrap every tuple so the degradation is provenance-visible.
            Some(_) => {
                let mut wrapped = Relation::empty(result.name(), result.schema().clone());
                for t in result.tuples() {
                    wrapped.push(copycat_query::Tuple::new(
                        t.values.clone(),
                        annotate_degraded(t.provenance.clone(), &degraded),
                    ));
                }
                wrapped
            }
            None => result,
        };
        out.push(ScoredQuery { plan, cost: tree.cost, tree: tree.clone(), result, degraded });
    }
    out
}

/// Discover ranked queries whose sources cover `terminals` (§4.2 mode 2).
/// Uses the exact top-k search on small graphs, SPCSH on larger ones.
pub fn discover_queries(
    graph: &SourceGraph,
    catalog: &Catalog,
    terminals: &[NodeId],
    k: usize,
) -> Vec<ScoredQuery> {
    trees_to_queries(graph, catalog, &search_trees(graph, terminals, k))
}

/// [`discover_queries`] with the Steiner search memoized in `cache`:
/// repeated pastes against an unchanged graph reuse the cached trees;
/// a graph change (feedback, new edges) invalidates via the version
/// stamp. Query execution always runs fresh — the catalog's contents
/// are not part of the cache key.
pub fn discover_queries_cached(
    graph: &SourceGraph,
    catalog: &Catalog,
    terminals: &[NodeId],
    k: usize,
    cache: &crate::cache::QueryCache,
) -> Vec<ScoredQuery> {
    discover_queries_cached_banned(graph, catalog, terminals, k, &[], cache)
}

/// [`discover_queries_cached`] with banned edges (tripped services'
/// edges during failover). The ban set is part of the cache key.
pub fn discover_queries_cached_banned(
    graph: &SourceGraph,
    catalog: &Catalog,
    terminals: &[NodeId],
    k: usize,
    banned: &[EdgeId],
    cache: &crate::cache::QueryCache,
) -> Vec<ScoredQuery> {
    let trees = cache.trees_for_banned(graph, terminals, k, banned, || {
        search_trees_banned(graph, terminals, k, banned)
    });
    trees_to_queries(graph, catalog, &trees)
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

/// Propose replacement-source completions when services have tripped
/// their circuit breakers (§3.2: "propose replacement sources if a
/// source is down"). For each tripped service with an *equivalent*
/// replacement — a healthy service producing the same output semantic
/// types — the top-k Steiner search is re-run with every tripped
/// service's edges banned, and the resulting trees are grafted onto
/// the current plan. Each proposal is annotated (provenance-visible)
/// with why the replacement was used.
pub fn failover_suggestions(
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
    let current_schema = current.schema().clone();
    let tripped_nodes: Vec<NodeId> = tripped
        .iter()
        .filter_map(|name| graph.node_by_name(name))
        .filter(|&n| graph.node(n).kind == NodeKind::Service)
        .collect();
    if tripped_nodes.is_empty() {
        return out;
    }
    let mut banned: Vec<EdgeId> = tripped_nodes
        .iter()
        .flat_map(|&n| graph.incident(n).iter().copied())
        .collect();
    banned.sort_unstable();
    banned.dedup();
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
                let t_name = &graph.node(t).name;
                let r_name = &graph.node(r).name;
                let note = format!("failover:{t_name}->{r_name}");
                let label = format!("Q:{}+{} ({note})", graph.node(current_nodes[0]).name, r_name);
                let Ok((result, _report)) = execute_reported(&plan, catalog, &label) else {
                    continue;
                };
                let new_fields: Vec<Field> =
                    result.schema().fields()[current_schema.arity()..].to_vec();
                if new_fields.is_empty() {
                    continue;
                }
                let degraded = Some(note);
                let mut values = Vec::with_capacity(current_rows.len());
                let mut provenance = Vec::with_capacity(current_rows.len());
                let mut any = false;
                for row in current_rows {
                    let hit = result.tuples().iter().find(|tu| {
                        row.iter()
                            .take(current_schema.arity())
                            .enumerate()
                            .all(|(i, v)| tu.values.get(i).is_some_and(|c| c.text_eq(v)))
                    });
                    match hit {
                        Some(tu) => {
                            any = true;
                            values.push(
                                tu.values[current_schema.arity()..]
                                    .iter()
                                    .map(Value::as_text)
                                    .collect(),
                            );
                            provenance
                                .push(Some(annotate_degraded(tu.provenance.clone(), &degraded)));
                        }
                        None => {
                            values.push(vec![String::new(); new_fields.len()]);
                            provenance.push(None);
                        }
                    }
                }
                if !any {
                    continue;
                }
                // The suggestion's graph edge: the tree edge touching the
                // replacement service.
                let Some(edge) = tree.edges.iter().copied().find(|&e| {
                    let edge = graph.edge(e);
                    edge.a == r || edge.b == r
                }) else {
                    continue;
                };
                out.push(ColumnSuggestion {
                    new_fields,
                    values,
                    provenance,
                    edge,
                    plan,
                    label,
                    cost: tree.cost,
                    degraded,
                });
            }
        }
    }
    sort_suggestions(&mut out);
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
            2.0,
            None,
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
            2.0,
            None,
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
        let warm = discover_queries_cached(&graph, &catalog, &terminals, 3, &cache);
        assert!(warm.len() >= 2, "need alternatives to re-rank");
        // Second call: trees come from the cache and the answers match a
        // cold search exactly.
        let cached = discover_queries_cached(&graph, &catalog, &terminals, 3, &cache);
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
        let after = discover_queries_cached(&graph, &catalog, &terminals, 3, &cache);
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
            2.0,
            None,
        );
        assert!(suggs
            .iter()
            .all(|s| s.new_fields.iter().all(|f| f.name != "Zip")));
    }
}
