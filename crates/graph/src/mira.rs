//! MIRA: learning edge costs from ranking feedback (§4.2).
//!
//! "CopyCat's transformation and integration learner takes the feedback
//! constraints and changes the weights on the source graph edges … it
//! uses a machine learning algorithm called MIRA. MIRA is designed for
//! settings in which cost is computed by summing the product of features
//! (in our case features are simply the nodes connected by an edge) with
//! their independent weights … It adjusts weights *only* on edges that
//! differ between the graphs, such that the queries' costs, when
//! recomputed, will satisfy the ordering constraints provided by
//! feedback."
//!
//! A constraint says: the accepted query's tree must cost at least
//! `margin` less than each rejected alternative. The margin-infused
//! relaxed update is the minimal weight change achieving that, applied to
//! the symmetric difference of the two trees' edge sets.

use crate::source_graph::{EdgeId, SourceGraph, MIN_EDGE_COST};

/// The MIRA online learner over source-graph edge costs.
#[derive(Debug, Clone)]
pub struct Mira {
    /// Aggressiveness cap `C` on each update's magnitude.
    pub c: f64,
    /// Required cost margin between preferred and rejected queries.
    pub margin: f64,
}

impl Default for Mira {
    fn default() -> Self {
        Self { c: 1.0, margin: 0.1 }
    }
}

impl Mira {
    /// A learner with an explicit aggressiveness cap.
    pub fn new(c: f64) -> Self {
        Self { c, ..Self::default() }
    }

    /// Apply one ranking constraint: `preferred` (its tree's edges) should
    /// cost at least `margin` less than `rejected`. Adjusts only edges in
    /// the symmetric difference. Returns the update magnitude τ (0 when
    /// the constraint already holds).
    pub fn apply(
        &self,
        g: &mut SourceGraph,
        preferred: &[EdgeId],
        rejected: &[EdgeId],
    ) -> f64 {
        // Symmetric difference with signs: +1 for edges only in the
        // preferred tree (should get cheaper), -1 for edges only in the
        // rejected tree (should get costlier).
        let mut diff: Vec<(EdgeId, f64)> = Vec::new();
        for &e in preferred {
            if !rejected.contains(&e) {
                diff.push((e, 1.0));
            }
        }
        for &e in rejected {
            if !preferred.contains(&e) {
                diff.push((e, -1.0));
            }
        }
        if diff.is_empty() {
            return 0.0;
        }
        let cost_pref = g.tree_cost(preferred);
        let cost_rej = g.tree_cost(rejected);
        // Hinge loss of the ordering constraint; float residue from prior
        // updates counts as satisfied.
        let loss = cost_pref - cost_rej + self.margin;
        if loss <= 1e-9 {
            return 0.0;
        }
        let norm2 = diff.len() as f64; // signed unit features
        let tau = (loss / norm2).min(self.c);
        for (e, sign) in diff {
            let new_cost = (g.cost(e) - tau * sign).max(MIN_EDGE_COST);
            g.set_cost(e, new_cost);
        }
        tau
    }

    /// Apply a batch of constraints: the accepted tree is preferred over
    /// every rejected alternative. Returns the number of constraints that
    /// required an update.
    pub fn rank_above<R: AsRef<[EdgeId]>>(
        &self,
        g: &mut SourceGraph,
        accepted: &[EdgeId],
        rejected_alternatives: &[R],
    ) -> usize {
        rejected_alternatives
            .iter()
            .filter(|rej| self.apply(g, accepted, rej.as_ref()) > 0.0)
            .count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source_graph::{EdgeKind, NodeId};
    use copycat_query::Schema;

    /// Diamond: two alternative paths between a and d.
    fn diamond() -> (SourceGraph, Vec<EdgeId>, Vec<EdgeId>, Vec<NodeId>) {
        let mut g = SourceGraph::new();
        let ids: Vec<NodeId> = ["a", "b", "c", "d"]
            .iter()
            .map(|n| g.add_relation(*n, Schema::of(&["X"])))
            .collect();
        let j = || EdgeKind::Join { pairs: vec![("X".into(), "X".into())] };
        let e0 = g.add_edge_with_cost(ids[0], ids[1], j(), 1.0);
        let e1 = g.add_edge_with_cost(ids[1], ids[3], j(), 1.0);
        let e2 = g.add_edge_with_cost(ids[0], ids[2], j(), 1.0);
        let e3 = g.add_edge_with_cost(ids[2], ids[3], j(), 1.0);
        (g, vec![e0, e1], vec![e2, e3], ids)
    }

    #[test]
    fn update_flips_ranking() {
        let (mut g, via_b, via_c, _) = diamond();
        // Initially tied; the user prefers the path via c.
        let mira = Mira::default();
        let tau = mira.apply(&mut g, &via_c, &via_b);
        assert!(tau > 0.0);
        assert!(g.tree_cost(&via_c) + mira.margin <= g.tree_cost(&via_b) + 1e-9);
    }

    #[test]
    fn satisfied_constraint_is_noop() {
        let (mut g, via_b, via_c, _) = diamond();
        let mira = Mira::default();
        mira.apply(&mut g, &via_c, &via_b);
        let before: Vec<f64> = g.edge_ids().map(|e| g.cost(e)).collect();
        let tau = mira.apply(&mut g, &via_c, &via_b);
        assert_eq!(tau, 0.0);
        let after: Vec<f64> = g.edge_ids().map(|e| g.cost(e)).collect();
        assert_eq!(before, after);
    }

    #[test]
    fn only_differing_edges_change() {
        let (mut g, via_b, via_c, ids) = diamond();
        // Add a shared edge to both trees.
        let shared = g.add_edge_with_cost(
            ids[3],
            ids[0],
            EdgeKind::Join { pairs: vec![("X".into(), "X".into())] },
            1.0,
        );
        let pref: Vec<EdgeId> = via_c.iter().copied().chain([shared]).collect();
        let rej: Vec<EdgeId> = via_b.iter().copied().chain([shared]).collect();
        Mira::default().apply(&mut g, &pref, &rej);
        assert_eq!(g.cost(shared), 1.0, "shared edge untouched");
        assert!(g.cost(via_c[0]) < 1.0);
        assert!(g.cost(via_b[0]) > 1.0);
    }

    #[test]
    fn costs_never_drop_below_floor() {
        let (mut g, via_b, via_c, _) = diamond();
        let mira = Mira { c: 100.0, margin: 50.0 };
        mira.apply(&mut g, &via_c, &via_b);
        for e in g.edge_ids() {
            assert!(g.cost(e) >= MIN_EDGE_COST);
        }
    }

    #[test]
    fn one_feedback_item_suffices_on_the_diamond() {
        // The E2a claim in miniature: a single accepted suggestion flips
        // the Steiner search to the user's preferred query.
        let (mut g, via_b, via_c, ids) = diamond();
        // Adversarial start: the disliked path is slightly cheaper.
        g.set_cost(via_b[0], 0.9);
        let terminals = [ids[0], ids[3]];
        let before = crate::steiner::steiner_exact(&g, &terminals).unwrap();
        assert_eq!(before.edges, via_b);
        Mira::default().apply(&mut g, &via_c, &via_b);
        let after = crate::steiner::steiner_exact(&g, &terminals).unwrap();
        assert_eq!(after.edges, via_c);
    }

    #[test]
    fn rank_above_batches() {
        let (mut g, via_b, via_c, _) = diamond();
        let updated = Mira::default().rank_above(&mut g, &via_c, &[via_b.clone(), via_c.clone()]);
        // Identical trees yield an empty diff -> no update; the other
        // constraint updates.
        assert_eq!(updated, 1);
    }
}
