//! The CopyCat *integration learner*'s substrate (§4 of the CIDR 2009
//! paper): the source graph, association discovery, Steiner-tree query
//! search, and MIRA weight learning.
//!
//! "At its core, this learner maintains a *source graph*, in which nodes
//! describe the schemas of data sources and … services. Edges describe
//! possible means of linking data from one source to another … Edges
//! receive weights defining how relevant they are … adjusted through
//! learning."
//!
//! * [`source_graph`] — nodes (relations & services), weighted association
//!   edges (joins, dependent-join bindings, record links);
//! * [`assoc`] — §4.1's edge discovery: "(1) common attribute names and
//!   data types, (2) known links or foreign keys", conjunction of all
//!   shared predicates by default;
//! * [`steiner`] — §4.2's query search: exact top-k Steiner trees for
//!   small graphs (Dreyfus–Wagner + Lawler branching standing in for the
//!   paper's ILP) and the SPCSH shortest-path component heuristic with
//!   edge pruning for larger ones;
//! * [`mira`] — the MIRA online learner that "adjusts weights only on
//!   edges that differ between the graphs" to satisfy feedback-derived
//!   ranking constraints.

pub mod assoc;
pub mod mira;
pub mod source_graph;
pub mod steiner;

pub use assoc::{discover_associations, AssocOptions};
pub use mira::Mira;
pub use source_graph::{
    Edge, EdgeId, EdgeKind, GraphBase, Node, NodeId, NodeKind, SourceGraph,
    DEFAULT_EDGE_COST, MIN_EDGE_COST, SUGGESTION_COST_THRESHOLD,
};
pub use steiner::{
    spcsh, steiner_exact, steiner_exact_in, top_k_steiner, top_k_steiner_banned, SteinerScratch,
    SteinerTree, MAX_EXACT_TERMINALS,
};
