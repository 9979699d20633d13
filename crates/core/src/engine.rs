//! The CopyCat SCP engine: the coupling between clipboard, workspace and
//! learners (§2.3: "Our focus in this prototype is on the coupling
//! between the clipboard, the workspace/user interface, and the learning
//! systems").
//!
//! The engine is a state machine over two modes, as in §2.1:
//!
//! * **import mode** — pastes are examples for the structure learner;
//!   the engine proposes row auto-completions and column types;
//! * **integration mode** — entered by committing a source; the engine
//!   proposes column auto-completions from the source graph, discovers
//!   queries for cross-source pastes, and routes feedback (via
//!   provenance) to the MIRA learner.

use crate::autocomplete::{self, ColumnSuggestion, ScoredQuery};
use crate::cache::{CacheStats, QueryCache};
use crate::workspace::{RowState, Tab, Workspace};
use copycat_document::{Clipboard, Document, DocumentId};
use copycat_extract::{execute as run_wrapper, refine, ScoredWrapper, StructureLearner, Wrapper};
use copycat_graph::{
    discover_associations, AssocOptions, EdgeId, EdgeKind, Mira, NodeId, SourceGraph,
    SteinerTree, SUGGESTION_COST_THRESHOLD,
};
use copycat_linkage::{LabeledPair, MatchLearner, Matcher, TfIdfIndex};
use copycat_query::{Catalog, Field, Plan, Relation, Schema, Service};
use copycat_services::{
    Flaky, HealthRegistry, HealthSnapshot, Resilient, RetryPolicy, SavedFlakyState,
    SavedServiceHealth,
};
use copycat_semantic::registry::DEFAULT_RECOGNITION_THRESHOLD;
use copycat_semantic::TypeRegistry;
use copycat_util::undo::UndoLog;
use std::sync::Arc;

/// The two interaction modes of §2.1.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Learning an extractor for one source from pasted examples.
    Import,
    /// Building an integration query across committed sources.
    Integrate,
}

/// Import-mode state for the active tab.
#[derive(Debug)]
struct ImportState {
    doc: DocumentId,
    wrapper: Option<ScoredWrapper>,
    rejected: Vec<Vec<String>>,
}

/// The engine.
pub struct CopyCat {
    clipboard: Clipboard,
    catalog: Catalog,
    registry: TypeRegistry,
    learner: StructureLearner,
    graph: SourceGraph,
    workspace: Workspace,
    import: Option<ImportState>,
    mode: Mode,
    current_plan: Option<Plan>,
    current_nodes: Vec<NodeId>,
    mira: Mira,
    /// Suggestions shown for the last `column_suggestions` call; feedback
    /// constraints compare the chosen one against these.
    last_shown: Vec<ColumnSuggestion>,
    /// User-demonstrated record-link examples and the trained matcher.
    link_examples: Vec<LabeledPair>,
    link_matcher: Option<Matcher>,
    /// Per-source wrapper memory (source name → wrapper + doc; the doc
    /// is `None` for wrappers restored from a saved session until
    /// [`Self::attach_wrapper_document`] reattaches one).
    wrappers: Vec<(String, Option<DocumentId>, Wrapper)>,
    /// Per-tab integration state: `(plan, nodes)` by tab index.
    tab_queries: copycat_util::hash::FxHashMap<usize, (Plan, Vec<NodeId>)>,
    /// §5 "data cleaning" mode: edits stay local instead of generalizing.
    cleaning: bool,
    /// Transform-derived columns of the active tab: column index →
    /// (program, accumulated examples).
    transform_columns: copycat_util::hash::FxHashMap<usize, TransformState>,
    /// Undo journal of the engine's own fields (§5 "advanced
    /// interactions"); the workspace and the graph keep theirs, and all
    /// three open and close entries together (see [`CopyCat::undo`]).
    journal: UndoLog<EngineUndo>,
    /// Version-stamped cache of Steiner searches: repeated pastes reuse
    /// results; MIRA updates and edge insertions invalidate via the
    /// graph version.
    query_cache: QueryCache,
    /// Health of services registered with retry/breaker protection
    /// ([`CopyCat::register_resilient`]): breaker states, retry/trip
    /// counters, and observed failure rates feeding failover.
    health: HealthRegistry,
    /// Health state restored by [`CopyCat::load_session_json`] but not
    /// yet re-attached: services persist their runtime health (breaker
    /// status, counters, injected-fault attempt maps) by name, and the
    /// caller re-registers the implementations *after* the load.
    /// Each entry is consumed by the matching
    /// [`CopyCat::register_resilient`] call; until then a save writes it
    /// back after the live entries, in the order the snapshot listed it.
    pending_health: Vec<SavedServiceHealth>,
    /// Saved fault-injection state for probes registered *without* the
    /// resilient layer; consumed by [`CopyCat::register_service`] and
    /// saved like `pending_health` until then.
    pending_probes: Vec<(String, SavedFlakyState)>,
}

/// A transform column's learned program plus its accumulated examples.
type TransformState = (copycat_transform::Program, Vec<(Vec<String>, String)>);

/// The inverse of one change to the engine's own undoable fields, kept
/// while an undo entry is open: each holds the previous value.
#[derive(Debug)]
enum EngineUndo {
    Mode(Mode),
    /// The active query and its nodes.
    Query(Option<Plan>, Vec<NodeId>),
    /// One tab's saved query (`None`: it had none).
    TabQuery(usize, Option<(Plan, Vec<NodeId>)>),
    /// One transform column's state (`None`: it was no transform column).
    Transform(usize, Option<TransformState>),
    /// A transform column's example count before an edit added one.
    Examples(usize, usize),
    /// A transform column's program before an edit re-learned it.
    Program(usize, copycat_transform::Program),
}

impl EngineUndo {
    /// Whether `self` and `other` put back the same field (or the same
    /// tab's query), so that of the two only the older is needed.
    fn same_slot(&self, other: &Self) -> bool {
        match (self, other) {
            (Self::Mode(_), Self::Mode(_)) | (Self::Query(..), Self::Query(..)) => true,
            (Self::TabQuery(a, _), Self::TabQuery(b, _)) => a == b,
            _ => false,
        }
    }
}

/// Put `key`'s previous entry (or its absence) back into `map`.
fn restore<V>(map: &mut copycat_util::hash::FxHashMap<usize, V>, key: usize, old: Option<V>) {
    match old {
        Some(v) => map.insert(key, v),
        None => map.remove(&key),
    };
}

/// What [`CopyCat::edit_cell`] did with an edit.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EditEffect {
    /// Cleaning mode (or no generalization found): only this cell changed.
    Local,
    /// The edit re-taught a transform column; this many other cells were
    /// updated by the re-learned program.
    Generalized(usize),
}

/// Where [`CopyCat::reject_tuple`] routed the feedback (§5 "feedback
/// interaction": integration-mode feedback reaching the source learners).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TupleRejection {
    /// The queries blamed via the tuple's provenance labels.
    pub queries: Vec<String>,
    /// Source relations whose wrappers were refined, with the number of
    /// rows their re-extraction now yields.
    pub refined_sources: Vec<(String, usize)>,
}

/// A learned transform surfaced as a first-class graph edge: the
/// program, the columns it connects, and the cost the Steiner search
/// ranks it by.
#[derive(Debug, Clone)]
pub struct LearnedTransform {
    /// The graph edge carrying the program.
    pub edge: EdgeId,
    /// Source relation (the program's input side).
    pub from_source: String,
    /// Column of `from_source` the program reads.
    pub from_col: String,
    /// Target relation the derived value joins into.
    pub to_source: String,
    /// Column of `to_source` the derived value equals.
    pub to_col: String,
    /// The learned program (renders human-readably).
    pub program: copycat_transform::Program,
    /// Fraction of source values mapped into the target column.
    pub coverage: f64,
    /// The edge cost derived from program size + coverage.
    pub cost: f64,
}

/// A proposed derived column learned from typed examples (§5 "complex
/// functions / transforms").
#[derive(Debug, Clone)]
pub struct TransformSuggestion {
    /// The learned program.
    pub program: copycat_transform::Program,
    /// The program's output for every committed row (empty when it does
    /// not apply).
    pub values: Vec<String>,
    /// The examples it was learned from.
    pub examples: Vec<(Vec<String>, String)>,
}

impl Default for CopyCat {
    fn default() -> Self {
        Self::new()
    }
}

impl CopyCat {
    /// A session engine layered over a shared [`WorldBase`]: the base's
    /// catalog, source graph and type registry are read through by `Arc`
    /// (copy-on-write overlays), so the session's marginal footprint is
    /// only its own deltas — MIRA weights, feedback edges, wrappers,
    /// workspace and health. Everything else starts exactly as in
    /// [`CopyCat::new`].
    pub fn with_base(base: &Arc<crate::world_base::WorldBase>) -> Self {
        Self::with_parts(
            Catalog::with_base(base.catalog()),
            TypeRegistry::with_base(base.types()),
            SourceGraph::with_base(base.graph()),
        )
    }

    /// Decompose a flat engine into the parts a
    /// [`WorldBase`](crate::world_base::WorldBase) freezes and shares.
    pub(crate) fn into_shared_parts(self) -> (Catalog, SourceGraph, TypeRegistry) {
        (self.catalog, self.graph, self.registry)
    }

    /// A fresh engine with the built-in semantic types and no sources.
    pub fn new() -> Self {
        Self::with_parts(Catalog::new(), TypeRegistry::with_builtins(), SourceGraph::new())
    }

    /// The shared constructor body: everything except the three
    /// shareable parts.
    fn with_parts(catalog: Catalog, registry: TypeRegistry, graph: SourceGraph) -> Self {
        Self {
            clipboard: Clipboard::new(),
            catalog,
            registry,
            learner: StructureLearner::new(),
            graph,
            workspace: Workspace::new(),
            import: None,
            mode: Mode::Import,
            current_plan: None,
            current_nodes: Vec::new(),
            mira: Mira::default(),
            last_shown: Vec::new(),
            link_examples: Vec::new(),
            link_matcher: None,
            wrappers: Vec::new(),
            tab_queries: copycat_util::hash::FxHashMap::default(),
            cleaning: false,
            transform_columns: copycat_util::hash::FxHashMap::default(),
            journal: UndoLog::new(),
            query_cache: QueryCache::default(),
            health: HealthRegistry::new(),
            pending_health: Vec::new(),
            pending_probes: Vec::new(),
        }
    }

    // --- Undo (§5 "advanced interactions") -----------------------------

    /// Open an undo entry (called by mutating user actions before they
    /// change anything). Until the next one, the engine, the workspace
    /// and the graph record the inverse of every undoable change they
    /// make, whoever asks for it. Each keeps the newest
    /// [`MAX_ENTRIES`](copycat_util::undo::MAX_ENTRIES) entries.
    fn checkpoint(&mut self) {
        self.journal.open();
        self.workspace.open_undo();
        self.graph.open_undo();
    }

    /// Apply the newest entry's inverses and close it; false when no
    /// entry is open.
    fn unwind(&mut self) -> bool {
        // Taken out while applying, so nothing is recorded meanwhile.
        let mut journal = std::mem::take(&mut self.journal);
        let Some(ops) = journal.pop() else {
            self.journal = journal;
            return false;
        };
        for op in ops.rev() {
            self.revert(op);
        }
        self.journal = journal;
        self.workspace.undo();
        // Edges added since the entry opened (learned transform edges,
        // association edges of later commits) are removed outright —
        // undoing a learned transform deletes its edge and bumps the
        // graph version, so no cached ranking can resurrect it.
        self.graph.undo();
        true
    }

    fn revert(&mut self, op: EngineUndo) {
        match op {
            EngineUndo::Mode(mode) => self.mode = mode,
            EngineUndo::Query(plan, nodes) => {
                self.current_plan = plan;
                self.current_nodes = nodes;
            }
            EngineUndo::TabQuery(tab, query) => restore(&mut self.tab_queries, tab, query),
            EngineUndo::Transform(col, state) => restore(&mut self.transform_columns, col, state),
            EngineUndo::Examples(col, len) => {
                if let Some((_, examples)) = self.transform_columns.get_mut(&col) {
                    examples.truncate(len);
                }
            }
            EngineUndo::Program(col, program) => {
                if let Some(state) = self.transform_columns.get_mut(&col) {
                    state.0 = program;
                }
            }
        }
    }

    /// Undo the last user action: restores the workspace with its
    /// transform columns, the active query, and the learned edge costs,
    /// including changes made since the action that opened no entry of
    /// their own (a column rename, MIRA feedback, a service
    /// registration's edges). Catalog contents (committed sources) are
    /// append-only and stay. Returns false when there is nothing to
    /// undo.
    pub fn undo(&mut self) -> bool {
        if !self.unwind() {
            return false;
        }
        self.last_shown.clear();
        true
    }

    /// Depth of the undo stack (for UIs).
    pub fn undo_depth(&self) -> usize {
        self.journal.depth()
    }

    /// Record `op`, the inverse of setting one field, unless the open
    /// entry already puts that field back to an older value.
    fn record_set(&mut self, op: EngineUndo) {
        if !self.journal.newest().any(|r| r.same_slot(&op)) {
            self.journal.record(op);
        }
    }

    fn set_mode(&mut self, mode: Mode) {
        if self.mode != mode {
            self.record_set(EngineUndo::Mode(self.mode));
            self.mode = mode;
        }
    }

    /// Make `plan` over `nodes` the active query.
    fn set_query(&mut self, plan: Option<Plan>, nodes: Vec<NodeId>) {
        let plan = std::mem::replace(&mut self.current_plan, plan);
        let nodes = std::mem::replace(&mut self.current_nodes, nodes);
        self.record_set(EngineUndo::Query(plan, nodes));
    }

    /// Save `tab`'s integration query.
    fn set_tab_query(&mut self, tab: usize, plan: Plan, nodes: Vec<NodeId>) {
        let old = self.tab_queries.insert(tab, (plan, nodes));
        self.record_set(EngineUndo::TabQuery(tab, old));
    }

    /// The workspace (for rendering and assertions).
    pub fn workspace(&self) -> &Workspace {
        &self.workspace
    }

    /// The catalog.
    pub fn catalog(&self) -> &Catalog {
        &self.catalog
    }

    /// The source graph.
    pub fn graph(&self) -> &SourceGraph {
        &self.graph
    }

    /// The semantic type registry (mutable: users can define types on the
    /// fly, §3.2).
    pub fn registry_mut(&mut self) -> &mut TypeRegistry {
        &mut self.registry
    }

    /// The current mode.
    pub fn mode(&self) -> Mode {
        self.mode
    }

    /// The active integration query, if any.
    pub fn current_plan(&self) -> Option<&Plan> {
        self.current_plan.as_ref()
    }

    /// Open a document the user is viewing (the application wrapper's
    /// "access to the source", §3.1).
    pub fn open(&mut self, doc: Document) -> DocumentId {
        self.clipboard.register(doc)
    }

    /// Paste one example row copied from `doc` into the active tab
    /// (import mode). The engine generalizes and refreshes the row
    /// auto-completions and proposed column types. Returns the number of
    /// suggested rows.
    pub fn paste_example(&mut self, doc: DocumentId, values: &[&str]) -> usize {
        self.checkpoint();
        if self.mode != Mode::Import {
            self.start_import_tab("import");
        }
        let values: Vec<String> = values.iter().map(|v| v.to_string()).collect();
        self.workspace.paste_row(&values);
        match &mut self.import {
            Some(state) if state.doc == doc => {}
            _ => {
                self.import =
                    Some(ImportState { doc, wrapper: None, rejected: Vec::new() });
            }
        }
        self.relearn_import()
    }

    /// Re-run the structure learner from the active tab's pasted examples
    /// and refresh suggestions. Returns the number of suggested rows.
    fn relearn_import(&mut self) -> usize {
        let Some(state) = &mut self.import else {
            return 0;
        };
        let examples = self.workspace.active().pasted_rows();
        let Some(document) = self.clipboard.document(state.doc) else {
            return 0;
        };
        let mut hyps = self.learner.learn(document, &examples, &self.registry);
        // Apply remembered rejections to each hypothesis.
        let rejected = &state.rejected;
        for h in &mut hyps {
            if !rejected.is_empty() {
                let refined = refine(&h.wrapper, document, rejected);
                if refined != h.wrapper {
                    h.rows = run_wrapper(&refined, document);
                    h.wrapper = refined;
                }
            }
            // Hypotheses that still produce rejected rows rank lower.
            if h.rows.iter().any(|r| rejected.contains(r)) {
                h.score -= 10.0;
            }
        }
        hyps.sort_by(|a, b| b.score.partial_cmp(&a.score).expect("finite"));
        let top = hyps.into_iter().next();
        // The top hypothesis's rows not already in the table or rejected.
        let fresh: Vec<&[String]> = match &top {
            Some(h) => {
                let committed: copycat_util::hash::FxHashSet<&[String]> = self
                    .workspace
                    .active()
                    .rows
                    .iter()
                    .filter(|r| r.state != RowState::Suggested)
                    .map(|r| &r.cells[..])
                    .collect();
                h.rows
                    .iter()
                    .filter(|r| !committed.contains(&r[..]) && !rejected.contains(r))
                    .map(|r| &r[..])
                    .collect()
            }
            None => Vec::new(),
        };
        let suggested = fresh.len();
        self.workspace.replace_suggestions(&fresh);
        state.wrapper = top;

        // Column-type proposals over everything visible (Figure 1's
        // PR-Street / PR-City captions).
        let arity =
            self.workspace.active().rows.iter().map(|r| r.cells.len()).max().unwrap_or(0);
        for col in 0..arity {
            let col_values: Vec<&str> = self
                .workspace
                .active()
                .rows
                .iter()
                .filter_map(|r| r.cells.get(col))
                .filter(|v| !v.is_empty())
                .map(String::as_str)
                .collect();
            let best = self.registry.best(&col_values, DEFAULT_RECOGNITION_THRESHOLD);
            if let Some((ty, _)) = best {
                let label = ty.strip_prefix("PR-").unwrap_or(&ty);
                self.workspace.propose_column(col, label, Some(&ty));
            }
        }
        suggested
    }

    /// Accept all suggested rows in the active tab.
    pub fn accept_suggested_rows(&mut self) -> usize {
        self.checkpoint();
        self.workspace.accept_all_suggestions()
    }

    /// Reject one suggested row (import mode): removes it, refines the
    /// wrapper, and refreshes the remaining suggestions.
    pub fn reject_suggested_row(&mut self, row_index: usize) -> bool {
        // Refused before an entry opens: at full depth, opening one
        // would forget the oldest entry for an edit that never happens.
        let rows = &self.workspace.active().rows;
        if rows.get(row_index).is_none_or(|r| r.state != RowState::Suggested) {
            return false;
        }
        self.checkpoint();
        let Some(cells) = self.workspace.reject_row(row_index) else {
            return false;
        };
        if let Some(state) = &mut self.import {
            state.rejected.push(cells);
        }
        self.relearn_import();
        true
    }

    /// Rename a column (user action).
    pub fn name_column(&mut self, col: usize, name: &str) -> bool {
        self.workspace.name_column(col, name)
    }

    /// Pick a column's semantic type from the hypothesis dropdown (§3.2:
    /// "the user can keep the proposed hypothesis … or select one of the
    /// other hypotheses"). Also refreshes the system-proposed label when
    /// the user hasn't named the column.
    pub fn set_column_type(&mut self, col: usize, sem_type: &str) -> bool {
        if col >= self.workspace.active().columns.len() {
            return false;
        }
        let label = sem_type.strip_prefix("PR-").unwrap_or(sem_type);
        self.workspace.propose_column(col, label, Some(sem_type));
        true
    }

    /// The ranked type hypotheses for a column (the dropdown contents).
    pub fn column_type_hypotheses(&self, col: usize) -> Vec<String> {
        let values = self.workspace.active().column_values(col);
        self.registry
            .recognize_column(&values)
            .into_iter()
            .map(|(n, _)| n)
            .collect()
    }

    /// Commit the active import tab as a named source: materializes the
    /// learned extractor's output into the catalog, adds the source to
    /// the graph, discovers associations, and switches to integration
    /// mode. Returns the relation size.
    pub fn commit_source(&mut self, name: &str) -> usize {
        self.checkpoint();
        // Accept whatever is still suggested — committing implies consent.
        self.workspace.accept_all_suggestions();
        let tab = self.workspace.active();
        let schema = Schema::new(tab.columns.clone());
        let rows = tab.committed_rows();
        let rel = Relation::from_strings(name, schema.clone(), &rows);
        let size = rel.len();
        self.catalog.add_relation(rel);
        if self.graph.node_by_name(name).is_none() {
            self.graph.add_relation(name, schema);
            discover_associations(&mut self.graph, &AssocOptions::default());
        }
        if let Some(state) = &self.import {
            if let Some(w) = &state.wrapper {
                self.wrappers
                    .push((name.to_string(), Some(state.doc), w.wrapper.clone()));
            }
        }
        self.workspace.set_title(name);
        self.import = None;
        self.set_mode(Mode::Integrate);
        let nodes: Vec<NodeId> = self.graph.node_by_name(name).into_iter().collect();
        self.set_query(Some(Plan::scan(name)), nodes.clone());
        self.set_tab_query(self.workspace.active_index(), Plan::scan(name), nodes);
        size
    }

    /// Switch the active tab, restoring that tab's integration query (if
    /// it has one). Returns false on a bad index.
    pub fn switch_tab(&mut self, index: usize) -> bool {
        if !self.workspace.switch_to(index) {
            return false;
        }
        match self.tab_queries.get(&index) {
            Some((plan, nodes)) => {
                let (plan, nodes) = (plan.clone(), nodes.clone());
                self.set_query(Some(plan), nodes);
                self.set_mode(Mode::Integrate);
            }
            None if self.current_plan.is_some() || !self.current_nodes.is_empty() => {
                self.set_query(None, Vec::new());
            }
            None => {}
        }
        self.last_shown.clear();
        true
    }

    /// Begin importing another source in a fresh tab.
    pub fn start_import_tab(&mut self, title: &str) {
        self.workspace.add_tab(Tab::new(title));
        self.import = None;
        self.set_mode(Mode::Import);
    }

    /// Add an already-cataloged relation to the source graph (used when a
    /// source arrives through a channel other than the import flow, e.g.
    /// a saved catalog from an earlier session).
    pub fn add_graph_relation(&mut self, name: &str, schema: Schema) {
        if self.graph.node_by_name(name).is_none() {
            self.graph.add_relation(name, schema);
            discover_associations(&mut self.graph, &AssocOptions::default());
        }
    }

    /// Register an external service (catalog + graph + associations).
    ///
    /// If a saved session restored fault-injection state for a probe of
    /// this name (the snapshot's `probes` member), it is
    /// re-applied here so a restored [`Flaky`] continues the exact roll
    /// sequence it was saved mid-way through.
    pub fn register_service(&mut self, svc: Arc<dyn Service>) {
        let sig = svc.signature().clone();
        let name = svc.name().to_string();
        let cost = svc.cost();
        if let Some(i) = self.pending_probes.iter().position(|(n, _)| *n == name) {
            let (_, saved) = self.pending_probes.remove(i);
            if let Some(flaky) =
                svc.as_any().and_then(|a| a.downcast_ref::<Flaky>())
            {
                flaky.restore_state(&saved);
            }
        }
        self.catalog.add_service(svc);
        if self.graph.node_by_name(&name).is_none() {
            let mut fields = sig.inputs.fields().to_vec();
            fields.extend(sig.outputs.fields().iter().cloned());
            self.graph
                .add_service_with_cost(&name, Schema::new(fields), sig.inputs.arity(), cost);
            discover_associations(&mut self.graph, &AssocOptions::default());
        }
    }

    /// Register a service wrapped in deterministic retry + circuit
    /// breaking ([`Resilient`]), tracked by the engine's health
    /// registry so failover can ban its edges when the breaker trips.
    pub fn register_resilient(
        &mut self,
        svc: Arc<dyn Service>,
        policy: RetryPolicy,
    ) -> Arc<Resilient> {
        let wrapped = Arc::new(Resilient::new(svc, policy));
        // Re-attach health restored from a saved session (tripped
        // breakers, retry/trip counters, inner fault-injection state)
        // before the service becomes callable: a breaker that was open
        // at save time must still be open after restore.
        if let Some(i) = self.pending_health.iter().position(|s| s.service == wrapped.name()) {
            wrapped.restore_health(&self.pending_health.remove(i));
        }
        self.health.register(wrapped.clone());
        self.register_service(wrapped.clone() as Arc<dyn Service>);
        wrapped
    }

    /// Stash health state from a saved session for re-attachment when
    /// the caller re-registers the corresponding services (service
    /// implementations are closures and do not persist; their runtime
    /// health does).
    pub(crate) fn stash_saved_health(
        &mut self,
        services: Vec<SavedServiceHealth>,
        probes: Vec<(String, SavedFlakyState)>,
    ) {
        self.pending_health = services;
        self.pending_probes = probes;
    }

    /// Saved health not yet re-attached by [`CopyCat::register_resilient`],
    /// snapshot order.
    pub(crate) fn pending_health(&self) -> &[SavedServiceHealth] {
        &self.pending_health
    }

    /// Saved probe state not yet re-attached by
    /// [`CopyCat::register_service`], snapshot order.
    pub(crate) fn pending_probes(&self) -> &[(String, SavedFlakyState)] {
        &self.pending_probes
    }

    /// The engine's service-health registry (breaker states, retry and
    /// trip counters for every [`CopyCat::register_resilient`] service).
    pub fn health(&self) -> &HealthRegistry {
        &self.health
    }

    /// Health snapshots for every resilient service, registration order.
    pub fn health_snapshots(&self) -> Vec<HealthSnapshot> {
        self.health.snapshots()
    }

    /// Re-price tracked services' graph edges from *observed* health:
    /// a resilient wrapper's `cost()` reflects its observed failure
    /// rate, so a service that keeps exhausting retries gets costlier
    /// bind edges (dropping in MIRA/Steiner ranking) and a recovered
    /// one cheapens again. Edge costs are scaled by the hint ratio so
    /// MIRA's learned adjustments survive; the graph version bumps
    /// only on an effective change (cache-friendly).
    pub fn refresh_service_costs(&mut self) {
        for snap in self.health.snapshots() {
            let Some(resilient) = self.health.get(&snap.service) else {
                continue;
            };
            let Some(node) = self.graph.node_by_name(&snap.service) else {
                continue;
            };
            let new_hint = resilient.cost().max(0.1);
            let old_hint = self.graph.set_cost_hint(node, new_hint);
            if (new_hint - old_hint).abs() < 1e-12 {
                continue;
            }
            for e in self.graph.incident(node).to_vec() {
                if matches!(self.graph.edge(e).kind, EdgeKind::Bind { .. }) {
                    let scaled = self.graph.cost(e) / old_hint * new_hint;
                    self.graph.set_cost(e, scaled);
                }
            }
        }
    }

    /// Ranked column auto-completions for the active integration query
    /// (Figure 2). The list is remembered so feedback can compare the
    /// accepted suggestion against the alternatives shown, and the
    /// answer borrows that list; callers that go on to edit the engine
    /// take an owned copy with `.to_vec()`.
    ///
    /// Completions degraded by service failures rank below healthy
    /// ones, and when a circuit breaker is open the list additionally
    /// carries failover proposals that re-plan through equivalent
    /// replacement sources with the tripped service's edges banned.
    pub fn column_suggestions(&mut self) -> &[ColumnSuggestion] {
        self.refresh_service_costs();
        self.last_shown = match &self.current_plan {
            Some(plan) => autocomplete::column_suggestions(
                &self.graph,
                &self.catalog,
                plan,
                &self.current_nodes,
                &self.workspace.active().committed_rows(),
                self.link_matcher.as_ref(),
                &self.health,
            ),
            None => Vec::new(),
        };
        &self.last_shown
    }

    /// Accept the `i`th suggestion of the last
    /// [`Self::column_suggestions`] list: extend the tab, adopt the
    /// extended query, and promote the chosen edge over the alternatives
    /// that were shown (MIRA constraint per §4.2). The list is then
    /// spent. False when there is no `i`th suggestion.
    pub fn accept_column(&mut self, i: usize) -> bool {
        if i >= self.last_shown.len() {
            return false;
        }
        let shown = std::mem::take(&mut self.last_shown);
        let sugg = &shown[i];
        self.checkpoint();
        for (c, field) in sugg.new_fields.iter().enumerate() {
            let col: Vec<String> = sugg
                .values
                .iter()
                .map(|row| row.get(c).cloned().unwrap_or_default())
                .collect();
            self.workspace.add_column(field.clone(), &col);
        }
        let rows = self.workspace.active().rows.len();
        for (row, prov) in sugg.provenance.iter().enumerate().take(rows) {
            if let Some(p) = prov {
                self.workspace.set_provenance(row, p.clone());
            }
        }
        // Track the new node set.
        let mut nodes = self.current_nodes.clone();
        let edge = self.graph.edge(sugg.edge);
        for n in [edge.a, edge.b] {
            if !nodes.contains(&n) {
                nodes.push(n);
            }
        }
        self.set_query(Some(sugg.plan.clone()), nodes.clone());
        self.set_tab_query(self.workspace.active_index(), sugg.plan.clone(), nodes);
        // Promote over the alternatives shown alongside.
        let alternatives: Vec<[EdgeId; 1]> = shown
            .iter()
            .filter(|s| s.edge != sugg.edge)
            .map(|s| [s.edge])
            .collect();
        self.mira
            .rank_above(&mut self.graph, &[sugg.edge], &alternatives);
        true
    }

    /// Reject the `i`th suggestion of the last
    /// [`Self::column_suggestions`] list, which stays shown: its edge is
    /// demoted below the relevance threshold ("these should be given a
    /// rank below the relevance threshold", §4.2). False when there is
    /// no `i`th suggestion.
    pub fn reject_column(&mut self, i: usize) -> bool {
        let Some(edge) = self.last_shown.get(i).map(|s| s.edge) else {
            return false;
        };
        self.checkpoint();
        let demoted = (SUGGESTION_COST_THRESHOLD + self.mira.margin)
            .max(self.graph.cost(edge) + self.mira.margin);
        self.graph.set_cost(edge, demoted);
        true
    }

    /// Discover ranked queries covering the sources that mention the
    /// pasted tuple's values (§4.2 mode 2: "user-pasted tuples in which
    /// the attributes do not all originate from the same source").
    pub fn discover_queries_for_tuple(&self, values: &[&str], k: usize) -> Vec<ScoredQuery> {
        // Each value's terminal is the first relation, by name, that
        // holds it in some cell.
        let mut terminals: Vec<NodeId> = Vec::new();
        for v in values {
            let holder = self.catalog.first_relation(|rel| {
                rel.tuples()
                    .iter()
                    .any(|t| t.values.iter().any(|c| c.text_eq(v)))
            });
            if let Some(node) = holder.and_then(|rel| self.graph.node_by_name(rel.name())) {
                if !terminals.contains(&node) {
                    terminals.push(node);
                }
            }
        }
        if terminals.is_empty() {
            return Vec::new();
        }
        autocomplete::discover_queries_cached_banned(
            &self.graph,
            &self.catalog,
            &terminals,
            k,
            &autocomplete::ban_set(&self.graph, &self.health.tripped_services()).1,
            &self.query_cache,
        )
    }

    /// Hit/miss/invalidation counters of the engine's query cache.
    pub fn query_cache_stats(&self) -> CacheStats {
        self.query_cache.stats()
    }

    /// Feedback on discovered queries: the accepted query's Steiner tree
    /// is constrained to rank above each rejected alternative's (the
    /// Q-style learning of E2). MIRA reads only the trees' edges, so a
    /// caller keeps the trees of the queries it showed, not their answers.
    pub fn prefer_query(&mut self, accepted: &SteinerTree, rejected: &[&SteinerTree]) -> usize {
        let rejected_trees: Vec<&[EdgeId]> = rejected.iter().map(|t| &t.edges[..]).collect();
        self.mira
            .rank_above(&mut self.graph, &accepted.edges, &rejected_trees)
    }

    /// Declare a record-link association between two sources' columns —
    /// the "known links" of §4.1, which the user implicitly declares by
    /// pasting a matching value next to a row. Returns false when either
    /// source is missing from the graph.
    pub fn declare_link(
        &mut self,
        source_a: &str,
        col_a: &str,
        source_b: &str,
        col_b: &str,
    ) -> bool {
        let (Some(a), Some(b)) = (
            self.graph.node_by_name(source_a),
            self.graph.node_by_name(source_b),
        ) else {
            return false;
        };
        let exists = self.graph.incident(a).iter().any(|&e| {
            self.graph.other_end(e, a) == b
                && matches!(&self.graph.edge(e).kind, copycat_graph::EdgeKind::Link { pairs }
                    if pairs.first().is_some_and(|(x, y)| x == col_a && y == col_b))
        });
        if !exists {
            self.graph.add_edge_with_cost(
                a,
                b,
                copycat_graph::EdgeKind::Link {
                    pairs: vec![(col_a.to_string(), col_b.to_string())],
                },
                1.5,
            );
        }
        true
    }

    /// Teach the record-link matcher from a demonstrated pair (Example
    /// 1's "the integrator might paste matches for several shelters").
    pub fn demonstrate_link(&mut self, left: &str, right: &str, matched: bool) {
        self.link_examples.push(LabeledPair {
            left: vec![left.to_string()],
            right: vec![right.to_string()],
            matched,
        });
        let corpus: Vec<String> = self
            .link_examples
            .iter()
            .flat_map(|p| [p.left[0].clone(), p.right[0].clone()])
            .collect();
        self.link_matcher =
            Some(MatchLearner::new(1).train(&self.link_examples, TfIdfIndex::build(&corpus)));
    }

    // --- Transforms (§5 "complex functions / transforms") --------------

    /// Learn a derived-column program from typed examples: the user
    /// fills in the new column's value for a few rows and the system
    /// searches for the lowest-cost function of the row explaining them.
    /// `examples` pairs a committed-row index with the typed output.
    pub fn suggest_transform(&self, examples: &[(usize, &str)]) -> Option<TransformSuggestion> {
        let rows = self.workspace.active().committed_rows();
        let labeled: Vec<(Vec<String>, String)> = examples
            .iter()
            .filter_map(|&(i, out)| rows.get(i).map(|r| (r.clone(), out.to_string())))
            .collect();
        let program = copycat_transform::learn(&labeled)?;
        let values = rows
            .iter()
            .map(|r| program.apply(r).unwrap_or_default())
            .collect();
        Some(TransformSuggestion { program, values, examples: labeled })
    }

    /// Accept a transform suggestion as a new named column. The program
    /// is remembered so later edits to the column can re-teach it.
    pub fn accept_transform(&mut self, name: &str, sugg: &TransformSuggestion) {
        self.checkpoint();
        let col = self.workspace.active().columns.len();
        self.workspace.add_column(Field::new(name), &sugg.values);
        self.workspace.name_column(col, name);
        let old = self
            .transform_columns
            .insert(col, (sugg.program.clone(), sugg.examples.clone()));
        self.journal.record(EngineUndo::Transform(col, old));
    }

    // --- Transform edges (syntactic join-with-transformation) ----------

    /// Learn a string-transform program from `(input, output)` example
    /// pairs and surface it as a first-class graph edge from
    /// `from_source.from_col` into `to_source.to_col`. The edge's cost
    /// derives from program size and example coverage (the fraction of
    /// source values the program maps into the target column), so the
    /// Steiner search and MIRA treat it exactly like any service or
    /// join edge. Returns `None` when either source is unknown or no
    /// bounded program is consistent with the examples.
    pub fn learn_transform(
        &mut self,
        from_source: &str,
        from_col: &str,
        to_source: &str,
        to_col: &str,
        examples: &[(String, String)],
    ) -> Option<LearnedTransform> {
        let (Some(a), Some(b)) = (
            self.graph.node_by_name(from_source),
            self.graph.node_by_name(to_source),
        ) else {
            return None;
        };
        let program = copycat_transform::learn(examples)?;
        let coverage = self.transform_coverage(&program, from_source, from_col, to_source, to_col);
        let cost = copycat_transform::edge_cost(&program, coverage);
        let kind = copycat_graph::EdgeKind::Transform {
            from: from_col.to_string(),
            to: to_col.to_string(),
            program: program.clone(),
        };
        // Re-learning the same mapping refreshes the existing edge's
        // cost instead of stacking duplicates.
        let existing = self.graph.incident(a).iter().copied().find(|&e| {
            let edge = self.graph.edge(e);
            edge.a == a && edge.b == b && edge.kind == kind
        });
        let edge = match existing {
            Some(e) => {
                self.graph.set_cost(e, cost);
                e
            }
            None => {
                self.checkpoint();
                self.graph.add_edge_with_cost(a, b, kind, cost)
            }
        };
        Some(LearnedTransform {
            edge,
            from_source: from_source.to_string(),
            from_col: from_col.to_string(),
            to_source: to_source.to_string(),
            to_col: to_col.to_string(),
            program,
            coverage,
            cost,
        })
    }

    /// Fraction of the source column's non-empty values the program
    /// maps into the target column's value set. Missing relations or
    /// columns count as zero coverage (the edge prices near the
    /// relevance threshold but still exists for feedback to adjust).
    fn transform_coverage(
        &self,
        program: &copycat_transform::Program,
        from_source: &str,
        from_col: &str,
        to_source: &str,
        to_col: &str,
    ) -> f64 {
        let (Some(from_rel), Some(to_rel)) = (
            self.catalog.relation(from_source),
            self.catalog.relation(to_source),
        ) else {
            return 0.0;
        };
        let (Some(fi), Some(ti)) = (
            from_rel.schema().index_of(from_col),
            to_rel.schema().index_of(to_col),
        ) else {
            return 0.0;
        };
        // Cells compare by their text form, borrowed: only a number's
        // text is rendered.
        let targets: copycat_util::hash::FxHashSet<std::borrow::Cow<'_, str>> = to_rel
            .tuples()
            .iter()
            .map(|t| t.values[ti].text())
            .collect();
        let mut total = 0usize;
        let mut hit = 0usize;
        for t in from_rel.tuples() {
            let v = t.values[fi].text();
            if v.is_empty() {
                continue;
            }
            total += 1;
            if program.apply(&*v).is_some_and(|out| targets.contains(out.as_str())) {
                hit += 1;
            }
        }
        if total == 0 {
            0.0
        } else {
            hit as f64 / total as f64
        }
    }

    /// Every transform edge currently in the graph, in edge-id order.
    pub fn list_transforms(&self) -> Vec<LearnedTransform> {
        let mut out = Vec::new();
        for e in self.graph.edge_ids() {
            let edge = self.graph.edge(e);
            let copycat_graph::EdgeKind::Transform { from, to, program } = &edge.kind else {
                continue;
            };
            out.push(LearnedTransform {
                edge: e,
                from_source: self.graph.node(edge.a).name.clone(),
                from_col: from.clone(),
                to_source: self.graph.node(edge.b).name.clone(),
                to_col: to.clone(),
                program: program.clone(),
                coverage: self.transform_coverage(
                    program,
                    &self.graph.node(edge.a).name,
                    from,
                    &self.graph.node(edge.b).name,
                    to,
                ),
                cost: edge.weight,
            });
        }
        out
    }

    // --- Cleaning mode & edit generalization (§5 "data cleaning") ------

    /// Toggle cleaning mode: while on, [`Self::edit_cell`] never
    /// generalizes ("the user would need to explicitly tell the system to
    /// switch into 'cleaning' mode, so the system does not try to
    /// generalize any updates beyond the current tuple").
    pub fn set_cleaning(&mut self, on: bool) {
        self.cleaning = on;
    }

    /// Whether cleaning mode is on.
    pub fn cleaning(&self) -> bool {
        self.cleaning
    }

    /// Edit one cell. In cleaning mode the edit is local. Otherwise, when
    /// the column was created by a transform program, the edit is treated
    /// as a new example: the program is re-learned and — if a consistent
    /// program exists — re-applied to every row (a generalized edit).
    pub fn edit_cell(&mut self, row: usize, col: usize, value: &str) -> EditEffect {
        self.checkpoint();
        let inputs: Option<Vec<String>> = {
            let tab = self.workspace.active();
            tab.rows.get(row).map(|r| {
                // The transform inputs are the columns that existed when
                // the program was learned (everything left of `col`).
                r.cells.iter().take(col).cloned().collect()
            })
        };
        if !self.workspace.set_cell(row, col, value.to_string()) || self.cleaning {
            return EditEffect::Local;
        }
        let (Some(inputs), Some((_, examples))) =
            (inputs, self.transform_columns.get_mut(&col))
        else {
            return EditEffect::Local;
        };
        self.journal.record(EngineUndo::Examples(col, examples.len()));
        examples.push((inputs, value.to_string()));
        let Some(program) = copycat_transform::learn(examples) else {
            // No consistent program any more: the edit was a one-off
            // correction; drop back to local semantics.
            return EditEffect::Local;
        };
        // Re-apply to every row except explicit examples.
        let mut updated = 0;
        for i in 0..self.workspace.active().rows.len() {
            let cells = &self.workspace.active().rows[i].cells;
            let inputs: Vec<String> = cells.iter().take(col).cloned().collect();
            if let Some(v) = program.apply(&inputs) {
                if cells[col] != v {
                    self.workspace.set_cell(i, col, v);
                    updated += 1;
                }
            }
        }
        let state = self.transform_columns.get_mut(&col).expect("present");
        let old = std::mem::replace(&mut state.0, program);
        self.journal.record(EngineUndo::Program(col, old));
        EditEffect::Generalized(updated)
    }

    // --- Cross-learner feedback (§5 "feedback interaction") ------------

    /// Reject a committed tuple in integration mode, routing the feedback
    /// through its provenance: the blamed queries are reported, and any
    /// base tuple whose source has a remembered wrapper feeds the
    /// structure learner — the wrapper is refined to exclude that source
    /// row, re-executed, and the catalog relation replaced.
    pub fn reject_tuple(&mut self, row: usize) -> TupleRejection {
        self.checkpoint();
        let provenance = self
            .workspace
            .active()
            .rows
            .get(row)
            .and_then(|r| r.provenance.clone());
        // Remove the row from the view regardless.
        self.workspace.remove_row(row);
        let Some(p) = provenance else {
            return TupleRejection { queries: Vec::new(), refined_sources: Vec::new() };
        };
        let queries: Vec<String> = p.labels().iter().map(|s| s.to_string()).collect();
        let mut refined_sources = Vec::new();
        for base in p.base_tuples() {
            let source = base.relation.to_string();
            let Some((_, Some(doc_id), wrapper)) = self
                .wrappers
                .iter()
                .find(|(n, _, _)| *n == source)
                .cloned()
            else {
                continue;
            };
            let Some(rel) = self.catalog.relation(&source) else {
                continue;
            };
            let Some(tuple) = rel.tuples().get(base.row as usize) else {
                continue;
            };
            let rejected_row = tuple.as_texts();
            let Some(document) = self.clipboard.document(doc_id) else {
                continue;
            };
            let refined = refine(&wrapper, document, std::slice::from_ref(&rejected_row));
            let mut rows = run_wrapper(&refined, document);
            rows.retain(|r| *r != rejected_row);
            let n = rows.len();
            let new_rel = Relation::from_strings(&source, rel.schema().clone(), &rows);
            self.catalog.add_relation(new_rel);
            if let Some(w) = self.wrappers.iter_mut().find(|(n, _, _)| *n == source) {
                w.2 = refined;
            }
            refined_sources.push((source, n));
        }
        TupleRejection { queries, refined_sources }
    }

    /// Describe a source function in terms of the registered services
    /// (§3.2): given I/O examples observed in the workspace, rank the
    /// services — and two-step compositions of them — that reproduce the
    /// same mapping. This is what lets CopyCat "propose replacement
    /// sources if a source is down, too slow, or does not provide a
    /// complete set of results".
    pub fn find_equivalent_services(
        &self,
        examples: &[copycat_semantic::IoExample],
    ) -> Vec<copycat_semantic::SourceDescription> {
        let mut learner = copycat_semantic::FunctionLearner::new();
        for name in self.catalog.service_names() {
            let Some(svc) = self.catalog.service(&name) else {
                continue;
            };
            let sig = svc.signature().clone();
            let svc_for_eval = Arc::clone(&svc);
            learner.register(copycat_semantic::KnownFunction::new(
                name,
                sig.inputs.arity(),
                sig.outputs.arity(),
                move |inputs: &[String]| {
                    let vals: Vec<copycat_query::Value> =
                        inputs.iter().map(|s| copycat_query::Value::parse(s)).collect();
                    svc_for_eval
                        .call(&vals)
                        .into_iter()
                        .next()
                        .map(|row| row.iter().map(copycat_query::Value::as_text).collect())
                },
            ));
        }
        learner.describe(examples)
    }

    // --- Session persistence support ------------------------------------

    /// The semantic type registry (read-only).
    pub fn registry(&self) -> &TypeRegistry {
        &self.registry
    }

    /// The learned wrappers by source name (session save).
    pub fn saved_wrappers(&self) -> Vec<(String, Wrapper)> {
        self.wrappers
            .iter()
            .map(|(n, _, w)| (n.clone(), w.clone()))
            .collect()
    }

    /// Replace the source graph wholesale (session restore). The query
    /// cache is *replaced*, not just cleared: the new graph's version
    /// numbering is unrelated to the old one's, so no cached tree — and
    /// no hit/miss counter — may survive the swap. A loaded session
    /// always starts cold and can never serve a stale cached query
    /// result.
    pub(crate) fn restore_graph(&mut self, graph: SourceGraph) {
        self.graph = graph;
        self.query_cache = QueryCache::default();
    }

    /// Re-register a saved wrapper without a live document.
    pub(crate) fn restore_wrapper(&mut self, name: String, wrapper: Wrapper) {
        self.wrappers.push((name, None, wrapper));
    }

    /// The learned wrappers by source name, borrowed (session save).
    pub(crate) fn wrapper_entries(&self) -> impl Iterator<Item = (&str, &Wrapper)> {
        self.wrappers.iter().map(|(n, _, w)| (n.as_str(), w))
    }

    /// Reattach a live document to a restored wrapper, re-extract, and
    /// refresh the catalog relation. Returns the re-extracted row count,
    /// or `None` when the source has no saved wrapper.
    pub fn attach_wrapper_document(&mut self, source: &str, doc: DocumentId) -> Option<usize> {
        let idx = self.wrappers.iter().position(|(n, _, _)| n == source)?;
        self.wrappers[idx].1 = Some(doc);
        let wrapper = self.wrappers[idx].2.clone();
        let document = self.clipboard.document(doc)?;
        let rows = run_wrapper(&wrapper, document);
        let schema = self
            .catalog
            .relation(source)
            .map(|r| r.schema().clone())
            .unwrap_or_else(|| Schema::of(&[]));
        let n = rows.len();
        self.catalog
            .add_relation(Relation::from_strings(source, schema, &rows));
        Some(n)
    }

    /// Open a workspace tab showing a cataloged source and make it the
    /// active integration query (used after a session restore, where no
    /// import tabs exist).
    pub fn switch_tab_to_source(&mut self, name: &str) -> bool {
        let (Some(rel), Some(node)) =
            (self.catalog.relation(name), self.graph.node_by_name(name))
        else {
            return false;
        };
        let mut tab = Tab::new(name);
        tab.columns = rel.schema().fields().to_vec();
        tab.user_named = vec![true; tab.columns.len()];
        for row in rel.as_texts() {
            tab.paste_row(&row);
        }
        let idx = self.workspace.add_tab(tab);
        self.set_mode(Mode::Integrate);
        self.set_query(Some(Plan::scan(name)), vec![node]);
        self.set_tab_query(idx, Plan::scan(name), vec![node]);
        true
    }

    /// The fields of the active tab (header row).
    pub fn columns(&self) -> &[Field] {
        &self.workspace.active().columns
    }

    /// Render the active tab as text (the headless screenshot).
    pub fn render(&self) -> String {
        self.workspace.active().render_text()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use copycat_document::corpus::{contact_sheet, render_list, ListSpec, Tier};
    use copycat_services::{World, WorldConfig, ZipResolver};

    fn world() -> Arc<World> {
        Arc::new(World::generate(&WorldConfig {
            // A seed whose 10 venue names are collision-free: name dedup
            // appends "#n", and a one-example wrapper is not expected to
            // generalize to that shape (E4 covers the noisy tiers).
            seed: 15,
            cities: 4,
            streets_per_city: 6,
            venues: 10,
        }))
    }

    fn shelter_doc(w: &World, tier: Tier) -> Document {
        let rows = w.shelter_rows();
        let spec = ListSpec::new("Shelters", &["Name", "Street", "City"], tier, 3);
        Document::Site(render_list(&spec, &rows).site)
    }

    #[test]
    fn import_flow_generalizes_rows_and_types() {
        let w = world();
        let rows = w.shelter_rows();
        let mut cc = CopyCat::new();
        let doc = cc.open(shelter_doc(&w, Tier::Clean));
        let first: Vec<&str> = rows[0].iter().map(String::as_str).collect();
        let suggested = cc.paste_example(doc, &first);
        assert!(suggested >= rows.len() - 1, "suggested {suggested}");
        // Street is proposed outright; the city column of this tiny
        // 4-city world is all two-token names, so City and Person are
        // both hypotheses — City must be in the dropdown, and the user
        // picks it (§3.2).
        let types: Vec<Option<String>> =
            cc.columns().iter().map(|c| c.sem_type.clone()).collect();
        assert!(types.contains(&Some("PR-Street".to_string())), "{types:?}");
        let hyps = cc.column_type_hypotheses(2);
        assert!(hyps.contains(&"PR-City".to_string()), "{hyps:?}");
        cc.set_column_type(2, "PR-City");
        assert_eq!(cc.columns()[2].sem_type.as_deref(), Some("PR-City"));
        // Accept and commit.
        cc.accept_suggested_rows();
        let n = cc.commit_source("Shelters");
        assert_eq!(n, rows.len());
        assert_eq!(cc.mode(), Mode::Integrate);
        assert!(cc.catalog().relation("Shelters").is_some());
    }

    #[test]
    fn zip_column_autocomplete_end_to_end() {
        let w = world();
        let rows = w.shelter_rows();
        let mut cc = CopyCat::new();
        let doc = cc.open(shelter_doc(&w, Tier::Clean));
        let first: Vec<&str> = rows[0].iter().map(String::as_str).collect();
        cc.paste_example(doc, &first);
        cc.accept_suggested_rows();
        cc.name_column(0, "Name");
        cc.set_column_type(2, "PR-City"); // dropdown correction (see above)
        cc.commit_source("Shelters");
        cc.register_service(Arc::new(ZipResolver::new(Arc::clone(&w))));
        let suggs = cc.column_suggestions();
        assert!(!suggs.is_empty(), "zip suggestion expected");
        let pick = suggs
            .iter()
            .position(|s| s.new_fields.iter().any(|f| f.name == "Zip"))
            .expect("zip column suggested");
        // Values are the true zips.
        for (i, v) in suggs[pick].values.iter().enumerate() {
            assert_eq!(v[0], w.venue_zip(&w.venues[i]), "row {i}");
        }
        let before_cols = cc.columns().len();
        assert!(cc.accept_column(pick));
        assert_eq!(cc.columns().len(), before_cols + 1);
        // Rows now carry provenance through the service.
        let tab = cc.workspace().active();
        let prov = tab.rows[0].provenance.as_ref().expect("provenance");
        assert!(prov.relations().contains(&"zip_resolver"));
    }

    #[test]
    fn rejecting_ad_rows_refines_wrapper() {
        let w = world();
        let rows = w.shelter_rows();
        let mut cc = CopyCat::new();
        let doc = cc.open(shelter_doc(&w, Tier::Noisy));
        let ex0: Vec<&str> = rows[0].iter().map(String::as_str).collect();
        let ex1: Vec<&str> = rows[1].iter().map(String::as_str).collect();
        cc.paste_example(doc, &ex0);
        cc.paste_example(doc, &ex1);
        // Find any suggested row that is not a true shelter row and
        // reject it; the wrapper should refine.
        let bogus_idx = {
            let tab = cc.workspace().active();
            tab.rows
                .iter()
                .position(|r| {
                    r.state == crate::workspace::RowState::Suggested && !rows.contains(&r.cells)
                })
        };
        if let Some(i) = bogus_idx {
            assert!(cc.reject_suggested_row(i));
            // After refinement no suggested row is a known-bogus one.
            let tab = cc.workspace().active();
            let still_bogus = tab
                .rows
                .iter()
                .filter(|r| r.state == crate::workspace::RowState::Suggested)
                .filter(|r| !rows.contains(&r.cells))
                .count();
            assert_eq!(still_bogus, 0, "refinement should drop ad rows");
        }
        cc.accept_suggested_rows();
        let n = cc.commit_source("Shelters");
        assert!(n >= rows.len() - 1, "imported {n} of {}", rows.len());
    }

    #[test]
    fn rejecting_column_demotes_edge() {
        let w = world();
        let rows = w.shelter_rows();
        let mut cc = CopyCat::new();
        let doc = cc.open(shelter_doc(&w, Tier::Clean));
        let first: Vec<&str> = rows[0].iter().map(String::as_str).collect();
        cc.paste_example(doc, &first);
        cc.accept_suggested_rows();
        cc.set_column_type(2, "PR-City");
        cc.commit_source("Shelters");
        cc.register_service(Arc::new(ZipResolver::new(Arc::clone(&w))));
        let suggs = cc.column_suggestions();
        let zip = suggs[0].clone();
        assert!(cc.reject_column(0));
        let again = cc.column_suggestions();
        assert!(
            again.iter().all(|s| s.edge != zip.edge),
            "rejected edge must fall below the relevance threshold"
        );
    }

    /// Shelters + Contacts imported and committed (the Example 1 pair).
    fn two_source_engine() -> (Arc<World>, CopyCat) {
        let w = world();
        let rows = w.shelter_rows();
        let contacts = w.contact_rows();
        let mut cc = CopyCat::new();
        // Import shelters.
        let doc = cc.open(shelter_doc(&w, Tier::Clean));
        let first: Vec<&str> = rows[0].iter().map(String::as_str).collect();
        cc.paste_example(doc, &first);
        cc.accept_suggested_rows();
        cc.name_column(0, "Venue");
        // Correct the city column (otherwise its auto-label "Person"
        // collides with the contacts' real Person column and the default
        // conjunction-of-all-predicates join matches nothing — the very
        // pitfall ablation A1 measures).
        cc.set_column_type(2, "PR-City");
        cc.commit_source("Shelters");
        // Import contacts from a spreadsheet.
        cc.start_import_tab("contacts");
        let sheet = contact_sheet(
            "contacts.xls",
            &["Person", "Phone", "Venue"],
            contacts.clone(),
        );
        let sheet_doc = cc.open(Document::Sheet(sheet));
        let c0: Vec<&str> = contacts[0].iter().map(String::as_str).collect();
        cc.paste_example(sheet_doc, &c0);
        cc.accept_suggested_rows();
        cc.name_column(2, "Venue");
        cc.commit_source("Contacts");
        (w, cc)
    }

    #[test]
    fn second_source_and_query_discovery() {
        let (w, cc) = two_source_engine();
        let rows = w.shelter_rows();
        let contacts = w.contact_rows();
        // A tuple mixing a shelter street (only in Shelters) and a
        // contact phone (only in Contacts) implies a join query across
        // the two sources.
        let queries = cc.discover_queries_for_tuple(
            &[rows[0][1].as_str(), contacts[0][1].as_str()],
            3,
        );
        assert!(!queries.is_empty());
        let top = &queries[0];
        assert!(top.plan.sources().contains(&"Shelters"));
        assert!(top.plan.sources().contains(&"Contacts"));
        assert!(top.rows > 0, "join should produce rows");
    }

    #[test]
    fn query_cache_hits_repeats_and_invalidates_on_feedback() {
        let (w, mut cc) = two_source_engine();
        let rows = w.shelter_rows();
        let contacts = w.contact_rows();
        let values = [rows[0][1].as_str(), contacts[0][1].as_str()];
        let first = cc.discover_queries_for_tuple(&values, 3);
        assert!(!first.is_empty());
        assert_eq!(cc.query_cache_stats().misses, 1);
        // Same paste again: the Steiner search is served from the cache.
        let again = cc.discover_queries_for_tuple(&values, 3);
        assert_eq!(cc.query_cache_stats().hits, 1);
        assert_eq!(first.len(), again.len());
        for (a, b) in first.iter().zip(again.iter()) {
            assert_eq!(a.tree, b.tree);
        }
        if first.len() >= 2 {
            // Feedback on the ranking bumps the graph version …
            let updates = cc.prefer_query(&first[1].tree, &[&first[0].tree]);
            assert!(updates > 0, "preferring a costlier query must adjust edges");
            // … so the next discovery recomputes and matches a cold search.
            let after = cc.discover_queries_for_tuple(&values, 3);
            assert_eq!(cc.query_cache_stats().invalidations, 1);
            // Cold search over the same terminals the engine derived.
            let terminals: Vec<NodeId> = ["Shelters", "Contacts"]
                .iter()
                .filter_map(|n| cc.graph.node_by_name(n))
                .collect();
            let cold = autocomplete::discover_queries(&cc.graph, &cc.catalog, &terminals, 3);
            assert_eq!(after.len(), cold.len());
            for (a, b) in after.iter().zip(cold.iter()) {
                assert_eq!(a.tree, b.tree);
            }
        }
    }

    fn imported_engine() -> (Arc<World>, CopyCat) {
        let w = world();
        let rows = w.shelter_rows();
        let mut cc = CopyCat::new();
        let doc = cc.open(shelter_doc(&w, Tier::Clean));
        let first: Vec<&str> = rows[0].iter().map(String::as_str).collect();
        cc.paste_example(doc, &first);
        cc.accept_suggested_rows();
        cc.name_column(0, "Name");
        cc.set_column_type(2, "PR-City");
        cc.commit_source("Shelters");
        (w, cc)
    }

    #[test]
    fn transform_column_from_examples() {
        let (_, mut cc) = imported_engine();
        let rows = cc.workspace().active().committed_rows();
        // The user types "Name (City)" labels for two rows.
        let out0 = format!("{} ({})", rows[0][0], rows[0][2]);
        let out1 = format!("{} ({})", rows[1][0], rows[1][2]);
        let top = cc
            .suggest_transform(&[(0, &out0), (1, &out1)])
            .expect("a label template is learnable");
        assert_eq!(top.program.to_string(), "concat(input, \" (\", col2, \")\")");
        // Every other row is filled consistently.
        for (i, r) in rows.iter().enumerate() {
            assert_eq!(top.values[i], format!("{} ({})", r[0], r[2]));
        }
        let before = cc.columns().len();
        cc.accept_transform("Label", &top);
        assert_eq!(cc.columns().len(), before + 1);
        assert_eq!(cc.columns().last().unwrap().name, "Label");
    }

    #[test]
    fn cleaning_mode_keeps_edits_local() {
        let (_, mut cc) = imported_engine();
        let rows = cc.workspace().active().committed_rows();
        let out0 = format!("{}!", rows[0][0]);
        let out1 = format!("{}!", rows[1][0]);
        let sugg = cc.suggest_transform(&[(0, &out0), (1, &out1)]).expect("learnable");
        let col = cc.columns().len();
        cc.accept_transform("Shout", &sugg);
        // Cleaning mode: a one-off fix does not re-teach the program.
        cc.set_cleaning(true);
        let effect = cc.edit_cell(2, col, "SPECIAL CASE");
        assert_eq!(effect, EditEffect::Local);
        let tab = cc.workspace().active();
        assert_eq!(tab.rows[2].cells[col], "SPECIAL CASE");
        assert_eq!(tab.rows[3].cells[col], format!("{}!", rows[3][0]));
    }

    #[test]
    fn edits_outside_cleaning_mode_generalize() {
        let (_, mut cc) = imported_engine();
        let rows = cc.workspace().active().committed_rows();
        let out0 = format!("{}!", rows[0][0]);
        let out1 = format!("{}!", rows[1][0]);
        let sugg = cc.suggest_transform(&[(0, &out0), (1, &out1)]).expect("learnable");
        let col = cc.columns().len();
        cc.accept_transform("Shout", &sugg);
        // The user edits row 2 to a *different but learnable* shape:
        // "Name?" instead of "Name!". Inconsistent with the old examples,
        // so the system falls back to a local edit.
        let effect = cc.edit_cell(2, col, &format!("{}?", rows[2][0]));
        assert_eq!(effect, EditEffect::Local);
        // But an edit consistent with a refinement generalizes: extend
        // the program's examples coherently.
        let (_, mut cc2) = imported_engine();
        let sugg2 = cc2.suggest_transform(&[(0, &out0)]).expect("learnable");
        let col2 = cc2.columns().len();
        cc2.accept_transform("Shout", &sugg2);
        let effect2 = cc2.edit_cell(1, col2, &format!("{}!", rows[1][0]));
        // Still consistent with the learned program: nothing else needed
        // changing, so zero or more cells updated — the point is it did
        // not corrupt other rows.
        match effect2 {
            EditEffect::Generalized(_) | EditEffect::Local => {}
        }
        let tab = cc2.workspace().active();
        assert_eq!(tab.rows[3].cells[col2], format!("{}!", rows[3][0]));
    }

    #[test]
    fn undo_restores_workspace_and_costs() {
        let (w, mut cc) = imported_engine();
        cc.register_service(Arc::new(ZipResolver::new(Arc::clone(&w))));
        let cols_before = cc.columns().len();
        let suggs = cc.column_suggestions();
        let zip = suggs[0].clone();
        let cost_before = cc.graph().cost(zip.edge);
        assert!(cc.accept_column(0));
        assert_eq!(cc.columns().len(), cols_before + 1);
        assert!(cc.undo());
        assert_eq!(cc.columns().len(), cols_before, "column removed by undo");
        assert_eq!(cc.graph().cost(zip.edge), cost_before, "cost restored");
        // Undo stack unwinds further without panicking.
        while cc.undo() {}
        assert_eq!(cc.undo_depth(), 0);
    }

    #[test]
    fn undo_reverts_a_generalized_edit_with_its_example_and_program() {
        let (_, mut cc) = imported_engine();
        let rows = cc.workspace().active().committed_rows();
        let out0 = format!("{}!", rows[0][0]);
        let sugg = cc.suggest_transform(&[(0, &out0)]).expect("learnable");
        let col = cc.columns().len();
        cc.accept_transform("Shout", &sugg);
        let program = cc.transform_columns[&col].0.to_string();
        let before = cc.render();
        let edited = format!("{}!", rows[1][0]);
        assert!(matches!(cc.edit_cell(1, col, &edited), EditEffect::Generalized(_)));
        assert_eq!(cc.transform_columns[&col].1.len(), 2, "the edit is a new example");
        assert!(cc.undo());
        assert_eq!(cc.transform_columns[&col].1.len(), 1, "its example is gone");
        assert_eq!(cc.transform_columns[&col].0.to_string(), program);
        assert_eq!(cc.render(), before);
        // The entry that added the column goes next, with its state.
        assert!(cc.undo());
        assert!(!cc.transform_columns.contains_key(&col));
        assert_eq!(cc.columns().len(), col);
    }

    #[test]
    fn reject_tuple_routes_feedback_to_source_wrapper() {
        let (w, mut cc) = imported_engine();
        cc.register_service(Arc::new(ZipResolver::new(Arc::clone(&w))));
        cc.column_suggestions();
        assert!(cc.accept_column(0));
        let before = cc.catalog().relation("Shelters").unwrap().len();
        let rejection = cc.reject_tuple(0);
        assert!(
            rejection.queries.iter().any(|q| q.contains("zip_resolver")),
            "{rejection:?}"
        );
        assert!(
            rejection
                .refined_sources
                .iter()
                .any(|(s, _)| s == "Shelters"),
            "wrapper feedback should reach the Shelters source: {rejection:?}"
        );
        let after = cc.catalog().relation("Shelters").unwrap().len();
        assert_eq!(after, before - 1, "the offending source row is gone");
        // The workspace row is gone too.
        assert_eq!(cc.workspace().active().rows.len(), before - 1);
    }

    #[test]
    fn equivalent_services_identified_from_io_examples() {
        use copycat_semantic::IoExample;
        use copycat_services::AddressResolver;
        let (w, mut cc) = imported_engine();
        cc.register_service(Arc::new(ZipResolver::new(Arc::clone(&w))));
        cc.register_service(Arc::new(AddressResolver::new(Arc::clone(&w))));
        // I/O observed in the workspace: (street, city) -> zip.
        let examples: Vec<IoExample> = w
            .venues
            .iter()
            .take(4)
            .map(|v| {
                let st = w.venue_street(v);
                IoExample {
                    inputs: vec![st.address.clone(), w.street_city(st).name.clone()],
                    outputs: vec![st.zip.clone()],
                }
            })
            .collect();
        let descs = cc.find_equivalent_services(&examples);
        assert!(!descs.is_empty());
        assert_eq!(descs[0].expression, "zip_resolver");
        assert!((descs[0].similarity - 1.0).abs() < 1e-9);
        // And a (venue name) -> zip source is explained by composition.
        let name_examples: Vec<IoExample> = w
            .venues
            .iter()
            .take(3)
            .map(|v| IoExample {
                inputs: vec![v.name.clone()],
                outputs: vec![w.venue_zip(v).to_string()],
            })
            .collect();
        let descs = cc.find_equivalent_services(&name_examples);
        assert!(
            descs
                .iter()
                .any(|d| d.expression.contains("zip_resolver") && d.components.len() == 2),
            "composition expected: {descs:?}"
        );
    }

    #[test]
    fn flaky_service_degrades_gracefully() {
        use copycat_services::Flaky;
        let (w, mut cc) = imported_engine();
        // A zip resolver that drops roughly half its calls.
        let flaky = Flaky::new(
            Arc::new(ZipResolver::new(Arc::clone(&w))),
            0.5,
            50,
            42,
        );
        cc.register_service(Arc::new(flaky));
        let suggs = cc.column_suggestions().to_vec();
        let zip = suggs
            .iter()
            .find(|c| c.new_fields.iter().any(|f| f.name == "Zip"))
            .expect("still suggested (partial answers)");
        let answered = zip
            .values
            .iter()
            .filter(|v| v.iter().any(|x| !x.is_empty()))
            .count();
        assert!(answered > 0 && answered < 10, "partial coverage: {answered}/10");
        // The flaky service's cost hint demotes its edge vs a nominal one.
        let edge_cost = cc.graph().cost(zip.edge);
        assert!(edge_cost > 0.9, "flaky bind edge costs {edge_cost}");
    }
}
