//! Session persistence.
//!
//! Example 1 ends with two options for the assembled table: a one-off
//! query, or "it could be persistently saved as an integrated, mediated
//! view of the data, enabling user or application queries over a unified
//! representation." A session snapshot captures everything re-usable
//! across sessions: the imported relations, the source graph with its
//! *learned edge costs*, the learned wrappers (so sources can be
//! re-extracted when their documents are reopened), the user-defined
//! semantic types, and the runtime health of every resilient service
//! and fault-injection probe.
//!
//! The snapshot is one pretty-printed JSON object with the members
//! `relations`, `graph_nodes`, `graph_edges`, `wrappers`, `user_types`,
//! `health` and `probes`, in that order. Saving streams it straight
//! from the engine's catalog, graph, wrappers, registry and health
//! through a [`JsonWriter`]; loading walks one parsed [`ZDoc`] and moves
//! each value into a fresh engine. Neither side builds an owned `Json`
//! tree or an intermediate copy of the session.
//!
//! Live documents and service closures are deliberately not serialized —
//! they are reattached on load ([`CopyCat::attach_wrapper_document`],
//! [`CopyCat::register_service`]).

use crate::engine::CopyCat;
use copycat_extract::Wrapper;
use copycat_graph::{Edge, Node, SourceGraph};
use copycat_query::{Relation, Schema, Value};
use copycat_semantic::PatternSet;
use copycat_services::{Flaky, SavedFlakyState, SavedServiceHealth};
use copycat_util::json::{FromJson, JsonError, JsonWriter, ToJson};
use copycat_util::zjson::{ZDoc, ZRef};

impl CopyCat {
    /// Serialize the persistent state of this session to JSON.
    pub fn save_session_json(&self) -> String {
        let mut out = String::new();
        self.write_session(&mut JsonWriter::pretty(&mut out));
        out
    }

    fn write_session(&self, w: &mut JsonWriter<'_>) {
        let catalog = self.catalog();
        let graph = self.graph();
        w.obj(|w| {
            w.key("relations");
            w.arr(|w| {
                for name in catalog.relation_names() {
                    // Derived link-index relations are rebuilt on demand.
                    let Some(r) = catalog.relation(&name).filter(|r| !r.name().contains('≈'))
                    else {
                        continue;
                    };
                    w.obj(|w| {
                        w.field("name", r.name());
                        w.field("schema", r.schema());
                        // Rows as text (base provenance is re-derived on load).
                        w.key("rows");
                        w.arr(|w| {
                            for t in r.tuples() {
                                w.arr(|w| t.values.iter().for_each(|v| write_text(w, v)));
                            }
                        });
                    });
                }
            });
            // Service nodes ride along with relation nodes, so edge ids
            // stay stable even before services are re-registered.
            w.key("graph_nodes");
            w.arr(|w| graph.node_ids().for_each(|n| graph.node(n).write_json(w)));
            w.key("graph_edges");
            w.arr(|w| graph.edge_ids().for_each(|e| graph.edge(e).write_json(w)));
            w.key("wrappers");
            w.arr(|w| {
                for (name, wrapper) in self.wrapper_entries() {
                    w.arr(|w| {
                        w.str(name);
                        wrapper.write_json(w);
                    });
                }
            });
            w.key("user_types");
            w.arr(|w| {
                for t in self.registry().user_types() {
                    w.arr(|w| {
                        w.str(&t.name);
                        t.patterns.write_json(w);
                    });
                }
            });
            // Without health a restore would silently forget tripped
            // breakers and route through a service the saved engine had
            // already failed over from. Entries restored by a load but
            // not yet re-attached follow the live ones, so a load→save
            // keeps them.
            w.key("health");
            w.arr(|w| {
                self.health().saved().iter().for_each(|h| h.write_json(w));
                self.pending_health().iter().for_each(|h| h.write_json(w));
            });
            // Direct (non-resilient) fault-injection probes in the
            // catalog. Resilient-wrapped inners are carried by their
            // wrapper's health entry instead; `Service::as_any` is None
            // for the wrapper, so each stateful instance is captured
            // exactly once.
            w.key("probes");
            w.arr(|w| {
                for name in catalog.service_names() {
                    let Some(svc) = catalog.service(&name) else { continue };
                    let Some(flaky) = svc.as_any().and_then(|a| a.downcast_ref::<Flaky>()) else {
                        continue;
                    };
                    w.arr(|w| {
                        w.str(&name);
                        flaky.saved_state().write_json(w);
                    });
                }
                self.pending_probes().iter().for_each(|p| p.write_json(w));
            });
        });
    }

    /// Restore a session from JSON into a fresh engine: relations
    /// re-materialize, the graph returns with its learned costs,
    /// wrappers await document reattachment, user types re-register.
    /// Services must be re-registered by the caller (their closures are
    /// not serializable); existing graph nodes are reused so learned
    /// costs survive, and saved runtime health (tripped breakers,
    /// retry/trip counters, fault-injection attempt maps) re-attaches to
    /// each service as it is re-registered. Snapshots saved before
    /// health persisted (no `health` / `probes` members) load as "no
    /// resilient services had been registered".
    ///
    /// The restored engine's query cache is guaranteed cold: the graph
    /// swap replaces the [`crate::cache::QueryCache`] wholesale and the
    /// restored graph reports a fresh [`SourceGraph::version`], so no
    /// cached Steiner result from any earlier engine can be served
    /// against the restored graph (see
    /// `loaded_session_never_serves_stale_cached_queries`).
    ///
    /// Members are read in document order and the first malformed one
    /// is the error, so a damaged snapshot names the same problem
    /// whichever engine state it would have produced.
    pub fn load_session_json(json: &str) -> Result<CopyCat, JsonError> {
        let mut doc = ZDoc::new();
        let root = doc.parse(json)?;
        let mut cc = CopyCat::new();
        for_each(root.require("relations")?, |r| {
            let name = String::from_json(r.require("name")?)?;
            let schema = Schema::from_json(r.require("schema")?)?;
            let rows = text_rows(r.require("rows")?)?;
            cc.catalog().add_relation(Relation::from_rows(name, schema, rows));
            Ok(())
        })?;
        let nodes = Vec::<Node>::from_json(root.require("graph_nodes")?)?;
        let edges = Vec::<Edge>::from_json(root.require("graph_edges")?)?;
        cc.restore_graph(SourceGraph::from_parts(nodes, edges));
        for_each(root.require("wrappers")?, |pair| {
            let (name, wrapper) = <(String, Wrapper)>::from_json(pair)?;
            cc.restore_wrapper(name, wrapper);
            Ok(())
        })?;
        for_each(root.require("user_types")?, |pair| {
            let (name, patterns) = <(String, PatternSet)>::from_json(pair)?;
            cc.registry_mut().install_user_type(&name, patterns);
            Ok(())
        })?;
        let health = match root.get("health") {
            Some(h) => Vec::<SavedServiceHealth>::from_json(h)?,
            None => Vec::new(),
        };
        let probes = match root.get("probes") {
            Some(p) => Vec::<(String, SavedFlakyState)>::from_json(p)?,
            None => Vec::new(),
        };
        cc.stash_saved_health(health, probes);
        Ok(cc)
    }
}

/// A cell as the text the snapshot stores (null is the empty string).
fn write_text(w: &mut JsonWriter<'_>, v: &Value) {
    match v {
        Value::Null => w.str(""),
        Value::Str(s) => w.str(s),
        Value::Num(_) => w.str(&v.as_text()),
    }
}

/// Visit each element of a JSON array, stopping at the first error.
fn for_each<'d>(
    j: ZRef<'d>,
    mut f: impl FnMut(ZRef<'d>) -> Result<(), JsonError>,
) -> Result<(), JsonError> {
    if !j.is_arr() {
        return Err(JsonError::expected("array", j));
    }
    j.items().try_for_each(&mut f)
}

/// Text rows straight into cell values: the same [`Value::parse`] a
/// relation built from strings applies, without the intermediate
/// `Vec<Vec<String>>`.
fn text_rows(j: ZRef<'_>) -> Result<Vec<Vec<Value>>, JsonError> {
    let mut rows = Vec::with_capacity(j.len());
    for_each(j, |row| {
        let mut cells = Vec::with_capacity(row.len());
        for_each(row, |cell| {
            let text = cell.as_str().ok_or_else(|| JsonError::expected("string", cell))?;
            cells.push(Value::parse(text));
            Ok(())
        })?;
        rows.push(cells);
        Ok(())
    })?;
    Ok(rows)
}

#[cfg(test)]
mod tests {
    use crate::scenario::{Scenario, ScenarioConfig};
    use crate::CopyCat;
    use copycat_services::ZipResolver;
    use std::sync::Arc;

    fn trained_scenario() -> Scenario {
        let mut s = Scenario::build(&ScenarioConfig { venues: 10, ..Default::default() });
        s.import_shelters(1);
        // Learn something: reject the geocoder completion so its edge
        // cost is demoted — the restored session must remember that.
        let suggs = s.engine.column_suggestions();
        let geo = suggs
            .iter()
            .find(|c| c.new_fields.iter().any(|f| f.name == "Lat"))
            .expect("geocoder suggestion")
            .clone();
        s.engine.reject_column(&geo);
        s.engine
            .registry_mut()
            .learn_type("ShelterCode", &["SHL-0001", "SHL-0002", "SHL-9913"]);
        s
    }

    #[test]
    fn roundtrip_preserves_relations_graph_and_types() {
        let s = trained_scenario();
        let json = s.engine.save_session_json();
        let restored = CopyCat::load_session_json(&json).expect("valid json");
        // Relations.
        let rel = restored.catalog().relation("Shelters").expect("restored");
        assert_eq!(rel.len(), 10);
        assert_eq!(
            rel.schema().names(),
            s.engine.catalog().relation("Shelters").unwrap().schema().names()
        );
        // Graph topology and learned costs.
        assert_eq!(restored.graph().node_count(), s.engine.graph().node_count());
        assert_eq!(restored.graph().edge_count(), s.engine.graph().edge_count());
        for e in s.engine.graph().edge_ids() {
            assert_eq!(restored.graph().cost(e), s.engine.graph().cost(e));
        }
        // User-defined type.
        assert!(restored.registry().get("ShelterCode").is_some());
    }

    #[test]
    fn rejected_suggestion_stays_demoted_after_restore() {
        let s = trained_scenario();
        let json = s.engine.save_session_json();
        let mut restored = CopyCat::load_session_json(&json).expect("valid json");
        // Re-register the service implementation (closures don't persist);
        // the node already exists, so the learned edge costs survive.
        restored.register_service(Arc::new(ZipResolver::new(Arc::clone(&s.world))));
        restored.switch_tab_to_source("Shelters");
        let suggs = restored.column_suggestions();
        assert!(
            suggs.iter().any(|c| c.new_fields.iter().any(|f| f.name == "Zip")),
            "zip still suggested"
        );
        assert!(
            suggs.iter().all(|c| c.new_fields.iter().all(|f| f.name != "Lat")),
            "rejected geocoder stays below the threshold: {:?}",
            suggs.iter().map(|c| &c.label).collect::<Vec<_>>()
        );
    }

    /// Regression (serve-layer bugfix): an engine restored from a saved
    /// session must start with a *cold* query cache and a fresh graph
    /// version. Before the fix, `restore_graph` only cleared the cache
    /// map (keeping counters) and `SourceGraph::from_parts` restarted
    /// version numbering at 0 — the same stamp a fresh engine's cached
    /// entries carry — so a cache that survived the swap could validate
    /// stale trees against the restored graph.
    #[test]
    fn loaded_session_never_serves_stale_cached_queries() {
        let mut s = Scenario::build(&ScenarioConfig { venues: 10, ..Default::default() });
        // Import both sources with a shared "Venue" column so a join
        // query across them is discoverable (the Example 1 pair).
        let row0: Vec<&str> = s.shelter_rows[0].iter().map(String::as_str).collect();
        s.engine.paste_example(s.shelters_doc, &row0);
        s.engine.accept_suggested_rows();
        s.engine.name_column(0, "Venue");
        s.engine.set_column_type(2, "PR-City");
        s.engine.commit_source("Shelters");
        s.engine.start_import_tab("contacts");
        let c0: Vec<&str> = s.contact_rows[0].iter().map(String::as_str).collect();
        s.engine.paste_example(s.contacts_doc, &c0);
        s.engine.accept_suggested_rows();
        s.engine.name_column(2, "Venue");
        s.engine.commit_source("Contacts");
        let values: Vec<&str> = vec![&s.shelter_rows[0][1], &s.contact_rows[0][1]];
        // Warm the donor engine's cache.
        let warm = s.engine.discover_queries_for_tuple(&values, 3);
        assert!(!warm.is_empty());
        s.engine.discover_queries_for_tuple(&values, 3);
        assert_eq!(s.engine.query_cache_stats().hits, 1);

        let json = s.engine.save_session_json();
        let restored = CopyCat::load_session_json(&json).expect("valid json");
        // The restored graph cannot collide with a fresh graph's version.
        assert!(restored.graph().version() > 0);
        assert_eq!(
            restored.graph().version(),
            (restored.graph().node_count() + restored.graph().edge_count()) as u64
        );
        // Counters restart with the engine: the first discovery is a
        // genuine miss, not a stale hit.
        assert_eq!(restored.query_cache_stats(), crate::cache::CacheStats::default());
        let after = restored.discover_queries_for_tuple(&values, 3);
        let stats = restored.query_cache_stats();
        assert_eq!((stats.hits, stats.misses), (0, 1), "{stats:?}");
        // And the freshly computed result agrees with a cold search on
        // the restored graph.
        let terminals: Vec<copycat_graph::NodeId> = ["Shelters", "Contacts"]
            .iter()
            .filter_map(|n| restored.graph().node_by_name(n))
            .collect();
        let cold = crate::autocomplete::discover_queries(
            restored.graph(),
            restored.catalog(),
            &terminals,
            3,
        );
        assert_eq!(after.len(), cold.len());
        for (a, b) in after.iter().zip(cold.iter()) {
            assert_eq!(a.tree, b.tree);
        }
    }

    /// Seeded property: `save_session_json` → `load_session_json` is
    /// lossless for relations, learned edge costs, and user-defined
    /// types, for arbitrary world sizes, feedback histories, and
    /// learned type vocabularies.
    #[test]
    fn prop_session_json_roundtrip_is_lossless() {
        use copycat_util::{check::check, prop_ensure, prop_ensure_eq};
        check("session_json_roundtrip", 16, &[], |g| {
            let venues = g.usize_in(3..12);
            let seed = g.u64_in(1..1_000);
            let mut s = Scenario::build(&ScenarioConfig {
                venues,
                seed,
                ..Default::default()
            });
            s.import_shelters(1);
            // A feedback history: accept/reject some of the shown column
            // suggestions so edge costs move off their defaults.
            for _ in 0..g.usize_in(0..3) {
                let suggs = s.engine.column_suggestions().to_vec();
                if suggs.is_empty() {
                    break;
                }
                let pick = g.usize_in(0..suggs.len());
                if g.bool_p(0.5) {
                    s.engine.reject_column(&suggs[pick]);
                } else {
                    s.engine.accept_column(&suggs[pick]);
                }
            }
            // User-defined types with generated vocabularies.
            let n_types = g.usize_in(0..3);
            let mut type_names = Vec::new();
            for t in 0..n_types {
                let name = format!("UserType{t}");
                let examples: Vec<String> = (0..3)
                    .map(|_| g.string_of("ABC-0123", 4..8))
                    .collect();
                s.engine.registry_mut().learn_type(&name, &examples);
                type_names.push(name);
            }

            let json = s.engine.save_session_json();
            let restored = CopyCat::load_session_json(&json)
                .map_err(|e| format!("load failed: {e}"))?;
            // Relations: same names, schemas, and rows.
            let mut names = s.engine.catalog().relation_names();
            names.retain(|n| !n.contains('≈'));
            for name in names {
                let a = s.engine.catalog().relation(&name).expect("source relation");
                let b = restored.catalog().relation(&name);
                prop_ensure!(b.is_some(), "relation {name} lost in roundtrip");
                let b = b.unwrap();
                prop_ensure_eq!(a.schema().names(), b.schema().names());
                prop_ensure_eq!(a.as_texts(), b.as_texts());
            }
            // Graph: identical topology and learned costs.
            prop_ensure_eq!(s.engine.graph().node_count(), restored.graph().node_count());
            prop_ensure_eq!(s.engine.graph().edge_count(), restored.graph().edge_count());
            for e in s.engine.graph().edge_ids() {
                prop_ensure_eq!(s.engine.graph().cost(e), restored.graph().cost(e));
            }
            // User-defined types survive.
            for name in &type_names {
                prop_ensure!(
                    restored.registry().get(name).is_some(),
                    "user type {name} lost in roundtrip"
                );
            }
            // Wrappers survive (detached).
            prop_ensure_eq!(
                s.engine.saved_wrappers().len(),
                restored.saved_wrappers().len()
            );
            Ok(())
        });
    }

    /// Regression (persistence-path bugfix): the session snapshot must
    /// carry `HealthRegistry` state. Before the fix a restore silently
    /// forgot tripped breakers, retry/trip counters, and per-input
    /// fault-injection attempt state — a restored engine would
    /// immediately route through a service the saved one had already
    /// failed over from, and injected-fault roll sequences restarted.
    #[test]
    fn restore_preserves_tripped_breakers_and_fault_state() {
        use copycat_query::{Service, Value};
        use copycat_services::{BreakerState, Flaky, Geocoder, RetryPolicy};
        use copycat_util::json::to_string;
        let mut s = Scenario::build(&ScenarioConfig { venues: 8, ..Default::default() });
        s.import_shelters(1);
        let policy = RetryPolicy {
            max_attempts: 2,
            backoff_base_ms: 10,
            backoff_cap_ms: 80,
            breaker_threshold: 3,
            cooldown_ms: 600_000,
        };
        // Chaos: a zip resolver that always fails, behind retry + breaker…
        let flaky = Flaky::new(Arc::new(ZipResolver::new(Arc::clone(&s.world))), 1.0, 7, 42);
        let resilient = s.engine.register_resilient(Arc::new(flaky), policy.clone());
        // …and a half-failing geocoder probe registered *without* the
        // resilient layer, so its own attempt counters must persist.
        let probe = Arc::new(Flaky::new(
            Arc::new(Geocoder::new(Arc::clone(&s.world))),
            0.5,
            3,
            7,
        ));
        s.engine.register_service(probe.clone() as Arc<dyn Service>);
        let inp = [Value::str("1 Main St"), Value::str("Springfield")];
        for _ in 0..6 {
            let _ = resilient.try_call(&inp);
        }
        assert_eq!(resilient.breaker_state(), BreakerState::Open, "breaker tripped");
        for i in 0..10 {
            let _ = probe.try_call(&[Value::str(format!("{i} Oak")), Value::str("Springfield")]);
        }

        let json = s.engine.save_session_json();
        let mut restored = CopyCat::load_session_json(&json).expect("valid json");
        // Re-register identical implementations (closures don't persist;
        // runtime health re-attaches as each service re-registers).
        let flaky2 = Flaky::new(Arc::new(ZipResolver::new(Arc::clone(&s.world))), 1.0, 7, 42);
        let resilient2 = restored.register_resilient(Arc::new(flaky2), policy);
        let probe2 = Arc::new(Flaky::new(
            Arc::new(Geocoder::new(Arc::clone(&s.world))),
            0.5,
            3,
            7,
        ));
        restored.register_service(probe2.clone() as Arc<dyn Service>);

        // The tripped breaker is still tripped, with every counter intact.
        assert_eq!(resilient2.breaker_state(), BreakerState::Open, "restore kept the trip");
        assert_eq!(
            to_string(&resilient2.saved_health()),
            to_string(&resilient.saved_health()),
            "restored health is byte-identical"
        );
        assert_eq!(restored.health_snapshots().len(), 1);
        // And both engines continue *identically* from here: same
        // outcomes, same breaker trajectory, same probe roll sequence.
        for i in 0..40 {
            let inp = [Value::str(format!("{i} Elm")), Value::str("Springfield")];
            assert_eq!(
                resilient.try_call(&inp).is_ok(),
                resilient2.try_call(&inp).is_ok(),
                "resilient outcome diverged at call {i}"
            );
            assert_eq!(
                resilient.breaker_state(),
                resilient2.breaker_state(),
                "breaker diverged at call {i}"
            );
            assert_eq!(
                probe.try_call(&inp).is_ok(),
                probe2.try_call(&inp).is_ok(),
                "probe roll diverged at call {i}"
            );
        }
        assert_eq!(to_string(&probe.saved_state()), to_string(&probe2.saved_state()));
    }

    /// Sessions saved before health persistence (no `health` / `probes`
    /// fields) still load: absent fields mean "no resilient services".
    #[test]
    fn pre_health_sessions_still_load() {
        let s = trained_scenario();
        let json = copycat_util::json::Json::parse(&s.engine.save_session_json()).expect("parses");
        // Strip the new fields entirely to mimic an old on-disk file.
        let copycat_util::json::Json::Obj(fields) = &json else {
            panic!("session serializes as an object")
        };
        let old = copycat_util::json::Json::obj(
            fields
                .iter()
                .filter(|(k, _)| k.as_str() != "health" && k.as_str() != "probes")
                .cloned()
                .collect::<Vec<_>>(),
        );
        let restored = CopyCat::load_session_json(&old.to_string()).expect("old format loads");
        assert!(restored.catalog().relation("Shelters").is_some());
    }

    /// Learned transform edges round-trip through save/load with their
    /// programs intact, and the committed pre-transform fixture (saved
    /// before `EdgeKind::Transform` existed) still loads unchanged.
    #[test]
    fn transform_edges_round_trip_and_pre_transform_fixture_loads() {
        let mut s = Scenario::build(&ScenarioConfig { venues: 10, ..Default::default() });
        s.import_shelters(1);
        s.import_contacts();
        let learned = s
            .engine
            .learn_transform(
                "Contacts",
                "Phone",
                "Shelters",
                "Name",
                &[
                    ("(954) 555-1000".to_string(), "954-555-1000".to_string()),
                    ("(954) 555-2000".to_string(), "954-555-2000".to_string()),
                ],
            )
            .expect("consistent program");
        let json = s.engine.save_session_json();
        let restored = CopyCat::load_session_json(&json).expect("valid json");
        let listed = restored.list_transforms();
        assert_eq!(listed.len(), 1, "transform edge survives the round trip");
        assert_eq!(listed[0].program, learned.program);
        assert_eq!(listed[0].from_source, "Contacts");
        assert_eq!(listed[0].to_source, "Shelters");

        // A session snapshot from before transform synthesis existed.
        let old = include_str!("../../serve/tests/golden/saved_session.json");
        let restored = CopyCat::load_session_json(old).expect("pre-transform fixture loads");
        assert!(restored.list_transforms().is_empty());
        assert!(restored.catalog().relation("Shelters").is_some());
    }

    #[test]
    fn wrappers_restore_detached_and_reattach() {
        let mut s = Scenario::build(&ScenarioConfig { venues: 8, ..Default::default() });
        s.import_shelters(1);
        let json = s.engine.save_session_json();
        let mut restored = CopyCat::load_session_json(&json).expect("valid json");
        assert_eq!(restored.saved_wrappers().len(), 1);
        // Reattach the shelter site and re-extract through the wrapper.
        let doc = restored.open(copycat_document::Document::Site(
            copycat_document::corpus::render_list(
                &copycat_document::corpus::ListSpec::new(
                    "County Shelters",
                    &["Name", "Street", "City"],
                    copycat_document::corpus::Tier::Clean,
                    2009,
                ),
                &s.shelter_rows,
            )
            .site,
        ));
        let n = restored.attach_wrapper_document("Shelters", doc);
        assert_eq!(n, Some(8), "re-extraction refreshes the relation");
    }
}
