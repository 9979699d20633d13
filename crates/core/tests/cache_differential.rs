//! Differential property for query discovery's cache: over seeded
//! sequences of `autocomplete` interleaved with source commits (new and
//! replacing), source retraction, query feedback, column acceptance, a
//! flaky zip resolver tripping its breaker, undo and session reload, an
//! engine that answers from its query cache (Steiner trees by graph
//! version, service-free row counts by catalog generation) shows
//! exactly what a twin shows when every discovery is computed from
//! scratch, and the twins leave their services in the same state. The
//! worlds are a flat 10-venue engine and copy-on-write sessions of a
//! shared 48-venue world, whose catalog changes land in an overlay.

use copycat_core::autocomplete::{ban_set, search_trees_banned, tree_to_plan};
use copycat_core::{CopyCat, WorldBase};
use copycat_document::corpus::{contact_sheet, render_list, ListSpec, Tier};
use copycat_document::{Document, DocumentId};
use copycat_graph::SteinerTree;
use copycat_query::{execute_counted, Service, Value};
use copycat_services::{
    AddressResolver, CurrencyConverter, Flaky, Geocoder, ReversePhone, RetryPolicy, UnitConverter,
    World, WorldConfig, ZipResolver,
};
use copycat_util::check::{check, Gen};
use copycat_util::{prop_ensure, prop_ensure_eq};
use std::cell::RefCell;
use std::sync::Arc;

/// What an `autocomplete` shows of one discovered query, and the tree
/// that feedback reads.
#[derive(Debug, PartialEq)]
struct Shown {
    label: String,
    cost: f64,
    sources: Vec<String>,
    columns: Vec<String>,
    rows: usize,
    degraded: Option<String>,
    tree: SteinerTree,
}

/// The fault schedule both twins share.
#[derive(Clone, Copy)]
struct Faults {
    rate: f64,
    seed: u64,
}

/// One case's world, the documents its imports copy from (shelters and
/// a sheet of zip codes) and its faults.
struct Case {
    world: Arc<World>,
    docs: [Document; 2],
    /// The zip sheet's rows, `[Zip, Region]`.
    zips: Vec<Vec<String>>,
    faults: Faults,
}

/// One twin: its engine, its open documents and the trees of its last
/// answer.
struct Side {
    engine: CopyCat,
    docs: [DocumentId; 2],
    last: Vec<SteinerTree>,
}

/// A breaker that trips after two exhausted calls and half-opens
/// after a short virtual cooldown, so sequences see it open and close.
fn policy() -> RetryPolicy {
    RetryPolicy {
        max_attempts: 2,
        backoff_base_ms: 10,
        backoff_cap_ms: 80,
        breaker_threshold: 2,
        cooldown_ms: 200,
    }
}

impl Case {
    fn new(world: Arc<World>, faults: Faults) -> Self {
        let spec = ListSpec::new("County Shelters", &["Name", "Street", "City"], Tier::Clean, 7);
        let shelters = Document::Site(render_list(&spec, &world.shelter_rows()).site);
        // The shelters' zip codes, reachable from the shelters only
        // through the zip resolver.
        let resolver = ZipResolver::new(Arc::clone(&world));
        let zips: Vec<Vec<String>> = world
            .shelter_rows()
            .iter()
            .enumerate()
            .filter_map(|(i, row)| {
                let inputs = [Value::str(row[1].as_str()), Value::str(row[2].as_str())];
                let zip = resolver.call(&inputs).first()?.first()?.as_text();
                Some(vec![zip, format!("Region {}", i % 3)])
            })
            .collect();
        let sheet = contact_sheet("zips.xls", &["Zip", "Region"], zips.clone());
        Case { world, docs: [shelters, Document::Sheet(sheet)], zips, faults }
    }

    /// Wrap `engine` as a twin: every world service is registered
    /// behind the retry layer, so the health snapshots count every
    /// service call, the zip resolver fault-injecting; and the
    /// documents are opened.
    fn side(&self, mut engine: CopyCat) -> Side {
        let w = &self.world;
        let zip = Arc::new(ZipResolver::new(Arc::clone(w)));
        let services: [Arc<dyn Service>; 6] = [
            Arc::new(Flaky::new(zip, self.faults.rate, 10, self.faults.seed)),
            Arc::new(Geocoder::new(Arc::clone(w))),
            Arc::new(AddressResolver::new(Arc::clone(w))),
            Arc::new(ReversePhone::new(Arc::clone(w))),
            Arc::new(CurrencyConverter::new()),
            Arc::new(UnitConverter::new()),
        ];
        for svc in services {
            engine.register_resilient(svc, policy());
        }
        let docs = [engine.open(self.docs[0].clone()), engine.open(self.docs[1].clone())];
        Side { engine, docs, last: Vec::new() }
    }
}

/// One step of a sequence, applied alike to both twins.
#[derive(Debug, Clone)]
enum Step {
    /// Import shelter rows (less one rejected suggestion, when set) and
    /// commit them under `name`: a new source, or a replacement of an
    /// existing one.
    Commit { name: String, row: usize, reject: Option<usize> },
    /// Retract a source from the catalog.
    Retract(String),
    /// Prefer the `accept`th query of the last answer over the
    /// `reject`th.
    Feedback { accept: usize, reject: usize },
    /// Accept the `pick`th column suggestion, if there are that many.
    AcceptColumn { pick: usize },
    /// Call the flaky zip resolver directly for shelter `row`, three
    /// times: enough failures trip its breaker.
    Trip { row: usize },
    Undo,
    /// Save the session and load it back.
    Reload,
    /// Only the autocomplete every step ends with.
    Autocomplete,
}

fn step(g: &mut Gen, case: &Case, imported: &mut usize) -> Step {
    let venues = case.world.shelter_rows().len();
    match g.usize_in(0..9) {
        0 => {
            let name = format!("Imported{}", *imported % 2);
            *imported += 1;
            Step::Commit { name, row: g.usize_in(0..venues), reject: None }
        }
        1 if g.bool_p(0.5) => Step::Commit {
            name: "Zips".to_string(),
            row: g.usize_in(0..case.zips.len()),
            reject: Some(g.usize_in(0..case.zips.len())),
        },
        1 => Step::Commit {
            name: "Shelters".to_string(),
            row: g.usize_in(0..venues),
            reject: Some(g.usize_in(0..venues)),
        },
        2 => {
            let sources = ["Shelters", "Contacts", "Zips", "Imported0", "Imported1"];
            Step::Retract(g.choose(&sources).to_string())
        }
        3 => Step::Feedback { accept: g.usize_in(0..3), reject: g.usize_in(0..3) },
        4 => Step::AcceptColumn { pick: g.usize_in(0..4) },
        5 => Step::Trip { row: g.usize_in(0..venues) },
        6 => Step::Undo,
        7 => Step::Reload,
        _ => Step::Autocomplete,
    }
}

impl Side {
    fn apply(&mut self, case: &Case, step: &Step) -> Result<(), String> {
        let cc = &mut self.engine;
        match step {
            Step::Commit { name, row, reject } if name == "Zips" => {
                let values: Vec<&str> = case.zips[*row].iter().map(String::as_str).collect();
                cc.start_import_tab(name);
                cc.paste_example(self.docs[1], &values);
                if let Some(r) = reject {
                    cc.reject_suggested_row(*r);
                }
                cc.accept_suggested_rows();
                cc.name_column(0, "Zip");
                cc.set_column_type(0, "PR-Zip");
                cc.name_column(1, "Region");
                cc.commit_source(name);
            }
            Step::Commit { name, row, reject } => {
                let shelters = case.world.shelter_rows();
                let values: Vec<&str> = shelters[*row].iter().map(String::as_str).collect();
                cc.start_import_tab(name);
                cc.paste_example(self.docs[0], &values);
                if let Some(r) = reject {
                    cc.reject_suggested_row(*r);
                }
                cc.accept_suggested_rows();
                cc.name_column(0, "Venue");
                cc.name_column(1, "Street");
                cc.name_column(2, "City");
                cc.set_column_type(2, "PR-City");
                cc.commit_source(name);
            }
            Step::Retract(name) => {
                cc.catalog().remove_relation(name);
            }
            Step::Feedback { accept, reject } => {
                if let (Some(a), Some(r)) = (self.last.get(*accept), self.last.get(*reject)) {
                    if accept != reject {
                        cc.prefer_query(a, &[r]);
                    }
                }
            }
            Step::AcceptColumn { pick } => {
                if *pick < cc.column_suggestions().len() {
                    prop_ensure!(cc.accept_column(*pick));
                }
            }
            Step::Trip { row } => {
                let shelter = &case.world.shelter_rows()[*row];
                let zip = cc.catalog().service("zip_resolver").ok_or("no zip resolver")?;
                let inputs = [Value::str(shelter[1].as_str()), Value::str(shelter[2].as_str())];
                for _ in 0..3 {
                    let _ = zip.try_call(&inputs);
                }
            }
            Step::Undo => {
                cc.undo();
            }
            Step::Reload => {
                let json = cc.save_session_json();
                let loaded = CopyCat::load_session_json(&json).map_err(|e| e.to_string())?;
                *self = case.side(loaded);
            }
            Step::Autocomplete => {}
        }
        Ok(())
    }
}

fn shown(q: &copycat_core::ScoredQuery) -> Shown {
    Shown {
        label: q.plan.to_string(),
        cost: q.cost,
        sources: q.plan.sources().iter().map(|s| s.to_string()).collect(),
        columns: q.columns.names().iter().map(|s| s.to_string()).collect(),
        rows: q.rows,
        degraded: q.degraded.clone(),
        tree: q.tree.clone(),
    }
}

/// Discovery with nothing cached: each value's terminal is the first
/// relation by name holding it, the tripped services' edges are banned,
/// and every tree is planned and executed.
fn uncached(cc: &CopyCat, values: &[&str], k: usize) -> Vec<Shown> {
    let (catalog, graph) = (cc.catalog(), cc.graph());
    let names = catalog.relation_names();
    let mut terminals = Vec::new();
    for v in values {
        let holder = names.iter().find(|name| {
            catalog.relation(name).is_some_and(|rel| {
                rel.tuples().iter().any(|t| t.values.iter().any(|c| c.as_text() == *v))
            })
        });
        if let Some(node) = holder.and_then(|name| graph.node_by_name(name)) {
            if !terminals.contains(&node) {
                terminals.push(node);
            }
        }
    }
    if terminals.is_empty() {
        return Vec::new();
    }
    let banned = ban_set(graph, &cc.health().tripped_services()).1;
    let mut out = Vec::new();
    for tree in search_trees_banned(graph, &terminals, k, &banned) {
        let Some(plan) = tree_to_plan(graph, &tree) else {
            continue;
        };
        let Ok((columns, rows, report)) = execute_counted(&plan, catalog) else {
            continue;
        };
        out.push(Shown {
            label: plan.to_string(),
            cost: tree.cost,
            sources: plan.sources().iter().map(|s| s.to_string()).collect(),
            columns: columns.names().iter().map(|s| s.to_string()).collect(),
            rows,
            degraded: report.failures.first().map(|f| format!("{}:{}", f.service, f.kind)),
            tree,
        });
    }
    out
}

/// What the sequences exercised, for the coverage checks.
#[derive(Default)]
struct Seen {
    hits: u64,
    trips: u64,
    answers_after_replacing: usize,
    service_answers: usize,
    /// Answers with a service-calling query, served from the cache.
    service_hits: usize,
    steps: Vec<&'static str>,
}

/// Run one seeded sequence on a cached twin and an uncached one.
fn run(
    g: &mut Gen,
    case: &Case,
    build: &dyn Fn() -> CopyCat,
    seen: &mut Seen,
) -> Result<(), String> {
    let (shelters, contacts) = (case.world.shelter_rows(), case.world.contact_rows());
    let (venues, zips) = (shelters.len(), case.zips.len());
    // A few tuples pasted again and again, so the cache gets hits. A
    // street with a zip code is explained through the zip resolver.
    let tuples: Vec<(Vec<String>, usize)> = (0..3)
        .map(|_| {
            let tuple = match g.usize_in(0..6) {
            0 => vec![shelters[g.usize_in(0..venues)][1].clone()],
            1 => vec![contacts[g.usize_in(0..venues)][1].clone()],
            2 => vec![shelters[g.usize_in(0..venues)][0].clone(), "no such value".into()],
            3 => vec![
                shelters[g.usize_in(0..venues)][1].clone(),
                contacts[g.usize_in(0..venues)][1].clone(),
            ],
            _ => vec![
                shelters[g.usize_in(0..venues)][1].clone(),
                case.zips[g.usize_in(0..zips)][0].clone(),
            ],
            };
            (tuple, g.usize_in(1..4))
        })
        .collect();
    let mut cached = case.side(build());
    let mut control = case.side(build());
    // The zip sheet, linked to the resolver's output: a street and a
    // zip code are explained by a plan that calls the resolver.
    let zips_source = Step::Commit { name: "Zips".to_string(), row: 0, reject: None };
    for side in [&mut cached, &mut control] {
        side.apply(case, &zips_source)?;
        prop_ensure!(side.engine.declare_link("zip_resolver", "Zip", "Zips", "Zip"));
    }
    let mut imported = 0;
    let mut replaced = false;
    for i in 0..g.usize_in(6..14) {
        let step = step(g, case, &mut imported);
        let name = format!("{step:?}");
        let kind: &'static str = match step {
            Step::Commit { reject: Some(_), .. } => "replacing commit",
            Step::Commit { .. } => "new commit",
            Step::Retract(_) => "retract",
            Step::Feedback { .. } => "feedback",
            Step::AcceptColumn { .. } => "accept_column",
            Step::Trip { .. } => "trip",
            Step::Undo => "undo",
            Step::Reload => "reload",
            Step::Autocomplete => "autocomplete",
        };
        if !seen.steps.contains(&kind) {
            seen.steps.push(kind);
        }
        replaced |= matches!(step, Step::Commit { reject: Some(_), .. });
        if matches!(step, Step::Reload) {
            seen.hits += cached.engine.query_cache_stats().hits;
        }
        cached.apply(case, &step)?;
        control.apply(case, &step)?;
        let (tuple, k) = g.choose(&tuples);
        let values: Vec<&str> = tuple.iter().map(String::as_str).collect();
        let hits = cached.engine.query_cache_stats().hits;
        let answer = cached.engine.discover_queries_for_tuple(&values, *k);
        let hit = cached.engine.query_cache_stats().hits > hits;
        let got: Vec<Shown> = answer.iter().map(shown).collect();
        let want = uncached(&control.engine, &values, *k);
        prop_ensure_eq!(got, want, "step {i} ({name}): the cached answer differs");
        prop_ensure_eq!(
            cached.engine.health_snapshots(),
            control.engine.health_snapshots(),
            "step {i} ({name}): service state diverged"
        );
        if replaced && !got.is_empty() {
            seen.answers_after_replacing += 1;
        }
        if got.iter().any(|q| q.sources.iter().any(|s| s == "zip_resolver")) {
            seen.service_answers += 1;
            seen.service_hits += usize::from(hit);
        }
        cached.last = got.into_iter().map(|s| s.tree).collect();
        control.last = want.into_iter().map(|s| s.tree).collect();
    }
    seen.hits += cached.engine.query_cache_stats().hits;
    seen.trips += cached.engine.health_snapshots().iter().map(|s| s.trips).sum::<u64>();
    Ok(())
}

fn faults(g: &mut Gen) -> Faults {
    Faults { rate: g.f64_in(0.05..0.6), seed: g.u64_in(0..1 << 32) }
}

#[test]
fn cached_discovery_matches_uncached_discovery() {
    let shared_config = WorldConfig { seed: 2009, venues: 48, ..WorldConfig::default() };
    let base = Arc::new(WorldBase::synthetic(&shared_config));
    let seen = RefCell::new(Seen::default());
    check("query-cache-matches-uncached", 12, &[], |g| {
        let seen = &mut *seen.borrow_mut();
        let seed = g.u64_in(1..10_000);
        let config = WorldConfig { seed, venues: 10, ..WorldConfig::default() };
        let flat = Case::new(Arc::new(World::generate(&config)), faults(g));
        run(g, &flat, &|| WorldBase::flat_engine(&config), seen)?;
        let shared = Case::new(base.world(), faults(g));
        run(g, &shared, &|| CopyCat::with_base(&base), seen)
    });
    let seen = seen.into_inner();
    assert!(seen.hits > 0, "no discovery was served from the cache");
    assert!(seen.trips > 0, "the flaky resolver's breaker never tripped");
    assert!(seen.answers_after_replacing > 0, "no query was discovered over a replaced source");
    assert!(seen.service_answers > 0, "no discovered query called the zip resolver");
    assert!(seen.service_hits > 0, "no cache hit held a query that calls the zip resolver");
    for kind in [
        "replacing commit",
        "new commit",
        "retract",
        "feedback",
        "accept_column",
        "trip",
        "undo",
        "reload",
    ] {
        assert!(seen.steps.contains(&kind), "no sequence took a {kind} step: {:?}", seen.steps);
    }
}
