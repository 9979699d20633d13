//! End-to-end fault-tolerance properties (PR 5 acceptance):
//!
//! * with ≤30% injected failures and a replacement source registered,
//!   autocomplete accepts the *same rows byte-for-byte* as a healthy
//!   run — retries recover the primary, or ranking/failover routes to
//!   the equivalent replacement;
//! * every degraded answer carries a provenance-visible `degraded:`
//!   annotation surfaced by `explain`.

use copycat_core::explain::render;
use copycat_core::{explain, explain_row, CopyCat};
use copycat_document::corpus::{render_list, ListSpec, Tier};
use copycat_document::Document;
use copycat_query::Renamed;
use copycat_services::{BreakerState, Flaky, RetryPolicy, World, WorldConfig, ZipResolver};
use std::sync::Arc;

fn world() -> Arc<World> {
    Arc::new(World::generate(&WorldConfig {
        // Same collision-free seed the engine unit tests use.
        seed: 15,
        cities: 4,
        streets_per_city: 6,
        venues: 10,
    }))
}

/// Import the shelter site into a fresh engine (no services yet).
fn imported_engine(w: &Arc<World>) -> CopyCat {
    let rows = w.shelter_rows();
    let spec = ListSpec::new("Shelters", &["Name", "Street", "City"], Tier::Clean, 3);
    let doc_model = Document::Site(render_list(&spec, &rows).site);
    let mut cc = CopyCat::new();
    let doc = cc.open(doc_model);
    let first: Vec<&str> = rows[0].iter().map(String::as_str).collect();
    cc.paste_example(doc, &first);
    cc.accept_suggested_rows();
    cc.name_column(0, "Name");
    cc.set_column_type(2, "PR-City");
    cc.commit_source("Shelters");
    cc
}

/// Run autocomplete to completion: take the best Zip suggestion,
/// accept it, and return (suggested values, final workspace cells).
fn accept_zip(cc: &mut CopyCat) -> (Vec<Vec<String>>, Vec<Vec<String>>) {
    let suggs = cc.column_suggestions();
    let pick = suggs
        .iter()
        .position(|s| s.new_fields.iter().any(|f| f.name == "Zip"))
        .expect("a zip completion is offered");
    let zip = suggs[pick].clone();
    assert!(cc.accept_column(pick));
    let cells: Vec<Vec<String>> = cc
        .workspace()
        .active()
        .rows
        .iter()
        .map(|r| r.cells.clone())
        .collect();
    (zip.values, cells)
}

/// ≤30% failure rate + bounded retries: the accepted rows are
/// byte-identical to a healthy run's. Deterministic rerolls mean a
/// failed attempt succeeds on retry, so the primary itself recovers;
/// if any input still exhausted its retries, the healthy replacement
/// outranks the degraded primary and supplies the same values.
#[test]
fn chaos_run_accepts_same_rows_as_healthy_run() {
    let w = world();

    let mut healthy = imported_engine(&w);
    healthy.register_service(Arc::new(ZipResolver::new(Arc::clone(&w))));
    let (healthy_values, healthy_cells) = accept_zip(&mut healthy);

    let mut chaos = imported_engine(&w);
    let flaky = Arc::new(Flaky::new(
        Arc::new(ZipResolver::new(Arc::clone(&w))),
        0.3,
        10,
        42,
    ));
    let resilient = chaos.register_resilient(flaky, RetryPolicy::default());
    chaos.register_service(Arc::new(Renamed::new(
        "zip_backup",
        Arc::new(ZipResolver::new(Arc::clone(&w))),
    )));
    let (chaos_values, chaos_cells) = accept_zip(&mut chaos);

    assert_eq!(chaos_values, healthy_values, "accepted values match");
    assert_eq!(chaos_cells, healthy_cells, "workspace rows byte-identical");
    // The injected faults were real: the resilient wrapper had to retry,
    // and the backoff it charged is virtual latency, not wallclock.
    let snap = resilient.snapshot();
    assert!(snap.calls > 0, "primary was exercised: {snap:?}");
    if snap.failures + snap.retries == 0 {
        // Seed produced no faults at all — then the test proved nothing;
        // fail loudly so the seed gets changed rather than rotting.
        panic!("seed injected no faults; pick a seed that does: {snap:?}");
    }
    assert_eq!(snap.backoff_virtual_ms, resilient.backoff_virtual_ms());
}

/// A hard-down primary trips its breaker; the healthy replacement is
/// ranked first, failover re-planning runs with the tripped edges
/// banned, and the final rows still match the healthy run.
#[test]
fn breaker_trips_and_failover_matches_healthy_run() {
    let w = world();

    let mut healthy = imported_engine(&w);
    healthy.register_service(Arc::new(ZipResolver::new(Arc::clone(&w))));
    let (_, healthy_cells) = accept_zip(&mut healthy);

    let mut chaos = imported_engine(&w);
    let flaky = Arc::new(Flaky::new(
        Arc::new(ZipResolver::new(Arc::clone(&w))),
        1.0, // hard down
        10,
        7,
    ));
    let resilient = chaos.register_resilient(flaky, RetryPolicy::default());
    chaos.register_service(Arc::new(Renamed::new(
        "zip_backup",
        Arc::new(ZipResolver::new(Arc::clone(&w))),
    )));

    let suggs = chaos.column_suggestions().to_vec();
    let zips: Vec<usize> = (0..suggs.len())
        .filter(|&i| suggs[i].new_fields.iter().any(|f| f.name == "Zip"))
        .collect();
    assert!(!zips.is_empty(), "the healthy backup still completes Zip");
    // Healthy completions sort above degraded ones, so the best zip
    // completion is the backup, not the dead primary.
    let best = &suggs[zips[0]];
    assert!(best.degraded.is_none(), "best completion is healthy: {best:?}");
    assert!(best.label.contains("zip_backup"), "{}", best.label);
    // Every degraded completion announces itself, and its provenance
    // carries the annotation `explain` surfaces.
    for s in suggs.iter().filter(|s| s.degraded.is_some()) {
        let note = s.degraded.as_deref().unwrap();
        assert!(note.contains("zip_resolver"), "blames the primary: {note}");
        for p in s.provenance.iter().flatten() {
            let e = explain(p);
            assert!(!e.degraded.is_empty(), "degraded label visible: {e:?}");
        }
    }

    // The breaker actually tripped and the registry reports it.
    assert_eq!(resilient.breaker_state(), BreakerState::Open);
    let tripped = chaos.health().tripped_services();
    assert_eq!(tripped, vec!["zip_resolver".to_string()]);
    let snap = chaos
        .health()
        .get("zip_resolver")
        .expect("registry entry for the primary")
        .snapshot();
    assert!(snap.trips >= 1, "{snap:?}");
    assert!(snap.failures > 0, "{snap:?}");

    // Accepting the backup yields the same workspace as the healthy run.
    assert!(chaos.accept_column(zips[0]));
    let chaos_cells: Vec<Vec<String>> = chaos
        .workspace()
        .active()
        .rows
        .iter()
        .map(|r| r.cells.clone())
        .collect();
    assert_eq!(chaos_cells, healthy_cells, "failover rows byte-identical");
}

/// Accepting a *degraded* completion (no replacement registered) leaves
/// a provenance-visible annotation on every answered row, and `explain`
/// renders it.
#[test]
fn accepted_degraded_rows_explain_why() {
    let w = world();
    let mut cc = imported_engine(&w);
    // A plain flaky primary, no retry wrapper and no backup: roughly
    // half the calls fail, so the completion is partial and degraded.
    cc.register_service(Arc::new(Flaky::new(
        Arc::new(ZipResolver::new(Arc::clone(&w))),
        0.5,
        10,
        42,
    )));
    let suggs = cc.column_suggestions();
    let pick = suggs
        .iter()
        .position(|s| s.new_fields.iter().any(|f| f.name == "Zip"))
        .expect("partial answers still suggested");
    let zip = suggs[pick].clone();
    let note = zip.degraded.clone().expect("completion marked degraded");
    assert!(note.contains("zip_resolver"), "{note}");
    assert!(cc.accept_column(pick));
    let tab = cc.workspace().active();
    let mut explained = 0;
    for (i, v) in zip.values.iter().enumerate() {
        if v.iter().all(String::is_empty) {
            continue; // unanswered rows have no new provenance
        }
        let e = explain_row(tab, i).expect("row exists");
        assert!(
            e.degraded.iter().any(|d| d.contains("zip_resolver")),
            "row {i}: {e:?}"
        );
        assert!(render(&e).contains("Degraded:"), "row {i}");
        explained += 1;
    }
    assert!(explained > 0, "at least one answered row was explained");
}

/// Undo puts a degraded service's cost hint back with the bind-edge
/// costs scaled from it, so the next suggestion round re-prices those
/// edges from the service's observed cost again. Undo used to restore
/// the edges but leave the newer hint, and the round after saw no hint
/// change and kept the healthier prices.
#[test]
fn undo_restores_a_degraded_services_cost_hint_with_its_edges() {
    use copycat_graph::EdgeKind;

    let w = world();
    let mut cc = imported_engine(&w);
    let flaky = Flaky::new(Arc::new(ZipResolver::new(Arc::clone(&w))), 0.9, 10, 7);
    cc.register_resilient(Arc::new(Renamed::new("zip_mirror", Arc::new(flaky))), RetryPolicy::default());
    let node = cc.graph().node_by_name("zip_mirror").expect("registered");
    let priced = |cc: &CopyCat| {
        let g = cc.graph();
        let binds = g.incident(node).iter().filter(|&&e| matches!(g.edge(e).kind, EdgeKind::Bind { .. }));
        (g.node(node).cost_hint, binds.map(|&e| g.cost(e)).collect::<Vec<f64>>())
    };
    let healthy = priced(&cc);
    assert!(!healthy.1.is_empty(), "the mirror has bind edges");

    cc.accept_suggested_rows(); // opens an undo entry
    cc.column_suggestions();
    cc.column_suggestions();
    let degraded = priced(&cc);
    assert!(degraded.0 > healthy.0, "failures raise the hint: {healthy:?} -> {degraded:?}");

    assert!(cc.undo());
    assert_eq!(priced(&cc), healthy, "undo restores the hint with its edges");
    cc.column_suggestions();
    assert_eq!(priced(&cc), degraded, "the next round re-prices from the observed cost");
}
