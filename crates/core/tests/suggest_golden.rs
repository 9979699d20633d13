//! Golden column completions: every suggestion the engine shows in a set
//! of fixed sessions, rendered in full — label, edge, cost, new fields
//! with their semantic types, aligned values, provenance and the
//! degraded note — together with the health counters and the catalog's
//! relation names after each call. The counters pin how many service
//! calls a suggestion round makes and in what order (breakers, `Flaky`
//! rerolls and virtual time advance on every call); the relation names
//! pin the auxiliary relations record linking materializes. The
//! expected text is `golden/suggestions.txt`.
//!
//! Cases: bind edges on a flat world (plus accept and reject by index
//! and the round after), a record link with an untrained and a trained
//! matcher, a learned transform edge from its source and from its
//! target, a join edge from either end, join and bind columns projected
//! out of the current plan, a
//! tripped primary with an equivalent backup (failover and dedup), and
//! partial failures ranked below healthy completions.

use copycat_core::{autocomplete, ColumnSuggestion, CopyCat, Scenario, ScenarioConfig};
use copycat_document::corpus::{render_list, ListSpec, Tier};
use copycat_document::Document;
use copycat_query::{Field, Plan, Relation, Renamed, Schema};
use copycat_services::{
    Flaky, Geocoder, HealthRegistry, RetryPolicy, World, WorldConfig, ZipResolver,
};
use std::fmt::Write;
use std::sync::Arc;

const GOLDEN: &str = include_str!("golden/suggestions.txt");

fn render_suggestions(out: &mut String, suggs: &[ColumnSuggestion]) {
    for (i, s) in suggs.iter().enumerate() {
        writeln!(out, "[{i}] {} edge={:?} cost={:?}", s.label, s.edge, s.cost).unwrap();
        let fields: Vec<String> = s
            .new_fields
            .iter()
            .map(|f| format!("{}:{}", f.name, f.sem_type.as_deref().unwrap_or("-")))
            .collect();
        writeln!(out, "  fields {fields:?}").unwrap();
        writeln!(out, "  degraded {:?}", s.degraded).unwrap();
        writeln!(out, "  plan {}", s.plan).unwrap();
        for (row, prov) in s.values.iter().zip(&s.provenance) {
            match prov {
                Some(p) => writeln!(out, "  {row:?} {p}").unwrap(),
                None => writeln!(out, "  {row:?} -").unwrap(),
            }
        }
    }
}

/// One suggestion round on the engine, rendered with the state it left.
fn round(out: &mut String, name: &str, cc: &mut CopyCat) {
    writeln!(out, "== {name}").unwrap();
    let suggs = cc.column_suggestions().to_vec();
    render_suggestions(out, &suggs);
    for h in cc.health_snapshots() {
        writeln!(out, "  health {h:?}").unwrap();
    }
    writeln!(out, "  relations {:?}", cc.catalog().relation_names()).unwrap();
}

fn bind_edges(out: &mut String) {
    let mut s = Scenario::build(&ScenarioConfig { venues: 6, ..Default::default() });
    s.import_shelters(1);
    round(out, "bind: shelters", &mut s.engine);
    let last = s.engine.column_suggestions().len() - 1;
    writeln!(out, "reject {last}: {}", s.engine.reject_column(last)).unwrap();
    round(out, "bind: after reject", &mut s.engine);
    writeln!(out, "accept 0: {}", s.engine.accept_column(0)).unwrap();
    writeln!(out, "accept again: {}", s.engine.accept_column(0)).unwrap();
    round(out, "bind: after accept", &mut s.engine);
}

fn link_edges(out: &mut String) {
    let mut s = Scenario::build(&ScenarioConfig {
        venues: 8,
        seed: 7,
        contact_name_edits: 1,
        ..Default::default()
    });
    s.import_shelters(1);
    s.import_contacts();
    s.engine.declare_link("Shelters", "Name", "Contacts", "Venue");
    s.engine.switch_tab(0);
    round(out, "link: untrained", &mut s.engine);
    for i in 0..3 {
        let true_name = s.world.venues[s.contact_truth[i]].name.clone();
        let mangled = s.contact_rows[i][2].clone();
        s.engine.demonstrate_link(&true_name, &mangled, true);
    }
    round(out, "link: trained", &mut s.engine);
}

fn transform_edges(out: &mut String) {
    let mut s = Scenario::build(&ScenarioConfig { venues: 6, ..Default::default() });
    s.import_shelters(1);
    s.import_directory();
    s.import_contacts();
    let examples: Vec<(String, String)> = s
        .contact_rows
        .iter()
        .take(3)
        .map(|r| (r[1].clone(), World::directory_phone(&r[1])))
        .collect();
    s.engine
        .learn_transform("Contacts", "Phone", "Directory", "Phone", &examples)
        .expect("phone reformat is learnable");
    assert!(s.engine.switch_tab_to_source("Contacts"));
    round(out, "transform: from source", &mut s.engine);
    assert!(s.engine.switch_tab_to_source("Directory"));
    round(out, "transform: from target", &mut s.engine);

}

/// Shelters plus a `Capacity` relation keyed by typed street and city,
/// so association discovery adds a join edge between them.
fn join_edges(out: &mut String) {
    let mut s = Scenario::build(&ScenarioConfig { venues: 6, ..Default::default() });
    s.import_shelters(1);
    let schema = Schema::new(vec![
        Field::typed("Street", "PR-Street"),
        Field::typed("City", "PR-City"),
        Field::new("Beds"),
    ]);
    let rows: Vec<Vec<String>> = s
        .shelter_rows
        .iter()
        .take(4)
        .enumerate()
        .map(|(i, r)| vec![r[1].clone(), r[2].clone(), format!("{}", 40 + 10 * i)])
        .collect();
    s.engine
        .catalog()
        .add_relation(Relation::from_strings("Capacity", schema.clone(), &rows));
    s.engine.add_graph_relation("Capacity", schema);
    round(out, "join: shelters", &mut s.engine);

    // Called directly on other plans: from the join's other end, and
    // with columns projected out of the current plan, where an edge
    // that needs one is skipped before anything executes.
    let graph = s.engine.graph();
    let catalog = s.engine.catalog();
    for (source, keep) in [
        ("Capacity", &["Street", "City", "Beds"][..]),
        ("Capacity", &["City", "Beds"][..]),
        ("Shelters", &["Name", "City"][..]),
        ("Shelters", &["Street", "City"][..]),
    ] {
        let node = graph.node_by_name(source).expect("committed source");
        let plan = Plan::scan(source).project(keep);
        let rows: Vec<Vec<String>> = copycat_query::execute(&plan, catalog)
            .expect("projection executes")
            .as_texts();
        writeln!(out, "== projected: {source} {keep:?}").unwrap();
        let suggs = autocomplete::column_suggestions(
            graph,
            catalog,
            &plan,
            &[node],
            &rows,
            None,
            &HealthRegistry::new(),
        );
        render_suggestions(out, &suggs);
    }
}

fn failover_world() -> Arc<World> {
    Arc::new(World::generate(&WorldConfig {
        seed: 15,
        cities: 4,
        streets_per_city: 6,
        venues: 10,
    }))
}

/// The shelter site imported and committed, with no services yet.
fn imported_engine(w: &Arc<World>) -> CopyCat {
    let rows = w.shelter_rows();
    let spec = ListSpec::new("Shelters", &["Name", "Street", "City"], Tier::Clean, 3);
    let mut cc = CopyCat::new();
    let doc = cc.open(Document::Site(render_list(&spec, &rows).site));
    let first: Vec<&str> = rows[0].iter().map(String::as_str).collect();
    cc.paste_example(doc, &first);
    cc.accept_suggested_rows();
    cc.name_column(0, "Name");
    cc.set_column_type(2, "PR-City");
    cc.commit_source("Shelters");
    cc
}

fn failover(out: &mut String) {
    let w = failover_world();
    let mut cc = imported_engine(&w);
    let hard_down = Arc::new(Flaky::new(
        Arc::new(ZipResolver::new(Arc::clone(&w))),
        1.0,
        10,
        7,
    ));
    cc.register_resilient(hard_down, RetryPolicy::default());
    // The backup is wrapped too, only so its health counters show how
    // often direct completion and failover call it.
    cc.register_resilient(
        Arc::new(Renamed::new("zip_backup", Arc::new(ZipResolver::new(Arc::clone(&w))))),
        RetryPolicy::default(),
    );
    cc.register_service(Arc::new(Geocoder::new(Arc::clone(&w))));
    round(out, "failover: trips", &mut cc);
    round(out, "failover: tripped", &mut cc);
    writeln!(out, "accept 0: {}", cc.accept_column(0)).unwrap();
    round(out, "failover: after accept", &mut cc);
}

fn partial_failures(out: &mut String) {
    let w = failover_world();
    let mut cc = imported_engine(&w);
    cc.register_service(Arc::new(Flaky::new(
        Arc::new(ZipResolver::new(Arc::clone(&w))),
        0.5,
        10,
        42,
    )));
    let retried = Arc::new(Flaky::new(Arc::new(Geocoder::new(Arc::clone(&w))), 0.3, 10, 42));
    cc.register_resilient(retried, RetryPolicy::default());
    round(out, "degraded: first", &mut cc);
    round(out, "degraded: second", &mut cc);
}

fn render() -> String {
    let mut out = String::new();
    bind_edges(&mut out);
    link_edges(&mut out);
    transform_edges(&mut out);
    join_edges(&mut out);
    failover(&mut out);
    partial_failures(&mut out);
    out
}

#[test]
fn column_suggestions_match_the_golden_output() {
    let actual = render();
    if actual != GOLDEN {
        for (i, (a, g)) in actual.lines().zip(GOLDEN.lines()).enumerate() {
            if a != g {
                panic!("first difference at line {}:\n  actual: {a}\n  golden: {g}", i + 1);
            }
        }
        panic!(
            "output has {} lines, golden has {}:\n{actual}",
            actual.lines().count(),
            GOLDEN.lines().count()
        );
    }
}
