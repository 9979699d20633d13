//! End-to-end integration tests spanning every crate: the §8 demo script,
//! run headlessly on all page-complexity tiers.

use copycat::core::scenario::{Scenario, ScenarioConfig};
use copycat::core::{explain, export};
use copycat::document::corpus::Tier;

fn run_demo(tier: Tier, venues: usize, examples: usize) -> Scenario {
    let mut s = Scenario::build(&ScenarioConfig {
        venues,
        tier,
        seed: 2009,
        contact_name_edits: 0,
    });
    let imported = s.import_shelters(examples);
    assert!(
        imported as f64 >= venues as f64 * 0.9,
        "{tier:?}: imported {imported} of {venues}"
    );
    s
}

#[test]
fn demo_on_clean_tier_single_example() {
    let mut s = run_demo(Tier::Clean, 16, 1);
    // Zip completion exists and is correct for every row.
    let suggs = s.engine.column_suggestions();
    let zip = suggs
        .iter()
        .find(|c| c.new_fields.iter().any(|f| f.name == "Zip"))
        .expect("zip completion");
    let correct = zip
        .values
        .iter()
        .enumerate()
        .filter(|(i, v)| v[0] == s.world.venue_zip(&s.world.venues[*i]))
        .count();
    assert_eq!(correct, 16);
}

#[test]
fn demo_on_noisy_tier_two_examples() {
    run_demo(Tier::Noisy, 16, 2);
}

#[test]
fn demo_on_nested_tier() {
    run_demo(Tier::Nested, 16, 2);
}

#[test]
fn demo_on_multipage_tier() {
    let s = run_demo(Tier::MultiPage, 24, 1);
    // All pages contributed.
    let rel = s.engine.catalog().relation("Shelters").expect("committed");
    assert_eq!(rel.len(), 24);
}

#[test]
fn geocode_accept_then_export_kml() {
    let mut s = run_demo(Tier::Clean, 12, 1);
    let geo = s
        .engine
        .column_suggestions()
        .iter()
        .position(|c| c.new_fields.iter().any(|f| f.name == "Lat"))
        .expect("geocoder completion");
    assert!(s.engine.accept_column(geo));
    let tab = s.engine.workspace().active();
    let lat = tab.columns.iter().position(|c| c.name == "Lat").unwrap();
    let lon = tab.columns.iter().position(|c| c.name == "Lon").unwrap();
    let (kml, count) = export::to_kml(tab, 0, lat, lon);
    assert_eq!(count, 12);
    assert!(kml.contains("<Placemark>"));
    // CSV, XML and JSON exports agree on row counts.
    assert_eq!(export::to_csv(tab).lines().count(), 13);
    assert_eq!(export::to_xml(tab).matches("<row>").count(), 12);
    let json = copycat::util::Json::parse(&export::to_json(tab)).unwrap();
    assert_eq!(json.as_array().unwrap().len(), 12);
}

#[test]
fn provenance_traces_feedback_to_the_query() {
    let mut s = run_demo(Tier::Clean, 10, 1);
    let zip = s
        .engine
        .column_suggestions()
        .iter()
        .position(|c| c.new_fields.iter().any(|f| f.name == "Zip"))
        .expect("zip completion");
    assert!(s.engine.accept_column(zip));
    let tab = s.engine.workspace().active();
    let e = explain::explain_row(tab, 0).expect("explained");
    assert!(e.queries.iter().any(|q| q.contains("zip_resolver")));
    assert!(e.sources.contains(&"Shelters".to_string()));
    assert!(e.sources.contains(&"zip_resolver".to_string()));
}

#[test]
fn rejected_completion_stays_demoted_across_requests() {
    let mut s = run_demo(Tier::Clean, 10, 1);
    let suggs = s.engine.column_suggestions();
    assert!(!suggs.is_empty());
    let first = suggs[0].clone();
    assert!(s.engine.reject_column(0));
    for _ in 0..3 {
        let again = s.engine.column_suggestions();
        assert!(again.iter().all(|c| c.edge != first.edge));
    }
}

#[test]
fn approximate_linkage_with_mangled_names() {
    let mut s = Scenario::build(&ScenarioConfig {
        venues: 15,
        tier: Tier::Clean,
        seed: 7,
        contact_name_edits: 1,
    });
    s.import_shelters(1);
    s.import_contacts();
    // Teach the matcher from three demonstrated matches and declare the
    // association.
    for i in 0..3 {
        let true_name = s.world.venues[s.contact_truth[i]].name.clone();
        let mangled = s.contact_rows[i][2].clone();
        s.engine.demonstrate_link(&true_name, &mangled, true);
    }
    s.engine.declare_link("Shelters", "Name", "Contacts", "Venue");
    s.engine.switch_tab(0);
    let suggs = s.engine.column_suggestions();
    let link = suggs
        .iter()
        .find(|c| c.new_fields.iter().any(|f| f.name == "Phone"))
        .expect("contact completion via record link");
    let linked = link
        .values
        .iter()
        .filter(|v| v.iter().any(|x| !x.is_empty()))
        .count();
    assert!(
        linked >= 8,
        "at least half the mangled names should link, got {linked}/15"
    );
}

#[test]
fn cross_source_tuple_discovers_join_query() {
    let mut s = Scenario::build(&ScenarioConfig {
        venues: 12,
        tier: Tier::Clean,
        seed: 2009,
        contact_name_edits: 0,
    });
    s.import_shelters(1);
    s.import_contacts();
    // The user has pasted a contact next to a shelter before, so the
    // Name–Venue association is known (§4.1's "known links").
    s.engine.declare_link("Shelters", "Name", "Contacts", "Venue");
    let street = s.shelter_rows[0][1].clone();
    let phone = s.contact_rows[0][1].clone();
    let queries = s
        .engine
        .discover_queries_for_tuple(&[street.as_str(), phone.as_str()], 3);
    assert!(!queries.is_empty());
    let top = &queries[0];
    assert!(top.plan.sources().contains(&"Shelters"));
    assert!(top.plan.sources().contains(&"Contacts"));
}
