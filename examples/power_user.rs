//! The §5 extensions in one session: transform-by-example columns,
//! cleaning mode vs. generalized edits, undo, Web forms as services,
//! replacement-source discovery, and session save/restore.
//!
//! Run with: `cargo run --example power_user`

use copycat::core::scenario::{Scenario, ScenarioConfig};
use copycat::core::{CopyCat, EditEffect, FormService};
use copycat::document::{Form, Website};
use copycat::query::{Field, Service, Value};
use copycat::semantic::{IoExample, TypeRegistry};
use std::sync::Arc;

fn main() {
    let mut s = Scenario::build(&ScenarioConfig { venues: 8, ..Default::default() });
    s.import_shelters(1);

    // --- Transform by example: a "Label" column from two typed cells ---
    let rows = s.engine.workspace().active().committed_rows();
    let ex0 = format!("{} ({})", rows[0][0], rows[0][2]);
    let ex1 = format!("{} ({})", rows[1][0], rows[1][2]);
    let sugg = s
        .engine
        .suggest_transform(&[(0, &ex0), (1, &ex1)])
        .expect("a label template is learnable");
    println!("Transform learned from 2 typed cells: {}", sugg.program);
    let label_col = s.engine.columns().len();
    s.engine.accept_transform("Label", &sugg);
    println!("  row 5 auto-filled: {:?}\n", s.engine.workspace().active().rows[5].cells[label_col]);

    // --- Cleaning mode: a one-off fix stays local ---
    s.engine.set_cleaning(true);
    let eff = s.engine.edit_cell(3, label_col, "OVERRIDE (manual)");
    assert_eq!(eff, EditEffect::Local);
    println!("Cleaning-mode edit stayed local: {:?}", eff);
    s.engine.set_cleaning(false);

    // --- Undo ---
    let before = s.engine.workspace().active().rows[3].cells[label_col].clone();
    assert_eq!(before, "OVERRIDE (manual)");
    s.engine.undo();
    let after = s.engine.workspace().active().rows[3].cells[label_col].clone();
    println!("Undo restored the cell: {:?} -> {:?}\n", before, after);

    // --- A Web form as a service ---
    let (site, form) = build_zip_form_site(&s);
    let v0 = &s.world.venues[0];
    let st0 = s.world.venue_street(v0);
    let svc = FormService::learn(
        "zip_form",
        Arc::clone(&site),
        form,
        &[&st0.address, &s.world.street_city(st0).name],
        &[&st0.zip],
        vec![Field::typed("street", "PR-Street"), Field::typed("city", "PR-City")],
        vec![Field::typed("Zip", "PR-Zip")],
        &TypeRegistry::with_builtins(),
    )
    .expect("one demonstrated lookup teaches the form");
    // Verify on an unseen lookup before registering.
    let v1 = &s.world.venues[1];
    let st1 = s.world.venue_street(v1);
    let ans = svc.call(&[
        Value::str(st1.address.clone()),
        Value::str(s.world.street_city(st1).name.clone()),
    ]);
    println!("Form service learned from 1 demonstration; unseen lookup -> {:?}", ans[0][0].as_text());
    s.engine.register_service(Arc::new(svc));

    // --- Replacement-source discovery ---
    let examples: Vec<IoExample> = s
        .world
        .venues
        .iter()
        .take(3)
        .map(|v| {
            let st = s.world.venue_street(v);
            IoExample {
                inputs: vec![st.address.clone(), s.world.street_city(st).name.clone()],
                outputs: vec![st.zip.clone()],
            }
        })
        .collect();
    println!("\nServices equivalent to the observed (street, city) -> zip mapping:");
    for d in s.engine.find_equivalent_services(&examples).iter().take(3) {
        println!(
            "  {:<28} similarity {:.2} coverage {:.2}",
            d.expression, d.similarity, d.coverage
        );
    }

    // --- Session save / restore ---
    let json = s.engine.save_session_json();
    println!("\nSaved session: {} bytes of JSON.", json.len());
    let restored = CopyCat::load_session_json(&json).expect("round trips");
    println!(
        "Restored: {} relations, {} graph nodes, {} saved wrappers, user types: {:?}",
        restored.catalog().relation_names().len(),
        restored.graph().node_count(),
        restored.saved_wrappers().len(),
        restored
            .registry()
            .user_types()
            .iter()
            .map(|t| t.name.as_str())
            .collect::<Vec<_>>()
    );
}

/// A form-driven zip lookup site consistent with the scenario's world.
fn build_zip_form_site(s: &Scenario) -> (Arc<Website>, Form) {
    let mut site = Website::new();
    site.add_html(
        "/",
        "<h1>Zip lookup</h1>\
         <form action=\"/zip\"><input name=\"street\"><input name=\"city\"></form>",
    );
    let form = Form { action: "/zip".into(), params: vec!["street".into(), "city".into()] };
    for street in &s.world.streets {
        let city = &s.world.cities[street.city].name;
        let url = form.submit(&[&street.address, city]);
        site.add_html(
            url.as_str(),
            &format!(
                "<h1>Result</h1><table><tr><th>Zip</th></tr><tr><td>{}</td></tr></table>",
                street.zip
            ),
        );
    }
    (Arc::new(site), form)
}
