//! The full Example-1 scenario: "take a list of shelters from a
//! television news Web site, combine it with the shelters' contact
//! information from a spreadsheet, and plot the shelters on a map."
//!
//! This walks every stage the paper narrates: import from a *noisy* Web
//! page with feedback on bogus suggestions, approximate record linking
//! against contacts whose venue names are abbreviated/typo'd, geocoding
//! through a simulated service, and a KML map export.
//!
//! Run with: `cargo run --example hurricane_mashup`

use copycat::core::export;
use copycat::core::scenario::{Scenario, ScenarioConfig};
use copycat::core::RowState;
use copycat::document::corpus::Tier;

fn main() {
    let mut s = Scenario::build(&ScenarioConfig {
        venues: 15,
        tier: Tier::Noisy,
        contact_name_edits: 2, // venue names in the contact sheet are mangled
        ..Default::default()
    });

    // --- Stage 1: import the shelter list from the noisy news page. ---
    // Two pasted examples; the noisy template needs more evidence than
    // the clean one ("the more complex the pages are, the more examples
    // may be necessary", §3.1).
    for row in s.shelter_rows.clone().iter().take(2) {
        let vals: Vec<&str> = row.iter().map(String::as_str).collect();
        s.engine.paste_example(s.shelters_doc, &vals);
    }
    // Reject any suggested row that is not a real shelter (ad rows). The
    // wrapper refines itself from this feedback.
    let truth = s.shelter_rows.clone();
    loop {
        let bogus = s
            .engine
            .workspace()
            .active()
            .rows
            .iter()
            .position(|r| r.state == RowState::Suggested && !truth.contains(&r.cells));
        match bogus {
            Some(i) => {
                println!("Rejecting bogus suggestion: {:?}", s.engine.workspace().active().rows[i].cells[0]);
                s.engine.reject_suggested_row(i);
            }
            None => break,
        }
    }
    s.engine.accept_suggested_rows();
    s.engine.name_column(0, "Name");
    let n = s.engine.commit_source("Shelters");
    println!("Imported {n} shelters (of {} true) from the noisy page.\n", truth.len());

    // --- Stage 2: contacts via approximate record linking. ---
    // The user demonstrates a couple of matches so CopyCat can learn the
    // best combination of linkage heuristics (Example 1).
    s.engine.start_import_tab("contacts");
    let c0: Vec<&str> = s.contact_rows[0].iter().map(String::as_str).collect();
    let contacts_doc = s.contacts_doc;
    s.engine.paste_example(contacts_doc, &c0);
    s.engine.accept_suggested_rows();
    s.engine.name_column(0, "Person");
    s.engine.name_column(2, "VenueRef");
    s.engine.commit_source("Contacts");
    // Demonstrated matches: true venue name vs its mangled form. These
    // train the matcher *and* declare the Name–VenueRef association.
    for i in 0..3.min(s.contact_rows.len()) {
        let true_name = &s.world.venues[s.contact_truth[i]].name;
        s.engine.demonstrate_link(true_name, &s.contact_rows[i][2], true);
    }
    s.engine.declare_link("Shelters", "Name", "Contacts", "VenueRef");
    println!("Demonstrated 3 record-link matches; matcher trained.\n");

    // --- Stage 3: geocode the shelters and accept contact columns. ---
    // Switch back to the shelters tab and ask for completions.
    {
        let engine = &mut s.engine;
        // Tab 0 is the shelters source.
        let ws_index = 0;
        assert!(workspace_switch(engine, ws_index));
    }
    let suggestions = s.engine.column_suggestions().to_vec();
    println!("Completions offered on the Shelters query:");
    for c in &suggestions {
        let names: Vec<&str> = c.new_fields.iter().map(|f| f.name.as_str()).collect();
        println!("  {:<45} adds {:?}", c.label, names);
    }
    let contact = suggestions
        .iter()
        .find(|c| c.new_fields.iter().any(|f| f.name == "Phone"))
        .expect("record-link completion brings the contact columns");
    let linked = contact
        .values
        .iter()
        .filter(|v| v.iter().any(|x| !x.is_empty()))
        .count();
    s.engine.accept_column(contact);
    println!(
        "\nAccepted the contact columns: {linked} of {} shelters linked.\n",
        s.shelter_rows.len()
    );

    let suggestions = s.engine.column_suggestions().to_vec();
    let geo = suggestions
        .iter()
        .find(|c| c.new_fields.iter().any(|f| f.name == "Lat"))
        .expect("geocoder completion");
    s.engine.accept_column(geo);
    println!("Accepted the geocoder columns.\n");

    // --- Stage 4: export the mashup. ---
    let tab = s.engine.workspace().active();
    let name_col = 0;
    let lat_col = tab.columns.iter().position(|c| c.name == "Lat").expect("lat");
    let lon_col = tab.columns.iter().position(|c| c.name == "Lon").expect("lon");
    let (kml, placemarks) = export::to_kml(tab, name_col, lat_col, lon_col);
    println!("KML export: {placemarks} placemarks, {} bytes.", kml.len());
    println!("First lines:\n{}", kml.lines().take(8).collect::<Vec<_>>().join("\n"));

    let json = export::to_json(tab);
    println!("\nJSON export: {} bytes (first object below).", json.len());
    println!(
        "{}",
        json.lines().take(10).collect::<Vec<_>>().join("\n")
    );
}

/// Switch the engine's workspace tab (helper: the workspace is only
/// exposed immutably; integration queries track the active tab).
fn workspace_switch(engine: &mut copycat::core::CopyCat, index: usize) -> bool {
    engine.switch_tab(index)
}
