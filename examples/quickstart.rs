//! Quickstart: the smallest useful CopyCat session.
//!
//! Builds the hurricane-relief scenario, imports the shelter Web site
//! from a single pasted example row, accepts the suggested Zip column,
//! and prints the workspace and a tuple explanation.
//!
//! Run with: `cargo run --example quickstart`

use copycat::core::explain;
use copycat::core::scenario::{Scenario, ScenarioConfig};

fn main() {
    // A seeded scenario: synthetic world, shelter site, contact sheet,
    // and an engine with simulated services registered.
    let mut s = Scenario::build(&ScenarioConfig { venues: 12, ..Default::default() });

    // The user pastes the first shelter row; CopyCat generalizes it to
    // the whole list (row auto-completion), proposes column types, and
    // the user commits the source.
    let imported = s.import_shelters(1);
    println!("Imported {imported} shelters from one pasted example.\n");

    // Integration mode: CopyCat offers column auto-completions from its
    // source graph. The zip resolver is the most promising.
    let suggestions = s.engine.column_suggestions();
    println!("Column auto-completions on offer:");
    for c in suggestions {
        let names: Vec<&str> = c.new_fields.iter().map(|f| f.name.as_str()).collect();
        println!("  {:<40} cost {:.2}  adds {:?}", c.label, c.cost, names);
    }

    let zip = suggestions
        .iter()
        .position(|c| c.new_fields.iter().any(|f| f.name == "Zip"))
        .expect("the zip resolver binds street+city");
    assert!(s.engine.accept_column(zip));

    println!("\nWorkspace after accepting the Zip column:\n");
    println!("{}", s.engine.render());

    // Every completed tuple is explained by its provenance.
    let tab = s.engine.workspace().active();
    let e = explain::explain_row(tab, 0).expect("row exists");
    println!("Explanation of row 0:\n{}", explain::render(&e));
}
