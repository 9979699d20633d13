//! The Tuple Explanation pane, headless (§2.1, §8): provenance-backed
//! explanations with alternative derivations, rendered as text and DOT.
//!
//! Run with: `cargo run --example explain_provenance`

use copycat::core::explain;
use copycat::provenance::{DerivationGraph, Provenance};
use copycat::query::{execute_reported, Catalog, Plan, Relation, Schema};

fn main() {
    // A small catalog: two shelter lists that overlap, plus a lookup.
    let catalog = Catalog::new();
    catalog.add_relation(Relation::from_strings(
        "NewsShelters",
        Schema::of(&["Name", "City"]),
        &[
            vec!["Creek HS".into(), "Margate".into()],
            vec!["Rec Ctr".into(), "Tamarac".into()],
        ],
    ));
    catalog.add_relation(Relation::from_strings(
        "CountyShelters",
        Schema::of(&["Name", "City"]),
        &[
            vec!["Creek HS".into(), "Margate".into()],
            vec!["Civic".into(), "Margate".into()],
        ],
    ));

    // Union + distinct: the shared tuple gets two alternative
    // derivations, one per source (⊕ in its provenance polynomial).
    let plan = Plan::Union {
        inputs: vec![Plan::scan("NewsShelters"), Plan::scan("CountyShelters")],
    }
    .distinct();
    let (result, _report) = execute_reported(&plan, &catalog, "Q-union").expect("executes");

    println!("Result of {plan}:");
    for t in result.tuples() {
        println!("  {:?}   provenance: {}", t.as_texts(), t.provenance);
    }

    // Explain the overlapping tuple.
    let shared = result
        .tuples()
        .iter()
        .find(|t| t.as_texts() == vec!["Creek HS", "Margate"])
        .expect("shared tuple");
    let e = explain::explain(&shared.provenance);
    println!("\n{}", explain::render(&e));
    assert_eq!(e.alternatives.len(), 2, "two alternative explanations");

    // The DOT rendering, ready for graphviz.
    let dot = DerivationGraph::from_provenance(&shared.provenance).render_dot();
    println!("DOT:\n{dot}");

    // And a manual polynomial showing a dependent join through a service.
    let dependent = Provenance::labeled(
        "Q-zip",
        Provenance::times(
            Provenance::base("Shelters", 0),
            Provenance::base("zip_resolver", 0),
        ),
    );
    println!(
        "Dependent-join derivation:\n{}",
        explain::render(&explain::explain(&dependent))
    );
}
