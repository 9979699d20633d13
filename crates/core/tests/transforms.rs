//! Integration and property tests for transform edges in the engine:
//! learned programs surface as column suggestions, MIRA rejection bans
//! them, and undo removes the edge entirely.

use copycat_core::{CopyCat, EditEffect, Scenario, ScenarioConfig};
use copycat_services::World;
use copycat_util::check::check;
use copycat_util::{prop_ensure, prop_ensure_eq};

/// Shelters + Contacts + the messy Directory, with a learned phone
/// transform bridging Contacts → Directory, focused on Contacts.
fn transform_scenario(venues: usize) -> Scenario {
    let mut s = Scenario::build(&ScenarioConfig { venues, ..Default::default() });
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
    s
}

fn transform_labels(engine: &mut CopyCat) -> Vec<String> {
    engine
        .column_suggestions()
        .iter()
        .filter(|c| c.label.starts_with("T:"))
        .map(|c| c.label.clone())
        .collect()
}

/// The learned edge ranks as a suggestion; rejecting it bans it: at the
/// same graph version it never reappears in top-k, however often the
/// ranking is recomputed.
#[test]
fn banned_transform_edge_never_reappears_at_same_graph_version() {
    check("banned-transform-edge-stays-banned", 6, &[], |g| {
        let venues = g.usize_in(6..14);
        let mut s = transform_scenario(venues);
        prop_ensure!(
            !transform_labels(&mut s.engine).is_empty(),
            "learned transform edge should rank as a suggestion"
        );
        let shown = s.engine.column_suggestions();
        let pick = shown
            .iter()
            .position(|c| c.label.starts_with("T:"))
            .expect("present per the check above");
        let banned = shown[pick].clone();
        s.engine.reject_column(pick);
        let version = s.engine.graph().version();
        // Recompute top-k several times: the ban must hold as long as
        // the graph does not change.
        for round in 0..3 {
            let labels = transform_labels(&mut s.engine);
            prop_ensure!(
                !labels.contains(&banned.label),
                "banned edge resurfaced in round {round}: {labels:?}"
            );
            prop_ensure_eq!(
                s.engine.graph().version(),
                version,
                "ranking recomputation must not mutate the graph"
            );
        }
        Ok(())
    });
}

/// Undo after learning removes the transform edge (not merely demotes
/// it) and bumps the graph version.
#[test]
fn undo_removes_learned_transform_edge_and_bumps_version() {
    let mut s = Scenario::build(&ScenarioConfig { venues: 8, ..Default::default() });
    s.import_shelters(1);
    s.import_directory();
    s.import_contacts();
    let before_edges = s.engine.graph().edge_count();
    let examples: Vec<(String, String)> = s
        .contact_rows
        .iter()
        .take(2)
        .map(|r| (r[1].clone(), World::directory_phone(&r[1])))
        .collect();
    s.engine
        .learn_transform("Contacts", "Phone", "Directory", "Phone", &examples)
        .expect("learnable");
    assert_eq!(s.engine.graph().edge_count(), before_edges + 1);
    assert_eq!(s.engine.list_transforms().len(), 1);
    let version_with_edge = s.engine.graph().version();

    assert!(s.engine.undo());
    assert_eq!(s.engine.graph().edge_count(), before_edges, "undo removes the edge");
    assert!(s.engine.list_transforms().is_empty());
    assert!(
        s.engine.graph().version() > version_with_edge,
        "undo bumps the graph version so cached rankings invalidate"
    );
}

/// The transform edge's derive-then-join plan actually answers: joining
/// Contacts to the Directory through the learned phone program recovers
/// the registration date for nearly every contact, while without the
/// transform the formats never match.
#[test]
fn transform_join_recovers_directory_values() {
    let mut s = transform_scenario(12);
    let sugg = s
        .engine
        .column_suggestions()
        .iter()
        .find(|c| c.label.starts_with("T:"))
        .expect("transform suggestion");
    let rows = sugg.values.len();
    let answered = sugg
        .values
        .iter()
        .filter(|vals| vals.iter().any(|v| !v.is_empty()))
        .count();
    assert!(rows > 0);
    assert!(
        answered as f64 >= 0.95 * rows as f64,
        "transform join answered {answered}/{rows} rows"
    );
}

/// Undo rolls back a derived column's program together with the column:
/// a later column that lands at the same index is not re-taught by the
/// undone program.
#[test]
fn undo_forgets_the_transform_column_it_removes() {
    let mut s = Scenario::build(&ScenarioConfig { venues: 8, ..Default::default() });
    s.import_shelters(1);
    let rows = s.engine.workspace().active().committed_rows();
    let shout = |r: usize| format!("{}!", rows[r][0]);
    let sugg = s.engine.suggest_transform(&[(0, &shout(0)), (1, &shout(1))]).expect("learnable");
    let col = s.engine.columns().len();
    s.engine.accept_transform("Shout", &sugg);
    assert!(s.engine.undo());
    assert_eq!(s.engine.columns().len(), col, "undo removes the column");
    let zip = s.engine.column_suggestions()[0].clone();
    assert!(zip.new_fields.iter().any(|f| f.name == "Zip"), "{}", zip.label);
    assert!(s.engine.accept_column(0));
    let column = |s: &Scenario| -> Vec<String> {
        s.engine.workspace().active().rows.iter().map(|r| r.cells[col].clone()).collect()
    };
    let zips = column(&s);
    assert_eq!(s.engine.edit_cell(2, col, &shout(2)), EditEffect::Local, "nothing to re-teach");
    let after = column(&s);
    assert!((0..zips.len()).filter(|&i| i != 2).all(|i| after[i] == zips[i]), "{after:?}");
}
