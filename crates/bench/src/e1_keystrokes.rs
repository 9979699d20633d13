//! E1 — keystroke savings (§5): "query auto-completions … saved
//! approximately 75% of keystrokes compared to manual integration of
//! data by copy and paste."
//!
//! Five task families from the running scenario. The SCP side is driven
//! through the *actual engine* — suggestion errors are charged back as
//! manual corrections — while the manual side prices every cell as a
//! copy/paste (or a typed service lookup). Both sides share one
//! [`CostModel`].

use copycat_core::scenario::{Scenario, ScenarioConfig};
use copycat_core::simulator::{manual_log, ActionLog, ColumnOrigin, CostModel, TaskShape};
use copycat_core::RowState;
use copycat_document::corpus::Tier;

/// One task's costs.
#[derive(Debug, Clone)]
pub struct E1Row {
    /// Task name.
    pub task: String,
    /// Manual cost (keystroke-equivalents).
    pub manual: f64,
    /// SCP cost.
    pub scp: f64,
    /// Savings percentage.
    pub savings_pct: f64,
}

/// Run all five tasks. `venues` sets the table height.
pub fn run(venues: usize) -> Vec<E1Row> {
    let m = CostModel::default();
    let mut out = Vec::new();

    // ---- Task 1: import a clean shelter list (rows x 3 columns). ----
    {
        let mut s = Scenario::build(&ScenarioConfig { venues, ..Default::default() });
        let mut scp = ActionLog::default();
        // Paste one example row: three cell copy/pastes.
        let row0: Vec<&str> = s.shelter_rows[0].iter().map(String::as_str).collect();
        for _ in &row0 {
            scp.copy_paste_cell();
        }
        s.engine.paste_example(s.shelters_doc, &row0);
        scp.click(); // accept the suggested rows
        s.engine.accept_suggested_rows();
        charge_row_corrections(&mut scp, &mut s, venues);
        let manual = manual_log(&TaskShape { rows: venues, columns: vec![ColumnOrigin::Document; 3] });
        out.push(row("import clean list", &manual, &scp, &m));
    }

    // ---- Task 2: import from the noisy page (with rejections). ----
    {
        let mut s = Scenario::build(&ScenarioConfig {
            venues,
            tier: Tier::Noisy,
            ..Default::default()
        });
        let mut scp = ActionLog::default();
        for r in s.shelter_rows.clone().iter().take(2) {
            let vals: Vec<&str> = r.iter().map(String::as_str).collect();
            for _ in &vals {
                scp.copy_paste_cell();
            }
            s.engine.paste_example(s.shelters_doc, &vals);
        }
        // Reject bogus suggestions, one click each.
        let truth = s.shelter_rows.clone();
        for _ in 0..10 {
            let bogus = s
                .engine
                .workspace()
                .active()
                .rows
                .iter()
                .position(|r| r.state == RowState::Suggested && !truth.contains(&r.cells));
            match bogus {
                Some(i) => {
                    scp.click();
                    s.engine.reject_suggested_row(i);
                }
                None => break,
            }
        }
        scp.click();
        s.engine.accept_suggested_rows();
        charge_row_corrections(&mut scp, &mut s, venues);
        let manual = manual_log(&TaskShape { rows: venues, columns: vec![ColumnOrigin::Document; 3] });
        out.push(row("import noisy list", &manual, &scp, &m));
    }

    // ---- Tasks 3 & 4: zip column and geocode columns. ----
    for (task, field, outputs) in [("zip column", "Zip", 1usize), ("geocode columns", "Lat", 2)] {
        let mut s = Scenario::build(&ScenarioConfig { venues, ..Default::default() });
        s.import_shelters(1);
        let mut scp = ActionLog::default();
        let suggs = s.engine.column_suggestions();
        let sugg = suggs
            .iter()
            .enumerate()
            .find(|(_, c)| c.new_fields.iter().any(|f| f.name == field))
            .map(|(pick, c)| (pick, c.clone()));
        let lookup_lens: Vec<usize> = s
            .shelter_rows
            .iter()
            .map(|r| r[1].len() + r[2].len() + 2)
            .collect();
        match sugg {
            Some((pick, c)) => {
                scp.click(); // accept the completion
                // Missing values get a manual lookup each.
                for (i, v) in c.values.iter().enumerate() {
                    if v.iter().all(String::is_empty) {
                        scp.manual_service_lookup(lookup_lens[i]);
                    }
                }
                s.engine.accept_column(pick);
            }
            None => {
                for &len in &lookup_lens {
                    scp.manual_service_lookup(len);
                }
            }
        }
        let manual = manual_log(&TaskShape {
            rows: venues,
            columns: vec![ColumnOrigin::ServiceLookup(lookup_lens.clone())],
        });
        let _ = outputs; // one lookup fills all output columns either way
        out.push(row(task, &manual, &scp, &m));
    }

    // ---- Task 5: link the contacts spreadsheet (mangled names). ----
    {
        let mut s = Scenario::build(&ScenarioConfig {
            venues,
            contact_name_edits: 1,
            ..Default::default()
        });
        s.import_shelters(1);
        s.import_contacts();
        let mut scp = ActionLog::default();
        // Importing contacts itself: one pasted row + accept (3 cells).
        for _ in 0..3 {
            scp.copy_paste_cell();
        }
        scp.click();
        // Three demonstrated matches: each pastes a matching pair.
        for i in 0..3 {
            let true_name = s.world.venues[s.contact_truth[i]].name.clone();
            let mangled = s.contact_rows[i][2].clone();
            s.engine.demonstrate_link(&true_name, &mangled, true);
            scp.copy_paste_cell();
            scp.copy_paste_cell();
        }
        s.engine.declare_link("Shelters", "Name", "Contacts", "Venue");
        s.engine.switch_tab(0);
        let suggs = s.engine.column_suggestions();
        let link = suggs
            .iter()
            .enumerate()
            .find(|(_, c)| c.new_fields.iter().any(|f| f.name == "Phone"))
            .map(|(pick, c)| (pick, c.clone()));
        match link {
            Some((pick, c)) => {
                scp.click();
                // Unlinked rows: copy the two contact cells by hand.
                for v in &c.values {
                    if v.iter().all(String::is_empty) {
                        scp.copy_paste_cell();
                        scp.copy_paste_cell();
                    }
                }
                s.engine.accept_column(pick);
            }
            None => {
                for _ in 0..venues {
                    scp.copy_paste_cell();
                    scp.copy_paste_cell();
                }
            }
        }
        // Manual: import the sheet (3 cols) + find and copy 2 contact
        // cells per shelter.
        let mut manual = manual_log(&TaskShape {
            rows: venues,
            columns: vec![ColumnOrigin::Document; 3],
        });
        for _ in 0..venues {
            manual.copy_paste_cell();
            manual.copy_paste_cell();
        }
        out.push(row("link contacts", &manual, &scp, &m));
    }

    out
}

/// Compare the committed rows to the truth and charge corrections: a
/// manual copy/paste row for each missing truth row, one click per bogus
/// committed row (delete).
fn charge_row_corrections(scp: &mut ActionLog, s: &mut Scenario, venues: usize) {
    let committed = s.engine.workspace().active().committed_rows();
    let truth = &s.shelter_rows;
    for t in truth.iter().take(venues) {
        if !committed.contains(t) {
            for _ in 0..t.len() {
                scp.copy_paste_cell();
            }
        }
    }
    for c in &committed {
        if !truth.contains(c) {
            scp.click();
        }
    }
}

fn row(task: &str, manual: &ActionLog, scp: &ActionLog, m: &CostModel) -> E1Row {
    let manual_cost = manual.cost(m);
    let scp_cost = scp.cost(m);
    E1Row {
        task: task.to_string(),
        manual: manual_cost,
        scp: scp_cost,
        savings_pct: copycat_core::simulator::savings_pct(manual_cost, scp_cost),
    }
}

/// Mean savings across tasks.
pub fn mean_savings(rows: &[E1Row]) -> f64 {
    if rows.is_empty() {
        return 0.0;
    }
    rows.iter().map(|r| r.savings_pct).sum::<f64>() / rows.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn savings_are_in_the_karma_ballpark() {
        let rows = run(20);
        assert_eq!(rows.len(), 5);
        for r in &rows {
            assert!(
                r.savings_pct > 40.0,
                "{}: only {:.1}% saved (manual {:.0}, scp {:.0})",
                r.task,
                r.savings_pct,
                r.manual,
                r.scp
            );
        }
        let mean = mean_savings(&rows);
        assert!(
            (60.0..=95.0).contains(&mean),
            "mean savings {mean:.1}% outside the expected band"
        );
    }
}
