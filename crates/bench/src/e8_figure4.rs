//! E8 — Figure 4 reconstruction: build the running example's source
//! graph from live catalogs, report the discovered associations, and
//! execute the bolded query (Shelters → ZipCodes dependent join).

use copycat_core::scenario::{Scenario, ScenarioConfig};

/// The reconstructed artifacts.
#[derive(Debug, Clone)]
pub struct E8Result {
    /// The graph, rendered.
    pub graph: String,
    /// The chosen completion's query plan, rendered.
    pub plan: String,
    /// Number of result rows of the executed query.
    pub rows: usize,
    /// Fraction of zip values matching the world's ground truth.
    pub zip_accuracy: f64,
    /// A sample explanation of the first completed tuple.
    pub explanation: String,
}

/// Build and execute.
pub fn run() -> E8Result {
    let mut s = Scenario::build(&ScenarioConfig { venues: 15, ..Default::default() });
    s.import_shelters(1);
    let graph = s.engine.graph().to_string();
    let suggs = s.engine.column_suggestions();
    let pick = suggs
        .iter()
        .position(|c| c.new_fields.iter().any(|f| f.name == "Zip"))
        .expect("the zip completion exists");
    let zip = suggs[pick].clone();
    let plan = zip.plan.to_string();
    let correct = zip
        .values
        .iter()
        .enumerate()
        .filter(|(i, v)| v.first().map(String::as_str) == Some(s.world.venue_zip(&s.world.venues[*i])))
        .count();
    let zip_accuracy = correct as f64 / s.world.venues.len() as f64;
    s.engine.accept_column(pick);
    let tab = s.engine.workspace().active();
    let explanation = copycat_core::explain::explain_row(tab, 0)
        .map(|e| copycat_core::explain::render(&e))
        .unwrap_or_default();
    E8Result {
        graph,
        plan,
        rows: tab.committed_rows().len(),
        zip_accuracy,
        explanation,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure4_query_executes_correctly() {
        let r = run();
        assert!(r.graph.contains("zip_resolver"));
        assert!(r.plan.contains("zip_resolver"));
        assert_eq!(r.rows, 15);
        assert!((r.zip_accuracy - 1.0).abs() < 1e-9);
        assert!(r.explanation.contains("zip_resolver"));
    }
}
