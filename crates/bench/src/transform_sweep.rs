//! T1 — the transform-synthesis sweep: integration completeness on the
//! messy-format world, with and without learned string transforms.
//!
//! The task: every contact row wants its registration date from the
//! county `Directory`, but the directory writes phones dashed
//! (`954-555-1234`) where the contacts sheet writes them parenthesized
//! (`(954) 555-1234`), and its venue names carry casing noise. Two
//! modes over identical scenarios:
//!
//! * `service-only` — the engine has its services and value-overlap
//!   association discovery, nothing else. No service understands the
//!   directory and equality joins stall on the format gap, so
//!   completeness collapses.
//! * `transform` — three example pairs teach the engine a phone
//!   reformatting program; the learned edge's derive-then-join plan
//!   bridges the gap.
//!
//! Latency is wall clock for the learn + suggest path only (the paper's
//! interactive loop), amortized over the contact rows it answers.

use copycat_core::scenario::{Scenario, ScenarioConfig};
use copycat_services::World;
use std::time::Instant;

/// One (venues, mode) cell of the sweep.
#[derive(Debug, Clone)]
pub struct TransformRow {
    /// Contact/venue count of the scenario.
    pub venues: usize,
    /// `service-only` or `transform`.
    pub mode: &'static str,
    /// Fraction of contact rows whose suggested registration date
    /// matches ground truth.
    pub completeness: f64,
    /// Wall-clock milliseconds to learn the program (0 without).
    pub learn_ms: f64,
    /// Wall-clock milliseconds for the suggestion round.
    pub suggest_ms: f64,
    /// `(learn_ms + suggest_ms) / venues` — the per-row price of the
    /// interactive transform loop.
    pub amortized_ms: f64,
    /// The learned program, rendered (empty without).
    pub program: String,
    /// Fraction of contact phones the program maps into the directory.
    pub coverage: f64,
}

fn one_cell(venues: usize, mode: &'static str) -> TransformRow {
    let mut s = Scenario::build(&ScenarioConfig { venues, ..Default::default() });
    s.import_shelters(1);
    s.import_directory();
    s.import_contacts();
    let expected: Vec<String> =
        s.world.directory_rows().iter().map(|r| r[2].clone()).collect();

    let mut program = String::new();
    let mut coverage = 0.0;
    let mut learn_ms = 0.0;
    if mode == "transform" {
        let examples: Vec<(String, String)> = s
            .contact_rows
            .iter()
            .take(3)
            .map(|r| (r[1].clone(), World::directory_phone(&r[1])))
            .collect();
        let t = Instant::now();
        let learned = s
            .engine
            .learn_transform("Contacts", "Phone", "Directory", "Phone", &examples)
            .expect("phone reformat is learnable");
        learn_ms = t.elapsed().as_secs_f64() * 1e3;
        program = learned.program.to_string();
        coverage = learned.coverage;
    }

    let t = Instant::now();
    let suggs = s.engine.column_suggestions();
    let suggest_ms = t.elapsed().as_secs_f64() * 1e3;

    // The best-ranked completion that brings the registration date in.
    let completeness = suggs
        .iter()
        .find_map(|c| {
            let reg = c.new_fields.iter().position(|f| f.name == "Registered")?;
            let correct = c
                .values
                .iter()
                .enumerate()
                .filter(|(i, vals)| vals.get(reg) == Some(&expected[*i]))
                .count();
            Some(correct as f64 / venues as f64)
        })
        .unwrap_or(0.0);

    TransformRow {
        venues,
        mode,
        completeness,
        learn_ms,
        suggest_ms,
        amortized_ms: (learn_ms + suggest_ms) / venues as f64,
        program,
        coverage,
    }
}

/// Run the sweep: both modes at every size.
pub fn run(sizes: &[usize]) -> Vec<TransformRow> {
    let mut out = Vec::new();
    for &venues in sizes {
        for mode in ["service-only", "transform"] {
            out.push(one_cell(venues, mode));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The acceptance contrast: transforms rescue the messy-format task.
    #[test]
    fn transforms_rescue_the_messy_format_task() {
        let rows = run(&[8]);
        assert_eq!(rows.len(), 2);
        let cell = |mode: &str| rows.iter().find(|r| r.mode == mode).unwrap().clone();
        let bare = cell("service-only");
        let learned = cell("transform");
        assert!(
            bare.completeness < 0.5,
            "service-only search should stall on the format gap: {bare:?}"
        );
        assert!(
            learned.completeness >= 0.95,
            "transform-enabled integration should near-complete: {learned:?}"
        );
        assert!(learned.coverage >= 0.95, "{learned:?}");
        assert!(!learned.program.is_empty());
        assert!(learned.learn_ms > 0.0);
    }
}
