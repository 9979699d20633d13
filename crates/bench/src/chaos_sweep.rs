//! F1 — the fault-tolerance sweep: injected failure rate × resilience
//! mode, measuring answer completeness and virtual latency.
//!
//! Three modes per failure rate, all over the same seeded scenario:
//!
//! * `no-retry` — the zip resolver is wrapped in raw [`Flaky`]; a failed
//!   call simply loses its answer.
//! * `retry` — the flaky resolver sits behind [`Resilient`]'s bounded
//!   retry + circuit breaker; deterministic attempt rerolls recover most
//!   failures at the price of *virtual* backoff latency.
//! * `retry+failover` — additionally an equivalent replacement source
//!   (`zip_backup`, the same resolver under an alias) is registered, so
//!   a degraded or tripped primary is outranked by a healthy completion.
//!
//! Everything runs on virtual time: the latency column is accrued
//! counters (`Flaky::virtual_latency_ms` + breaker backoff), never wall
//! clock, so the numbers are machine-independent.

use copycat_core::scenario::{Scenario, ScenarioConfig};
use copycat_query::{Renamed, Service};
use copycat_services::{Flaky, RetryPolicy, ZipResolver};
use std::sync::Arc;

/// One (failure rate, mode) cell of the sweep.
#[derive(Debug, Clone)]
pub struct ChaosRow {
    /// Injected per-call failure probability.
    pub rate: f64,
    /// `no-retry`, `retry`, or `retry+failover`.
    pub mode: &'static str,
    /// Fraction of rows whose accepted zip matches ground truth.
    pub completeness: f64,
    /// Whether the accepted completion carried a degraded annotation.
    pub degraded: bool,
    /// Virtual milliseconds accrued (probe latency + retry backoff).
    pub virtual_ms: u64,
    /// Retry attempts beyond the first (0 outside retry modes).
    pub retries: u64,
    /// Circuit-breaker trips (0 outside retry modes).
    pub trips: u64,
}

const LATENCY_MS: u64 = 10;
const SEED: u64 = 42;
const VENUES: usize = 12;

fn one_cell(rate: f64, mode: &'static str) -> ChaosRow {
    let mut s = Scenario::build(&ScenarioConfig { venues: VENUES, ..Default::default() });
    s.import_shelters(1);
    let flaky = Arc::new(Flaky::new(
        Arc::new(ZipResolver::new(Arc::clone(&s.world))),
        rate,
        LATENCY_MS,
        SEED,
    ));
    // Re-registering under the same name replaces the healthy resolver
    // the scenario installed.
    match mode {
        "no-retry" => {
            s.engine.register_service(Arc::clone(&flaky) as Arc<dyn Service>);
        }
        "retry" => {
            s.engine
                .register_resilient(Arc::clone(&flaky) as Arc<dyn Service>, RetryPolicy::default());
        }
        "retry+failover" => {
            s.engine
                .register_resilient(Arc::clone(&flaky) as Arc<dyn Service>, RetryPolicy::default());
            s.engine.register_service(Arc::new(Renamed::new(
                "zip_backup",
                Arc::new(ZipResolver::new(Arc::clone(&s.world))),
            )));
        }
        other => unreachable!("unknown mode {other}"),
    }
    let suggs = s.engine.column_suggestions();
    let zip = suggs
        .iter()
        .find(|c| c.new_fields.iter().any(|f| f.name == "Zip"));
    let (completeness, degraded) = match zip {
        Some(z) => {
            let correct = z
                .values
                .iter()
                .enumerate()
                .filter(|(i, v)| {
                    v.first().map(String::as_str)
                        == Some(s.world.venue_zip(&s.world.venues[*i]))
                })
                .count();
            (correct as f64 / VENUES as f64, z.degraded.is_some())
        }
        // At 100% failure with no retry/failover the completion can
        // vanish entirely: zero completeness, trivially degraded.
        None => (0.0, true),
    };
    let virtual_ms = flaky.virtual_latency_ms() + s.engine.health().backoff_virtual_ms();
    ChaosRow {
        rate,
        mode,
        completeness,
        degraded,
        virtual_ms,
        retries: s.engine.health().total_retries(),
        trips: s.engine.health().total_trips(),
    }
}

/// Run the full sweep: every mode at every failure rate.
pub fn run(rates: &[f64]) -> Vec<ChaosRow> {
    let mut out = Vec::new();
    for &rate in rates {
        for mode in ["no-retry", "retry", "retry+failover"] {
            out.push(one_cell(rate, mode));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn failover_dominates_no_retry_under_faults() {
        let rows = run(&[0.0, 0.5, 1.0]);
        assert_eq!(rows.len(), 9);
        let cell = |rate: f64, mode: &str| {
            rows.iter()
                .find(|r| r.rate == rate && r.mode == mode)
                .unwrap()
                .clone()
        };
        // Healthy baseline: everything complete everywhere, no retries.
        for mode in ["no-retry", "retry", "retry+failover"] {
            let r = cell(0.0, mode);
            assert!((r.completeness - 1.0).abs() < 1e-9, "{r:?}");
            assert!(!r.degraded, "{r:?}");
        }
        // Hard down: failover keeps the answer whole, no-retry loses it.
        let dead = cell(1.0, "no-retry");
        assert!(dead.completeness < 1.0, "{dead:?}");
        let saved = cell(1.0, "retry+failover");
        assert!((saved.completeness - 1.0).abs() < 1e-9, "{saved:?}");
        assert!(!saved.degraded, "failover answer is the healthy alias: {saved:?}");
        assert!(saved.trips >= 1, "the dead primary must trip: {saved:?}");
        // Retries cost virtual latency, never less than the raw probe.
        let retry = cell(0.5, "retry");
        assert!(retry.retries > 0, "{retry:?}");
        assert!(retry.virtual_ms >= cell(0.5, "no-retry").virtual_ms, "{retry:?}");
        // Retry at 50% beats or matches no-retry on completeness.
        assert!(
            retry.completeness >= cell(0.5, "no-retry").completeness,
            "{retry:?}"
        );
    }
}
