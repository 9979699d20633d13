//! Per-request deadlines with wall *and* virtual time.
//!
//! A request's budget starts at admission, so the wait for an execution
//! permit counts: a request that sat behind an overload misses its
//! deadline even if its handler would have been fast. Handlers check the
//! deadline at *operator boundaries* — permit acquired, after session
//! lookup, and after the engine operation — never mid-operator, so
//! session state is always a consistent prefix of the request's effects.
//!
//! Besides the wall clock, a deadline can be charged **virtual
//! latency**: [`copycat_services::Flaky`] accrues per-call latency as a
//! counter instead of sleeping, and the server charges the delta across
//! an engine operation to the request. This keeps deadline tests and
//! simulations deterministic — a flaky backend "spends" 100ms per call
//! without any thread ever sleeping — while production deployments feel
//! the same accounting through the wall clock.

use std::time::Instant;

/// A request budget. `None` budget = no deadline.
#[derive(Debug, Clone)]
pub struct Deadline {
    start: Instant,
    budget_us: Option<u64>,
    virtual_us: u64,
}

impl Deadline {
    /// A deadline starting now with the given budget.
    pub fn starting_now(budget_ms: Option<u64>) -> Deadline {
        Deadline {
            start: Instant::now(),
            budget_us: budget_ms.map(|ms| ms.saturating_mul(1_000)),
            virtual_us: 0,
        }
    }

    /// Charge virtual service latency (milliseconds) against the budget.
    pub fn charge_virtual_ms(&mut self, ms: u64) {
        self.virtual_us = self.virtual_us.saturating_add(ms.saturating_mul(1_000));
    }

    /// Wall time elapsed plus virtual time charged, in microseconds.
    pub fn spent_us(&self) -> u64 {
        (self.start.elapsed().as_micros() as u64).saturating_add(self.virtual_us)
    }

    /// Whether the budget is exhausted.
    pub fn expired(&self) -> bool {
        match self.budget_us {
            Some(budget) => self.spent_us() > budget,
            None => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_budget_never_expires() {
        let d = Deadline::starting_now(None);
        assert!(!d.expired());
    }

    #[test]
    fn virtual_charge_expires_without_sleeping() {
        let mut d = Deadline::starting_now(Some(50));
        assert!(!d.expired());
        d.charge_virtual_ms(49);
        // 49ms virtual + a few µs of wall time: still inside 50ms.
        assert!(!d.expired());
        d.charge_virtual_ms(2);
        assert!(d.expired(), "51ms virtual must exceed a 50ms budget");
    }

    #[test]
    fn wall_time_counts() {
        let d = Deadline::starting_now(Some(0));
        std::thread::sleep(std::time::Duration::from_millis(2));
        assert!(d.expired());
    }
}
