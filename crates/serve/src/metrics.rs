//! The server's metrics registry: counters and latency histograms per
//! request class, aggregated once and read by the `stats` request.
//!
//! Everything is lock-free after construction — request threads record
//! with Release increments, the stats reader reconciles with Acquire
//! loads ([`copycat_util::hist::Histogram`] underneath), and the
//! snapshot walks the fixed [`Op::ALL`] table. The orderings matter
//! because the drain invariant (`responses <= total`, with equality at
//! quiescence) is checked by a reader on another thread: a request's
//! `total` increment and its outcome increment happen on the one thread
//! that runs the request, so the first is sequenced-before the second.
//! A snapshot that reads outcomes *first* and totals *second* (see
//! [`snapshot_json`](Metrics::snapshot_json)) therefore never observes a
//! response without its admission.
//!
//! Latency is recorded for
//! *executed* requests; `overloaded` rejections are counted but not
//! timed (they never ran), and `timeout` records the time actually
//! burned (wall + virtual) before the deadline fired, which is what an
//! operator staring at a p99 wants to see.

use crate::protocol::Op;
use copycat_util::hist::Histogram;
use copycat_util::json::Json;
use std::sync::atomic::{AtomicU64, Ordering};

/// Counters + latency histogram for one request class.
#[derive(Debug, Default)]
pub struct ClassMetrics {
    /// Requests admitted or rejected under this class.
    pub total: AtomicU64,
    /// Completed successfully.
    pub ok: AtomicU64,
    /// Completed with a typed error (bad_request, no_such_session, …).
    pub error: AtomicU64,
    /// Rejected at admission: queue full.
    pub overloaded: AtomicU64,
    /// Deadline exceeded (at any operator boundary).
    pub timeout: AtomicU64,
    /// Rejected during drain.
    pub shed: AtomicU64,
    /// Latency of executed requests (µs).
    pub latency: Histogram,
}

/// The registry: one [`ClassMetrics`] per [`Op`].
#[derive(Debug)]
pub struct Metrics {
    classes: Vec<ClassMetrics>,
}

impl Default for Metrics {
    fn default() -> Self {
        Self::new()
    }
}

impl Metrics {
    /// A zeroed registry.
    pub fn new() -> Metrics {
        Metrics {
            classes: Op::ALL.iter().map(|_| ClassMetrics::default()).collect(),
        }
    }

    /// The counters for one class.
    pub fn class(&self, op: Op) -> &ClassMetrics {
        &self.classes[op.index()]
    }

    /// Count an admission (or admission attempt). Release pairs with
    /// the Acquire in [`grand_total`](Metrics::grand_total).
    pub fn admitted(&self, op: Op) {
        self.class(op).total.fetch_add(1, Ordering::Release);
    }

    /// Count a success and record its latency. Outcome increments are
    /// Release so an Acquire reader that observes one also observes
    /// everything sequenced before it on the request's thread: the
    /// latency record and the admission increment.
    pub fn ok(&self, op: Op, us: u64) {
        let c = self.class(op);
        c.latency.record_us(us);
        c.ok.fetch_add(1, Ordering::Release);
    }

    /// Count a typed error and record its latency.
    pub fn error(&self, op: Op, us: u64) {
        let c = self.class(op);
        c.latency.record_us(us);
        c.error.fetch_add(1, Ordering::Release);
    }

    /// Count a deadline miss, recording the time burned before it fired.
    pub fn timeout(&self, op: Op, us: u64) {
        let c = self.class(op);
        c.latency.record_us(us);
        c.timeout.fetch_add(1, Ordering::Release);
    }

    /// Count a queue-full rejection (not timed — it never ran).
    pub fn overloaded(&self, op: Op) {
        self.class(op).overloaded.fetch_add(1, Ordering::Release);
    }

    /// Count a drain-time rejection.
    pub fn shed(&self, op: Op) {
        self.class(op).shed.fetch_add(1, Ordering::Release);
    }

    /// Total requests observed across every class.
    pub fn grand_total(&self) -> u64 {
        self.classes
            .iter()
            .map(|c| c.total.load(Ordering::Acquire))
            .sum()
    }

    /// Total responses produced across every class (every admitted
    /// request must end in exactly one of these buckets — the drain
    /// invariant the determinism test reconciles).
    pub fn grand_responses(&self) -> u64 {
        self.classes
            .iter()
            .map(|c| {
                c.ok.load(Ordering::Acquire)
                    + c.error.load(Ordering::Acquire)
                    + c.overloaded.load(Ordering::Acquire)
                    + c.timeout.load(Ordering::Acquire)
                    + c.shed.load(Ordering::Acquire)
            })
            .sum()
    }

    /// The `stats` payload: per-class counters + p50/p99, classes with
    /// zero traffic omitted.
    pub fn snapshot_json(&self) -> Json {
        // Read outcomes before totals: an outcome's Release increment
        // is sequenced-after its admission's on the request's thread,
        // so the later Acquire load of `total` sees every admission
        // behind an observed response — `responses <= total` holds even
        // while requests are racing the snapshot.
        let responses = self.grand_responses();
        let grand_total = self.grand_total();
        let mut classes = Vec::new();
        for op in Op::ALL {
            let c = self.class(op);
            let total = c.total.load(Ordering::Acquire);
            if total == 0 {
                continue;
            }
            let lat = c.latency.snapshot();
            classes.push((
                op.as_str().to_string(),
                Json::obj(vec![
                    ("total".into(), Json::Num(total as f64)),
                    ("ok".into(), Json::Num(c.ok.load(Ordering::Acquire) as f64)),
                    ("error".into(), Json::Num(c.error.load(Ordering::Acquire) as f64)),
                    (
                        "overloaded".into(),
                        Json::Num(c.overloaded.load(Ordering::Acquire) as f64),
                    ),
                    ("timeout".into(), Json::Num(c.timeout.load(Ordering::Acquire) as f64)),
                    ("shed".into(), Json::Num(c.shed.load(Ordering::Acquire) as f64)),
                    (
                        "latency".into(),
                        Json::obj(vec![
                            ("count".into(), Json::Num(lat.count as f64)),
                            (
                                "mean_us".into(),
                                Json::Num(lat.sum_us.checked_div(lat.count).unwrap_or(0) as f64),
                            ),
                            ("p50_us".into(), Json::Num(lat.p50_us as f64)),
                            ("p99_us".into(), Json::Num(lat.p99_us as f64)),
                            ("max_us".into(), Json::Num(lat.max_us as f64)),
                        ]),
                    ),
                ]),
            ));
        }
        Json::obj(vec![
            ("total".into(), Json::Num(grand_total as f64)),
            ("responses".into(), Json::Num(responses as f64)),
            ("classes".into(), Json::obj(classes)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_admission_reconciles_with_a_response() {
        let m = Metrics::new();
        m.admitted(Op::Ping);
        m.ok(Op::Ping, 5);
        m.admitted(Op::Autocomplete);
        m.timeout(Op::Autocomplete, 1000);
        m.admitted(Op::Autocomplete);
        m.overloaded(Op::Autocomplete);
        assert_eq!(m.grand_total(), 3);
        assert_eq!(m.grand_responses(), 3);
    }

    #[test]
    fn snapshot_omits_idle_classes() {
        let m = Metrics::new();
        m.admitted(Op::Export);
        m.ok(Op::Export, 42);
        let j = m.snapshot_json();
        assert!(j["classes"].get("export").is_some());
        assert!(j["classes"].get("ping").is_none());
        assert_eq!(j["classes"]["export"]["ok"].as_f64(), Some(1.0));
    }
}
