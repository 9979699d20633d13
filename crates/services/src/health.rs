//! Deterministic retry, backoff, and circuit breaking on virtual time.
//!
//! §3.2: the system should "propose replacement sources if a source is
//! down, too slow, or does not provide a complete set of results". This
//! module is the machinery that *notices*: a [`Resilient`] wrapper gives
//! every service a bounded retry policy with exponential backoff, and a
//! closed/open/half-open circuit breaker so a persistently failing
//! source stops being hammered and the engine can fail over to a
//! replacement instead.
//!
//! Everything here runs on a **virtual clock**: one tick per call
//! attempt, plus the backoff charged in virtual milliseconds. Nothing
//! sleeps and nothing reads wall time, so outcomes are a pure function
//! of the call sequence (reproducible tests, and clippy's
//! `Instant::now` ban needs no `#[expect]` here).

use crate::faults::{Flaky, SavedFlakyState};
use copycat_query::{CallOutcome, Service, ServiceError, Signature, Value};
use copycat_util::json::{FromJson, JsonError, JsonWriter, ToJson};
use copycat_util::zjson::ZRef;
use copycat_util::sync::Mutex;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Bounded-retry policy with exponential backoff.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetryPolicy {
    /// Total attempts per logical call (1 = no retry).
    pub max_attempts: u32,
    /// Backoff before retry `r` (1-based) is `base << (r-1)` ms…
    pub backoff_base_ms: u64,
    /// …clamped to this cap.
    pub backoff_cap_ms: u64,
    /// Consecutive failures that trip the breaker open.
    pub breaker_threshold: u32,
    /// Virtual ms the breaker stays open before a half-open probe.
    pub cooldown_ms: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        Self {
            max_attempts: 3,
            backoff_base_ms: 10,
            backoff_cap_ms: 200,
            breaker_threshold: 4,
            cooldown_ms: 400,
        }
    }
}

impl RetryPolicy {
    /// Virtual backoff before the given 1-based retry.
    pub fn backoff_ms(&self, retry: u32) -> u64 {
        let shifted = self
            .backoff_base_ms
            .checked_shl(retry.saturating_sub(1))
            .unwrap_or(self.backoff_cap_ms);
        shifted.min(self.backoff_cap_ms)
    }
}

/// Circuit breaker state (the classic three-state machine).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BreakerState {
    /// Healthy: calls flow through.
    Closed,
    /// Tripped: calls fast-fail `Unavailable` until the cooldown ends.
    Open,
    /// Cooldown elapsed: one probe call decides open vs closed.
    HalfOpen,
}

impl BreakerState {
    /// Wire/report name.
    pub fn as_str(self) -> &'static str {
        match self {
            BreakerState::Closed => "closed",
            BreakerState::Open => "open",
            BreakerState::HalfOpen => "half_open",
        }
    }

    /// Inverse of [`as_str`](BreakerState::as_str).
    pub fn parse(s: &str) -> Option<BreakerState> {
        match s {
            "closed" => Some(BreakerState::Closed),
            "open" => Some(BreakerState::Open),
            "half_open" => Some(BreakerState::HalfOpen),
            _ => None,
        }
    }
}

#[derive(Debug)]
struct Breaker {
    state: BreakerState,
    consecutive_failures: u32,
    /// Virtual clock reading when the breaker last opened.
    opened_at_ms: u64,
}

/// A point-in-time health snapshot of one [`Resilient`] service.
#[derive(Debug, Clone, PartialEq)]
pub struct HealthSnapshot {
    /// Service name.
    pub service: String,
    /// Breaker state at snapshot time.
    pub state: BreakerState,
    /// Logical calls (not attempts).
    pub calls: u64,
    /// Logical calls that exhausted every attempt.
    pub failures: u64,
    /// Individual retry attempts beyond the first.
    pub retries: u64,
    /// Times the breaker tripped open.
    pub trips: u64,
    /// Calls fast-failed while the breaker was open.
    pub short_circuits: u64,
    /// failures / calls (0 when never called).
    pub observed_failure_rate: f64,
    /// Virtual milliseconds accrued by backoff.
    pub backoff_virtual_ms: u64,
}

/// The portable runtime state of one [`Resilient`] wrapper: breaker
/// machine, virtual clock, and every counter — plus the wrapped
/// [`Flaky`] probe's state when the inner service is one. This is what
/// a session snapshot must carry so a restore does *not* silently
/// forget a tripped breaker (and re-route to a dead service).
#[derive(Debug, Clone, PartialEq)]
pub struct SavedServiceHealth {
    /// Service name (the restore key).
    pub service: String,
    /// Raw breaker state (not cooldown-resolved; the clock comes too).
    pub state: BreakerState,
    /// Consecutive terminal failures toward the trip threshold.
    pub consecutive_failures: u32,
    /// Virtual clock reading when the breaker last opened.
    pub opened_at_ms: u64,
    /// The virtual clock itself.
    pub clock_ms: u64,
    /// Logical calls.
    pub calls: u64,
    /// Exhausted logical calls.
    pub failures: u64,
    /// Retry attempts beyond the first.
    pub retries: u64,
    /// Breaker trips.
    pub trips: u64,
    /// Fast-fails while open.
    pub short_circuits: u64,
    /// Virtual ms accrued by backoff.
    pub backoff_ms: u64,
    /// The wrapped fault-injection probe's state, when the inner
    /// service is a [`Flaky`].
    pub flaky: Option<SavedFlakyState>,
}

impl ToJson for SavedServiceHealth {
    fn write_json(&self, w: &mut JsonWriter<'_>) {
        w.obj(|w| {
            w.field("service", &self.service);
            w.field("state", self.state.as_str());
            w.field("consecutive_failures", &self.consecutive_failures);
            w.field("opened_at_ms", &self.opened_at_ms);
            w.field("clock_ms", &self.clock_ms);
            w.field("calls", &self.calls);
            w.field("failures", &self.failures);
            w.field("retries", &self.retries);
            w.field("trips", &self.trips);
            w.field("short_circuits", &self.short_circuits);
            w.field("backoff_ms", &self.backoff_ms);
            w.field("flaky", &self.flaky);
        });
    }
}

impl FromJson for SavedServiceHealth {
    fn from_json(j: ZRef<'_>) -> Result<Self, JsonError> {
        let state_ref = j.require("state")?;
        let state_str = state_ref.as_str().ok_or_else(|| JsonError::expected("string", state_ref))?;
        let state = BreakerState::parse(state_str)
            .ok_or_else(|| JsonError::new(format!("unknown breaker state {state_str:?}")))?;
        Ok(SavedServiceHealth {
            service: String::from_json(j.require("service")?)?,
            state,
            consecutive_failures: u32::from_json(j.require("consecutive_failures")?)?,
            opened_at_ms: u64::from_json(j.require("opened_at_ms")?)?,
            clock_ms: u64::from_json(j.require("clock_ms")?)?,
            calls: u64::from_json(j.require("calls")?)?,
            failures: u64::from_json(j.require("failures")?)?,
            retries: u64::from_json(j.require("retries")?)?,
            trips: u64::from_json(j.require("trips")?)?,
            short_circuits: u64::from_json(j.require("short_circuits")?)?,
            backoff_ms: u64::from_json(j.require("backoff_ms")?)?,
            flaky: Option::from_json(j.require("flaky")?)?,
        })
    }
}

/// Wraps any service with deterministic retry + circuit breaking.
///
/// The wrapper keeps the inner service's name and signature — it *is*
/// that service as far as the catalog and the source graph care — but a
/// logical `try_call` may fan out into up to `max_attempts` inner
/// attempts, and trips the breaker after enough consecutive exhaustions.
pub struct Resilient {
    inner: Arc<dyn Service>,
    policy: RetryPolicy,
    breaker: Mutex<Breaker>,
    /// Virtual clock: ticks once per inner attempt, plus backoff ms.
    clock_ms: AtomicU64,
    calls: AtomicU64,
    failures: AtomicU64,
    retries: AtomicU64,
    trips: AtomicU64,
    short_circuits: AtomicU64,
    backoff_ms: AtomicU64,
}

impl Resilient {
    /// Wrap `inner` under `policy`.
    pub fn new(inner: Arc<dyn Service>, policy: RetryPolicy) -> Self {
        Self {
            inner,
            policy,
            breaker: Mutex::new(Breaker {
                state: BreakerState::Closed,
                consecutive_failures: 0,
                opened_at_ms: 0,
            }),
            clock_ms: AtomicU64::new(0),
            calls: AtomicU64::new(0),
            failures: AtomicU64::new(0),
            retries: AtomicU64::new(0),
            trips: AtomicU64::new(0),
            short_circuits: AtomicU64::new(0),
            backoff_ms: AtomicU64::new(0),
        }
    }

    /// The wrapped service.
    pub fn inner(&self) -> &Arc<dyn Service> {
        &self.inner
    }

    /// The active policy.
    pub fn policy(&self) -> &RetryPolicy {
        &self.policy
    }

    /// Current breaker state (resolving an elapsed cooldown to
    /// `HalfOpen` without consuming the probe).
    pub fn breaker_state(&self) -> BreakerState {
        let b = self.breaker.lock();
        match b.state {
            BreakerState::Open if self.now_ms() >= b.opened_at_ms + self.policy.cooldown_ms => {
                BreakerState::HalfOpen
            }
            s => s,
        }
    }

    /// True when the breaker is open (calls are being short-circuited).
    pub fn is_tripped(&self) -> bool {
        self.breaker_state() == BreakerState::Open
    }

    /// Virtual milliseconds accrued by backoff alone (the inner
    /// service's own virtual latency is tracked by the inner wrapper).
    pub fn backoff_virtual_ms(&self) -> u64 {
        // relaxed: standalone stat counter, read after quiesce or under
        // the session lock that serializes operator execution.
        self.backoff_ms.load(Ordering::Relaxed)
    }

    /// Health snapshot for reports and the serve `stats` surface.
    pub fn snapshot(&self) -> HealthSnapshot {
        // relaxed: standalone stat counters, read for reporting only.
        let calls = self.calls.load(Ordering::Relaxed);
        let failures = self.failures.load(Ordering::Relaxed);
        HealthSnapshot {
            service: self.inner.name().to_string(),
            state: self.breaker_state(),
            calls,
            failures,
            retries: self.retries.load(Ordering::Relaxed), // relaxed: reporting-only stat
            trips: self.trips.load(Ordering::Relaxed), // relaxed: reporting-only stat
            short_circuits: self.short_circuits.load(Ordering::Relaxed), // relaxed: reporting-only stat
            observed_failure_rate: if calls == 0 { 0.0 } else { failures as f64 / calls as f64 },
            backoff_virtual_ms: self.backoff_ms.load(Ordering::Relaxed), // relaxed: reporting-only stat
        }
    }

    /// Capture the full runtime state for session persistence (unlike
    /// [`snapshot`](Resilient::snapshot), which is a cooked report —
    /// this is the raw machine, restorable bit-for-bit).
    pub fn saved_health(&self) -> SavedServiceHealth {
        let b = self.breaker.lock();
        SavedServiceHealth {
            service: self.inner.name().to_string(),
            state: b.state,
            consecutive_failures: b.consecutive_failures,
            opened_at_ms: b.opened_at_ms,
            // relaxed: captured at snapshot time under the session lock
            // that serializes operator execution.
            clock_ms: self.clock_ms.load(Ordering::Relaxed),
            calls: self.calls.load(Ordering::Relaxed), // relaxed: snapshot under session lock
            failures: self.failures.load(Ordering::Relaxed), // relaxed: snapshot under session lock
            retries: self.retries.load(Ordering::Relaxed), // relaxed: snapshot under session lock
            trips: self.trips.load(Ordering::Relaxed), // relaxed: snapshot under session lock
            short_circuits: self.short_circuits.load(Ordering::Relaxed), // relaxed: snapshot under session lock
            backoff_ms: self.backoff_ms.load(Ordering::Relaxed), // relaxed: snapshot under session lock
            flaky: self
                .inner
                .as_any()
                .and_then(|a| a.downcast_ref::<Flaky>())
                .map(Flaky::saved_state),
        }
    }

    /// Restore a [`saved_health`](Resilient::saved_health) capture into
    /// this wrapper (and into the wrapped [`Flaky`], when both sides
    /// have one). A tripped breaker stays tripped, mid-cooldown, at the
    /// exact virtual-clock position it was saved at.
    pub fn restore_health(&self, saved: &SavedServiceHealth) {
        {
            let mut b = self.breaker.lock();
            b.state = saved.state;
            b.consecutive_failures = saved.consecutive_failures;
            b.opened_at_ms = saved.opened_at_ms;
        }
        // relaxed: restore happens before the session serves traffic.
        self.clock_ms.store(saved.clock_ms, Ordering::Relaxed);
        self.calls.store(saved.calls, Ordering::Relaxed);
        self.failures.store(saved.failures, Ordering::Relaxed); // relaxed: pre-traffic restore
        self.retries.store(saved.retries, Ordering::Relaxed); // relaxed: pre-traffic restore
        self.trips.store(saved.trips, Ordering::Relaxed); // relaxed: pre-traffic restore
        self.short_circuits.store(saved.short_circuits, Ordering::Relaxed); // relaxed: pre-traffic restore
        self.backoff_ms.store(saved.backoff_ms, Ordering::Relaxed); // relaxed: pre-traffic restore
        if let (Some(state), Some(flaky)) = (
            saved.flaky.as_ref(),
            self.inner.as_any().and_then(|a| a.downcast_ref::<Flaky>()),
        ) {
            flaky.restore_state(state);
        }
    }

    fn now_ms(&self) -> u64 {
        // relaxed: the virtual clock is advanced under the breaker lock
        // or by the caller's own attempt; readers tolerate slight skew.
        self.clock_ms.load(Ordering::Relaxed)
    }

    fn tick(&self, ms: u64) {
        // relaxed: monotone accumulator, see `now_ms`.
        self.clock_ms.fetch_add(ms, Ordering::Relaxed);
    }

    /// Record a terminal (post-retry) outcome in the breaker.
    fn record(&self, ok: bool) {
        let mut b = self.breaker.lock();
        if ok {
            b.consecutive_failures = 0;
            b.state = BreakerState::Closed;
            return;
        }
        b.consecutive_failures += 1;
        let threshold = self.policy.breaker_threshold.max(1);
        let was_half_open = b.state == BreakerState::Open
            && self.now_ms() >= b.opened_at_ms + self.policy.cooldown_ms;
        if b.consecutive_failures >= threshold || was_half_open {
            if b.state != BreakerState::Open || was_half_open {
                // relaxed: standalone stat counter.
                self.trips.fetch_add(1, Ordering::Relaxed);
            }
            b.state = BreakerState::Open;
            b.opened_at_ms = self.now_ms();
        }
    }
}

impl Service for Resilient {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn signature(&self) -> &Signature {
        self.inner.signature()
    }

    fn call(&self, inputs: &[Value]) -> Vec<Vec<Value>> {
        self.try_call(inputs).unwrap_or_default()
    }

    fn try_call(&self, inputs: &[Value]) -> CallOutcome {
        // relaxed: standalone stat counter.
        self.calls.fetch_add(1, Ordering::Relaxed);

        // Breaker gate: open + cooldown not elapsed → fast-fail without
        // touching the inner service. An elapsed cooldown lets exactly
        // this call through as the half-open probe.
        let state = self.breaker_state();
        if state == BreakerState::Open {
            // relaxed: standalone stat counters.
            self.short_circuits.fetch_add(1, Ordering::Relaxed);
            self.failures.fetch_add(1, Ordering::Relaxed);
            self.tick(1); // even a fast-fail advances the clock
            return Err(ServiceError::Unavailable {
                service: self.inner.name().to_string(),
            });
        }
        let probing = state == BreakerState::HalfOpen;
        // A half-open probe gets one attempt — no retries while probing.
        let attempts = if probing { 1 } else { self.policy.max_attempts.max(1) };

        let mut last_err: Option<ServiceError> = None;
        for attempt in 0..attempts {
            if attempt > 0 {
                let backoff = self.policy.backoff_ms(attempt);
                // relaxed: standalone stat counters.
                self.retries.fetch_add(1, Ordering::Relaxed);
                self.backoff_ms.fetch_add(backoff, Ordering::Relaxed);
                self.tick(backoff);
            }
            self.tick(1);
            match self.inner.try_call(inputs) {
                Ok(rows) => {
                    self.record(true);
                    return Ok(rows);
                }
                Err(e) => last_err = Some(e),
            }
        }
        // relaxed: standalone stat counter.
        self.failures.fetch_add(1, Ordering::Relaxed);
        self.record(false);
        Err(last_err.unwrap_or(ServiceError::Unavailable {
            service: self.inner.name().to_string(),
        }))
    }

    fn cost(&self) -> f64 {
        // Price in observed flakiness: a service that keeps exhausting
        // retries should look expensive to ranking.
        let snap = self.snapshot();
        self.inner.cost() * (1.0 + snap.observed_failure_rate)
    }
}

/// All [`Resilient`] services one engine session knows about, so health
/// can be inspected (and failover decided) in one place.
#[derive(Default)]
pub struct HealthRegistry {
    services: Mutex<Vec<Arc<Resilient>>>,
}

impl HealthRegistry {
    /// Empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Track a resilient service.
    pub fn register(&self, svc: Arc<Resilient>) {
        self.services.lock().push(svc);
    }

    /// Number of tracked services.
    pub fn len(&self) -> usize {
        self.services.lock().len()
    }

    /// True when nothing is tracked.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Snapshot every tracked service, registration order.
    pub fn snapshots(&self) -> Vec<HealthSnapshot> {
        self.services.lock().iter().map(|s| s.snapshot()).collect()
    }

    /// Names of services whose breaker is currently open.
    pub fn tripped_services(&self) -> Vec<String> {
        self.services
            .lock()
            .iter()
            .filter(|s| s.is_tripped())
            .map(|s| s.name().to_string())
            .collect()
    }

    /// The tracked wrapper for `name`, if any.
    pub fn get(&self, name: &str) -> Option<Arc<Resilient>> {
        self.services
            .lock()
            .iter()
            .find(|s| s.name() == name)
            .cloned()
    }

    /// Total virtual milliseconds accrued by retry backoff across all
    /// tracked services (charged against serve deadlines).
    pub fn backoff_virtual_ms(&self) -> u64 {
        self.services
            .lock()
            .iter()
            .map(|s| s.backoff_virtual_ms())
            .sum()
    }

    /// Sum of retry attempts across tracked services.
    pub fn total_retries(&self) -> u64 {
        self.snapshots().iter().map(|s| s.retries).sum()
    }

    /// Sum of breaker trips across tracked services.
    pub fn total_trips(&self) -> u64 {
        self.snapshots().iter().map(|s| s.trips).sum()
    }

    /// Capture every tracked service's raw state, registration order
    /// (the piece of a session snapshot this registry owns).
    pub fn saved(&self) -> Vec<SavedServiceHealth> {
        self.services.lock().iter().map(|s| s.saved_health()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faults::Flaky;
    use copycat_query::{FnService, Schema};

    fn echo() -> Arc<dyn Service> {
        Arc::new(FnService::new(
            "echo",
            Signature { inputs: Schema::of(&["x"]), outputs: Schema::of(&["y"]) },
            |i: &[Value]| vec![i.to_vec()],
        ))
    }

    fn flaky(rate: f64, seed: u64) -> Arc<dyn Service> {
        Arc::new(Flaky::new(echo(), rate, 10, seed))
    }

    #[test]
    fn backoff_is_exponential_and_capped() {
        let p = RetryPolicy { backoff_base_ms: 10, backoff_cap_ms: 65, ..RetryPolicy::default() };
        assert_eq!(p.backoff_ms(1), 10);
        assert_eq!(p.backoff_ms(2), 20);
        assert_eq!(p.backoff_ms(3), 40);
        assert_eq!(p.backoff_ms(4), 65); // capped
        assert_eq!(p.backoff_ms(63), 65);
        assert_eq!(p.backoff_ms(90), 65); // shift overflow → cap
    }

    #[test]
    fn healthy_service_passes_through() {
        let r = Resilient::new(echo(), RetryPolicy::default());
        let out = r.try_call(&[Value::str("hi")]).unwrap();
        assert_eq!(out, vec![vec![Value::str("hi")]]);
        let snap = r.snapshot();
        assert_eq!(snap.calls, 1);
        assert_eq!(snap.failures, 0);
        assert_eq!(snap.retries, 0);
        assert_eq!(snap.state, BreakerState::Closed);
    }

    #[test]
    fn retries_recover_flaky_calls() {
        // Moderate rate: with 3 attempts, nearly every logical call
        // should succeed, and the retry counter shows work happened.
        let r = Resilient::new(flaky(0.4, 11), RetryPolicy::default());
        let mut ok = 0;
        for i in 0..50 {
            if r.try_call(&[Value::Num(i as f64)]).is_ok() {
                ok += 1;
            }
        }
        let snap = r.snapshot();
        assert!(ok >= 45, "only {ok}/50 recovered");
        assert!(snap.retries > 0, "no retries recorded");
        assert!(snap.backoff_virtual_ms > 0, "no backoff charged");
    }

    #[test]
    fn retry_outcomes_are_deterministic() {
        let mk = || Resilient::new(flaky(0.5, 9), RetryPolicy::default());
        let r1 = mk();
        let r2 = mk();
        for i in 0..60 {
            let v = [Value::Num(i as f64)];
            assert_eq!(r1.try_call(&v), r2.try_call(&v), "input {i}");
        }
        assert_eq!(r1.snapshot(), r2.snapshot());
    }

    #[test]
    fn breaker_trips_then_recovers_via_half_open() {
        let policy = RetryPolicy {
            max_attempts: 1,
            breaker_threshold: 3,
            cooldown_ms: 50,
            ..RetryPolicy::default()
        };
        let r = Resilient::new(flaky(1.0, 5), RetryPolicy { ..policy });
        // Three exhausted calls trip it open.
        for i in 0..3 {
            assert!(r.try_call(&[Value::Num(i as f64)]).is_err());
        }
        assert_eq!(r.breaker_state(), BreakerState::Open);
        assert_eq!(r.snapshot().trips, 1);
        // While open, calls fast-fail as Unavailable without touching
        // the inner service.
        let inner_calls_before = r.snapshot().calls;
        let err = r.try_call(&[Value::Num(99.0)]).unwrap_err();
        assert_eq!(err.kind(), "unavailable");
        assert_eq!(r.snapshot().short_circuits, 1);
        assert_eq!(r.snapshot().calls, inner_calls_before + 1);
        // Advance the virtual clock to the cooldown boundary: fast-fails
        // tick 1ms each, so step until the half-open window opens.
        let mut guard = 0;
        while r.breaker_state() != BreakerState::HalfOpen {
            let _ = r.try_call(&[Value::Num(1000.0 + guard as f64)]);
            guard += 1;
            assert!(guard < 200, "never reached half-open");
        }
        // Probe against a now-healthy inner? Our inner is rate-1.0, so
        // the probe fails and the breaker re-opens (another trip).
        let _ = r.try_call(&[Value::Num(7.0)]);
        assert_eq!(r.breaker_state(), BreakerState::Open);
        assert!(r.snapshot().trips >= 2);
    }

    #[test]
    fn half_open_probe_success_closes() {
        // Inner fails exactly the first `threshold` inputs then heals:
        // emulate with a mutable gate via input value.
        let sig = Signature { inputs: Schema::of(&["x"]), outputs: Schema::of(&["y"]) };
        struct Gated {
            sig: Signature,
        }
        impl Service for Gated {
            fn name(&self) -> &str {
                "gated"
            }
            fn signature(&self) -> &Signature {
                &self.sig
            }
            fn call(&self, inputs: &[Value]) -> Vec<Vec<Value>> {
                self.try_call(inputs).unwrap_or_default()
            }
            fn try_call(&self, inputs: &[Value]) -> CallOutcome {
                if inputs[0].as_text() == "down" {
                    Err(ServiceError::Unavailable { service: "gated".into() })
                } else {
                    Ok(vec![inputs.to_vec()])
                }
            }
        }
        let policy = RetryPolicy {
            max_attempts: 1,
            breaker_threshold: 2,
            cooldown_ms: 3,
            ..RetryPolicy::default()
        };
        let r = Resilient::new(Arc::new(Gated { sig }), policy);
        assert!(r.try_call(&[Value::str("down")]).is_err());
        assert!(r.try_call(&[Value::str("down")]).is_err());
        assert_eq!(r.breaker_state(), BreakerState::Open);
        // Tick past cooldown via short-circuited calls.
        let _ = r.try_call(&[Value::str("up")]);
        let _ = r.try_call(&[Value::str("up")]);
        let _ = r.try_call(&[Value::str("up")]);
        assert_eq!(r.breaker_state(), BreakerState::HalfOpen);
        // Healthy probe closes the breaker.
        assert!(r.try_call(&[Value::str("up")]).is_ok());
        assert_eq!(r.breaker_state(), BreakerState::Closed);
        // And normal service resumes.
        assert!(r.try_call(&[Value::str("up")]).is_ok());
    }

    #[test]
    fn saved_health_restores_a_tripped_breaker_exactly() {
        let policy = RetryPolicy {
            max_attempts: 2,
            breaker_threshold: 2,
            cooldown_ms: 500,
            ..RetryPolicy::default()
        };
        let mk = || Resilient::new(flaky(1.0, 5), policy);
        let r1 = mk();
        // Trip it and burn a couple of short-circuits.
        for i in 0..4 {
            assert!(r1.try_call(&[Value::Num(i as f64)]).is_err());
        }
        assert_eq!(r1.breaker_state(), BreakerState::Open);
        let saved = r1.saved_health();
        assert!(saved.flaky.is_some(), "wrapped Flaky state captured");
        // JSON round trip is exact.
        let back: SavedServiceHealth =
            copycat_util::json::from_str(&copycat_util::json::to_string(&saved)).unwrap();
        assert_eq!(back, saved);
        // A fresh wrapper with the state restored: still tripped, and
        // every subsequent outcome (short-circuits, half-open probe
        // timing, rolls) matches the uninterrupted original.
        let r2 = mk();
        assert_eq!(r2.breaker_state(), BreakerState::Closed);
        r2.restore_health(&back);
        assert_eq!(r2.breaker_state(), BreakerState::Open, "restore forgot the trip");
        for i in 0..600 {
            let v = [Value::Num((100 + i) as f64)];
            assert_eq!(r1.try_call(&v), r2.try_call(&v), "call {i}");
            assert_eq!(r1.breaker_state(), r2.breaker_state(), "state after call {i}");
        }
        assert_eq!(r1.saved_health(), r2.saved_health());
    }

    #[test]
    fn registry_surfaces_tripped_services() {
        let reg = HealthRegistry::new();
        let bad = Arc::new(Resilient::new(
            flaky(1.0, 2),
            RetryPolicy { max_attempts: 1, breaker_threshold: 2, ..RetryPolicy::default() },
        ));
        let good = Arc::new(Resilient::new(echo(), RetryPolicy::default()));
        reg.register(bad.clone());
        reg.register(good.clone());
        assert_eq!(reg.len(), 2);
        assert!(reg.tripped_services().is_empty());
        for i in 0..3 {
            let _ = bad.try_call(&[Value::Num(i as f64)]);
        }
        let _ = good.try_call(&[Value::str("x")]);
        assert_eq!(reg.tripped_services(), vec!["echo".to_string()]);
        let snaps = reg.snapshots();
        assert_eq!(snaps.len(), 2);
        assert_eq!(snaps[0].state, BreakerState::Open);
        assert_eq!(snaps[1].state, BreakerState::Closed);
        assert!(reg.get("echo").is_some());
        assert!(reg.get("nope").is_none());
        assert_eq!(reg.total_trips(), 1);
    }
}
