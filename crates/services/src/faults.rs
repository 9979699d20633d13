//! Deterministic failure and latency injection.
//!
//! §3.2 motivates learning source descriptions so the system can "propose
//! replacement sources if a source is down, too slow, or does not provide
//! a complete set of results". [`Flaky`] wraps any service and makes it
//! exactly that kind of source, deterministically (failures are a pure
//! function of the inputs, the seed, and the per-input *attempt number*,
//! so tests and experiments are reproducible while retries still get a
//! fresh deterministic roll instead of failing forever).

use copycat_query::{CallOutcome, Service, ServiceError, Signature, Value};
use copycat_util::hash::FxHashMap;
use copycat_util::json::{FromJson, JsonError, JsonWriter, ToJson};
use copycat_util::zjson::ZRef;
use copycat_util::sync::Mutex;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// The portable runtime state of one [`Flaky`] wrapper — everything a
/// failure roll depends on beyond the construction-time config.
/// Restoring it into a freshly-built wrapper makes the next call roll
/// exactly what the pre-snapshot instance would have rolled, which is
/// what keeps a recovered session's failure schedule byte-identical.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SavedFlakyState {
    /// Calls observed.
    pub calls: u64,
    /// Failures injected.
    pub failures: u64,
    /// Virtual latency accrued (ms).
    pub virtual_latency_ms: u64,
    /// Per-input attempt counters, keyed by input hash, sorted by key.
    pub attempts: Vec<(u64, u64)>,
}

impl ToJson for SavedFlakyState {
    fn write_json(&self, w: &mut JsonWriter<'_>) {
        w.obj(|w| {
            w.field("calls", &self.calls);
            w.field("failures", &self.failures);
            w.field("virtual_latency_ms", &self.virtual_latency_ms);
            w.key("attempts");
            w.arr(|w| {
                for &(k, n) in &self.attempts {
                    w.arr(|w| {
                        w.str(hex16(k, &mut [0; 16]));
                        w.num(n as f64);
                    });
                }
            });
        });
    }
}

/// Attempt keys are full-width u64 hashes: above 2^53 a JSON number
/// would silently round, so they travel as 16 lowercase hex digits
/// (formatted into `buf`, not a heap string).
fn hex16(k: u64, buf: &mut [u8; 16]) -> &str {
    for (i, d) in buf.iter_mut().enumerate() {
        *d = b"0123456789abcdef"[((k >> (60 - 4 * i)) & 0xF) as usize];
    }
    std::str::from_utf8(buf).unwrap_or_default()
}

impl FromJson for SavedFlakyState {
    fn from_json(j: ZRef<'_>) -> Result<Self, JsonError> {
        let attempts_field = j.require("attempts")?;
        if !attempts_field.is_arr() {
            return Err(JsonError::expected("array", attempts_field));
        }
        let attempts = attempts_field
            .items()
            .map(|pair| {
                let key = pair
                    .at(0)
                    .as_str()
                    .ok_or_else(|| JsonError::new("attempt key must be a hex string"))?;
                let k = u64::from_str_radix(key, 16)
                    .map_err(|_| JsonError::new(format!("bad attempt key {key:?}")))?;
                Ok((k, u64::from_json(pair.at(1))?))
            })
            .collect::<Result<Vec<_>, JsonError>>()?;
        Ok(SavedFlakyState {
            calls: u64::from_json(j.require("calls")?)?,
            failures: u64::from_json(j.require("failures")?)?,
            virtual_latency_ms: u64::from_json(j.require("virtual_latency_ms")?)?,
            attempts,
        })
    }
}

/// A wrapper service that fails some calls and accrues virtual latency.
pub struct Flaky {
    inner: Arc<dyn Service>,
    /// Failure probability in `[0, 1]`.
    failure_rate: f64,
    /// Virtual latency per successful call (accumulated, not slept).
    latency_per_call: u64,
    seed: u64,
    calls: AtomicU64,
    failures: AtomicU64,
    virtual_latency: AtomicU64,
    /// How many times each distinct input tuple has been tried, keyed on
    /// the input hash. Mixed into the failure roll so an identical retry
    /// re-rolls deterministically instead of repeating the first outcome.
    attempts: Mutex<FxHashMap<u64, u64>>,
}

impl Flaky {
    /// Wrap `inner`, failing roughly `failure_rate` of calls.
    pub fn new(inner: Arc<dyn Service>, failure_rate: f64, latency_per_call: u64, seed: u64) -> Self {
        Self {
            inner,
            failure_rate: failure_rate.clamp(0.0, 1.0),
            latency_per_call,
            seed,
            calls: AtomicU64::new(0),
            failures: AtomicU64::new(0),
            virtual_latency: AtomicU64::new(0),
            attempts: Mutex::new(FxHashMap::default()),
        }
    }

    /// Calls observed so far.
    pub fn calls(&self) -> u64 {
        // relaxed: standalone stat counter; readers report it after the
        // calls they care about have quiesced, nothing reconciles it.
        self.calls.load(Ordering::Relaxed)
    }

    /// Failures injected so far.
    pub fn failures(&self) -> u64 {
        // relaxed: standalone stat counter, see `calls`.
        self.failures.load(Ordering::Relaxed)
    }

    /// Total virtual latency accrued (ms).
    pub fn virtual_latency_ms(&self) -> u64 {
        // relaxed: read for deadline charging under the session lock
        // that already serializes operator execution, or after quiesce.
        self.virtual_latency.load(Ordering::Relaxed)
    }

    /// The failure rate actually *observed* so far (failures / calls),
    /// or the configured rate when nothing has been called yet. This is
    /// what ranking should see: real flakiness, not the static estimate.
    pub fn observed_failure_rate(&self) -> f64 {
        let calls = self.calls();
        if calls == 0 {
            self.failure_rate
        } else {
            self.failures() as f64 / calls as f64
        }
    }

    /// Capture the roll-relevant runtime state (counters and per-input
    /// attempt numbers) for session persistence.
    pub fn saved_state(&self) -> SavedFlakyState {
        let mut attempts: Vec<(u64, u64)> =
            self.attempts.lock().iter().map(|(&k, &n)| (k, n)).collect();
        attempts.sort_unstable();
        SavedFlakyState {
            // relaxed: read at snapshot time under the session lock
            // that serializes operator execution.
            calls: self.calls.load(Ordering::Relaxed),
            failures: self.failures.load(Ordering::Relaxed), // relaxed: snapshot under session lock
            virtual_latency_ms: self.virtual_latency.load(Ordering::Relaxed), // relaxed: snapshot under session lock
            attempts,
        }
    }

    /// Overwrite the runtime state with a previously
    /// [`saved_state`](Flaky::saved_state) capture. The configuration
    /// (rate, latency, seed) is construction-time and must already
    /// match for the restored roll sequence to mean anything.
    pub fn restore_state(&self, saved: &SavedFlakyState) {
        // relaxed: restore happens before the session serves traffic.
        self.calls.store(saved.calls, Ordering::Relaxed);
        self.failures.store(saved.failures, Ordering::Relaxed);
        self.virtual_latency.store(saved.virtual_latency_ms, Ordering::Relaxed); // relaxed: pre-traffic restore
        let mut map = self.attempts.lock();
        map.clear();
        map.extend(saved.attempts.iter().copied());
    }

    fn input_hash(&self, inputs: &[Value]) -> u64 {
        let mut h = self.seed.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        for v in inputs {
            for b in v.as_text().bytes() {
                h = h.rotate_left(5) ^ u64::from(b);
                h = h.wrapping_mul(0x100_0000_01B3);
            }
        }
        h
    }

    /// Deterministic roll for this attempt. Returns `None` on success,
    /// or the failure hash (used to pick a failure mode) on failure.
    fn roll(&self, inputs: &[Value]) -> Option<u64> {
        if self.failure_rate <= 0.0 {
            return None;
        }
        let base = self.input_hash(inputs);
        // Mix in the attempt counter so a retried identical call gets a
        // fresh deterministic roll. First attempt (0) reproduces the
        // (seed, inputs)-only hash, so two fresh instances calling each
        // input once still agree (failures_are_deterministic_per_input).
        let attempt = {
            let mut map = self.attempts.lock();
            let n = map.entry(base).or_insert(0);
            let a = *n;
            *n += 1;
            a
        };
        let mut h = base;
        for _ in 0..attempt {
            h = h.rotate_left(29) ^ 0x9E37_79B9_7F4A_7C15;
            h = h.wrapping_mul(0x100_0000_01B3);
        }
        let fails = ((h >> 16) % 10_000) as f64 / 10_000.0 < self.failure_rate;
        fails.then_some(h)
    }

    /// Map a failure hash onto one of the three §3.2 failure modes:
    /// ~½ down, ~¼ too slow, ~¼ incomplete.
    fn failure_mode(&self, h: u64, inputs: &[Value]) -> ServiceError {
        let name = self.inner.name().to_string();
        match (h >> 40) % 4 {
            0 | 1 => ServiceError::Unavailable { service: name },
            2 => {
                // Too slow: the call *did* burn time (triple budget)
                // before being abandoned.
                let charged = self.latency_per_call.saturating_mul(3);
                // relaxed: accumulated charge, read under the session lock.
                self.virtual_latency.fetch_add(charged, Ordering::Relaxed);
                ServiceError::TooSlow { service: name, latency_ms: charged }
            }
            _ => {
                // Incomplete: drop the tail of the real answer.
                let mut partial = self.inner.call(inputs);
                partial.pop();
                ServiceError::Incomplete { service: name, partial }
            }
        }
    }
}

impl Service for Flaky {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn signature(&self) -> &Signature {
        self.inner.signature()
    }

    fn call(&self, inputs: &[Value]) -> Vec<Vec<Value>> {
        // Legacy untyped path: failures collapse to an empty answer.
        self.try_call(inputs).unwrap_or_default()
    }

    fn try_call(&self, inputs: &[Value]) -> CallOutcome {
        // relaxed: standalone stat counters (see the accessors above);
        // no reader reconciles them against each other mid-flight.
        self.calls.fetch_add(1, Ordering::Relaxed);
        if let Some(h) = self.roll(inputs) {
            // relaxed: standalone stat counter.
            self.failures.fetch_add(1, Ordering::Relaxed);
            return Err(self.failure_mode(h, inputs));
        }
        // relaxed: accumulated charge, read under the session lock.
        self.virtual_latency
            .fetch_add(self.latency_per_call, Ordering::Relaxed);
        Ok(self.inner.call(inputs))
    }

    fn cost(&self) -> f64 {
        // A slow, flaky source should look expensive to the source
        // graph — priced off *observed* flakiness once there is any
        // evidence, falling back to the configured estimate cold.
        self.inner.cost() * (1.0 + self.observed_failure_rate())
            + self.latency_per_call as f64 / 100.0
    }

    fn as_any(&self) -> Option<&dyn std::any::Any> {
        Some(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use copycat_query::{FnService, Schema};

    fn echo() -> Arc<dyn Service> {
        Arc::new(FnService::new(
            "echo",
            Signature { inputs: Schema::of(&["x"]), outputs: Schema::of(&["y"]) },
            |i: &[Value]| vec![i.to_vec()],
        ))
    }

    #[test]
    fn zero_rate_never_fails() {
        let f = Flaky::new(echo(), 0.0, 10, 1);
        for i in 0..50 {
            assert!(!f.call(&[Value::Num(i as f64)]).is_empty());
        }
        assert_eq!(f.failures(), 0);
        assert_eq!(f.virtual_latency_ms(), 500);
    }

    #[test]
    fn full_rate_always_fails() {
        let f = Flaky::new(echo(), 1.0, 10, 1);
        for i in 0..20 {
            assert!(f.call(&[Value::Num(i as f64)]).is_empty());
        }
        assert_eq!(f.failures(), 20);
    }

    #[test]
    fn failures_are_deterministic_per_input() {
        let f1 = Flaky::new(echo(), 0.5, 0, 7);
        let f2 = Flaky::new(echo(), 0.5, 0, 7);
        for i in 0..100 {
            let v = [Value::Num(i as f64)];
            assert_eq!(f1.call(&v).is_empty(), f2.call(&v).is_empty());
        }
        // Roughly half fail.
        let rate = f1.failures() as f64 / f1.calls() as f64;
        assert!((0.3..0.7).contains(&rate), "rate {rate}");
    }

    #[test]
    fn retries_reroll_deterministically() {
        // A retried identical call must NOT be doomed to repeat its
        // first outcome: at rate 0.5 some input that fails on attempt 0
        // must succeed on a later attempt, and the whole outcome
        // sequence must be identical across fresh instances.
        let f1 = Flaky::new(echo(), 0.5, 0, 7);
        let f2 = Flaky::new(echo(), 0.5, 0, 7);
        let mut recovered = 0;
        for i in 0..40 {
            let v = [Value::Num(i as f64)];
            let mut outcomes1 = Vec::new();
            let mut outcomes2 = Vec::new();
            for _ in 0..4 {
                outcomes1.push(f1.try_call(&v).is_ok());
                outcomes2.push(f2.try_call(&v).is_ok());
            }
            assert_eq!(outcomes1, outcomes2, "input {i}");
            if !outcomes1[0] && outcomes1.iter().any(|&ok| ok) {
                recovered += 1;
            }
        }
        assert!(recovered > 0, "no failed-then-recovered input in 40 tries");
    }

    #[test]
    fn typed_failures_cover_all_modes() {
        let f = Flaky::new(echo(), 1.0, 10, 3);
        let mut kinds = std::collections::BTreeSet::new();
        for i in 0..60 {
            match f.try_call(&[Value::Num(i as f64)]) {
                Ok(_) => panic!("rate 1.0 must always fail"),
                Err(e) => {
                    assert_eq!(e.service(), "echo");
                    kinds.insert(e.kind());
                }
            }
        }
        assert_eq!(
            kinds.into_iter().collect::<Vec<_>>(),
            vec!["incomplete", "too_slow", "unavailable"]
        );
    }

    #[test]
    fn observed_rate_tracks_reality() {
        let f = Flaky::new(echo(), 0.5, 0, 7);
        // Cold: falls back to the configured estimate.
        assert_eq!(f.observed_failure_rate(), 0.5);
        for i in 0..100 {
            f.call(&[Value::Num(i as f64)]);
        }
        let observed = f.observed_failure_rate();
        assert!((0.3..0.7).contains(&observed), "observed {observed}");
        assert_eq!(observed, f.failures() as f64 / f.calls() as f64);
        // A lucky zero-failure streak shows up as cheap cost.
        let healthy = Flaky::new(echo(), 0.9, 0, 1);
        // (rate 0.9 but never called: cost still uses the estimate)
        assert!(healthy.cost() > 1.5);
    }

    #[test]
    fn saved_state_restores_the_roll_sequence() {
        let f1 = Flaky::new(echo(), 0.5, 10, 7);
        // Burn in a history with repeated inputs so attempt counters
        // diverge from zero.
        for i in 0..30 {
            let _ = f1.try_call(&[Value::Num((i % 7) as f64)]);
        }
        let saved = f1.saved_state();
        assert!(saved.attempts.iter().any(|&(_, n)| n > 1), "no repeats recorded");
        // JSON round trip is exact (hash keys are full-width u64s).
        let back: SavedFlakyState =
            copycat_util::json::from_str(&copycat_util::json::to_string(&saved)).unwrap();
        assert_eq!(back, saved);
        // A fresh instance with the state restored continues the exact
        // roll sequence the original would have produced.
        let f2 = Flaky::new(echo(), 0.5, 10, 7);
        f2.restore_state(&back);
        for i in 0..30 {
            let v = [Value::Num((i % 7) as f64)];
            assert_eq!(f1.try_call(&v), f2.try_call(&v), "call {i}");
        }
        assert_eq!(f1.saved_state(), f2.saved_state());
    }

    #[test]
    fn cost_reflects_flakiness() {
        let healthy = Flaky::new(echo(), 0.0, 0, 1);
        let flaky = Flaky::new(echo(), 0.5, 200, 1);
        assert!(flaky.cost() > healthy.cost());
    }
}
