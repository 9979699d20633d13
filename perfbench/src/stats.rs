//! Samples, percentiles and per-phase traffic accounting.

use copycat_serve::protocol::Op;
use std::collections::BTreeMap;
use std::time::Duration;

/// Nearest-rank percentile of an ascending slice (0 when empty).
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of unsorted values.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    percentile(&v, 0.5)
}

/// Phases of a run, for the traffic check.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Phase {
    /// Server start, resident sessions, warm-up pass.
    Setup,
    /// The measured loop.
    Timed,
    /// Crash, recovery, and the post-recovery probes.
    Recover,
    /// The traced run's per-layer probes.
    Probe,
}

impl Phase {
    /// Name in the results file.
    pub fn as_str(self) -> &'static str {
        match self {
            Phase::Setup => "setup",
            Phase::Timed => "timed",
            Phase::Recover => "recover",
            Phase::Probe => "probe",
        }
    }
}

/// Requests sent, succeeded and failed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    /// Requests sent.
    pub sent: u64,
    /// Answered `ok:true` and passed every check.
    pub ok: u64,
    /// Transport error, timeout, `ok:false`, or a check mismatch.
    pub failed: u64,
}

/// What one client observed.
#[derive(Debug, Default)]
pub struct Recorder {
    /// Timed-phase latencies in µs, by request class.
    pub latency_us: BTreeMap<&'static str, Vec<f64>>,
    /// Traffic per (phase, class).
    pub tally: BTreeMap<(Phase, &'static str), Tally>,
    /// Time the generator spent producing request lines.
    pub gen_time: Duration,
    /// Lines generated.
    pub generated: u64,
    /// The first few failure descriptions.
    pub failures: Vec<String>,
    /// Wall time of the timed phase.
    pub timed_wall: Duration,
    /// CPU seconds the server's host process used in the timed phase.
    pub cpu_s: f64,
    /// Timed-phase reference repetitions, µs each.
    pub reference_us: Vec<f64>,
    /// Time the reference bursts took.
    pub reference_time: Duration,
}

const KEPT_FAILURES: usize = 8;

impl Recorder {
    /// Count one request; `latency` is kept only for timed requests.
    pub fn record(&mut self, phase: Phase, op: Op, latency: Option<Duration>, ok: bool) {
        let t = self.tally.entry((phase, op.as_str())).or_default();
        t.sent += 1;
        if ok {
            t.ok += 1;
        } else {
            t.failed += 1;
        }
        if let (Phase::Timed, Some(l)) = (phase, latency) {
            self.latency_us
                .entry(op.as_str())
                .or_default()
                .push(l.as_secs_f64() * 1e6);
        }
    }

    /// A failure not tied to one request (a correctness check).
    pub fn fail(&mut self, phase: Phase, op: Op, why: String) {
        let t = self.tally.entry((phase, op.as_str())).or_default();
        t.failed += 1;
        self.note(why);
    }

    /// Keep a failure description.
    pub fn note(&mut self, why: String) {
        if self.failures.len() < KEPT_FAILURES {
            self.failures.push(why);
        }
    }

    /// Fold another client's observations in.
    pub fn merge(&mut self, other: Recorder) {
        for (k, v) in other.latency_us {
            self.latency_us.entry(k).or_default().extend(v);
        }
        for (k, t) in other.tally {
            let e = self.tally.entry(k).or_default();
            e.sent += t.sent;
            e.ok += t.ok;
            e.failed += t.failed;
        }
        self.gen_time += other.gen_time;
        self.generated += other.generated;
        for f in other.failures {
            self.note(f);
        }
        self.timed_wall += other.timed_wall;
        self.cpu_s += other.cpu_s;
        self.reference_us.extend(other.reference_us);
        self.reference_time += other.reference_time;
    }

    /// Requests attempted and failed over every phase. A failed check
    /// counts as an attempt even when it was not a request of its own.
    pub fn attempted_failed(&self) -> (u64, u64) {
        self.tally.values().fold((0, 0), |(a, f), t| {
            (a + t.sent.max(t.ok + t.failed), f + t.failed)
        })
    }

    /// Timed requests completed.
    pub fn timed_requests(&self) -> u64 {
        self.latency_us.values().map(|v| v.len() as u64).sum()
    }

    /// Ascending timed latencies of the classes `keep` selects.
    pub fn latencies(&self, keep: impl Fn(Op) -> bool) -> Vec<f64> {
        let mut all: Vec<f64> = self
            .latency_us
            .iter()
            .filter(|(name, _)| Op::parse(name).is_some_and(&keep))
            .flat_map(|(_, v)| v.iter().copied())
            .collect();
        all.sort_by(f64::total_cmp);
        all
    }
}

/// Requests whose class changes session state, `autocomplete` aside:
/// the write side of the protocol.
pub fn is_mutation(op: Op) -> bool {
    op.mutates() && op != Op::Autocomplete
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 50.0);
        assert_eq!(percentile(&v, 0.99), 99.0);
        assert_eq!(percentile(&v, 1.0), 100.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn failures_count_against_attempts() {
        let mut r = Recorder::default();
        r.record(
            Phase::Timed,
            Op::Render,
            Some(Duration::from_micros(5)),
            true,
        );
        r.record(
            Phase::Timed,
            Op::Render,
            Some(Duration::from_micros(7)),
            false,
        );
        r.fail(Phase::Recover, Op::Render, "mismatch".into());
        assert_eq!(r.attempted_failed(), (3, 2));
        assert_eq!(r.timed_requests(), 2);
    }
}
