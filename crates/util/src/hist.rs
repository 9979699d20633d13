//! Fixed-bucket latency histograms with lock-free recording.
//!
//! The serving layer's metrics registry wants per-request-class latency
//! quantiles that many request threads can record into without
//! coordination. [`Histogram`] uses a fixed bucket ladder over
//! microseconds (1µs … 10s, plus an overflow bucket) and atomic
//! counters, so `record` is a single `fetch_add` and quantiles are a
//! cumulative walk at read time. Below 1ms — where the serve hot path
//! lives — the ladder is a dense 1–1.5–2–3–5–7 progression (≤1.5×
//! step), so sub-millisecond p50 shifts of a few tens of percent are
//! visible instead of quantized away; above 1ms it stays the coarser
//! 1–2–5 ladder. Quantiles report a bucket's upper bound — an
//! over-estimate never off by more than the ladder's step, which is
//! plenty for p50/p99 dashboards and regression tracking.

use std::sync::atomic::{AtomicU64, Ordering};

/// Bucket upper bounds in microseconds: a dense 1–1.5–2–3–5–7 ladder up
/// to 1ms (sub-ms latencies resolve to ≤1.5×), then 1–2–5 to 10s.
pub const BUCKET_BOUNDS_US: [u64; 34] = [
    1, 2, 3, 5, 7, 10, 15, 20, 30, 50, 70, 100, 150, 200, 300, 500, 700, 1_000, 2_000, 5_000,
    10_000, 20_000, 50_000, 100_000, 200_000, 500_000, 1_000_000, 2_000_000, 5_000_000, 10_000_000,
    // A short coarse tail so multi-second outliers still rank above
    // 10s instead of all collapsing into one overflow bucket.
    20_000_000, 50_000_000, 100_000_000, 200_000_000,
];

/// A concurrent fixed-bucket histogram of microsecond values.
#[derive(Debug)]
pub struct Histogram {
    /// One counter per bound, plus a final overflow bucket.
    buckets: [AtomicU64; BUCKET_BOUNDS_US.len() + 1],
    count: AtomicU64,
    sum_us: AtomicU64,
    max_us: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Histogram {
        Histogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum_us: AtomicU64::new(0),
            max_us: AtomicU64::new(0),
        }
    }
}

/// A point-in-time read of a histogram.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct HistSnapshot {
    /// Values recorded.
    pub count: u64,
    /// Sum of recorded values (µs).
    pub sum_us: u64,
    /// Largest recorded value (µs).
    pub max_us: u64,
    /// Median estimate (µs; bucket upper bound).
    pub p50_us: u64,
    /// 99th-percentile estimate (µs; bucket upper bound).
    pub p99_us: u64,
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one value in microseconds.
    pub fn record_us(&self, us: u64) {
        let idx = BUCKET_BOUNDS_US
            .iter()
            .position(|&b| us <= b)
            .unwrap_or(BUCKET_BOUNDS_US.len());
        // relaxed: published by the Release increment of `count` below.
        self.buckets[idx].fetch_add(1, Ordering::Relaxed);
        // Release pairs with the Acquire load in `count()`: a reader
        // whose rank is computed from this count also observes the
        // bucket increment above, so the cumulative walk in
        // `quantile_us` can never come up short of its rank.
        self.count.fetch_add(1, Ordering::Release);
        // relaxed: mean-only statistic; no reader reconciles it.
        self.sum_us.fetch_add(us, Ordering::Relaxed);
        // relaxed: monotone max; any stale read is still a valid max.
        self.max_us.fetch_max(us, Ordering::Relaxed);
    }

    /// Record a `Duration`.
    pub fn record(&self, d: std::time::Duration) {
        self.record_us(d.as_micros() as u64);
    }

    /// Values recorded so far. The Acquire pairs with the Release
    /// increment in [`record_us`](Histogram::record_us): every bucket
    /// write behind an observed count is visible after this load.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Acquire)
    }

    /// The value at quantile `q` in `[0, 1]`: the upper bound of the
    /// first bucket whose cumulative count reaches `q·count`. Zero when
    /// empty; the observed max for the overflow bucket.
    pub fn quantile_us(&self, q: f64) -> u64 {
        let total = self.count();
        if total == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * total as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, b) in self.buckets.iter().enumerate() {
            // relaxed: the Acquire in `count()` above already ordered
            // every bucket write this rank depends on.
            seen += b.load(Ordering::Relaxed);
            if seen >= rank {
                return BUCKET_BOUNDS_US
                    .get(i)
                    .copied()
                    // relaxed: monotone max, see `record_us`.
                    .unwrap_or_else(|| self.max_us.load(Ordering::Relaxed));
            }
        }
        // relaxed: monotone max, see `record_us`.
        self.max_us.load(Ordering::Relaxed)
    }

    /// A consistent-enough snapshot (exact when recording is quiescent,
    /// which is how tests read it; racing reads are never short of the
    /// observed count, see [`count`](Histogram::count)).
    pub fn snapshot(&self) -> HistSnapshot {
        HistSnapshot {
            count: self.count(),
            // relaxed: mean-only statistic; no reader reconciles it.
            sum_us: self.sum_us.load(Ordering::Relaxed),
            // relaxed: monotone max, see `record_us`.
            max_us: self.max_us.load(Ordering::Relaxed),
            p50_us: self.quantile_us(0.50),
            p99_us: self.quantile_us(0.99),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_histogram_reads_zero() {
        let h = Histogram::new();
        let s = h.snapshot();
        assert_eq!((s.count, s.p50_us, s.p99_us, s.max_us), (0, 0, 0, 0));
    }

    #[test]
    fn quantiles_bound_the_data() {
        let h = Histogram::new();
        for us in 1..=1000u64 {
            h.record_us(us);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 1000);
        assert_eq!(s.sum_us, (1..=1000u64).sum::<u64>());
        // p50 of 1..=1000 is 500; the 1-2-5 ladder reports its bucket's
        // upper bound, 500 exactly.
        assert_eq!(s.p50_us, 500);
        // p99 = 990 lands in the (500, 1000] bucket.
        assert_eq!(s.p99_us, 1000);
        assert_eq!(s.max_us, 1000);
    }

    #[test]
    fn sub_millisecond_buckets_resolve_fine_shifts() {
        // A 30µs-centered workload and a 45µs-centered workload land in
        // different buckets (30 vs 50) — the old 1-2-5 ladder reported
        // 50 for both, hiding sub-ms improvements.
        let a = Histogram::new();
        let b = Histogram::new();
        for _ in 0..100 {
            a.record_us(28);
            b.record_us(44);
        }
        assert_eq!(a.snapshot().p50_us, 30);
        assert_eq!(b.snapshot().p50_us, 50);
        // The ladder keeps its original coarse bounds too, so pinned
        // quantiles from the 1-2-5 era (500, 1000, …) stay bounds.
        for bound in [1u64, 2, 5, 10, 20, 50, 100, 200, 500, 1_000, 2_000, 5_000] {
            assert!(BUCKET_BOUNDS_US.contains(&bound), "missing bound {bound}");
        }
    }

    #[test]
    fn overflow_reports_observed_max() {
        let h = Histogram::new();
        h.record_us(999_000_000);
        assert_eq!(h.quantile_us(0.5), 999_000_000);
    }

    #[test]
    fn concurrent_recording_loses_nothing() {
        let h = Histogram::new();
        std::thread::scope(|s| {
            for t in 0..8 {
                let h = &h;
                s.spawn(move || {
                    for i in 0..1000u64 {
                        h.record_us(t * 1000 + i);
                    }
                });
            }
        });
        assert_eq!(h.count(), 8000);
    }
}
