//! Micro-benchmark timing harness: warmup, N samples, median/p95.
//!
//! Drop-in for the external micro-benchmark harness, with the same call shape
//! (`benchmark_group` / `sample_size` / `bench_function` / `iter`), so
//! the bench files keep their structure while depending on nothing
//! outside `std`. Output is one line per benchmark:
//!
//! ```text
//! e3/spcsh_300_nodes            median 1.84 ms   p95 2.01 ms   min 1.79 ms   (10 samples)
//! ```

use std::alloc::{GlobalAlloc, Layout, System};
use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// A counting wrapper around the system allocator, for memory
/// benchmarks and allocation-count regression tests. Install it as the
/// global allocator in a *binary or test crate* (never a library):
///
/// ```ignore
/// #[global_allocator]
/// static ALLOC: copycat_util::bench::CountingAlloc = copycat_util::bench::CountingAlloc::new();
/// ```
///
/// Counters are process-wide monotone totals; callers measure by
/// differencing [`AllocSnapshot`]s around the region of interest.
/// Counting uses relaxed atomics — the measured region must therefore
/// be single-threaded (or quiescent) for exact answers, which is how
/// the bench harness and the zero-alloc parse test use it.
pub struct CountingAlloc {
    allocs: AtomicU64,
    allocated_bytes: AtomicU64,
    freed_bytes: AtomicU64,
}

/// A point-in-time read of [`CountingAlloc`] counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct AllocSnapshot {
    /// Allocation calls so far (alloc + realloc; frees not counted).
    pub allocs: u64,
    /// Total bytes ever allocated.
    pub allocated_bytes: u64,
    /// Total bytes ever freed.
    pub freed_bytes: u64,
}

impl AllocSnapshot {
    /// Bytes currently live (allocated minus freed).
    pub fn live_bytes(&self) -> u64 {
        self.allocated_bytes.saturating_sub(self.freed_bytes)
    }

    /// Allocation calls between `earlier` and `self`.
    pub fn allocs_since(&self, earlier: &AllocSnapshot) -> u64 {
        self.allocs.saturating_sub(earlier.allocs)
    }

    /// Net live-byte growth between `earlier` and `self`.
    pub fn live_growth_since(&self, earlier: &AllocSnapshot) -> i64 {
        self.live_bytes() as i64 - earlier.live_bytes() as i64
    }
}

impl CountingAlloc {
    /// A zeroed counter set (const, so it can be a `static`).
    pub const fn new() -> CountingAlloc {
        CountingAlloc {
            allocs: AtomicU64::new(0),
            allocated_bytes: AtomicU64::new(0),
            freed_bytes: AtomicU64::new(0),
        }
    }

    /// Read the counters.
    pub fn snapshot(&self) -> AllocSnapshot {
        AllocSnapshot {
            // relaxed: monotone counters differenced by a quiescent
            // reader; no cross-counter consistency is reconciled.
            allocs: self.allocs.load(Ordering::Relaxed),
            // relaxed: see above.
            allocated_bytes: self.allocated_bytes.load(Ordering::Relaxed),
            // relaxed: see above.
            freed_bytes: self.freed_bytes.load(Ordering::Relaxed),
        }
    }
}

impl Default for CountingAlloc {
    fn default() -> CountingAlloc {
        CountingAlloc::new()
    }
}

// SAFETY: delegates every allocation verbatim to `System`, which upholds
// the `GlobalAlloc` contract; the wrapper only bumps counters.
unsafe impl GlobalAlloc for CountingAlloc {
    // SAFETY: forwards to `System.alloc` unchanged; counter bumps never
    // touch the returned memory.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // relaxed: monotone counter, read only by quiescent snapshots.
        self.allocs.fetch_add(1, Ordering::Relaxed);
        // relaxed: see above.
        self.allocated_bytes.fetch_add(layout.size() as u64, Ordering::Relaxed);
        // SAFETY: forwarded unchanged; caller upholds `layout` validity.
        unsafe { System.alloc(layout) }
    }

    // SAFETY: forwards to `System.dealloc` unchanged; counter bumps
    // never touch `ptr`.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // relaxed: monotone counter, read only by quiescent snapshots.
        self.freed_bytes.fetch_add(layout.size() as u64, Ordering::Relaxed);
        // SAFETY: forwarded unchanged; caller guarantees `ptr`/`layout`
        // came from this allocator.
        unsafe { System.dealloc(ptr, layout) }
    }

    // SAFETY: forwards to `System.realloc` unchanged; counter bumps
    // never touch `ptr`.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // relaxed: monotone counter, read only by quiescent snapshots.
        self.allocs.fetch_add(1, Ordering::Relaxed);
        // relaxed: see above.
        self.allocated_bytes.fetch_add(new_size as u64, Ordering::Relaxed);
        // relaxed: see above.
        self.freed_bytes.fetch_add(layout.size() as u64, Ordering::Relaxed);
        // SAFETY: forwarded unchanged; caller upholds the realloc
        // contract for `ptr`, `layout`, and `new_size`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Default number of timed samples per benchmark.
pub const DEFAULT_SAMPLES: usize = 20;

/// Minimum wall time spent warming up before sampling.
const WARMUP: Duration = Duration::from_millis(200);

/// Top-level driver; collects and prints results.
#[derive(Debug, Default)]
pub struct Harness {
    results: Vec<BenchResult>,
}

/// One benchmark's timing summary.
#[derive(Debug, Clone)]
pub struct BenchResult {
    /// `group/name` label.
    pub label: String,
    /// Per-sample wall times, sorted ascending.
    pub samples: Vec<Duration>,
}

impl BenchResult {
    /// The p-th percentile sample (nearest-rank).
    pub fn percentile(&self, p: f64) -> Duration {
        let idx = ((self.samples.len() as f64 * p).ceil() as usize)
            .clamp(1, self.samples.len())
            - 1;
        self.samples[idx]
    }

    /// Median sample.
    pub fn median(&self) -> Duration {
        self.percentile(0.5)
    }
}

/// Render a duration with an appropriate unit.
pub fn fmt_duration(d: Duration) -> String {
    let ns = d.as_nanos();
    if ns < 1_000 {
        format!("{ns} ns")
    } else if ns < 1_000_000 {
        format!("{:.2} µs", ns as f64 / 1e3)
    } else if ns < 1_000_000_000 {
        format!("{:.2} ms", ns as f64 / 1e6)
    } else {
        format!("{:.3} s", ns as f64 / 1e9)
    }
}

impl Harness {
    /// A fresh driver.
    pub fn new() -> Self {
        Self::default()
    }

    /// Start a named group; benchmarks in it are labeled `group/name`.
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        BenchmarkGroup { harness: self, prefix: name.into(), sample_size: DEFAULT_SAMPLES }
    }

    /// Run an ungrouped benchmark with the default sample count.
    pub fn bench_function(&mut self, name: impl Into<String>, f: impl FnMut(&mut Bencher)) {
        self.run(name.into(), DEFAULT_SAMPLES, f);
    }

    #[expect(clippy::disallowed_methods, reason = "the warmup budget is wall time")]
    fn run(&mut self, label: String, sample_size: usize, mut f: impl FnMut(&mut Bencher)) {
        // Warmup: run the body until the warmup budget is spent (at
        // least once), so first-touch costs don't land in sample 0.
        let warm_start = Instant::now();
        while warm_start.elapsed() < WARMUP {
            let mut b = Bencher { elapsed: Duration::ZERO };
            f(&mut b);
            if b.elapsed.is_zero() {
                break; // body never called iter(); nothing to measure
            }
        }
        let mut samples = Vec::with_capacity(sample_size);
        for _ in 0..sample_size.max(1) {
            let mut b = Bencher { elapsed: Duration::ZERO };
            f(&mut b);
            samples.push(b.elapsed);
        }
        samples.sort();
        let result = BenchResult { label, samples };
        println!(
            "{:<44} median {:>9}   p95 {:>9}   min {:>9}   ({} samples)",
            result.label,
            fmt_duration(result.median()),
            fmt_duration(result.percentile(0.95)),
            fmt_duration(result.samples[0]),
            result.samples.len(),
        );
        self.results.push(result);
    }

    /// All results recorded so far.
    pub fn results(&self) -> &[BenchResult] {
        &self.results
    }
}

/// A group of benchmarks sharing a label prefix and sample count.
pub struct BenchmarkGroup<'a> {
    harness: &'a mut Harness,
    prefix: String,
    sample_size: usize,
}

impl BenchmarkGroup<'_> {
    /// Set the number of timed samples for subsequent benchmarks.
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.sample_size = n.max(1);
        self
    }

    /// Time one benchmark as `group/name`.
    pub fn bench_function(&mut self, name: impl Into<String>, f: impl FnMut(&mut Bencher)) {
        let label = format!("{}/{}", self.prefix, name.into());
        self.harness.run(label, self.sample_size, f);
    }

    /// End the group (accepted for call-shape compatibility).
    pub fn finish(self) {}
}

/// Passed to the benchmark body; times the closure given to
/// [`Bencher::iter`].
pub struct Bencher {
    elapsed: Duration,
}

impl Bencher {
    /// Time one execution of `f` (its return value is black-boxed so
    /// the optimizer cannot delete the work).
    #[expect(clippy::disallowed_methods, reason = "the bench harness measures wall time on purpose")]
    pub fn iter<R>(&mut self, mut f: impl FnMut() -> R) {
        let start = Instant::now();
        black_box(f());
        self.elapsed += start.elapsed();
    }
}

/// Define a bench entry point: `bench_main!(bench_a, bench_b);`
/// expands to a `main` that runs each `fn(&mut Harness)` in order.
#[macro_export]
macro_rules! bench_main {
    ($($target:path),+ $(,)?) => {
        fn main() {
            let mut harness = $crate::bench::Harness::new();
            $($target(&mut harness);)+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn samples_are_recorded_and_sorted() {
        let mut c = Harness::new();
        let mut group = c.benchmark_group("t");
        group.sample_size(5);
        group.bench_function("spin", |b| {
            b.iter(|| (0..1000).sum::<u64>())
        });
        group.finish();
        let r = &c.results()[0];
        assert_eq!(r.label, "t/spin");
        assert_eq!(r.samples.len(), 5);
        assert!(r.samples.windows(2).all(|w| w[0] <= w[1]));
        assert!(r.median() <= r.percentile(0.95));
    }

    #[test]
    fn ungrouped_function_uses_default_samples() {
        let mut c = Harness::new();
        c.bench_function("solo", |b| b.iter(|| 1 + 1));
        assert_eq!(c.results()[0].samples.len(), DEFAULT_SAMPLES);
    }
}
