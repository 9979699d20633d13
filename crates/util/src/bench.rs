//! Allocation counting for memory benchmarks and allocation-count
//! regression tests: [`CountingAlloc`], a global allocator that counts,
//! and [`AllocSnapshot`], a read of its counters to difference around
//! the region of interest.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

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
/// the allocation pins and the zero-alloc parse test use it.
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
