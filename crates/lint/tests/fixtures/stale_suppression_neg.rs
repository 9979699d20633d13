//! Negative fixture: a suppression that actually silences a finding is
//! earned, not stale.

fn bump(n: &std::sync::atomic::AtomicU64) -> u64 {
    n.fetch_add(1, Ordering::Relaxed) // lint:allow(relaxed-atomics) fixture exercises an earned suppression
}
