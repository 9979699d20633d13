//! Non-poisoning `Mutex`/`RwLock` shims over `std::sync`.
//!
//! The `parking_lot` API the workspace used: `lock()`, `read()` and
//! `write()` return guards directly, with no poison `Result`. A
//! panicked writer here recovers the inner value instead of poisoning
//! — the catalog's invariants are per-operation, so recovery is safe.

use std::sync::{self, LockResult};

/// A mutual-exclusion lock whose `lock()` never returns a poison error.
#[derive(Debug, Default)]
pub struct Mutex<T>(sync::Mutex<T>);

impl<T> Mutex<T> {
    /// Wrap a value.
    pub fn new(value: T) -> Self {
        Self(sync::Mutex::new(value))
    }

    /// Acquire, blocking; recovers from poisoning.
    pub fn lock(&self) -> sync::MutexGuard<'_, T> {
        unpoison(self.0.lock())
    }

    /// Consume the lock, returning the inner value.
    pub fn into_inner(self) -> T {
        unpoison(self.0.into_inner())
    }

    /// Mutable access without locking (requires `&mut self`).
    pub fn get_mut(&mut self) -> &mut T {
        unpoison(self.0.get_mut())
    }
}

/// A readers-writer lock whose guards never return poison errors.
#[derive(Debug, Default)]
pub struct RwLock<T>(sync::RwLock<T>);

impl<T> RwLock<T> {
    /// Wrap a value.
    pub fn new(value: T) -> Self {
        Self(sync::RwLock::new(value))
    }

    /// Acquire shared access; recovers from poisoning.
    pub fn read(&self) -> sync::RwLockReadGuard<'_, T> {
        unpoison(self.0.read())
    }

    /// Acquire exclusive access; recovers from poisoning.
    pub fn write(&self) -> sync::RwLockWriteGuard<'_, T> {
        unpoison(self.0.write())
    }

    /// Consume the lock, returning the inner value.
    pub fn into_inner(self) -> T {
        unpoison(self.0.into_inner())
    }

    /// Mutable access without locking (requires `&mut self`).
    pub fn get_mut(&mut self) -> &mut T {
        unpoison(self.0.get_mut())
    }
}

fn unpoison<G>(r: LockResult<G>) -> G {
    match r {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn rwlock_basic() {
        let l = RwLock::new(5);
        assert_eq!(*l.read(), 5);
        *l.write() += 1;
        assert_eq!(*l.read(), 6);
        assert_eq!(l.into_inner(), 6);
    }

    #[test]
    fn mutex_across_threads() {
        let m = Arc::new(Mutex::new(0u32));
        std::thread::scope(|s| {
            for _ in 0..8 {
                let m = Arc::clone(&m);
                s.spawn(move || {
                    for _ in 0..1000 {
                        *m.lock() += 1;
                    }
                });
            }
        });
        assert_eq!(*m.lock(), 8000);
    }

    #[test]
    fn poisoned_lock_recovers() {
        let l = RwLock::new(1);
        std::thread::scope(|s| {
            // Joined by hand, the panic comes back as `Err` instead of
            // propagating out of the scope.
            let poisoner = s.spawn(|| {
                let _guard = l.write();
                panic!("poison it");
            });
            assert!(poisoner.join().is_err());
        });
        // A parking_lot-style lock keeps working after a panicked writer.
        assert_eq!(*l.read(), 1);
    }
}
