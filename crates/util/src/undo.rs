//! Undo logs: the inverse of every change a structure makes, grouped
//! into entries that an undo applies newest first.
//!
//! An owner (a workspace, a source graph, an engine's own fields) keeps
//! one [`UndoLog`] and records the inverse of each of its mutations
//! into it. Whoever defines "one user action" opens an entry before the
//! action ([`UndoLog::open`]); until the next `open`, every recorded
//! inverse joins that entry, whichever caller made the change.
//! [`UndoLog::pop`] closes the newest entry and hands its inverses back
//! for the owner to apply. So an entry costs what its action changed,
//! not a copy of the owner. With no entry open nothing is recorded, and
//! a log that never opened one holds no heap memory.
//!
//! An inverse that puts back one slot's value (a name, a cost) is
//! needed only the first time the slot changes in an entry: owners ask
//! [`UndoLog::newest`] before recording one, so an entry holds at most
//! one such inverse per slot, however many edits reach it.

use std::collections::vec_deque::Drain;
use std::collections::VecDeque;

/// Undo entries a log keeps; opening one more forgets the oldest.
pub const MAX_ENTRIES: usize = 32;

/// Inverse operations grouped into a bounded stack of undo entries.
#[derive(Debug, Clone)]
pub struct UndoLog<T> {
    /// Allocated by the first [`open`](Self::open).
    entries: Option<Box<Entries<T>>>,
}

#[derive(Debug, Clone)]
struct Entries<T> {
    /// Every open entry's inverses, oldest entry first, each entry's in
    /// the order they were recorded.
    ops: VecDeque<T>,
    /// Where each open entry starts in `ops`, oldest first.
    starts: VecDeque<usize>,
}

impl<T> Default for UndoLog<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> UndoLog<T> {
    /// An empty log that records nothing until an entry is opened.
    pub const fn new() -> Self {
        Self { entries: None }
    }

    /// Open a new entry: later [`record`](Self::record)s join it. When
    /// [`MAX_ENTRIES`] entries are open already, the oldest is dropped
    /// with its inverses first.
    pub fn open(&mut self) {
        let e = self.entries.get_or_insert_with(|| {
            Box::new(Entries { ops: VecDeque::new(), starts: VecDeque::new() })
        });
        if e.starts.len() >= MAX_ENTRIES {
            e.starts.pop_front();
            let n = e.starts.front().copied().unwrap_or(e.ops.len());
            e.ops.drain(..n);
            for start in &mut e.starts {
                *start -= n;
            }
        }
        e.starts.push_back(e.ops.len());
    }

    /// Number of open entries.
    pub fn depth(&self) -> usize {
        self.entries.as_ref().map_or(0, |e| e.starts.len())
    }

    /// The newest entry's inverses, newest first; empty when no entry
    /// is open.
    pub fn newest(&self) -> impl Iterator<Item = &T> {
        let e = self.entries.as_deref();
        e.and_then(|e| Some(e.ops.range(*e.starts.back()?..))).into_iter().flatten().rev()
    }

    /// Add `op` to the newest entry; dropped when no entry is open.
    pub fn record(&mut self, op: T) {
        if let Some(e) = &mut self.entries {
            if !e.starts.is_empty() {
                e.ops.push_back(op);
            }
        }
    }

    /// Close the newest entry and hand back its inverses in the order
    /// they were recorded: an undo applies them reversed. `None` when no
    /// entry is open.
    pub fn pop(&mut self) -> Option<Drain<'_, T>> {
        let e = self.entries.as_mut()?;
        let start = e.starts.pop_back()?;
        Some(e.ops.drain(start..))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn popped(log: &mut UndoLog<usize>) -> Option<Vec<usize>> {
        log.pop().map(Iterator::collect)
    }

    #[test]
    fn records_only_while_an_entry_is_open() {
        let mut log = UndoLog::new();
        log.record(1);
        assert_eq!(log.depth(), 0);
        assert_eq!(log.newest().count(), 0);
        assert_eq!(popped(&mut log), None);
        log.open();
        log.record(2);
        log.record(3);
        log.open();
        log.record(4);
        log.record(5);
        assert_eq!(log.depth(), 2);
        assert_eq!(log.newest().copied().collect::<Vec<_>>(), [5, 4]);
        assert_eq!(popped(&mut log), Some(vec![4, 5]));
        assert_eq!(log.newest().copied().collect::<Vec<_>>(), [3, 2]);
        assert_eq!(popped(&mut log), Some(vec![2, 3]));
        assert_eq!(popped(&mut log), None);
        log.record(6);
        log.open();
        assert_eq!(popped(&mut log), Some(vec![]));
    }

    #[test]
    fn the_oldest_entry_is_dropped_past_the_bound() {
        let mut log = UndoLog::new();
        for i in 0..MAX_ENTRIES + 2 {
            log.open();
            log.record(10 * i);
            log.record(10 * i + 1);
        }
        assert_eq!(log.depth(), MAX_ENTRIES);
        for i in (2..MAX_ENTRIES + 2).rev() {
            assert_eq!(popped(&mut log), Some(vec![10 * i, 10 * i + 1]));
        }
        assert_eq!(popped(&mut log), None);
    }

    #[test]
    fn a_dropped_empty_entry_leaves_the_next_intact() {
        let mut log = UndoLog::new();
        log.open();
        for _ in 0..MAX_ENTRIES {
            log.open();
            log.record(7);
        }
        assert_eq!(log.depth(), MAX_ENTRIES);
        for _ in 0..MAX_ENTRIES {
            assert_eq!(popped(&mut log), Some(vec![7]));
        }
        assert_eq!(log.depth(), 0);
    }
}
