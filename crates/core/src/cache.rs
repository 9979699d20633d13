//! Feedback-aware caching of query discovery.
//!
//! The interactive loop (§2.2, §4.2) re-runs top-k Steiner search on
//! every paste and every MIRA feedback update. Repeated pastes against
//! an unchanged graph are common — the user pastes several tuples, or
//! re-opens the suggestion list — so the engine keeps a small cache of
//! search results keyed on `(terminal set, k, banned edges)` and stamped
//! with the [`SourceGraph::version`] they were computed at. A feedback
//! update bumps the graph version, which lazily invalidates stale
//! entries: only the terminal sets that are actually queried again get
//! recomputed.
//!
//! Beside its trees an entry keeps one [`Memo`] per tree, stamped with
//! the [`Catalog::generation`](copycat_query::Catalog::generation) it
//! was computed at. A plan that calls no service reads only immutable
//! catalog relations, so under both stamps its row count cannot change
//! and a hit need not execute it again.

use copycat_graph::{EdgeId, NodeId, SourceGraph, SteinerTree};
use copycat_util::sync::Mutex;
use std::sync::Arc;

/// Hit/miss counters, readable for tests and instrumentation.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups answered from a fresh entry.
    pub hits: u64,
    /// Lookups that had no entry at all.
    pub misses: u64,
    /// Lookups that found an entry stamped with an older graph version
    /// (counted in addition to the miss they become).
    pub invalidations: u64,
}

/// What one cached tree's query answers, as far as the entry's graph
/// version and the memo's catalog generation fix it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Memo {
    /// The tree cannot be planned, or its plan calls no service and
    /// failed: either way it yields no query.
    Dropped,
    /// The plan calls no service and answers this many rows.
    Rows(usize),
    /// The plan calls a service, so it runs on every lookup: service
    /// calls move breakers, retries and virtual time.
    Fresh,
}

/// Cache key: sorted deduped terminals, k, and the sorted banned-edge
/// set (empty for the normal path; a failover search with tripped
/// services banned is a distinct entry).
type Key = (Vec<NodeId>, usize, Vec<EdgeId>);

#[derive(Debug)]
struct Entry {
    version: u64,
    trees: Arc<[SteinerTree]>,
    /// The per-tree memos and the catalog generation they hold at,
    /// once an answer has been computed from these trees.
    memos: Option<(u64, Arc<[Memo]>)>,
}

#[derive(Debug, Default)]
struct Inner {
    /// Entries in insertion order, so eviction takes the front.
    entries: Vec<(Key, Entry)>,
    stats: CacheStats,
}

impl Inner {
    fn find(&self, key: &Key) -> Option<usize> {
        self.entries.iter().position(|(k, _)| k == key)
    }
}

/// A version-stamped cache of Steiner search results and their memos.
/// Interior-mutable so read paths (`&self` engine methods) can use it.
#[derive(Debug)]
pub struct QueryCache {
    inner: Mutex<Inner>,
    capacity: usize,
}

impl Default for QueryCache {
    fn default() -> Self {
        Self::new(256)
    }
}

/// One lookup's answer: the trees at the graph's current version and,
/// when an answer from them was memoized at the catalog generation
/// asked for, their memos (one per tree, in tree order). A caller that
/// computes the answer hands its memos back through
/// [`Lookup::remember`].
#[derive(Debug)]
pub struct Lookup<'c> {
    cache: &'c QueryCache,
    key: Key,
    version: u64,
    generation: u64,
    /// The trees, shared with the cache: a hit copies nothing.
    pub trees: Arc<[SteinerTree]>,
    /// The memos, when fresh for the generation asked for.
    pub memos: Option<Arc<[Memo]>>,
}

impl Lookup<'_> {
    /// Store the memos of an answer computed from these trees at the
    /// generation the lookup asked for. Dropped when the entry has since
    /// been replaced by a newer graph version's or evicted.
    pub fn remember(self, memos: Vec<Memo>) {
        debug_assert_eq!(memos.len(), self.trees.len(), "one memo per tree");
        let mut inner = self.cache.inner.lock();
        if let Some(i) = inner.find(&self.key) {
            let entry = &mut inner.entries[i].1;
            if entry.version == self.version {
                entry.memos = Some((self.generation, memos.into()));
            }
        }
    }
}

impl QueryCache {
    /// A cache holding at most `capacity` terminal-set entries (FIFO
    /// eviction).
    pub fn new(capacity: usize) -> Self {
        Self { inner: Mutex::new(Inner::default()), capacity: capacity.max(1) }
    }

    /// The trees for `(terminals, k, banned)` at the graph's current
    /// version: served from cache when a fresh entry exists, otherwise
    /// computed via `search` (outside the cache lock) and stored. A
    /// stale entry — same key, older version — is replaced in place and
    /// counted as an invalidation. The memos come back only from a fresh
    /// entry whose memos were computed at catalog `generation`. `banned`
    /// edges (tripped services' edges during failover) are part of the
    /// key, so the failover search caches apart from the healthy one.
    pub fn lookup(
        &self,
        g: &SourceGraph,
        terminals: &[NodeId],
        k: usize,
        banned: &[EdgeId],
        generation: u64,
        search: impl FnOnce() -> Vec<SteinerTree>,
    ) -> Lookup<'_> {
        let mut key_terms = terminals.to_vec();
        key_terms.sort_unstable();
        key_terms.dedup();
        let mut key_banned = banned.to_vec();
        key_banned.sort_unstable();
        key_banned.dedup();
        let key = (key_terms, k, key_banned);
        let version = g.version();
        {
            let mut inner = self.inner.lock();
            match inner.find(&key) {
                Some(i) if inner.entries[i].1.version == version => {
                    let entry = &inner.entries[i].1;
                    let trees = Arc::clone(&entry.trees);
                    let memos = match &entry.memos {
                        Some((at, memos)) if *at == generation => Some(Arc::clone(memos)),
                        _ => None,
                    };
                    inner.stats.hits += 1;
                    return Lookup { cache: self, key, version, generation, trees, memos };
                }
                Some(_) => inner.stats.invalidations += 1,
                None => {}
            }
            inner.stats.misses += 1;
        }
        let trees: Arc<[SteinerTree]> = search().into();
        let entry = Entry { version, trees: Arc::clone(&trees), memos: None };
        let mut inner = self.inner.lock();
        match inner.find(&key) {
            Some(i) => inner.entries[i].1 = entry,
            None => {
                if inner.entries.len() >= self.capacity {
                    inner.entries.remove(0);
                }
                inner.entries.push((key.clone(), entry));
            }
        }
        Lookup { cache: self, key, version, generation, trees, memos: None }
    }

    /// Drop every entry (e.g. after a wholesale graph replacement, where
    /// version numbering restarts).
    pub fn clear(&self) {
        self.inner.lock().entries.clear();
    }

    /// Counter snapshot.
    pub fn stats(&self) -> CacheStats {
        self.inner.lock().stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use copycat_graph::{top_k_steiner, EdgeKind, Mira};
    use copycat_query::Schema;

    /// Diamond: a–b–d (1.0 + 1.0) vs a–c–d (1.5 + 1.5).
    fn diamond() -> (SourceGraph, Vec<NodeId>) {
        let mut g = SourceGraph::new();
        let ids: Vec<NodeId> = ["a", "b", "c", "d"]
            .iter()
            .map(|n| g.add_relation(*n, Schema::of(&["X"])))
            .collect();
        let j = || EdgeKind::Join { pairs: vec![("X".into(), "X".into())] };
        g.add_edge_with_cost(ids[0], ids[1], j(), 1.0);
        g.add_edge_with_cost(ids[1], ids[3], j(), 1.0);
        g.add_edge_with_cost(ids[0], ids[2], j(), 1.5);
        g.add_edge_with_cost(ids[2], ids[3], j(), 1.5);
        (g, ids)
    }

    #[test]
    fn repeat_lookups_hit() {
        let (g, ids) = diamond();
        let cache = QueryCache::default();
        let terms = [ids[0], ids[3]];
        let a = cache.lookup(&g, &terms, 2, &[], 0, || top_k_steiner(&g, &terms, 2)).trees;
        let b = cache.lookup(&g, &terms, 2, &[], 0, || panic!("must be served from cache")).trees;
        assert_eq!(a, b);
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.invalidations), (1, 1, 0));
    }

    #[test]
    fn mira_update_invalidates_and_matches_cold_search() {
        let (mut g, ids) = diamond();
        let cache = QueryCache::default();
        let terms = [ids[0], ids[3]];
        let warm = cache.lookup(&g, &terms, 2, &[], 0, || top_k_steiner(&g, &terms, 2)).trees;
        assert_eq!(warm[0].edges, vec![copycat_graph::EdgeId(0), copycat_graph::EdgeId(1)]);
        // Feedback flips the ranking: prefer the a–c–d path.
        let preferred = warm[1].edges.clone();
        let rejected = warm[0].edges.clone();
        let tau = Mira::default().apply(&mut g, &preferred, &rejected);
        assert!(tau > 0.0, "feedback must change costs");
        // The cache must notice the version bump and agree with a cold
        // search, not replay the stale ranking.
        let cached = cache.lookup(&g, &terms, 2, &[], 0, || top_k_steiner(&g, &terms, 2)).trees;
        let cold = top_k_steiner(&g, &terms, 2);
        assert_eq!(*cached, *cold);
        assert_eq!(cached[0].edges, preferred, "new ranking visible through the cache");
        assert_eq!(cache.stats().invalidations, 1);
    }

    #[test]
    fn distinct_keys_do_not_collide() {
        let (g, ids) = diamond();
        let cache = QueryCache::default();
        let t1 = [ids[0], ids[3]];
        let t2 = [ids[0], ids[1]];
        let r1 = cache.lookup(&g, &t1, 1, &[], 0, || top_k_steiner(&g, &t1, 1)).trees;
        let r2 = cache.lookup(&g, &t2, 1, &[], 0, || top_k_steiner(&g, &t2, 1)).trees;
        assert_ne!(r1, r2);
        // Same set, different k: separate entry.
        let r3 = cache.lookup(&g, &t1, 2, &[], 0, || top_k_steiner(&g, &t1, 2)).trees;
        assert_eq!(r3.len(), 2);
        // Terminal order does not matter.
        let swapped = [ids[3], ids[0]];
        cache.lookup(&g, &swapped, 1, &[], 0, || panic!("order-insensitive key"));
    }

    #[test]
    fn capacity_evicts_oldest() {
        let (g, ids) = diamond();
        let cache = QueryCache::new(1);
        let t1 = [ids[0], ids[3]];
        let t2 = [ids[0], ids[1]];
        cache.lookup(&g, &t1, 1, &[], 0, || top_k_steiner(&g, &t1, 1));
        cache.lookup(&g, &t2, 1, &[], 0, || top_k_steiner(&g, &t2, 1));
        // t1 was evicted: this is a miss, not a hit.
        cache.lookup(&g, &t1, 1, &[], 0, || top_k_steiner(&g, &t1, 1));
        let stats = cache.stats();
        assert_eq!(stats.hits, 0);
        assert_eq!(stats.misses, 3);
    }

    #[test]
    fn memos_hold_for_their_generation_and_version() {
        let (mut g, ids) = diamond();
        let cache = QueryCache::default();
        let terms = [ids[0], ids[3]];
        let miss = cache.lookup(&g, &terms, 2, &[], 7, || top_k_steiner(&g, &terms, 2));
        assert_eq!(miss.memos, None, "a miss has no memos");
        miss.remember(vec![Memo::Rows(3), Memo::Fresh]);
        let hit = cache.lookup(&g, &terms, 2, &[], 7, || panic!("cached"));
        assert_eq!(hit.memos.as_deref(), Some(&[Memo::Rows(3), Memo::Fresh][..]));
        // Another catalog generation: the trees still hit, the memos
        // do not, and remembering restamps them.
        let other = cache.lookup(&g, &terms, 2, &[], 8, || panic!("cached"));
        assert_eq!(other.memos, None);
        other.remember(vec![Memo::Dropped, Memo::Fresh]);
        let hit = cache.lookup(&g, &terms, 2, &[], 8, || panic!("cached"));
        assert_eq!(hit.memos.as_deref(), Some(&[Memo::Dropped, Memo::Fresh][..]));
        assert_eq!(cache.lookup(&g, &terms, 2, &[], 7, || panic!("cached")).memos, None);
        // A graph change drops the memos with the trees, and a lookup
        // taken before it cannot restore them.
        let before = cache.lookup(&g, &terms, 2, &[], 8, || panic!("cached"));
        g.set_cost(copycat_graph::EdgeId(0), 5.0);
        let after = cache.lookup(&g, &terms, 2, &[], 8, || top_k_steiner(&g, &terms, 2));
        assert_eq!(after.memos, None);
        before.remember(vec![Memo::Rows(1), Memo::Rows(1)]);
        assert_eq!(cache.lookup(&g, &terms, 2, &[], 8, || panic!("cached")).memos, None);
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.invalidations), (6, 2, 1));
    }

    #[test]
    fn clear_empties_the_cache() {
        let (g, ids) = diamond();
        let cache = QueryCache::default();
        let terms = [ids[0], ids[3]];
        cache.lookup(&g, &terms, 1, &[], 0, || top_k_steiner(&g, &terms, 1));
        cache.clear();
        cache.lookup(&g, &terms, 1, &[], 0, || top_k_steiner(&g, &terms, 1));
        assert_eq!(cache.stats().misses, 2);
    }
}
