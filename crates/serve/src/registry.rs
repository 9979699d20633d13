//! The sharded session registry: many tenants, each a full [`CopyCat`]
//! engine, behind FxHash-sharded `RwLock` shards.
//!
//! Lookup takes one shard's read lock for the duration of a hash-map
//! probe and an `Arc` clone — never while an engine runs. Engine
//! operations serialize per *session* on the session's own mutex, so
//! two tenants never contend and one tenant's requests apply in
//! arrival order (the property the determinism test pins).

use copycat_core::CopyCat;
use copycat_graph::SteinerTree;
use copycat_services::{Flaky, World};
use copycat_util::hash::{FxHashMap, FxHasher};
use copycat_util::sync::{Mutex, RwLock};
use std::hash::{Hash, Hasher};
use std::sync::Arc;

/// Everything one tenant owns. Guarded by the session mutex as a unit:
/// the engine plus the request/response continuity state (the query
/// list the client refers back to by index; the shown column
/// suggestions are the engine's own).
pub struct SessionState {
    /// The tenant's engine.
    pub engine: CopyCat,
    /// The world backing `register_world` services, if any.
    pub world: Option<Arc<World>>,
    /// The Steiner trees of the queries in the last `autocomplete`
    /// response, by index — all `feedback` reads. Their executed
    /// answers are not kept.
    pub last_queries: Vec<SteinerTree>,
    /// Fault-injected services whose *virtual* latency is charged to
    /// request deadlines (see [`crate::deadline::Deadline`]).
    pub probes: Vec<Arc<Flaky>>,
}

impl SessionState {
    fn fresh(engine: CopyCat) -> SessionState {
        SessionState {
            engine,
            world: None,
            last_queries: Vec::new(),
            probes: Vec::new(),
        }
    }

    /// Total virtual latency accrued across this session's probes (ms),
    /// plus the virtual retry backoff charged by the engine's resilient
    /// service wrappers — all simulated time, no wallclock.
    pub fn virtual_latency_ms(&self) -> u64 {
        let probes: u64 = self.probes.iter().map(|p| p.virtual_latency_ms()).sum();
        probes + self.engine.health().backoff_virtual_ms()
    }
}

/// One live session.
pub struct Session {
    /// The tenant's name (registry key).
    pub name: String,
    /// The guarded state.
    pub state: Mutex<SessionState>,
}

/// The registry. Shard count is fixed at construction (a power of two).
pub struct SessionRegistry {
    shards: Vec<RwLock<FxHashMap<String, Arc<Session>>>>,
    mask: usize,
}

/// Why a registry mutation was refused.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RegistryError {
    /// `create` for an existing name.
    Exists,
    /// Lookup / removal of a missing name.
    Missing,
}

impl SessionRegistry {
    /// A registry with `shards` shards (rounded up to a power of two).
    pub fn new(shards: usize) -> SessionRegistry {
        let n = shards.max(1).next_power_of_two();
        SessionRegistry {
            shards: (0..n).map(|_| RwLock::new(FxHashMap::default())).collect(),
            mask: n - 1,
        }
    }

    fn shard(&self, name: &str) -> &RwLock<FxHashMap<String, Arc<Session>>> {
        let mut h = FxHasher::default();
        name.hash(&mut h);
        &self.shards[(h.finish() as usize) & self.mask]
    }

    /// Create a session around a fresh (or restored) engine.
    pub fn create(&self, name: &str, engine: CopyCat) -> Result<Arc<Session>, RegistryError> {
        let mut shard = self.shard(name).write();
        if shard.contains_key(name) {
            return Err(RegistryError::Exists);
        }
        let session = Arc::new(Session {
            name: name.to_string(),
            state: Mutex::new(SessionState::fresh(engine)),
        });
        shard.insert(name.to_string(), Arc::clone(&session));
        Ok(session)
    }

    /// Replace (or create) a session wholesale — the `load_session`
    /// path. The old engine, if any, is dropped with its cache after
    /// the shard's lock is released, so lookups of the shard's other
    /// sessions never wait for it to be freed.
    pub fn replace(&self, name: &str, engine: CopyCat) -> Arc<Session> {
        let session = Arc::new(Session {
            name: name.to_string(),
            state: Mutex::new(SessionState::fresh(engine)),
        });
        let old = self
            .shard(name)
            .write()
            .insert(name.to_string(), Arc::clone(&session));
        drop(old);
        session
    }

    /// Look a session up.
    pub fn get(&self, name: &str) -> Result<Arc<Session>, RegistryError> {
        self.shard(name)
            .read()
            .get(name)
            .cloned()
            .ok_or(RegistryError::Missing)
    }

    /// Drop a session. The map's reference is taken out under the
    /// shard's lock and released after it: when it was the last one,
    /// the engine is freed without blocking lookups of the shard's
    /// other sessions.
    pub fn remove(&self, name: &str) -> Result<(), RegistryError> {
        let removed = self.shard(name).write().remove(name);
        removed.map(drop).ok_or(RegistryError::Missing)
    }

    /// Live session count.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.read().len()).sum()
    }

    /// Whether no sessions are live.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Session names, sorted (stable `list_sessions` output).
    pub fn names(&self) -> Vec<String> {
        let mut names: Vec<String> = self
            .shards
            .iter()
            .flat_map(|s| s.read().keys().cloned().collect::<Vec<_>>())
            .collect();
        names.sort();
        names
    }

    /// Visit every session (metrics aggregation). Sessions are visited
    /// outside any shard lock.
    pub fn for_each(&self, mut f: impl FnMut(&Arc<Session>)) {
        for shard in &self.shards {
            let sessions: Vec<Arc<Session>> = shard.read().values().cloned().collect();
            for s in &sessions {
                f(s);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn create_get_remove_roundtrip() {
        let r = SessionRegistry::new(4);
        assert!(r.is_empty());
        r.create("alice", CopyCat::new()).unwrap();
        match r.create("alice", CopyCat::new()) {
            Err(RegistryError::Exists) => {}
            other => panic!("duplicate create must fail: {:?}", other.map(|_| ())),
        }
        r.create("bob", CopyCat::new()).unwrap();
        assert_eq!(r.len(), 2);
        assert_eq!(r.names(), vec!["alice".to_string(), "bob".to_string()]);
        assert!(r.get("alice").is_ok());
        r.remove("alice").unwrap();
        assert_eq!(r.remove("alice").unwrap_err(), RegistryError::Missing);
        assert!(matches!(r.get("alice"), Err(RegistryError::Missing)));
        assert_eq!(r.len(), 1);
    }

    #[test]
    fn shards_spread_and_stay_consistent_under_concurrency() {
        let r = SessionRegistry::new(8);
        std::thread::scope(|s| {
            for t in 0..8 {
                let r = &r;
                s.spawn(move || {
                    for i in 0..50 {
                        r.create(&format!("tenant-{t}-{i}"), CopyCat::new()).unwrap();
                    }
                });
            }
        });
        assert_eq!(r.len(), 400);
        let mut seen = 0;
        r.for_each(|_| seen += 1);
        assert_eq!(seen, 400);
    }
}
