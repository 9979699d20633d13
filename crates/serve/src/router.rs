//! Durable sessions behind a consistent-hash shard router.
//!
//! The [`Router`] fronts N in-process [`Server`] shards. Session names
//! hash onto a vnode ring, so each tenant consistently lands on one
//! shard; adding shards moves only the sessions whose ring interval
//! changed. On top of placement it layers *durability by replay*:
//!
//! * Every **effectful** request (see [`Op::mutates`] and
//!   [`response_is_effectful`]) is journaled to the session's
//!   [`SessionStore`] — an append-only WAL plus periodic snapshots —
//!   **before the response is released** to the caller. A response you
//!   received is a response that survives a crash: each record is
//!   fsynced before its response is released. Effects whose ack never
//!   reached you may be lost, which is exactly the at-most-once
//!   contract a client must already handle.
//! * Recovery ([`Router::recover`]) loads each session's snapshot,
//!   replays the WAL tail through the owning shard, and resumes. The
//!   protocol is deterministic by construction (responses carry no
//!   timing; engines are seeded), so a replayed session is
//!   *byte-identical* to the one that crashed — the property the
//!   kill-and-recover tests pin.
//! * The journaled line is the request body with `deadline_ms`
//!   stripped: a deadline raced against the wall clock at execution
//!   time must not race again (and possibly differently) at replay.
//!
//! The snapshot payload is the session's *replay checkpoint*: the full
//! journaled history as a JSON array of request lines. That makes
//! snapshot+tail recovery and live migration the same operation —
//! [`Router::migrate_session`] drains the session (its per-session
//! journal lock serializes every request), checkpoints, replays the
//! checkpoint on the target shard, and repoints the ring override.
//!
//! Lock order: the per-session journal lock is taken *before* the
//! shard executes, and held across execute → journal append → fsync.
//! That single lock guarantees WAL order equals execution order and
//! that no second request for the same session can be acked ahead of
//! an earlier one's durability. Different sessions proceed in
//! parallel — the lock is per-name.

use crate::protocol::{ok_response, Op, Request};
use crate::server::{Server, ServerConfig};
use copycat_store::{Fs, RecoveryReport, SessionStore, StoreStats};
use copycat_util::hash::{FxHashMap, FxHasher};
use copycat_util::json::{self, Json, JsonError, JsonWriter, ToJson};
use copycat_util::sync::Mutex;
use copycat_util::zjson::{ZDoc, ZRef};
use std::cell::RefCell;
use std::hash::{Hash, Hasher};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

thread_local! {
    /// Per-thread parse scratch for the router's own envelope peek —
    /// warm, routing a request allocates nothing on the parse side.
    /// Shard servers pool their own scratch, so no re-entrancy.
    static ROUTER_DOC: RefCell<ZDoc> = RefCell::new(ZDoc::new());
}

/// Sizing and durability knobs for a [`Router`].
#[derive(Debug, Clone)]
pub struct RouterConfig {
    /// In-process serve shards.
    pub shards: usize,
    /// Per-shard server sizing.
    pub server: ServerConfig,
    /// Root directory for session stores; `None` = ephemeral (no
    /// durability, placement and migration still work).
    pub store_root: Option<PathBuf>,
    /// Snapshot + compact the WAL after this many records since the
    /// last checkpoint.
    pub snapshot_every: u64,
    /// Snapshot + compact once this many bytes have been synced to a
    /// session's WAL since its last checkpoint — the record-size-blind
    /// bound on log growth (`snapshot_every` alone lets huge records
    /// grow the log without limit).
    pub max_wal_bytes: u64,
    /// Filesystem every store I/O goes through: [`Fs::real`] in
    /// production, a seeded [`copycat_store::SimFs`] in fault tests.
    pub fs: Fs,
}

impl Default for RouterConfig {
    fn default() -> Self {
        RouterConfig {
            shards: 2,
            server: ServerConfig::default(),
            store_root: None,
            snapshot_every: 64,
            max_wal_bytes: 1 << 20,
            fs: Fs::real(),
        }
    }
}

impl RouterConfig {
    /// An ephemeral (no-durability) router with `shards` shards.
    pub fn ephemeral(shards: usize) -> RouterConfig {
        RouterConfig { shards, ..RouterConfig::default() }
    }

    /// A durable router journaling under `root`.
    pub fn durable(shards: usize, root: impl Into<PathBuf>) -> RouterConfig {
        RouterConfig { shards, store_root: Some(root.into()), ..RouterConfig::default() }
    }
}

/// One session's durability state, guarded as a unit by its own mutex:
/// holding it serializes execute → append → sync for that session.
struct SessionJournal {
    /// Every journaled request line since session creation — the
    /// replay checkpoint. Snapshot payloads serialize this verbatim.
    history: Vec<String>,
    /// The on-disk WAL + snapshot pair (`None` on ephemeral routers).
    store: Option<SessionStore>,
}

/// What a [`Router::migrate_session`] call moved.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MigrationReport {
    /// Source shard index.
    pub from: usize,
    /// Target shard index.
    pub to: usize,
    /// Checkpoint length replayed onto the target.
    pub replayed: usize,
}

/// A consistent-hash router over N serve shards with per-session
/// WAL + snapshot durability. See the module docs for the contract.
pub struct Router {
    shards: Vec<Server>,
    /// Sorted `(ring point, shard)` pairs.
    ring: Vec<(u64, usize)>,
    /// Migration overrides: session name → shard, consulted before
    /// the ring.
    placed: Mutex<FxHashMap<String, usize>>,
    sessions: Mutex<FxHashMap<String, Arc<Mutex<SessionJournal>>>>,
    config: RouterConfig,
    migrations: AtomicU64,
    replayed_records: AtomicU64,
    recovered_sessions: AtomicU64,
    torn_bytes: AtomicU64,
    /// Interior WAL records quarantined across all recoveries.
    quarantined_records: AtomicU64,
    /// Interior WAL bytes quarantined across all recoveries.
    quarantined_bytes: AtomicU64,
    /// Snapshot generations skipped as corrupt across all recoveries.
    generations_skipped: AtomicU64,
    /// Sessions whose recovery failed outright (state left on disk,
    /// session not resumed).
    recovery_failures: AtomicU64,
    /// Journal fsyncs that returned an error (the batch stays buffered
    /// and retries with the next record).
    sync_failures: AtomicU64,
    /// Checkpoint installs that returned an error (the WAL keeps
    /// growing until one succeeds).
    snapshot_failures: AtomicU64,
    /// Per-session recovery reports from the last [`Router::recover`]
    /// (session name → typed loss accounting).
    recovery_reports: Mutex<Vec<(String, RecoveryReport)>>,
}

fn hash64(s: &str) -> u64 {
    let mut h = FxHasher::default();
    s.hash(&mut h);
    h.finish()
}

fn build_ring(shards: usize) -> Vec<(u64, usize)> {
    /// Ring points per shard: enough for an even spread of tenants.
    const VNODES: usize = 16;
    let mut ring: Vec<(u64, usize)> = (0..shards)
        .flat_map(|s| (0..VNODES).map(move |v| (hash64(&format!("shard-{s}/vnode-{v}")), s)))
        .collect();
    ring.sort_unstable();
    ring
}

thread_local! {
    /// Scratch for classifying *response* lines. Distinct from
    /// [`ROUTER_DOC`], which is still mutably borrowed by the request
    /// view when responses get classified.
    static RESPONSE_DOC: RefCell<ZDoc> = RefCell::new(ZDoc::new());
}

/// Parse a response line into the response scratch doc and hand the
/// root to `f`. `None` on unparseable input.
fn with_response_root<R>(resp: &str, f: impl FnOnce(Option<ZRef<'_>>) -> R) -> R {
    RESPONSE_DOC.with(|cell| match cell.try_borrow_mut() {
        Ok(mut doc) => f(doc.parse(resp).ok()),
        // Unreachable re-entrancy guard: never poison the scratch.
        Err(_) => {
            let mut doc = ZDoc::new();
            f(doc.parse(resp).ok())
        }
    })
}

/// Whether the *top-level* `ok` member of a response is `true`.
/// Structural on purpose: a payload that happens to contain the text
/// `"ok":true` (an echoed request, an error message quoting a
/// response) must not count.
fn response_ok(resp: &str) -> bool {
    with_response_root(resp, |root| {
        root.and_then(|r| r.get("ok")).and_then(|v| v.as_bool()) == Some(true)
    })
}

/// Whether a response proves the request *reached a session and ran*.
/// Refused work (queue full, draining, unknown session, duplicate
/// create) and requests that timed out before execution left no trace
/// to replay; everything else — including `bad_request` after partial
/// parameter validation and `unavailable` answers that advanced
/// breaker machines — must be journaled, because replaying it
/// reproduces the same state transitions. Classification only reads
/// the top-level envelope (see [`response_ok`] on decoys) and borrows
/// the line — no DOM is built on the journaling path.
fn response_is_effectful(resp: &str) -> bool {
    with_response_root(resp, |root| {
        let Some(root) = root else { return true };
        if root.get("ok").and_then(|v| v.as_bool()) == Some(true) {
            return true;
        }
        let error = root.get("error");
        let field = |key: &str| error.and_then(|e| e.get(key)).and_then(|v| v.as_str());
        match field("kind").unwrap_or("") {
            "overloaded" | "shutting_down" | "no_such_session" | "session_exists" => false,
            // Queued/lock-wait timeouts never touched the engine; an
            // execution timeout kept its effects (a consistent prefix).
            "timeout" => field("message") == Some("deadline exceeded during execution"),
            _ => true,
        }
    })
}

/// The journaled form of a request: its body with the `deadline_ms`
/// envelope stripped, so replay cannot re-race the wall clock. The
/// line is re-serialized canonically (same bytes `Json` would emit).
fn logged_line(req: &Request) -> String {
    let mut out = String::with_capacity(req.body.raw().len());
    let mut w = JsonWriter::compact(&mut out);
    if req.body.is_obj() {
        w.obj(|w| {
            for (k, v) in req.body.entries().filter(|(k, _)| *k != "deadline_ms") {
                w.field(k, &v);
            }
        });
    } else {
        req.body.write_json(&mut w);
    }
    out
}

/// The snapshot payload: the journaled history as a JSON string array.
fn checkpoint_payload(history: &[String]) -> String {
    json::to_string(history)
}

/// The history back out of a snapshot payload. Anything but a JSON
/// array of strings is an error, never an empty or partial history.
fn parse_checkpoint(payload: &str) -> Result<Vec<String>, JsonError> {
    json::from_str(payload)
}

/// On-disk directory for one session: a sanitized prefix for humans
/// plus the full-name hash for uniqueness (two names that sanitize
/// identically still get distinct directories).
fn session_dir(root: &Path, name: &str) -> PathBuf {
    let mut sanitized: String = name
        .chars()
        .take(40)
        .map(|c| if c.is_ascii_alphanumeric() || c == '-' || c == '_' { c } else { '_' })
        .collect();
    if sanitized.is_empty() {
        sanitized.push('s');
    }
    root.join(format!("{sanitized}-{:08x}", hash64(name) & 0xffff_ffff))
}

/// Sidecar recording the raw session name (directory names are lossy).
const NAME_FILE: &str = "name";

impl Router {
    /// A router with fresh shards and an empty ring placement.
    pub fn new(config: RouterConfig) -> Router {
        let shards = (0..config.shards.max(1))
            .map(|_| Server::new(config.server.clone()))
            .collect::<Vec<_>>();
        let ring = build_ring(shards.len());
        Router {
            shards,
            ring,
            placed: Mutex::new(FxHashMap::default()),
            sessions: Mutex::new(FxHashMap::default()),
            config,
            migrations: AtomicU64::new(0),
            replayed_records: AtomicU64::new(0),
            recovered_sessions: AtomicU64::new(0),
            torn_bytes: AtomicU64::new(0),
            quarantined_records: AtomicU64::new(0),
            quarantined_bytes: AtomicU64::new(0),
            generations_skipped: AtomicU64::new(0),
            recovery_failures: AtomicU64::new(0),
            sync_failures: AtomicU64::new(0),
            snapshot_failures: AtomicU64::new(0),
            recovery_reports: Mutex::new(Vec::new()),
        }
    }

    /// Rebuild a router from whatever `config.store_root` holds: for
    /// every session directory, load the newest verifiable snapshot
    /// generation, replay it plus the WAL tail through the owning
    /// shard, and resume with the store positioned to keep appending.
    /// Torn tails, quarantined interior records, and skipped snapshot
    /// generations are counted (and surfaced per-session via
    /// [`recovery_reports`](Router::recovery_reports)), never fatal. A
    /// session whose recovery fails outright is skipped — its state
    /// stays on disk for inspection — and counted; one rotten tenant
    /// must not take the router down.
    pub fn recover(config: RouterConfig) -> std::io::Result<Router> {
        let router = Router::new(config);
        let Some(root) = router.config.store_root.clone() else {
            return Ok(router);
        };
        let fs = router.config.fs.clone();
        if !fs.exists(&root) {
            return Ok(router);
        }
        let mut dirs: Vec<PathBuf> = fs.list_dirs(&root)?;
        dirs.sort(); // deterministic recovery order
        for dir in dirs {
            let Ok(name_bytes) = fs.read(&dir.join(NAME_FILE)) else {
                continue; // not a session directory
            };
            let Ok(name) = String::from_utf8(name_bytes) else {
                continue;
            };
            // The sidecar itself can be a casualty (a short write left a
            // truncated name). The directory name embeds the full-name
            // hash, so a name that doesn't map back to its own directory
            // is corrupt — resurrecting the session under a wrong name
            // would be a silent identity swap. Count it as a failed
            // recovery and leave the state on disk.
            if session_dir(&root, &name) != dir {
                // relaxed: monotone recovery counter, stats() only
                router.recovery_failures.fetch_add(1, Ordering::Relaxed);
                continue;
            }
            let (store, recovery) = match SessionStore::recover(&fs, &dir) {
                Ok(pair) => pair,
                Err(_) => {
                    // relaxed: monotone recovery counter, stats() only
                    router.recovery_failures.fetch_add(1, Ordering::Relaxed);
                    continue;
                }
            };
            // A snapshot that passed its checksum but does not decode is
            // as fatal as a wrong sidecar: replaying only the WAL tail
            // would resurrect a session that was never created.
            let mut history = match recovery.snapshot.as_deref().map(parse_checkpoint) {
                None => Vec::new(),
                Some(Ok(history)) => history,
                Some(Err(_)) => {
                    // relaxed: monotone recovery counter, stats() only
                    router.recovery_failures.fetch_add(1, Ordering::Relaxed);
                    continue;
                }
            };
            history.extend(recovery.tail.iter().cloned());
            let report = recovery.report;
            // relaxed: monotone recovery counters, read only by stats()
            router.torn_bytes.fetch_add(report.torn_tail_bytes, Ordering::Relaxed);
            router
                .quarantined_records
                // relaxed: monotone recovery counter, stats() only
                .fetch_add(report.quarantined.len() as u64, Ordering::Relaxed);
            router
                .quarantined_bytes
                // relaxed: monotone recovery counter, stats() only
                .fetch_add(report.quarantined_bytes, Ordering::Relaxed);
            router
                .generations_skipped
                // relaxed: monotone recovery counter, stats() only
                .fetch_add(report.generations_skipped, Ordering::Relaxed);
            let shard = router.ring_shard(&name);
            for line in &history {
                let _ = router.shards[shard].handle_line(line);
            }
            router
                .replayed_records
                // relaxed: monotone recovery counter, stats() only
                .fetch_add(history.len() as u64, Ordering::Relaxed);
            // relaxed: monotone recovery counter, stats() only
            router.recovered_sessions.fetch_add(1, Ordering::Relaxed);
            router.recovery_reports.lock().push((name.clone(), report));
            router.sessions.lock().insert(
                name,
                Arc::new(Mutex::new(SessionJournal { history, store: Some(store) })),
            );
        }
        Ok(router)
    }

    /// Per-session typed loss accounting from the last
    /// [`recover`](Router::recover), in recovery order.
    pub fn recovery_reports(&self) -> Vec<(String, RecoveryReport)> {
        self.recovery_reports.lock().clone()
    }

    /// The journaled history for one session — the exact replay
    /// checkpoint, in WAL order (test/verification introspection; the
    /// crash-storm sweep diffs this byte-for-byte against what it
    /// acked).
    pub fn journal_history(&self, name: &str) -> Option<Vec<String>> {
        let entry = { self.sessions.lock().get(name).map(Arc::clone) };
        entry.map(|e| e.lock().history.clone())
    }

    /// The shards themselves (test/bench introspection).
    pub fn shard(&self, i: usize) -> &Server {
        &self.shards[i]
    }

    /// Where `name` currently lives: a migration override if one
    /// exists, otherwise its ring interval.
    pub fn shard_of(&self, name: &str) -> usize {
        if let Some(&s) = self.placed.lock().get(name) {
            return s;
        }
        self.ring_shard(name)
    }

    fn ring_shard(&self, name: &str) -> usize {
        let h = hash64(name);
        let i = match self.ring.binary_search(&(h, usize::MAX)) {
            Ok(i) => i,
            Err(i) => i % self.ring.len(),
        };
        self.ring[i].1
    }

    fn journal_entry(&self, name: &str) -> Arc<Mutex<SessionJournal>> {
        let mut map = self.sessions.lock();
        Arc::clone(map.entry(name.to_string()).or_insert_with(|| {
            Arc::new(Mutex::new(SessionJournal { history: Vec::new(), store: None }))
        }))
    }

    /// Handle one request line, blocking until its response line —
    /// the same contract as [`Server::handle_line`], with placement
    /// and durability layered on.
    pub fn handle_line(&self, line: &str) -> String {
        ROUTER_DOC.with(|cell| match cell.try_borrow_mut() {
            Ok(mut doc) => self.route_line(&mut doc, line),
            // Unreachable re-entrancy guard: never poison the scratch.
            Err(_) => self.route_line(&mut ZDoc::new(), line),
        })
    }

    fn route_line(&self, doc: &mut ZDoc, line: &str) -> String {
        let req = match Request::parse(doc, line) {
            // Unparseable requests go to shard 0 for the identical
            // bad_request answer (and its `invalid` metrics class).
            Err(_) => return self.shards[0].handle_line(line),
            Ok(r) => r,
        };
        match req.op {
            Op::Shutdown => {
                for s in &self.shards {
                    let _ = s.handle_line(line);
                }
                return ok_response(
                    req.id,
                    &Json::obj(vec![("draining".into(), Json::Bool(true))]),
                );
            }
            Op::ListSessions => {
                let mut names: Vec<String> =
                    self.shards.iter().flat_map(|s| s.registry().names()).collect();
                names.sort();
                let listed = Json::Arr(names.iter().map(|n| Json::str(n.as_str())).collect());
                return ok_response(req.id, &Json::obj(vec![("sessions".into(), listed)]));
            }
            Op::Stats => return ok_response(req.id, &self.stats()),
            _ => {}
        }
        let Some(name) = req.session else {
            // Session-less ops (ping) are stateless; any shard answers.
            return self.shards[0].handle_line(line);
        };
        // Every session-scoped op serializes on the journal lock: it
        // orders the WAL like execution, and it is what `migrate_session`
        // drains against (reads included — a read racing a migration
        // must not land on the vacated shard).
        let journal = self.journal_entry(name);
        let mut j = journal.lock();
        let shard_idx = self.shard_of(name);
        // lint:allow(guard-across-blocking) blocks on the shard's admission gate; permit holders never take router journal locks, so no cycle
        let resp = self.shards[shard_idx].handle_line(line); // lint:allow(lock-order) name-based call graph merges Router::handle_line into this call; shards never lock router journals
        if req.op == Op::CloseSession {
            if response_ok(&resp) {
                // A durably *closed* session: remove its journal and
                // its on-disk state (idempotent), and forget overrides.
                if let Some(root) = &self.config.store_root {
                    let _ = SessionStore::destroy(&self.config.fs, &session_dir(root, name));
                }
                j.history.clear();
                j.store = None;
                self.sessions.lock().remove(name);
                self.placed.lock().remove(name);
            }
            return resp;
        }
        if req.op.mutates() && response_is_effectful(&resp) {
            let logged = logged_line(&req);
            j.history.push(logged.clone());
            if let Some(root) = self.config.store_root.clone() {
                self.journal_durably(name, &root, &mut j, &logged);
            }
        }
        resp
    }

    /// Append one record to the session's store — creating it on the
    /// first record — fsync it, and checkpoint per `snapshot_every`.
    /// Called with the journal lock held, after execution, before the
    /// response is released: the write-ahead is of the
    /// *acknowledgment*, not the execution.
    fn journal_durably(
        &self,
        name: &str,
        root: &Path,
        j: &mut SessionJournal,
        logged: &str,
    ) {
        if j.store.is_none() {
            let dir = session_dir(root, name);
            match SessionStore::create(&self.config.fs, &dir) {
                Ok(store) => {
                    // Durable on purpose: a crash that truncated an
                    // unsynced sidecar would leave the session's WAL
                    // unrecoverable (the name no longer hashes back to
                    // its directory). One fsync per session creation.
                    let _ = self.config.fs.write_sync(&dir.join(NAME_FILE), name.as_bytes());
                    j.store = Some(store);
                }
                Err(_) => return, // ephemeral fallback; never fail the request
            }
        }
        let Some(store) = j.store.as_mut() else { return };
        store.append(logged);
        // On failure the record stays in the WAL's write buffer, so the
        // next journaled record's fsync retries it too.
        if store.sync().is_err() {
            // relaxed: monotone failure counter, stats() only
            self.sync_failures.fetch_add(1, Ordering::Relaxed);
        }
        let due = store.records_since_snapshot() >= self.config.snapshot_every.max(1)
            || store.wal_bytes_since_snapshot() >= self.config.max_wal_bytes.max(1);
        if due && store.snapshot(&checkpoint_payload(&j.history)).is_err() {
            // The WAL keeps every record; the next journaled record
            // re-trips the trigger and retries.
            // relaxed: monotone failure counter, stats() only
            self.snapshot_failures.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// [`handle_line`](Router::handle_line) plus response parsing.
    pub fn handle(&self, line: &str) -> Json {
        // lint:allow(panic-path) test/script convenience on router-produced JSON, not a request path
        Json::parse(&self.handle_line(line)).expect("router responses are valid JSON")
    }

    /// Move a live session to another shard: **drain** (the journal
    /// lock blocks every request for this session), **checkpoint**
    /// (durable consistency point when a store exists), **transfer**
    /// (replay the checkpoint on the target shard), **resume** (repoint
    /// the placement override and release the lock).
    pub fn migrate_session(&self, name: &str, to: usize) -> Result<MigrationReport, String> {
        if to >= self.shards.len() {
            return Err(format!("no shard {to} (router has {})", self.shards.len()));
        }
        let journal = self.journal_entry(name);
        let mut j = journal.lock();
        let from = self.shard_of(name);
        if j.history.is_empty() {
            return Err(format!("no journaled session named {name:?}"));
        }
        if from == to {
            return Ok(MigrationReport { from, to, replayed: 0 });
        }
        let payload = checkpoint_payload(&j.history);
        if let Some(store) = j.store.as_mut() {
            store
                .snapshot(&payload)
                .map_err(|e| format!("checkpoint failed: {e}"))?;
        }
        for line in &j.history {
            // lint:allow(guard-across-blocking) blocks on the shard's admission gate; permit holders never take router journal locks, so no cycle
            let _ = self.shards[to].handle_line(line); // lint:allow(lock-order) false re-acquire from the Router::handle_line name merge; shards never lock router journals
        }
        // Vacate the source copy. Direct shard call: migration is an
        // administrative move, not a journaled protocol event.
        let close = json::to_string(&Json::obj(vec![
            ("op".into(), Json::str("close_session")),
            ("session".into(), Json::str(name)),
        ]));
        // lint:allow(guard-across-blocking) blocks on the shard's admission gate; permit holders never take router journal locks, so no cycle
        let _ = self.shards[from].handle_line(&close); // lint:allow(lock-order) same Router::handle_line name merge as the replay loop above
        self.placed.lock().insert(name.to_string(), to);
        // relaxed: monotone stat; no reader reconciles it against state
        self.migrations.fetch_add(1, Ordering::Relaxed);
        Ok(MigrationReport { from, to, replayed: j.history.len() })
    }

    /// Merged router-level stats: placement, durability accounting,
    /// and every shard's own metrics snapshot under `"shards"`.
    pub fn stats(&self) -> Json {
        let mut sessions = 0usize;
        let mut durable = StoreStats::default();
        let mut with_store = 0usize;
        {
            let map = self.sessions.lock();
            for entry in map.values() {
                let j = entry.lock();
                sessions += 1;
                if let Some(store) = &j.store {
                    let s = store.stats();
                    with_store += 1;
                    durable.appends += s.appends;
                    durable.snapshots += s.snapshots;
                    durable.sync.syncs += s.sync.syncs;
                    durable.sync.records_synced += s.sync.records_synced;
                    durable.sync.bytes_synced += s.sync.bytes_synced;
                    durable.sync.sync_micros += s.sync.sync_micros;
                }
            }
        }
        let shard_stats: Vec<Json> = self
            .shards
            .iter()
            .map(|s| {
                Json::obj(vec![
                    ("sessions".into(), Json::Num(s.registry().len() as f64)),
                    ("metrics".into(), s.metrics().snapshot_json()),
                ])
            })
            .collect();
        Json::obj(vec![
            ("shards".into(), Json::Arr(shard_stats)),
            ("sessions".into(), Json::Num(sessions as f64)),
            (
                "placement".into(),
                Json::obj(vec![
                    ("ring_points".into(), Json::Num(self.ring.len() as f64)),
                    (
                        "overrides".into(),
                        Json::Num(self.placed.lock().len() as f64),
                    ),
                    (
                        "migrations".into(),
                        // relaxed: stats snapshot of a monotone counter
                        Json::Num(self.migrations.load(Ordering::Relaxed) as f64),
                    ),
                ]),
            ),
            (
                "durability".into(),
                Json::obj(vec![
                    ("stores".into(), Json::Num(with_store as f64)),
                    ("appends".into(), Json::Num(durable.appends as f64)),
                    ("snapshots".into(), Json::Num(durable.snapshots as f64)),
                    ("syncs".into(), Json::Num(durable.sync.syncs as f64)),
                    (
                        "records_synced".into(),
                        Json::Num(durable.sync.records_synced as f64),
                    ),
                    (
                        "bytes_synced".into(),
                        Json::Num(durable.sync.bytes_synced as f64),
                    ),
                    (
                        "replayed_records".into(),
                        // relaxed: stats snapshot of a monotone counter
                        Json::Num(self.replayed_records.load(Ordering::Relaxed) as f64),
                    ),
                    (
                        "recovered_sessions".into(),
                        // relaxed: stats snapshot of a monotone counter
                        Json::Num(self.recovered_sessions.load(Ordering::Relaxed) as f64),
                    ),
                    (
                        "torn_bytes".into(),
                        // relaxed: stats snapshot of a monotone counter
                        Json::Num(self.torn_bytes.load(Ordering::Relaxed) as f64),
                    ),
                    (
                        "quarantined_records".into(),
                        // relaxed: stats snapshot of a monotone counter
                        Json::Num(self.quarantined_records.load(Ordering::Relaxed) as f64),
                    ),
                    (
                        "quarantined_bytes".into(),
                        // relaxed: stats snapshot of a monotone counter
                        Json::Num(self.quarantined_bytes.load(Ordering::Relaxed) as f64),
                    ),
                    (
                        "generations_skipped".into(),
                        // relaxed: stats snapshot of a monotone counter
                        Json::Num(self.generations_skipped.load(Ordering::Relaxed) as f64),
                    ),
                    (
                        "recovery_failures".into(),
                        // relaxed: stats snapshot of a monotone counter
                        Json::Num(self.recovery_failures.load(Ordering::Relaxed) as f64),
                    ),
                    (
                        "sync_failures".into(),
                        // relaxed: stats snapshot of a monotone counter
                        Json::Num(self.sync_failures.load(Ordering::Relaxed) as f64),
                    ),
                    (
                        "snapshot_failures".into(),
                        // relaxed: stats snapshot of a monotone counter
                        Json::Num(self.snapshot_failures.load(Ordering::Relaxed) as f64),
                    ),
                ]),
            ),
        ])
    }

    /// Graceful shutdown: flush every journal, then drain every shard.
    /// Dropping a `Router` *without* calling this is the crash
    /// simulation the recovery tests use — buffered (un-synced)
    /// journal records are lost, synced ones survive.
    pub fn shutdown(self) {
        {
            let map = self.sessions.lock();
            for entry in map.values() {
                if let Some(store) = entry.lock().store.as_mut() {
                    let _ = store.sync();
                }
            }
        }
        for s in self.shards {
            s.shutdown();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_root(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "copycat-router-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        #[expect(
            clippy::disallowed_methods,
            reason = "test temp-dir cleanup, off the durable path"
        )]
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn ring_lookup_is_consistent_and_total() {
        let r = Router::new(RouterConfig::ephemeral(4));
        for i in 0..200 {
            let name = format!("tenant-{i}");
            let a = r.shard_of(&name);
            let b = r.shard_of(&name);
            assert_eq!(a, b, "placement is a function of the name");
            assert!(a < 4);
        }
        // With vnodes, 200 tenants should not all collapse onto one
        // shard.
        let mut counts = [0usize; 4];
        for i in 0..200 {
            counts[r.shard_of(&format!("tenant-{i}"))] += 1;
        }
        assert!(counts.iter().all(|&c| c > 0), "all shards used: {counts:?}");
    }

    #[test]
    fn growing_the_ring_moves_only_an_interval_fraction() {
        let small = Router::new(RouterConfig::ephemeral(4));
        let big = Router::new(RouterConfig::ephemeral(5));
        let moved = (0..400)
            .filter(|i| {
                let name = format!("tenant-{i}");
                small.shard_of(&name) != big.shard_of(&name)
            })
            .count();
        // Consistent hashing: ~1/5 of keys move when a fifth shard
        // joins; naive modulo would move ~4/5. Allow generous slack.
        assert!(moved < 200, "only an interval moved, not the world: {moved}/400");
        small.shutdown();
        big.shutdown();
    }

    #[test]
    fn effectful_classification_matches_the_protocol() {
        assert!(response_is_effectful(r#"{"id":1,"ok":true,"result":{}}"#));
        assert!(response_is_effectful(
            r#"{"id":1,"ok":false,"error":{"kind":"bad_request","message":"x"}}"#
        ));
        assert!(response_is_effectful(
            r#"{"id":1,"ok":false,"error":{"kind":"unavailable","message":"x"}}"#
        ));
        assert!(response_is_effectful(
            r#"{"id":1,"ok":false,"error":{"kind":"timeout","message":"deadline exceeded during execution"}}"#
        ));
        for refused in [
            r#"{"id":1,"ok":false,"error":{"kind":"overloaded","message":"x"}}"#,
            r#"{"id":1,"ok":false,"error":{"kind":"shutting_down","message":"x"}}"#,
            r#"{"id":1,"ok":false,"error":{"kind":"no_such_session","message":"x"}}"#,
            r#"{"id":1,"ok":false,"error":{"kind":"session_exists","message":"x"}}"#,
            r#"{"id":1,"ok":false,"error":{"kind":"timeout","message":"deadline exceeded while queued"}}"#,
            r#"{"id":1,"ok":false,"error":{"kind":"timeout","message":"deadline exceeded awaiting session"}}"#,
        ] {
            assert!(!response_is_effectful(refused), "{refused}");
        }
    }

    #[test]
    fn decoy_ok_true_text_in_payloads_does_not_flip_classification() {
        // The classifiers are structural: `"ok":true` appearing as
        // *text* inside a message or echoed value must not make a
        // refused response look effectful (journaling a refusal would
        // replay a request the engine never ran).
        let decoys = [
            r#"{"id":1,"ok":false,"error":{"kind":"overloaded","message":"retry {\"ok\":true} later"}}"#,
            r#"{"id":1,"ok":false,"error":{"kind":"no_such_session","message":"\"ok\":true"}}"#,
            r#"{"id":1,"ok":false,"error":{"kind":"session_exists","message":"client sent \"ok\":true"}}"#,
        ];
        for resp in decoys {
            assert!(!response_is_effectful(resp), "{resp}");
            assert!(!response_ok(resp), "{resp}");
        }
        // A nested object member named `ok` is not the top-level one.
        let nested = r#"{"id":1,"ok":false,"error":{"kind":"shutting_down","message":"x","detail":{"ok":true}}}"#;
        assert!(!response_is_effectful(nested));
        assert!(!response_ok(nested));
        // And the genuine envelope still classifies.
        assert!(response_ok(r#"{"id":1,"ok":true,"result":{"note":"\"ok\":false"}}"#));
    }

    #[test]
    fn decoy_close_response_does_not_destroy_the_journal() {
        // A failed close (no such session on the shard) whose error
        // message quotes `"ok":true` must leave durable state alone:
        // the close path keys journal destruction on `response_ok`.
        let root = temp_root("decoy-close");
        let router = Router::new(RouterConfig::durable(2, root.clone()));
        let ok = router.handle_line(r#"{"id":1,"op":"create_session","session":"keep"}"#);
        assert!(response_ok(&ok), "{ok}");
        let paste = router.handle_line(
            r#"{"id":2,"op":"open_doc","session":"keep","name":"D","headers":["A"],"rows":[["x"]]}"#,
        );
        assert!(response_ok(&paste), "{paste}");
        // Closing a *different* session fails; state for `keep` stays.
        let refused = router.handle_line(r#"{"id":3,"op":"close_session","session":"gone"}"#);
        assert!(!response_ok(&refused), "{refused}");
        let stats = router.handle_line(r#"{"id":4,"op":"session_stats","session":"keep"}"#);
        assert!(response_ok(&stats), "{stats}");
        router.shutdown();
        #[expect(
            clippy::disallowed_methods,
            reason = "test temp-dir cleanup, off the durable path"
        )]
        let _ = std::fs::remove_dir_all(root);
    }

    #[test]
    fn deadline_is_stripped_from_the_journal() {
        let mut doc = ZDoc::new();
        let req = Request::parse(
            &mut doc,
            r#"{"id":9,"op":"paste","session":"s","doc":0,"values":["a"],"deadline_ms":250}"#,
        )
        .unwrap();
        let logged = logged_line(&req);
        assert!(!logged.contains("deadline_ms"), "{logged}");
        assert!(logged.contains("\"values\""), "{logged}");
        // And the journaled line is still a parseable request.
        let mut redoc = ZDoc::new();
        assert!(Request::parse(&mut redoc, &logged).is_ok());
    }

    #[test]
    fn session_dirs_are_unique_even_when_sanitization_collides() {
        let root = Path::new("/tmp/x");
        let a = session_dir(root, "a/b");
        let b = session_dir(root, "a.b");
        assert_ne!(a, b);
        assert!(a.file_name().unwrap().to_str().unwrap().starts_with("a_b-"));
    }

    #[test]
    fn checkpoint_payload_round_trips() {
        let history = vec![
            r#"{"op":"create_session","session":"s"}"#.to_string(),
            r#"{"op":"paste","session":"s","values":["a","b"]}"#.to_string(),
        ];
        assert_eq!(parse_checkpoint(&checkpoint_payload(&history)).unwrap(), history);
        for bad in ["not json", "{}", r#"["ok", 3]"#] {
            assert!(parse_checkpoint(bad).is_err(), "{bad}");
        }
    }

    #[test]
    fn undecodable_checkpoint_is_counted_not_resurrected() {
        let root = temp_root("bad-checkpoint");
        let config = RouterConfig::durable(2, root.clone());
        let dir = session_dir(&root, "rotten");
        let mut store = SessionStore::create(&config.fs, &dir).unwrap();
        config.fs.write_sync(&dir.join(NAME_FILE), b"rotten").unwrap();
        store.append(r#"{"id":1,"op":"create_session","session":"rotten"}"#);
        // Checksummed on disk, but not a JSON array of strings.
        store.snapshot(r#"["{\"id\":1}", 3]"#).unwrap();
        store.append(r#"{"id":2,"op":"open_doc","session":"rotten","name":"D","headers":["A"],"rows":[["x"]]}"#);
        store.sync().unwrap();
        drop(store);
        let router = Router::recover(config).unwrap();
        assert_eq!(router.stats()["durability"]["recovery_failures"].as_f64(), Some(1.0));
        assert!(router.journal_history("rotten").is_none());
        let resp = router.handle_line(r#"{"id":3,"op":"render","session":"rotten"}"#);
        assert!(!response_ok(&resp), "{resp}");
        assert!(dir.join(NAME_FILE).exists(), "state stays on disk for inspection");
        router.shutdown();
        #[expect(
            clippy::disallowed_methods,
            reason = "test temp-dir cleanup, off the durable path"
        )]
        let _ = std::fs::remove_dir_all(root);
    }
}
