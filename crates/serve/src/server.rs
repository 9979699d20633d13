//! The session server: admission gate → per-session engine dispatch →
//! metrics, with graceful drain.
//!
//! [`Server::handle_line`] *is* the in-process transport: callers hand
//! it one request line and block for the one response line. The TCP
//! listener ([`crate::tcp`]) is a thin byte pump over the same method,
//! so tests and benches exercise exactly the code a socket client hits.
//! The request runs on the caller's own thread; there is no worker
//! pool and no hand-off.
//!
//! Request lifecycle and where deadlines are checked:
//!
//! 1. **Parse** — failures are counted under the synthetic `invalid`
//!    class and answered `bad_request` inline.
//! 2. **Admission** — draining servers answer `shutting_down`. The
//!    deadline starts here, then the caller takes one of `workers`
//!    permits from the [`Gate`], waiting for one if all are out and
//!    fewer than `queue_depth` callers already wait; otherwise it is
//!    answered `overloaded`. Time spent waiting counts against the
//!    budget.
//! 3. **Permit acquired** — expired requests answer `timeout` without
//!    touching any session.
//! 4. **Post-lookup** — after the session lock is taken but before the
//!    engine runs.
//! 5. **Post-engine** — after the engine op, with any *virtual* service
//!    latency accrued by [`Flaky`] probes charged to the budget. The
//!    op's effects are kept (a consistent prefix), but the client is
//!    told `timeout`.
//!
//! Responses never embed timing, so a given request script produces
//! byte-identical responses whether sessions are driven sequentially or
//! concurrently — the determinism contract the serve tests pin.

use crate::deadline::Deadline;
use crate::metrics::Metrics;
use crate::protocol::{err_response, ok_response, ErrorKind, Op, Request};
use crate::registry::{SessionRegistry, SessionState};
use copycat_core::{explain, export, CopyCat, WorldBase};
use copycat_document::corpus::contact_sheet;
use copycat_document::{Document, DocumentId};
use copycat_query::{Renamed, Service};
use copycat_services::{
    AddressResolver, CurrencyConverter, Flaky, Geocoder, HealthSnapshot, ReversePhone,
    RetryPolicy, UnitConverter, World, WorldConfig, ZipResolver,
};
use copycat_util::hash::FxHashMap;
use copycat_util::json::{Json, JsonError};
use copycat_util::sync::Mutex;
use copycat_util::zjson::ZDoc;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, PoisonError};

/// Admission and registry sizing.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Requests executing at once (permits of the admission gate).
    pub workers: usize,
    /// Callers that may wait for a permit; beyond it requests are
    /// `overloaded`.
    pub queue_depth: usize,
    /// Registry shard count (rounded up to a power of two).
    pub shards: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig { workers: 4, queue_depth: 64, shards: 8 }
    }
}

/// The parse index of a line longer than this is dropped instead of
/// pooled, so one pathological request cannot pin megabytes.
const MAX_POOLED_LINE_LEN: usize = 64 * 1024;

/// The admission gate: at most `permits` requests execute at once and
/// at most `max_waiting` more wait for a permit. Beyond that a request
/// is turned away *now* instead of joining a backlog whose every entry
/// would miss its deadline anyway. Waiters are not served in arrival
/// order; deadlines bound how long any one of them waits.
struct Gate {
    /// `(running, waiting)`.
    occupancy: Mutex<(usize, usize)>,
    /// Signalled when a permit is returned while someone waits.
    freed: Condvar,
    permits: usize,
    max_waiting: usize,
}

/// One execution slot. Dropping it returns the slot — on unwind too, so
/// a panicking handler leaks no permit.
struct Permit<'g>(&'g Gate);

impl Gate {
    fn new(permits: usize, max_waiting: usize) -> Gate {
        Gate {
            occupancy: Mutex::new((0, 0)),
            freed: Condvar::new(),
            permits: permits.max(1),
            max_waiting,
        }
    }

    /// Take a permit, waiting for one if all are out and the waiting
    /// room has space; `None` if it has none.
    fn enter(&self) -> Option<Permit<'_>> {
        let mut occupancy = self.occupancy.lock();
        if occupancy.0 >= self.permits {
            if occupancy.1 >= self.max_waiting {
                return None;
            }
            occupancy.1 += 1;
            occupancy = self
                .freed
                .wait_while(occupancy, |(running, _)| *running >= self.permits)
                .unwrap_or_else(PoisonError::into_inner);
            occupancy.1 -= 1;
        }
        occupancy.0 += 1;
        Some(Permit(self))
    }

    /// Callers currently waiting for a permit.
    fn waiting(&self) -> usize {
        self.occupancy.lock().1
    }
}

impl Drop for Permit<'_> {
    fn drop(&mut self) {
        let mut occupancy = self.0.occupancy.lock();
        occupancy.0 -= 1;
        let wake = occupancy.1 > 0;
        drop(occupancy);
        if wake {
            self.0.freed.notify_one();
        }
    }
}

/// The multi-tenant session server.
pub struct Server {
    registry: SessionRegistry,
    metrics: Metrics,
    accepting: AtomicBool,
    gate: Gate,
    /// Reusable parse indexes: taken per request, returned after the
    /// response is rendered. Warm, request handling performs no
    /// parse-side allocations.
    docs: Mutex<Vec<ZDoc>>,
    /// Upper bound on pooled docs — enough for every permit holder and
    /// every waiter.
    docs_cap: usize,
    /// Shared world bases, memoized by `(seed, venues)`: every
    /// `create_session {"world": …}` naming the same config overlays the
    /// same frozen base (see [`WorldBase`]).
    worlds: Mutex<FxHashMap<(u64, usize), Arc<WorldBase>>>,
}

type OpResult = Result<Json, (ErrorKind, String)>;

fn bad(e: JsonError) -> (ErrorKind, String) {
    (ErrorKind::BadRequest, e.to_string())
}

fn no_suggestion(i: usize) -> (ErrorKind, String) {
    (ErrorKind::BadRequest, format!("no suggestion at index {i}"))
}

fn obj(fields: Vec<(&str, Json)>) -> Json {
    Json::obj(fields.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
}

fn jnum(n: usize) -> Json {
    Json::Num(n as f64)
}

fn jrows(rows: &[Vec<String>]) -> Json {
    Json::Arr(
        rows.iter()
            .map(|r| Json::Arr(r.iter().map(|c| Json::str(c.as_str())).collect()))
            .collect(),
    )
}

fn jstrings(items: &[String]) -> Json {
    Json::Arr(items.iter().map(|s| Json::str(s.as_str())).collect())
}

fn jtransform(t: &copycat_core::LearnedTransform) -> Json {
    obj(vec![
        ("edge", Json::Num(t.edge.0 as f64)),
        ("from", Json::str(&t.from_source)),
        ("from_col", Json::str(&t.from_col)),
        ("to", Json::str(&t.to_source)),
        ("to_col", Json::str(&t.to_col)),
        ("program", Json::str(t.program.to_string())),
        ("cost", Json::Num(t.cost)),
        ("coverage", Json::Num(t.coverage)),
    ])
}

fn jhealth(snap: &HealthSnapshot) -> Json {
    obj(vec![
        ("service", Json::str(&snap.service)),
        ("state", Json::str(snap.state.as_str())),
        ("calls", Json::Num(snap.calls as f64)),
        ("failures", Json::Num(snap.failures as f64)),
        ("retries", Json::Num(snap.retries as f64)),
        ("trips", Json::Num(snap.trips as f64)),
        ("short_circuits", Json::Num(snap.short_circuits as f64)),
        ("observed_failure_rate", Json::Num(snap.observed_failure_rate)),
        ("backoff_virtual_ms", Json::Num(snap.backoff_virtual_ms as f64)),
    ])
}

impl Server {
    /// A server with the given sizing.
    pub fn new(config: ServerConfig) -> Server {
        Server {
            registry: SessionRegistry::new(config.shards),
            metrics: Metrics::new(),
            accepting: AtomicBool::new(true),
            gate: Gate::new(config.workers, config.queue_depth),
            docs: Mutex::new(Vec::new()),
            docs_cap: config.workers + config.queue_depth + 1,
            worlds: Mutex::new(FxHashMap::default()),
        }
    }

    /// A server with default sizing.
    pub fn with_defaults() -> Server {
        Server::new(ServerConfig::default())
    }

    /// The metrics registry (test/bench introspection).
    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    /// The session registry (test introspection).
    pub fn registry(&self) -> &SessionRegistry {
        &self.registry
    }

    /// Whether the server has begun draining.
    pub fn draining(&self) -> bool {
        !self.accepting.load(Ordering::SeqCst)
    }

    /// Callers currently waiting for an execution permit.
    pub fn queued(&self) -> usize {
        self.gate.waiting()
    }

    /// Handle one request line on the calling thread, blocking until its
    /// response line.
    ///
    /// This is the in-process transport: every transport funnels here.
    pub fn handle_line(&self, line: &str) -> String {
        let mut doc = self.docs.lock().pop().unwrap_or_default();
        let resp = self.respond(&mut doc, line);
        // The doc's node/arena capacity is the whole point of pooling:
        // a warm doc parses the next request without allocating.
        if line.len() <= MAX_POOLED_LINE_LEN {
            let mut docs = self.docs.lock();
            if docs.len() < self.docs_cap {
                docs.push(doc);
            }
        }
        resp
    }

    fn respond(&self, doc: &mut ZDoc, line: &str) -> String {
        let metrics = &self.metrics;
        let req = match Request::parse(doc, line) {
            Ok(req) => req,
            Err((id, msg)) => {
                metrics.admitted(Op::Invalid);
                metrics.error(Op::Invalid, 0);
                return err_response(id, ErrorKind::BadRequest, &msg);
            }
        };
        let op = req.op;
        metrics.admitted(op);
        // `shutdown` is handled inline: it must work even when every
        // permit is out, and it is what closes the front door.
        if op == Op::Shutdown {
            self.accepting.store(false, Ordering::SeqCst);
            metrics.ok(op, 0);
            return ok_response(req.id, &obj(vec![("draining", Json::Bool(true))]));
        }
        if self.draining() {
            metrics.shed(op);
            return err_response(req.id, ErrorKind::ShuttingDown, "server is draining");
        }
        let mut deadline = Deadline::starting_now(req.deadline_ms);
        let Some(permit) = self.gate.enter() else {
            metrics.overloaded(op);
            return err_response(req.id, ErrorKind::Overloaded, "admission queue full; retry");
        };
        if deadline.expired() {
            drop(permit);
            metrics.timeout(op, deadline.spent_us());
            return err_response(req.id, ErrorKind::Timeout, "deadline exceeded while queued");
        }
        let result = catch_unwind(AssertUnwindSafe(|| {
            let _permit = permit;
            self.dispatch(&req, &mut deadline)
        }));
        let spent = deadline.spent_us();
        match result {
            Ok(Ok(json)) => {
                if deadline.expired() {
                    metrics.timeout(op, spent);
                    err_response(req.id, ErrorKind::Timeout, "deadline exceeded during execution")
                } else {
                    metrics.ok(op, spent);
                    ok_response(req.id, &json)
                }
            }
            Ok(Err((kind, msg))) => {
                if kind == ErrorKind::Timeout {
                    metrics.timeout(op, spent);
                } else {
                    metrics.error(op, spent);
                }
                err_response(req.id, kind, &msg)
            }
            Err(_) => {
                metrics.error(op, spent);
                err_response(req.id, ErrorKind::Internal, "handler panicked")
            }
        }
    }

    /// [`handle_line`](Server::handle_line) plus response parsing, for
    /// tests and scripts.
    pub fn handle(&self, line: &str) -> Json {
        // lint:allow(panic-path) test/script convenience on server-produced JSON, not a request path
        Json::parse(&self.handle_line(line)).expect("server responses are valid JSON")
    }

    /// Graceful shutdown: stop admitting. Consuming the server proves no
    /// `handle_line` call is still running, so every admitted request
    /// has already had its response.
    pub fn shutdown(self) {
        self.accepting.store(false, Ordering::SeqCst);
    }

    /// The memoized shared base for one world config. Built under the
    /// lock so racing creates observe one `Arc` identity.
    fn shared_world(&self, config: &WorldConfig) -> Arc<WorldBase> {
        let mut worlds = self.worlds.lock();
        Arc::clone(
            worlds
                .entry((config.seed, config.venues))
                .or_insert_with(|| Arc::new(WorldBase::synthetic(config))),
        )
    }

    /// Run a session-scoped op under the session lock, charging any
    /// virtual service latency the op accrued to the request deadline.
    fn with_session<F>(&self, req: &Request, deadline: &mut Deadline, f: F) -> OpResult
    where
        F: FnOnce(&mut SessionState) -> OpResult,
    {
        let name = req
            .session
            .ok_or_else(|| (ErrorKind::BadRequest, "missing \"session\"".to_string()))?;
        let session = self.registry.get(name).map_err(|_| {
            (ErrorKind::NoSuchSession, format!("no session named {name:?}"))
        })?;
        let mut state = session.state.lock();
        if deadline.expired() {
            return Err((ErrorKind::Timeout, "deadline exceeded awaiting session".to_string()));
        }
        let virtual_before = state.virtual_latency_ms();
        let result = f(&mut state);
        let accrued = state.virtual_latency_ms().saturating_sub(virtual_before);
        deadline.charge_virtual_ms(accrued);
        result
    }

    fn dispatch(&self, req: &Request, deadline: &mut Deadline) -> OpResult {
        match req.op {
            Op::Ping => Ok(obj(vec![("pong", Json::Bool(true))])),
            Op::CreateSession => self.create_session(req),
            Op::LoadSession => self.load_session(req),
            Op::CloseSession => self.close_session(req),
            Op::ListSessions => Ok(obj(vec![(
                "sessions",
                jstrings(&self.registry.names()),
            )])),
            Op::Stats => Ok(self.stats()),
            Op::SaveSession => self.with_session(req, deadline, |s| {
                // The snapshot moves into the response: no second copy.
                Ok(obj(vec![("snapshot", Json::Str(s.engine.save_session_json()))]))
            }),
            Op::OpenDoc => self.with_session(req, deadline, |s| open_doc(req, s)),
            Op::Paste => self.with_session(req, deadline, |s| paste(req, s)),
            Op::AcceptRows => self.with_session(req, deadline, |s| {
                Ok(obj(vec![("accepted", jnum(s.engine.accept_suggested_rows()))]))
            }),
            Op::NameColumn => self.with_session(req, deadline, |s| {
                let col = req.usize_param("col").map_err(bad)?;
                let name = req.str_param("name").map_err(bad)?;
                Ok(obj(vec![("renamed", Json::Bool(s.engine.name_column(col, name)))]))
            }),
            Op::SetColumnType => self.with_session(req, deadline, |s| {
                let col = req.usize_param("col").map_err(bad)?;
                let ty = req.str_param("type").map_err(bad)?;
                Ok(obj(vec![("set", Json::Bool(s.engine.set_column_type(col, ty)))]))
            }),
            Op::CommitSource => self.with_session(req, deadline, |s| {
                let name = req.str_param("name").map_err(bad)?;
                Ok(obj(vec![("rows", jnum(s.engine.commit_source(name)))]))
            }),
            Op::RegisterWorld => self.with_session(req, deadline, |s| register_world(req, s)),
            Op::RegisterFlaky => self.with_session(req, deadline, |s| register_flaky(req, s)),
            Op::ColumnSuggestions => self.with_session(req, deadline, |s| {
                let listed: Vec<Json> = s
                    .engine
                    .column_suggestions()
                    .iter()
                    .enumerate()
                    .map(|(i, sg)| {
                        obj(vec![
                            ("index", jnum(i)),
                            ("label", Json::str(&sg.label)),
                            ("cost", Json::Num(sg.cost)),
                            (
                                "degraded",
                                sg.degraded
                                    .as_deref()
                                    .map_or(Json::Null, Json::str),
                            ),
                            (
                                "columns",
                                Json::Arr(
                                    sg.new_fields
                                        .iter()
                                        .map(|f| Json::str(&f.name))
                                        .collect(),
                                ),
                            ),
                        ])
                    })
                    .collect();
                let tripped = s.engine.health().tripped_services();
                if listed.is_empty() && !tripped.is_empty() {
                    return Err((
                        ErrorKind::Unavailable,
                        format!("no completions; services down: {}", tripped.join(", ")),
                    ));
                }
                Ok(obj(vec![("suggestions", Json::Arr(listed))]))
            }),
            Op::AcceptColumn => self.with_session(req, deadline, |s| {
                let i = req.usize_param("index").map_err(bad)?;
                if !s.engine.accept_shown_column(i) {
                    return Err(no_suggestion(i));
                }
                Ok(obj(vec![("accepted", jnum(i))]))
            }),
            Op::RejectColumn => self.with_session(req, deadline, |s| {
                let i = req.usize_param("index").map_err(bad)?;
                if !s.engine.reject_shown_column(i) {
                    return Err(no_suggestion(i));
                }
                Ok(obj(vec![("rejected", jnum(i))]))
            }),
            Op::Autocomplete => self.with_session(req, deadline, |s| {
                let values = req.strings_param("values").map_err(bad)?;
                let k = req.body.field("k").as_f64().map_or(3, |v| v as usize);
                let queries = s.engine.discover_queries_for_tuple(&values, k);
                let listed: Vec<Json> = queries
                    .iter()
                    .enumerate()
                    .map(|(i, q)| {
                        obj(vec![
                            ("index", jnum(i)),
                            ("cost", Json::Num(q.cost)),
                            (
                                "degraded",
                                q.degraded
                                    .as_deref()
                                    .map_or(Json::Null, Json::str),
                            ),
                            (
                                "sources",
                                Json::Arr(
                                    q.plan.sources().iter().map(|n| Json::str(*n)).collect(),
                                ),
                            ),
                            (
                                "columns",
                                Json::Arr(
                                    q.result
                                        .schema()
                                        .names()
                                        .iter()
                                        .map(|n| Json::str(*n))
                                        .collect(),
                                ),
                            ),
                            ("rows", jnum(q.result.len())),
                        ])
                    })
                    .collect();
                // Feedback reads only the shown trees: each executed
                // answer is dropped here, in the request that made it.
                s.last_queries.clear();
                s.last_queries.extend(queries.into_iter().map(|q| q.tree));
                Ok(obj(vec![("queries", Json::Arr(listed))]))
            }),
            Op::Feedback => self.with_session(req, deadline, |s| {
                let accept = req.usize_param("accept").map_err(bad)?;
                let reject: Vec<usize> = match req.body.get("reject") {
                    Some(v) if v.is_arr() => v
                        .items()
                        .map(|v| {
                            v.as_f64().map(|n| n as usize).ok_or_else(|| {
                                (ErrorKind::BadRequest, "\"reject\" must hold numbers".to_string())
                            })
                        })
                        .collect::<Result<_, _>>()?,
                    None => (0..s.last_queries.len()).filter(|&i| i != accept).collect(),
                    Some(_) => {
                        return Err((ErrorKind::BadRequest, "\"reject\" must be an array".into()))
                    }
                };
                let accepted = s.last_queries.get(accept).ok_or_else(|| {
                    (ErrorKind::BadRequest, format!("no query at index {accept}"))
                })?;
                let rejected: Vec<_> = reject
                    .iter()
                    .filter(|&&i| i != accept)
                    .filter_map(|&i| s.last_queries.get(i))
                    .collect();
                let constraints = s.engine.prefer_query(accepted, &rejected);
                Ok(obj(vec![("constraints", jnum(constraints))]))
            }),
            Op::Explain => self.with_session(req, deadline, |s| {
                let row = req.usize_param("row").map_err(bad)?;
                let tab = s.engine.workspace().active();
                let e = explain::explain_row(tab, row).ok_or_else(|| {
                    (ErrorKind::BadRequest, format!("no row {row} in the active tab"))
                })?;
                Ok(obj(vec![
                    ("queries", jstrings(&e.queries)),
                    ("sources", jstrings(&e.sources)),
                    ("alternatives", jnum(e.alternatives.len())),
                    ("text", Json::str(explain::render(&e))),
                ]))
            }),
            Op::Export => self.with_session(req, deadline, |s| {
                let format = req.str_param("format").map_err(bad)?;
                let tab = s.engine.workspace().active();
                let data = match format {
                    "csv" => export::to_csv(tab),
                    "json" => export::to_json(tab),
                    "xml" => export::to_xml(tab),
                    other => {
                        return Err((
                            ErrorKind::BadRequest,
                            format!("unknown format {other:?} (csv|json|xml)"),
                        ))
                    }
                };
                Ok(obj(vec![("format", Json::str(format)), ("data", Json::str(&data))]))
            }),
            Op::Render => self.with_session(req, deadline, |s| {
                Ok(obj(vec![("text", Json::str(s.engine.render()))]))
            }),
            Op::Health => self.with_session(req, deadline, |s| {
                let snaps = s.engine.health_snapshots();
                let services: Vec<Json> = snaps.iter().map(jhealth).collect();
                Ok(obj(vec![
                    ("services", Json::Arr(services)),
                    (
                        "tripped",
                        jstrings(&s.engine.health().tripped_services()),
                    ),
                    (
                        "retries",
                        Json::Num(s.engine.health().total_retries() as f64),
                    ),
                    ("trips", Json::Num(s.engine.health().total_trips() as f64)),
                    (
                        "backoff_virtual_ms",
                        Json::Num(s.engine.health().backoff_virtual_ms() as f64),
                    ),
                ]))
            }),
            Op::SessionStats => self.with_session(req, deadline, |s| {
                let cache = s.engine.query_cache_stats();
                Ok(obj(vec![
                    (
                        "query_cache",
                        obj(vec![
                            ("hits", Json::Num(cache.hits as f64)),
                            ("misses", Json::Num(cache.misses as f64)),
                            ("invalidations", Json::Num(cache.invalidations as f64)),
                        ]),
                    ),
                    ("undo_depth", jnum(s.engine.undo_depth())),
                    ("relations", jnum(s.engine.catalog().relation_names().len())),
                    ("graph_version", Json::Num(s.engine.graph().version() as f64)),
                    (
                        "health",
                        obj(vec![
                            ("retries", Json::Num(s.engine.health().total_retries() as f64)),
                            ("trips", Json::Num(s.engine.health().total_trips() as f64)),
                            (
                                "backoff_virtual_ms",
                                Json::Num(s.engine.health().backoff_virtual_ms() as f64),
                            ),
                        ]),
                    ),
                ]))
            }),
            Op::LearnTransform => self.with_session(req, deadline, |s| {
                let from = req.str_param("from").map_err(bad)?;
                let from_col = req.str_param("from_col").map_err(bad)?;
                let to = req.str_param("to").map_err(bad)?;
                let to_col = req.str_param("to_col").map_err(bad)?;
                let pairs = rows_param(req, "examples")?;
                let examples: Vec<(String, String)> = pairs
                    .iter()
                    .map(|p| match p.as_slice() {
                        [i, o] => Ok((i.clone(), o.clone())),
                        _ => Err((
                            ErrorKind::BadRequest,
                            "\"examples\" must hold [input, output] pairs".to_string(),
                        )),
                    })
                    .collect::<Result<_, _>>()?;
                let learned = s
                    .engine
                    .learn_transform(from, from_col, to, to_col, &examples)
                    .ok_or_else(|| {
                        (
                            ErrorKind::BadRequest,
                            format!(
                                "no consistent transform from {from}.{from_col} \
                                 to {to}.{to_col}"
                            ),
                        )
                    })?;
                Ok(jtransform(&learned))
            }),
            Op::ListTransforms => self.with_session(req, deadline, |s| {
                let listed: Vec<Json> =
                    s.engine.list_transforms().iter().map(jtransform).collect();
                Ok(obj(vec![("transforms", Json::Arr(listed))]))
            }),
            // Handled inline at admission; dispatch never sees them.
            Op::Shutdown | Op::Invalid => Err((
                ErrorKind::Internal,
                format!("{:?} must not reach dispatch", req.op),
            )),
        }
    }

    fn create_session(&self, req: &Request) -> OpResult {
        let name = req
            .session
            .ok_or_else(|| (ErrorKind::BadRequest, "missing \"session\"".to_string()))?;
        // With a `"world"` object the session is a copy-on-write overlay
        // over the memoized shared base for that config — kilobytes of
        // marginal state instead of a rebuilt corpus. Without one it is
        // a flat, private engine (the pre-CoW behavior, byte-for-byte).
        match req.body.get("world") {
            None => {
                self.registry.create(name, CopyCat::new()).map_err(|_| {
                    (ErrorKind::SessionExists, format!("session {name:?} already exists"))
                })?;
                Ok(obj(vec![("session", Json::str(name))]))
            }
            Some(w) if w.is_obj() => {
                let mut config = WorldConfig::default();
                if let Some(seed) = w.field("seed").as_f64() {
                    config.seed = seed as u64;
                }
                if let Some(venues) = w.field("venues").as_f64() {
                    config.venues = (venues as usize).max(1);
                }
                let base = self.shared_world(&config);
                let session =
                    self.registry.create(name, CopyCat::with_base(&base)).map_err(|_| {
                        (ErrorKind::SessionExists, format!("session {name:?} already exists"))
                    })?;
                session.state.lock().world = Some(base.world());
                Ok(obj(vec![
                    ("session", Json::str(name)),
                    (
                        "world",
                        obj(vec![
                            ("seed", Json::Num(config.seed as f64)),
                            ("venues", jnum(config.venues)),
                            ("shared", Json::Bool(true)),
                        ]),
                    ),
                ]))
            }
            Some(_) => Err((ErrorKind::BadRequest, "\"world\" must be an object".to_string())),
        }
    }

    fn load_session(&self, req: &Request) -> OpResult {
        let name = req
            .session
            .ok_or_else(|| (ErrorKind::BadRequest, "missing \"session\"".to_string()))?;
        let snapshot = req.str_param("snapshot").map_err(bad)?;
        let engine = CopyCat::load_session_json(snapshot)
            .map_err(|e| (ErrorKind::BadRequest, format!("bad snapshot: {e}")))?;
        let relations = engine.catalog().relation_names().len();
        self.registry.replace(name, engine);
        Ok(obj(vec![
            ("session", Json::str(name)),
            ("relations", jnum(relations)),
        ]))
    }

    fn close_session(&self, req: &Request) -> OpResult {
        let name = req
            .session
            .ok_or_else(|| (ErrorKind::BadRequest, "missing \"session\"".to_string()))?;
        self.registry
            .remove(name)
            .map_err(|_| (ErrorKind::NoSuchSession, format!("no session named {name:?}")))?;
        Ok(obj(vec![("closed", Json::str(name))]))
    }

    fn stats(&self) -> Json {
        let mut cache = copycat_core::CacheStats::default();
        let mut sessions = 0usize;
        let (mut retries, mut trips, mut backoff_ms, mut tripped) = (0u64, 0u64, 0u64, 0usize);
        self.registry.for_each(|s| {
            let state = s.state.lock();
            let c = state.engine.query_cache_stats();
            cache.hits += c.hits;
            cache.misses += c.misses;
            cache.invalidations += c.invalidations;
            let h = state.engine.health();
            retries += h.total_retries();
            trips += h.total_trips();
            backoff_ms += h.backoff_virtual_ms();
            tripped += h.tripped_services().len();
            sessions += 1;
        });
        Json::obj(vec![
            ("server".to_string(), self.metrics.snapshot_json()),
            ("sessions".to_string(), jnum(sessions)),
            (
                "query_cache".to_string(),
                Json::obj(vec![
                    ("hits".to_string(), Json::Num(cache.hits as f64)),
                    ("misses".to_string(), Json::Num(cache.misses as f64)),
                    (
                        "invalidations".to_string(),
                        Json::Num(cache.invalidations as f64),
                    ),
                ]),
            ),
            (
                "health".to_string(),
                Json::obj(vec![
                    ("retries".to_string(), Json::Num(retries as f64)),
                    ("trips".to_string(), Json::Num(trips as f64)),
                    (
                        "backoff_virtual_ms".to_string(),
                        Json::Num(backoff_ms as f64),
                    ),
                    ("tripped_services".to_string(), jnum(tripped)),
                ]),
            ),
        ])
    }
}

fn open_doc(req: &Request, s: &mut SessionState) -> OpResult {
    let name = req.str_param("name").map_err(bad)?;
    let headers = req.strings_param("headers").map_err(bad)?;
    let rows = rows_param(req, "rows")?;
    let sheet = contact_sheet(name, &headers, rows);
    let DocumentId(id) = s.engine.open(Document::Sheet(sheet));
    Ok(obj(vec![("doc", jnum(id as usize))]))
}

fn paste(req: &Request, s: &mut SessionState) -> OpResult {
    let doc = req.usize_param("doc").map_err(bad)?;
    let values = req.strings_param("values").map_err(bad)?;
    let suggested = s.engine.paste_example(DocumentId(doc as u32), &values);
    Ok(obj(vec![("suggested", jnum(suggested))]))
}

fn register_world(req: &Request, s: &mut SessionState) -> OpResult {
    let mut config = WorldConfig::default();
    if let Some(seed) = req.body.field("seed").as_f64() {
        config.seed = seed as u64;
    }
    if let Some(venues) = req.body.field("venues").as_f64() {
        config.venues = (venues as usize).max(1);
    }
    let world = Arc::new(World::generate(&config));
    s.engine.register_service(Arc::new(ZipResolver::new(Arc::clone(&world))));
    s.engine.register_service(Arc::new(Geocoder::new(Arc::clone(&world))));
    s.engine.register_service(Arc::new(AddressResolver::new(Arc::clone(&world))));
    s.engine.register_service(Arc::new(ReversePhone::new(Arc::clone(&world))));
    s.engine.register_service(Arc::new(CurrencyConverter::new()));
    s.engine.register_service(Arc::new(UnitConverter::new()));
    let services: Vec<String> = s.engine.catalog().service_names();
    // The generated rows go back to the client so a remote tester can
    // paste world-consistent data without sharing memory with us.
    let shelters = world.shelter_rows();
    let contacts = world.contact_rows();
    s.world = Some(world);
    Ok(obj(vec![
        ("services", jstrings(&services)),
        ("shelters", jrows(&shelters)),
        ("contacts", jrows(&contacts)),
    ]))
}

fn register_flaky(req: &Request, s: &mut SessionState) -> OpResult {
    let name = req.str_param("service").map_err(bad)?;
    let failure_rate = req.body.field("failure_rate").as_f64().unwrap_or(0.0);
    let latency_ms = req.body.field("latency_ms").as_f64().unwrap_or(0.0).max(0.0) as u64;
    let seed = req.body.field("seed").as_f64().unwrap_or(1.0) as u64;
    let inner: Arc<dyn Service> = s
        .engine
        .catalog()
        .service(name)
        .ok_or_else(|| (ErrorKind::BadRequest, format!("no service named {name:?}")))?;
    // An equivalent replacement source can be registered alongside: the
    // *un-faulted* service under an alias, available for failover.
    let replacement = req.body.field("replacement").as_str().map(str::to_string);
    if let Some(alias) = &replacement {
        s.engine
            .register_service(Arc::new(Renamed::new(alias.clone(), Arc::clone(&inner))));
    }
    let flaky = Arc::new(Flaky::new(inner, failure_rate, latency_ms, seed));
    // With `retries` (or breaker tuning) the fault-injected service is
    // additionally wrapped in the retry + circuit-breaker layer; its
    // backoff is charged as virtual latency via the health registry.
    let retries = req.body.field("retries").as_f64().map(|v| v as u32);
    let threshold = req.body.field("breaker_threshold").as_f64().map(|v| v as u32);
    let cooldown = req.body.field("cooldown_ms").as_f64().map(|v| v as u64);
    let resilient = retries.is_some() || threshold.is_some() || cooldown.is_some();
    if resilient {
        let mut policy = RetryPolicy::default();
        if let Some(r) = retries {
            policy.max_attempts = r.max(1);
        }
        if let Some(t) = threshold {
            policy.breaker_threshold = t.max(1);
        }
        if let Some(c) = cooldown {
            policy.cooldown_ms = c;
        }
        s.engine
            .register_resilient(Arc::clone(&flaky) as Arc<dyn Service>, policy);
    } else {
        s.engine.register_service(Arc::clone(&flaky) as Arc<dyn Service>);
    }
    s.probes.push(flaky);
    Ok(obj(vec![
        ("wrapped", Json::str(name)),
        ("latency_ms", Json::Num(latency_ms as f64)),
        ("failure_rate", Json::Num(failure_rate)),
        ("resilient", Json::Bool(resilient)),
        (
            "replacement",
            replacement.map_or(Json::Null, |r| Json::str(&r)),
        ),
    ]))
}

fn rows_param(req: &Request, key: &str) -> Result<Vec<Vec<String>>, (ErrorKind, String)> {
    let arr = req
        .body
        .get(key)
        .ok_or_else(|| bad(JsonError::new(format!("missing field {key:?}"))))?;
    if !arr.is_arr() {
        return Err((ErrorKind::BadRequest, format!("{key:?} must be an array")));
    }
    arr.items()
        .map(|row| {
            if !row.is_arr() {
                return Err((
                    ErrorKind::BadRequest,
                    format!("{key:?} must hold arrays of strings"),
                ));
            }
            row.items()
                .map(|c| {
                    c.as_str().map(str::to_string).ok_or_else(|| {
                        (ErrorKind::BadRequest, format!("{key:?} cells must be strings"))
                    })
                })
                .collect()
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::Gate;
    use std::panic::{catch_unwind, AssertUnwindSafe};

    #[test]
    fn a_panicking_permit_holder_returns_its_permit() {
        // No waiting room: a leaked permit would turn the next caller
        // away instead of letting it wait forever.
        let gate = Gate::new(1, 0);
        let unwound = catch_unwind(AssertUnwindSafe(|| {
            let _permit = gate.enter().expect("a free permit");
            panic!("injected handler failure");
        }));
        assert!(unwound.is_err());
        assert_eq!(*gate.occupancy.lock(), (0, 0));
        let permit = gate.enter();
        assert!(permit.is_some(), "the permit came back");
        assert!(gate.enter().is_none(), "one permit, no waiting room");
    }
}
