//! The session server: admission gate → per-session engine dispatch →
//! metrics, with graceful drain.
//!
//! [`Server::handle_line`] *is* the in-process transport: callers hand
//! it one request line and block for the one response line. The TCP
//! listener ([`crate::tcp`]) is a thin byte pump over the same method,
//! so tests and benches exercise exactly the code a socket client hits.
//! It parses the line, then answers the parsed request, the step the
//! router enters at with a line it parsed. Each request's typed
//! [`Outcome`] is settled once; the metrics bucket, the envelope and the
//! router's journal and close decisions read it. The request runs on
//! the caller's own thread; there is no worker pool and no hand-off.
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
use crate::protocol::{err_response, ok_response, with_request, ErrorKind, Op, Request};
use crate::registry::{SessionRegistry, SessionState};
use copycat_core::{explain, export, CopyCat, WorldBase};
use copycat_document::corpus::contact_sheet;
use copycat_document::{Document, DocumentId};
use copycat_query::{Renamed, Service};
use copycat_services::{
    AddressResolver, CurrencyConverter, Flaky, Geocoder, HealthRegistry, HealthSnapshot,
    ReversePhone, RetryPolicy, UnitConverter, World, WorldConfig, ZipResolver,
};
use copycat_util::hash::FxHashMap;
use copycat_util::json::{Json, JsonError, JsonWriter};
use copycat_util::sync::Mutex;
use std::borrow::Cow;
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
    /// Shared world bases, memoized by `(seed, venues)`: every
    /// `create_session {"world": …}` naming the same config overlays the
    /// same frozen base (see [`WorldBase`]).
    worlds: Mutex<FxHashMap<(u64, usize), Arc<WorldBase>>>,
}

/// Why a request was not answered `ok`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Failure {
    /// The kind the error envelope carries.
    pub(crate) kind: ErrorKind,
    /// Turned away before any session's engine ran: draining, queue
    /// full, unparseable, an unknown or duplicate session, or a deadline
    /// that fired while queued or awaiting the session lock. A replay
    /// has nothing to reproduce. Every other failure (`bad_request`
    /// while handling, `unavailable`, `internal`, a timeout after
    /// execution) may have moved session state.
    pub(crate) refused: bool,
}

/// How the server settled one request; `Ok(())` is an `ok` answer.
pub(crate) type Outcome = Result<(), Failure>;

/// A settled request: its result written, or its failure and message.
type Settled = Result<(), (Failure, Cow<'static, str>)>;

fn failed(kind: ErrorKind, refused: bool, message: impl Into<Cow<'static, str>>) -> Settled {
    Err((Failure { kind, refused }, message.into()))
}

/// What an op handler returns once it has written its result's members
/// (or, having failed a check, written nothing).
type OpResult = Result<(), (ErrorKind, String)>;

fn bad(e: JsonError) -> (ErrorKind, String) {
    (ErrorKind::BadRequest, e.to_string())
}

fn no_suggestion(i: usize) -> (ErrorKind, String) {
    (ErrorKind::BadRequest, format!("no suggestion at index {i}"))
}

fn write_transform_members(w: &mut JsonWriter<'_>, t: &copycat_core::LearnedTransform) {
    w.field("edge", &t.edge.0);
    w.field("from", &t.from_source);
    w.field("from_col", &t.from_col);
    w.field("to", &t.to_source);
    w.field("to_col", &t.to_col);
    w.field("program", &t.program.to_string());
    w.field("cost", &t.cost);
    w.field("coverage", &t.coverage);
}

fn write_health(w: &mut JsonWriter<'_>, snap: &HealthSnapshot) {
    w.obj(|w| {
        w.field("service", &snap.service);
        w.field("state", snap.state.as_str());
        w.field("calls", &snap.calls);
        w.field("failures", &snap.failures);
        w.field("retries", &snap.retries);
        w.field("trips", &snap.trips);
        w.field("short_circuits", &snap.short_circuits);
        w.field("observed_failure_rate", &snap.observed_failure_rate);
        w.field("backoff_virtual_ms", &snap.backoff_virtual_ms);
    });
}

/// A session's service-health totals, as `retries`, `trips` and
/// `backoff_virtual_ms` members.
fn write_health_totals(w: &mut JsonWriter<'_>, health: &HealthRegistry) {
    w.field("retries", &health.total_retries());
    w.field("trips", &health.total_trips());
    w.field("backoff_virtual_ms", &health.backoff_virtual_ms());
}

impl Server {
    /// A server with the given sizing.
    pub fn new(config: ServerConfig) -> Server {
        Server {
            registry: SessionRegistry::new(config.shards),
            metrics: Metrics::new(),
            accepting: AtomicBool::new(true),
            gate: Gate::new(config.workers, config.queue_depth),
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
        with_request(line, |parsed| self.answer(parsed).0)
    }

    /// Answer a parsed request, or its parse error, on the calling
    /// thread: the response line and the outcome it settled.
    pub(crate) fn answer(&self, parsed: Result<Request<'_>, (&str, String)>) -> (String, Outcome) {
        let req = match parsed {
            Ok(req) => req,
            Err((id, message)) => {
                self.metrics.admitted(Op::Invalid);
                let failure = Failure { kind: ErrorKind::BadRequest, refused: true };
                self.metrics.record(Op::Invalid, Err(failure), 0);
                return (err_response(id, failure.kind, &message), Err(failure));
            }
        };
        self.metrics.admitted(req.op);
        let mut spent = 0;
        let answered = ok_response(req.id, |w| {
            let (settled, us) = self.settle(&req, w);
            spent = us;
            settled
        });
        let outcome = answered.as_ref().map(|_| ()).map_err(|(failure, _)| *failure);
        self.metrics.record(req.op, outcome, spent);
        let line = answered
            .unwrap_or_else(|(failure, message)| err_response(req.id, failure.kind, &message));
        (line, outcome)
    }

    /// Admit, run and settle one request, writing its result's members
    /// to `w`; also the microseconds it spent, wall plus virtual (0 when
    /// it was not timed). On failure the caller discards what was
    /// written.
    fn settle(&self, req: &Request, w: &mut JsonWriter<'_>) -> (Settled, u64) {
        // `shutdown` is handled inline: it must work even when every
        // permit is out, and it is what closes the front door.
        if req.op == Op::Shutdown {
            self.accepting.store(false, Ordering::SeqCst);
            w.field("draining", &true);
            return (Ok(()), 0);
        }
        if self.draining() {
            return (failed(ErrorKind::ShuttingDown, true, "server is draining"), 0);
        }
        let mut deadline = Deadline::starting_now(req.deadline_ms);
        let Some(permit) = self.gate.enter() else {
            return (failed(ErrorKind::Overloaded, true, "admission queue full; retry"), 0);
        };
        if deadline.expired() {
            drop(permit);
            let queued = failed(ErrorKind::Timeout, true, "deadline exceeded while queued");
            return (queued, deadline.spent_us());
        }
        let result = catch_unwind(AssertUnwindSafe(|| {
            let _permit = permit;
            self.dispatch(req, &mut deadline, w)
        }));
        let spent = deadline.spent_us();
        let settled = match result {
            Ok(Ok(())) if deadline.expired() => {
                failed(ErrorKind::Timeout, false, "deadline exceeded during execution")
            }
            Ok(Ok(())) => Ok(()),
            // Dispatch turns a request away only at session lookup, at
            // creation and at the lock-wait deadline, each before the
            // engine runs.
            Ok(Err((kind, message))) => failed(
                kind,
                matches!(kind, ErrorKind::NoSuchSession | ErrorKind::SessionExists | ErrorKind::Timeout),
                message,
            ),
            Err(_) => failed(ErrorKind::Internal, false, "handler panicked"),
        };
        (settled, spent)
    }

    /// [`handle_line`](Server::handle_line) plus response parsing, for
    /// tests and scripts.
    #[expect(
        clippy::expect_used,
        reason = "test/script convenience on server-produced JSON, not a request path"
    )]
    pub fn handle(&self, line: &str) -> Json {
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

    /// Run one op and write its result's members to `w`. Every arm
    /// finishes its engine calls and checks before it writes, so a
    /// refused or failed request has written nothing.
    #[deny(
        clippy::wildcard_enum_match_arm,
        clippy::match_wildcard_for_single_variants,
        reason = "a new `Op` must be named here, not caught by `_`"
    )]
    fn dispatch(
        &self,
        req: &Request,
        deadline: &mut Deadline,
        w: &mut JsonWriter<'_>,
    ) -> OpResult {
        match req.op {
            Op::Ping => {
                w.field("pong", &true);
                Ok(())
            }
            Op::CreateSession => self.create_session(req, w),
            Op::LoadSession => self.load_session(req, w),
            Op::CloseSession => self.close_session(req, w),
            Op::ListSessions => {
                w.field("sessions", &self.registry.names());
                Ok(())
            }
            Op::Stats => {
                self.stats(w);
                Ok(())
            }
            Op::SaveSession => self.with_session(req, deadline, |s| {
                w.field("snapshot", &s.engine.save_session_json());
                Ok(())
            }),
            Op::OpenDoc => self.with_session(req, deadline, |s| open_doc(req, s, w)),
            Op::Paste => self.with_session(req, deadline, |s| paste(req, s, w)),
            Op::AcceptRows => self.with_session(req, deadline, |s| {
                w.field("accepted", &s.engine.accept_suggested_rows());
                Ok(())
            }),
            Op::NameColumn => self.with_session(req, deadline, |s| {
                let col = req.usize_param("col").map_err(bad)?;
                let name = req.str_param("name").map_err(bad)?;
                w.field("renamed", &s.engine.name_column(col, name));
                Ok(())
            }),
            Op::SetColumnType => self.with_session(req, deadline, |s| {
                let col = req.usize_param("col").map_err(bad)?;
                let ty = req.str_param("type").map_err(bad)?;
                w.field("set", &s.engine.set_column_type(col, ty));
                Ok(())
            }),
            Op::CommitSource => self.with_session(req, deadline, |s| {
                let name = req.str_param("name").map_err(bad)?;
                w.field("rows", &s.engine.commit_source(name));
                Ok(())
            }),
            Op::RegisterWorld => self.with_session(req, deadline, |s| register_world(req, s, w)),
            Op::RegisterFlaky => self.with_session(req, deadline, |s| register_flaky(req, s, w)),
            Op::ColumnSuggestions => self.with_session(req, deadline, |s| {
                let listed = match s.engine.column_suggestions() {
                    listed @ [_, ..] => listed,
                    [] => {
                        let tripped = s.engine.health().tripped_services();
                        if !tripped.is_empty() {
                            return Err((
                                ErrorKind::Unavailable,
                                format!("no completions; services down: {}", tripped.join(", ")),
                            ));
                        }
                        &[]
                    }
                };
                w.key("suggestions");
                w.arr(|w| {
                    for (i, sg) in listed.iter().enumerate() {
                        w.obj(|w| {
                            w.field("index", &i);
                            w.field("label", &sg.label);
                            w.field("cost", &sg.cost);
                            w.field("degraded", &sg.degraded);
                            w.key("columns");
                            w.arr(|w| sg.new_fields.iter().for_each(|f| w.str(&f.name)));
                        });
                    }
                });
                Ok(())
            }),
            Op::AcceptColumn => self.with_session(req, deadline, |s| {
                let i = req.usize_param("index").map_err(bad)?;
                if !s.engine.accept_column(i) {
                    return Err(no_suggestion(i));
                }
                w.field("accepted", &i);
                Ok(())
            }),
            Op::RejectColumn => self.with_session(req, deadline, |s| {
                let i = req.usize_param("index").map_err(bad)?;
                if !s.engine.reject_column(i) {
                    return Err(no_suggestion(i));
                }
                w.field("rejected", &i);
                Ok(())
            }),
            Op::Autocomplete => self.with_session(req, deadline, |s| {
                let values = req.strings_param("values").map_err(bad)?;
                let k = req.body.field("k").as_f64().map_or(3, |v| v as usize);
                let queries = s.engine.discover_queries_for_tuple(&values, k);
                w.key("queries");
                w.arr(|w| {
                    for (i, q) in queries.iter().enumerate() {
                        w.obj(|w| {
                            w.field("index", &i);
                            w.field("cost", &q.cost);
                            w.field("degraded", &q.degraded);
                            w.field("sources", &q.plan.sources());
                            w.field("columns", &q.columns.names());
                            w.field("rows", &q.rows);
                        });
                    }
                });
                // Feedback reads only the shown trees.
                s.last_queries.clear();
                s.last_queries.extend(queries.into_iter().map(|q| q.tree));
                Ok(())
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
                w.field("constraints", &s.engine.prefer_query(accepted, &rejected));
                Ok(())
            }),
            Op::Explain => self.with_session(req, deadline, |s| {
                let row = req.usize_param("row").map_err(bad)?;
                let tab = s.engine.workspace().active();
                let e = explain::explain_row(tab, row).ok_or_else(|| {
                    (ErrorKind::BadRequest, format!("no row {row} in the active tab"))
                })?;
                w.field("queries", &e.queries);
                w.field("sources", &e.sources);
                w.field("alternatives", &e.alternatives.len());
                w.field("text", &explain::render(&e));
                Ok(())
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
                w.field("format", format);
                w.field("data", &data);
                Ok(())
            }),
            Op::Render => self.with_session(req, deadline, |s| {
                w.field("text", &s.engine.render());
                Ok(())
            }),
            Op::Health => self.with_session(req, deadline, |s| {
                let snaps = s.engine.health_snapshots();
                let health = s.engine.health();
                w.key("services");
                w.arr(|w| snaps.iter().for_each(|snap| write_health(w, snap)));
                w.field("tripped", &health.tripped_services());
                write_health_totals(w, health);
                Ok(())
            }),
            Op::SessionStats => self.with_session(req, deadline, |s| {
                let cache = s.engine.query_cache_stats();
                w.key("query_cache");
                w.obj(|w| {
                    w.field("hits", &cache.hits);
                    w.field("misses", &cache.misses);
                    w.field("invalidations", &cache.invalidations);
                });
                w.field("undo_depth", &s.engine.undo_depth());
                w.field("relations", &s.engine.catalog().relation_count());
                w.field("graph_version", &s.engine.graph().version());
                w.key("health");
                w.obj(|w| write_health_totals(w, s.engine.health()));
                Ok(())
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
                // The transform is the result object itself.
                write_transform_members(w, &learned);
                Ok(())
            }),
            Op::ListTransforms => self.with_session(req, deadline, |s| {
                let listed = s.engine.list_transforms();
                w.key("transforms");
                w.arr(|w| listed.iter().for_each(|t| w.obj(|w| write_transform_members(w, t))));
                Ok(())
            }),
            // Handled inline at admission; dispatch never sees them.
            Op::Shutdown | Op::Invalid => Err((
                ErrorKind::Internal,
                format!("{:?} must not reach dispatch", req.op),
            )),
        }
    }

    fn create_session(&self, req: &Request, w: &mut JsonWriter<'_>) -> OpResult {
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
                w.field("session", name);
            }
            Some(world) if world.is_obj() => {
                let mut config = WorldConfig::default();
                if let Some(seed) = world.field("seed").as_f64() {
                    config.seed = seed as u64;
                }
                if let Some(venues) = world.field("venues").as_f64() {
                    config.venues = (venues as usize).max(1);
                }
                let base = self.shared_world(&config);
                let session =
                    self.registry.create(name, CopyCat::with_base(&base)).map_err(|_| {
                        (ErrorKind::SessionExists, format!("session {name:?} already exists"))
                    })?;
                session.state.lock().world = Some(base.world());
                w.field("session", name);
                w.key("world");
                w.obj(|w| {
                    w.field("seed", &config.seed);
                    w.field("venues", &config.venues);
                    w.field("shared", &true);
                });
            }
            Some(_) => {
                return Err((ErrorKind::BadRequest, "\"world\" must be an object".to_string()))
            }
        }
        Ok(())
    }

    fn load_session(&self, req: &Request, w: &mut JsonWriter<'_>) -> OpResult {
        let name = req
            .session
            .ok_or_else(|| (ErrorKind::BadRequest, "missing \"session\"".to_string()))?;
        let snapshot = req.str_param("snapshot").map_err(bad)?;
        let engine = CopyCat::load_session_json(snapshot)
            .map_err(|e| (ErrorKind::BadRequest, format!("bad snapshot: {e}")))?;
        let relations = engine.catalog().relation_count();
        self.registry.replace(name, engine);
        w.field("session", name);
        w.field("relations", &relations);
        Ok(())
    }

    fn close_session(&self, req: &Request, w: &mut JsonWriter<'_>) -> OpResult {
        let name = req
            .session
            .ok_or_else(|| (ErrorKind::BadRequest, "missing \"session\"".to_string()))?;
        self.registry
            .remove(name)
            .map_err(|_| (ErrorKind::NoSuchSession, format!("no session named {name:?}")))?;
        w.field("closed", name);
        Ok(())
    }

    fn stats(&self, w: &mut JsonWriter<'_>) {
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
        w.field("server", &self.metrics.snapshot_json());
        w.field("sessions", &sessions);
        w.key("query_cache");
        w.obj(|w| {
            w.field("hits", &cache.hits);
            w.field("misses", &cache.misses);
            w.field("invalidations", &cache.invalidations);
        });
        w.key("health");
        w.obj(|w| {
            w.field("retries", &retries);
            w.field("trips", &trips);
            w.field("backoff_virtual_ms", &backoff_ms);
            w.field("tripped_services", &tripped);
        });
    }
}

fn open_doc(req: &Request, s: &mut SessionState, w: &mut JsonWriter<'_>) -> OpResult {
    let name = req.str_param("name").map_err(bad)?;
    let headers = req.strings_param("headers").map_err(bad)?;
    let rows = rows_param(req, "rows")?;
    let sheet = contact_sheet(name, &headers, rows);
    let DocumentId(id) = s.engine.open(Document::Sheet(sheet));
    w.field("doc", &id);
    Ok(())
}

fn paste(req: &Request, s: &mut SessionState, w: &mut JsonWriter<'_>) -> OpResult {
    let doc = req.usize_param("doc").map_err(bad)?;
    let values = req.strings_param("values").map_err(bad)?;
    w.field("suggested", &s.engine.paste_example(DocumentId(doc as u32), &values));
    Ok(())
}

fn register_world(req: &Request, s: &mut SessionState, w: &mut JsonWriter<'_>) -> OpResult {
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
    // The generated rows go back to the client so a remote tester can
    // paste world-consistent data without sharing memory with us.
    w.field("services", &s.engine.catalog().service_names());
    w.field("shelters", &world.shelter_rows());
    w.field("contacts", &world.contact_rows());
    s.world = Some(world);
    Ok(())
}

fn register_flaky(req: &Request, s: &mut SessionState, w: &mut JsonWriter<'_>) -> OpResult {
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
    let replacement = req.body.field("replacement").as_str();
    if let Some(alias) = replacement {
        s.engine
            .register_service(Arc::new(Renamed::new(alias.to_string(), Arc::clone(&inner))));
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
    w.field("wrapped", name);
    w.field("latency_ms", &latency_ms);
    w.field("failure_rate", &failure_rate);
    w.field("resilient", &resilient);
    w.field("replacement", &replacement);
    Ok(())
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
    use super::{Failure, Gate, Outcome, Server, ServerConfig};
    use crate::protocol::{with_request, ErrorKind};
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::thread;
    use std::time::Duration;

    /// A request turned away before any engine ran.
    const REFUSED_TIMEOUT: Outcome = Err(Failure { kind: ErrorKind::Timeout, refused: true });

    fn answer(server: &Server, line: &str) -> (String, Outcome) {
        with_request(line, |parsed| server.answer(parsed))
    }

    fn one_permit() -> Server {
        Server::new(ServerConfig { workers: 1, queue_depth: 1, shards: 1 })
    }

    #[test]
    fn a_full_queue_is_refused_as_overloaded() {
        let server = Server::new(ServerConfig { workers: 1, queue_depth: 0, shards: 1 });
        let ping = r#"{"id":1,"op":"ping"}"#;
        let permit = server.gate.enter();
        let (resp, outcome) = answer(&server, ping);
        assert_eq!(outcome, Err(Failure { kind: ErrorKind::Overloaded, refused: true }), "{resp}");
        drop(permit);
        assert_eq!(answer(&server, ping).1, Ok(()));
    }

    #[test]
    fn a_deadline_that_fires_while_queued_is_refused() {
        let server = one_permit();
        let permit = server.gate.enter();
        thread::scope(|scope| {
            let waiter =
                scope.spawn(|| answer(&server, r#"{"id":1,"op":"ping","deadline_ms":20}"#));
            while server.queued() == 0 {
                thread::yield_now();
            }
            thread::sleep(Duration::from_millis(40));
            drop(permit);
            let (resp, outcome) = waiter.join().expect("the waiter answers");
            assert_eq!(outcome, REFUSED_TIMEOUT, "{resp}");
            assert!(resp.contains("deadline exceeded while queued"), "{resp}");
        });
    }

    #[test]
    fn a_deadline_that_fires_awaiting_the_session_lock_is_refused() {
        let server = one_permit();
        let create = answer(&server, r#"{"id":1,"op":"create_session","session":"s"}"#);
        assert_eq!(create.1, Ok(()), "{}", create.0);
        let session = server.registry.get("s").expect("the session exists");
        let state = session.state.lock();
        thread::scope(|scope| {
            let waiter = scope.spawn(|| {
                answer(&server, r#"{"id":2,"op":"accept_rows","session":"s","deadline_ms":20}"#)
            });
            // Holding the one permit, the waiter is past admission.
            while server.gate.occupancy.lock().0 == 0 {
                thread::yield_now();
            }
            thread::sleep(Duration::from_millis(40));
            drop(state);
            let (resp, outcome) = waiter.join().expect("the waiter answers");
            // Almost always "awaiting session"; a waiter descheduled
            // past its budget before the permit check times out "while
            // queued". Either way the engine never ran.
            assert_eq!(outcome, REFUSED_TIMEOUT, "{resp}");
            assert!(!resp.contains("during execution"), "{resp}");
        });
    }

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
