//! The line-delimited JSON request/response protocol.
//!
//! One request per line, one response per line, in order. A request is
//! a JSON object:
//!
//! ```json
//! {"id": 7, "op": "autocomplete", "session": "alice",
//!  "values": ["7782 Cypress Ave", "(954) 555-7735"], "k": 3,
//!  "deadline_ms": 250}
//! ```
//!
//! `id` is echoed verbatim in the response so clients can pipeline.
//! `deadline_ms` is an optional per-request budget: queue wait, lock
//! wait, execution, and any *virtual* service latency accrued by
//! [`copycat_services::Flaky`] probes all draw from it, and the server
//! checks it at operator boundaries (permit acquired, post-lookup,
//! post-engine).
//!
//! A response is `{"id": …, "ok": true, "result": {…}}` or
//! `{"id": …, "ok": false, "error": {"kind": "…", "message": "…"}}`.
//! Error kinds are closed (see [`ErrorKind`]) so clients can switch on
//! them; `overloaded` and `timeout` are the backpressure/deadline
//! signals, never conflated with `internal`.
//!
//! Parsing is **zero-copy**: [`Request`] is a borrowed view over the
//! request line, built on [`copycat_util::zjson`]'s flat DOM. String
//! parameters are slices of the line (or of the parse arena, when they
//! contained escapes); the id is echoed as the verbatim input slice; a
//! warm parse of a hot-path request performs no heap allocation. The
//! backing [`ZDoc`] is one thread-local scratch, shared by the server's
//! front door and the router, which parses each routed line once and
//! hands its shard the parsed [`Request`]; the request runs on the
//! caller's thread while it borrows the caller's line.
//!
//! Responses are written once, into a thread-local scratch buffer, and
//! copied out once at exact size. [`ok_response`] opens the envelope and
//! hands the op a [`JsonWriter`] already inside the result object; the
//! op writes its members and nothing else, so no owned `Json` tree is
//! built for an answer. An op that fails after it began writing returns
//! its error through the envelope, which discards the partial result;
//! the caller answers with [`err_response`] alone.

use copycat_util::json::{self, JsonError, JsonWriter};
use copycat_util::zjson::{ZDoc, ZRef};
use std::cell::RefCell;
use std::convert::Infallible;

/// Every request class the server speaks. One histogram + counter set
/// per class lives in the metrics registry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// Liveness probe.
    Ping,
    /// Create a named session.
    CreateSession,
    /// Restore a session from a `save_session` snapshot.
    LoadSession,
    /// Snapshot a session (JSON string, reloadable).
    SaveSession,
    /// Drop a session.
    CloseSession,
    /// Names of live sessions.
    ListSessions,
    /// Register an in-memory spreadsheet document.
    OpenDoc,
    /// Paste an example row from a document (import mode).
    Paste,
    /// Accept all suggested rows.
    AcceptRows,
    /// Rename a column.
    NameColumn,
    /// Pick a column's semantic type.
    SetColumnType,
    /// Commit the active tab as a named source.
    CommitSource,
    /// Register the seeded simulated-service bundle.
    RegisterWorld,
    /// Re-register one world service wrapped in fault injection.
    RegisterFlaky,
    /// Ranked column auto-completions for the active query.
    ColumnSuggestions,
    /// Accept a previously returned column suggestion by index.
    AcceptColumn,
    /// Reject a previously returned column suggestion by index.
    RejectColumn,
    /// Discover ranked queries for a pasted tuple (the Steiner path).
    Autocomplete,
    /// Prefer one discovered query over others (MIRA feedback).
    Feedback,
    /// Explain a row's provenance.
    Explain,
    /// Export the active tab (csv/json/xml).
    Export,
    /// Render the active tab as text.
    Render,
    /// Per-service health: breaker states, retry/trip counters,
    /// observed failure rates, and virtual backoff charged.
    Health,
    /// Per-session cache stats and view-state depth.
    SessionStats,
    /// Learn a string-transform program from example pairs and add it
    /// as a graph edge.
    LearnTransform,
    /// List the session's learned transform edges.
    ListTransforms,
    /// Server-wide metrics snapshot.
    Stats,
    /// Begin a graceful shutdown (stop admitting, drain in-flight).
    Shutdown,
    /// Synthetic class for unparseable requests, so rejects are
    /// observable in the metrics too. Never parsed from the wire.
    Invalid,
}

impl Op {
    /// Every class, in protocol order (metrics iteration order).
    pub const ALL: [Op; 29] = [
        Op::Ping,
        Op::CreateSession,
        Op::LoadSession,
        Op::SaveSession,
        Op::CloseSession,
        Op::ListSessions,
        Op::OpenDoc,
        Op::Paste,
        Op::AcceptRows,
        Op::NameColumn,
        Op::SetColumnType,
        Op::CommitSource,
        Op::RegisterWorld,
        Op::RegisterFlaky,
        Op::ColumnSuggestions,
        Op::AcceptColumn,
        Op::RejectColumn,
        Op::Autocomplete,
        Op::Feedback,
        Op::Explain,
        Op::Export,
        Op::Render,
        Op::Health,
        Op::SessionStats,
        Op::LearnTransform,
        Op::ListTransforms,
        Op::Stats,
        Op::Shutdown,
        Op::Invalid,
    ];

    /// The wire name.
    #[deny(
        clippy::wildcard_enum_match_arm,
        clippy::match_wildcard_for_single_variants,
        reason = "a new `Op` must be named here, not caught by `_`"
    )]
    pub fn as_str(self) -> &'static str {
        match self {
            Op::Ping => "ping",
            Op::CreateSession => "create_session",
            Op::LoadSession => "load_session",
            Op::SaveSession => "save_session",
            Op::CloseSession => "close_session",
            Op::ListSessions => "list_sessions",
            Op::OpenDoc => "open_doc",
            Op::Paste => "paste",
            Op::AcceptRows => "accept_rows",
            Op::NameColumn => "name_column",
            Op::SetColumnType => "set_column_type",
            Op::CommitSource => "commit_source",
            Op::RegisterWorld => "register_world",
            Op::RegisterFlaky => "register_flaky",
            Op::ColumnSuggestions => "column_suggestions",
            Op::AcceptColumn => "accept_column",
            Op::RejectColumn => "reject_column",
            Op::Autocomplete => "autocomplete",
            Op::Feedback => "feedback",
            Op::Explain => "explain",
            Op::Export => "export",
            Op::Render => "render",
            Op::Health => "health",
            Op::SessionStats => "session_stats",
            Op::LearnTransform => "learn_transform",
            Op::ListTransforms => "list_transforms",
            Op::Stats => "stats",
            Op::Shutdown => "shutdown",
            Op::Invalid => "invalid",
        }
    }

    /// Parse a wire name (`invalid` is internal-only, never accepted).
    pub fn parse(s: &str) -> Option<Op> {
        Op::ALL
            .iter()
            .copied()
            .find(|o| *o != Op::Invalid && o.as_str() == s)
    }

    /// The metrics-table index of this class. [`Op::ALL`] lists the
    /// variants in declaration order, so the discriminant *is* the
    /// table index (asserted by `op_index_matches_all_order`).
    pub fn index(self) -> usize {
        self as usize
    }

    /// Whether a successful request of this class changes session state
    /// that recovery-by-replay must reproduce. This is the write-ahead
    /// log's admission filter: only mutating classes are journaled.
    ///
    /// Note `column_suggestions` and `autocomplete` ARE mutating even
    /// though they look like reads: they record the suggestion/query
    /// lists later feedback refers to by index, advance the query cache
    /// counters, and drive registered services (whose breaker machines,
    /// retry counters and fault-injection rolls all move). Dropping them
    /// from the journal would make a replayed session diverge.
    #[deny(
        clippy::wildcard_enum_match_arm,
        clippy::match_wildcard_for_single_variants,
        reason = "a new `Op` must be named here, not caught by `_`"
    )]
    pub fn mutates(self) -> bool {
        match self {
            Op::CreateSession
            | Op::LoadSession
            | Op::CloseSession
            | Op::OpenDoc
            | Op::Paste
            | Op::AcceptRows
            | Op::NameColumn
            | Op::SetColumnType
            | Op::CommitSource
            | Op::RegisterWorld
            | Op::RegisterFlaky
            | Op::ColumnSuggestions
            | Op::AcceptColumn
            | Op::RejectColumn
            | Op::Autocomplete
            | Op::Feedback
            | Op::LearnTransform => true,
            Op::Ping
            | Op::SaveSession
            | Op::ListSessions
            | Op::ListTransforms
            | Op::Explain
            | Op::Export
            | Op::Render
            | Op::Health
            | Op::SessionStats
            | Op::Stats
            | Op::Shutdown
            | Op::Invalid => false,
        }
    }
}

/// Typed error kinds — a closed vocabulary clients can dispatch on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorKind {
    /// Malformed JSON, unknown op, or missing/ill-typed parameter.
    BadRequest,
    /// The named session does not exist.
    NoSuchSession,
    /// `create_session` for a name already live.
    SessionExists,
    /// The admission queue is full — retry later (backpressure).
    Overloaded,
    /// The request's deadline elapsed (wall or virtual time).
    Timeout,
    /// The server is draining; no new work admitted.
    ShuttingDown,
    /// A required external service is down or its breaker is open and
    /// no replacement could answer.
    Unavailable,
    /// A handler panicked or an invariant failed.
    Internal,
}

impl ErrorKind {
    /// The wire name.
    pub fn as_str(self) -> &'static str {
        match self {
            ErrorKind::BadRequest => "bad_request",
            ErrorKind::NoSuchSession => "no_such_session",
            ErrorKind::SessionExists => "session_exists",
            ErrorKind::Overloaded => "overloaded",
            ErrorKind::Timeout => "timeout",
            ErrorKind::ShuttingDown => "shutting_down",
            ErrorKind::Unavailable => "unavailable",
            ErrorKind::Internal => "internal",
        }
    }
}

/// A parsed request: a borrowed view over one request line. `id` is
/// the verbatim input slice of the id value (`"null"` when absent), so
/// echoing it costs nothing and preserves the client's exact spelling;
/// `session` and every parameter borrow the line or the parse arena.
/// The caller owns the backing [`ZDoc`] + line pair and keeps both
/// alive for as long as the view is used.
#[derive(Debug, Clone, Copy)]
pub struct Request<'d> {
    /// The verbatim id slice, echoed in the response.
    pub id: &'d str,
    /// The request class.
    pub op: Op,
    /// Target session, when the op is session-scoped.
    pub session: Option<&'d str>,
    /// Per-request budget in milliseconds.
    pub deadline_ms: Option<u64>,
    /// The whole request object (parameter lookup).
    pub body: ZRef<'d>,
}

// The borrowed-view request parse: everything here slices the input
// line or the parse arena. lint:hotpath(begin)
impl<'d> Request<'d> {
    /// Parse one request line into `doc`. The error carries the raw id
    /// slice (for the response envelope) and the message.
    pub fn parse(doc: &'d mut ZDoc, line: &'d str) -> Result<Request<'d>, (&'d str, String)> {
        let body = match doc.parse(line) {
            Ok(b) => b,
            // lint:allow(hot-path-alloc) cold arm: malformed input only
            Err(e) => return Err(("null", format!("{e}"))),
        };
        let id = body.get("id").map(|v| v.raw()).unwrap_or("null");
        let session = body.get("session").and_then(|v| v.as_str());
        let deadline_ms = body.get("deadline_ms").and_then(|v| v.as_f64()).map(|v| v as u64);
        let Some(op_name) = body.get("op").and_then(|v| v.as_str()) else {
            return Err((id, "missing \"op\"".to_string())); // lint:allow(hot-path-alloc) cold arm: rejected request
        };
        let Some(op) = Op::parse(op_name) else {
            return Err((id, format!("unknown op {op_name:?}"))); // lint:allow(hot-path-alloc) cold arm: rejected request
        };
        Ok(Request { id, op, session, deadline_ms, body })
    }

    // lint:hotpath(end)

    fn required(&self, key: &str) -> Result<ZRef<'d>, JsonError> {
        self.body
            .get(key)
            .ok_or_else(|| JsonError::new(format!("missing field {key:?}")))
    }

    /// A required string parameter (borrowed from the line or arena).
    pub fn str_param(&self, key: &str) -> Result<&'d str, JsonError> {
        self.required(key)?
            .as_str()
            .ok_or_else(|| JsonError::new(format!("{key:?} must be a string")))
    }

    /// A required non-negative integer parameter.
    pub fn usize_param(&self, key: &str) -> Result<usize, JsonError> {
        let n = self
            .required(key)?
            .as_f64()
            .ok_or_else(|| JsonError::new(format!("{key:?} must be a number")))?;
        if n < 0.0 || n.fract() != 0.0 {
            return Err(JsonError::new(format!("{key:?} must be a non-negative integer")));
        }
        Ok(n as usize)
    }

    /// A required number parameter.
    pub fn f64_param(&self, key: &str) -> Result<f64, JsonError> {
        self.required(key)?
            .as_f64()
            .ok_or_else(|| JsonError::new(format!("{key:?} must be a number")))
    }

    /// A required array-of-strings parameter. The strings borrow the
    /// request line; only the spine vector is allocated.
    pub fn strings_param(&self, key: &str) -> Result<Vec<&'d str>, JsonError> {
        let arr = self.required(key)?;
        if !arr.is_arr() {
            return Err(JsonError::new(format!("{key:?} must be an array")));
        }
        arr.items()
            .map(|v| {
                v.as_str()
                    .ok_or_else(|| JsonError::new(format!("{key:?} must hold strings")))
            })
            .collect()
    }
}

thread_local! {
    /// This thread's request parse scratch. Warm, a request parses
    /// without allocating. The server's front door and the router both
    /// parse here, never while the other holds it.
    static PARSE_SCRATCH: RefCell<ZDoc> = RefCell::new(ZDoc::new());
}

/// A scratch that parsed a line longer than this is dropped instead of
/// kept, so one pathological request cannot pin megabytes.
const MAX_POOLED_LINE_LEN: usize = 64 * 1024;

/// Parse `line` in this thread's scratch and hand `f` the request, or
/// the parse error's raw id slice and message.
pub(crate) fn with_request<R>(line: &str, f: impl FnOnce(Result<Request<'_>, (&str, String)>) -> R) -> R {
    PARSE_SCRATCH.with(|cell| {
        let Ok(mut doc) = cell.try_borrow_mut() else {
            // A re-entrant parse (none today) gets a fresh doc.
            return f(Request::parse(&mut ZDoc::new(), line));
        };
        let out = f(Request::parse(&mut doc, line));
        if line.len() > MAX_POOLED_LINE_LEN {
            *doc = ZDoc::new();
        }
        out
    })
}

// Response serialization: pooled scratch in, one exact-size copy out.
// lint:hotpath(begin)
thread_local! {
    /// Per-connection-thread response assembly buffer: responses are
    /// written here, then copied out once at exact size, so
    /// steady-state serialization never grows a fresh buffer.
    static RESPONSE_SCRATCH: RefCell<String> = const { RefCell::new(String::new()) };
}

/// The copy-out reserves this many bytes past the response, so a
/// transport appending its `\n` terminator never reallocates.
const RESPONSE_TERMINATOR_SLACK: usize = 1;

/// Run `f` on this thread's cleared response scratch and copy what it
/// wrote out once; if `f` fails, nothing it wrote leaves.
fn with_response_scratch<E>(f: impl FnOnce(&mut String) -> Result<(), E>) -> Result<String, E> {
    RESPONSE_SCRATCH.with(|cell| {
        match cell.try_borrow_mut() {
            Ok(mut out) => {
                out.clear();
                f(&mut out)?;
                // The one copy-out the scratch design pays for, sized to
                // the response plus its terminator.
                let mut copy = String::with_capacity(out.len() + RESPONSE_TERMINATOR_SLACK);
                copy.push_str(&out);
                Ok(copy)
            }
            // Re-entrant serialization (impossible today): fall back to
            // a fresh buffer rather than failing the response.
            Err(_) => {
                let mut out = String::new();
                f(&mut out)?;
                Ok(out)
            }
        }
    })
}

/// A success response. The envelope `{"id":…,"ok":true,"result":{` is
/// open when `result` gets the writer, which writes the result
/// object's members and nothing else; `id` is the raw id slice (already
/// valid JSON — it came from a parsed request line). When `result`
/// fails, whatever it wrote is discarded and its error returned, so the
/// caller's [`err_response`] is the only answer.
pub fn ok_response<E>(
    id: &str,
    result: impl FnOnce(&mut JsonWriter<'_>) -> Result<(), E>,
) -> Result<String, E> {
    with_response_scratch(|out| {
        out.push_str("{\"id\":");
        out.push_str(id);
        out.push_str(",\"ok\":true,\"result\":");
        let mut w = JsonWriter::compact(out);
        w.begin_obj();
        result(&mut w)?;
        w.end_obj();
        out.push('}');
        Ok(())
    })
}

/// Serialize an error response.
pub fn err_response(id: &str, kind: ErrorKind, message: &str) -> String {
    let Ok(line) = with_response_scratch(|out| {
        out.push_str("{\"id\":");
        out.push_str(id);
        out.push_str(",\"ok\":false,\"error\":{\"kind\":\"");
        out.push_str(kind.as_str());
        out.push_str("\",\"message\":");
        json::write_escaped(out, message);
        out.push_str("}}");
        Ok::<(), Infallible>(())
    });
    line
}
// lint:hotpath(end)

#[cfg(test)]
mod tests {
    use super::*;

    /// A success response whose result holds `key: true`.
    fn flag(id: &str, key: &str) -> String {
        let Ok(line) = ok_response::<Infallible>(id, |w| {
            w.field(key, &true);
            Ok(())
        });
        line
    }

    #[test]
    fn responses_leave_room_for_the_line_terminator() {
        let mut ok = flag("7", "pong");
        let mut err = err_response("7", ErrorKind::BadRequest, "no");
        for resp in [&mut ok, &mut err] {
            let (ptr, cap) = (resp.as_ptr(), resp.capacity());
            resp.push('\n');
            assert_eq!((resp.as_ptr(), resp.capacity()), (ptr, cap), "terminator reallocated");
        }
        assert_eq!(ok, "{\"id\":7,\"ok\":true,\"result\":{\"pong\":true}}\n");
    }

    #[test]
    fn a_result_that_fails_after_writing_leaves_nothing_behind() {
        let failed = ok_response("7", |w| {
            w.field("partial", "result");
            Err("too late")
        });
        assert_eq!(failed, Err("too late"));
        // The next answer on this thread starts from a clean scratch.
        assert_eq!(
            err_response("7", ErrorKind::Timeout, "too late"),
            r#"{"id":7,"ok":false,"error":{"kind":"timeout","message":"too late"}}"#
        );
    }

    #[test]
    fn op_index_matches_all_order() {
        // `index()` relies on ALL listing variants in declaration
        // order; this pins the invariant for every variant.
        for (i, op) in Op::ALL.iter().enumerate() {
            assert_eq!(op.index(), i, "{op:?}");
            assert_eq!(Op::ALL[op.index()], *op);
        }
    }

    /// `[Op::A, …]` from variant names, behind an exhaustive `match` on
    /// the same names: a variant added to `Op` stops this compiling
    /// until it is listed.
    macro_rules! every_op {
        ($($variant:ident),+ $(,)?) => {{
            let every = [$(Op::$variant),+];
            for op in every {
                match op {
                    $(Op::$variant)|+ => {}
                }
            }
            every
        }};
    }

    /// Every variant of `Op`, behind the exhaustive match of `every_op!`.
    fn every_op() -> Vec<Op> {
        every_op!(
            Ping,
            CreateSession,
            LoadSession,
            SaveSession,
            CloseSession,
            ListSessions,
            OpenDoc,
            Paste,
            AcceptRows,
            NameColumn,
            SetColumnType,
            CommitSource,
            RegisterWorld,
            RegisterFlaky,
            ColumnSuggestions,
            AcceptColumn,
            RejectColumn,
            Autocomplete,
            Feedback,
            Explain,
            Export,
            Render,
            Health,
            SessionStats,
            LearnTransform,
            ListTransforms,
            Stats,
            Shutdown,
            Invalid,
        )
        .to_vec()
    }

    /// The wiring the compiler cannot see, part one. `as_str`, `mutates`
    /// and the server's dispatch are `match`es without a wildcard, so a
    /// new variant already fails to compile there; `ALL` (the metrics
    /// table) is an array it cannot check, so this pins that it lists
    /// every variant once.
    #[test]
    fn all_lists_every_op_once() {
        let every = every_op();
        assert_eq!(Op::ALL.len(), every.len(), "Op::ALL must list every variant once");
        for op in every {
            assert_eq!(Op::ALL.iter().filter(|&&o| o == op).count(), 1, "{op:?} in Op::ALL");
        }
    }

    /// The wiring the compiler cannot see, part two: the journal/replay
    /// tests send every op the router journals.
    /// `smoke_round_trips_every_request_class` (`tests/serve.rs`)
    /// requires the golden wire transcript to send every op in `ALL`.
    #[test]
    fn the_journal_tests_send_every_mutation() {
        let journal_tests = include_str!("../tests/durability.rs");
        for op in every_op() {
            // The journal tests spell requests inside Rust string
            // literals, quotes escaped.
            let escaped = format!("\\\"op\\\":\\\"{}\\\"", op.as_str());
            assert!(
                !op.mutates() || journal_tests.contains(&escaped),
                "{op:?} mutates, but tests/durability.rs never sends it"
            );
        }
    }

    #[test]
    fn every_wire_name_round_trips() {
        for op in Op::ALL {
            if op == Op::Invalid {
                assert_eq!(Op::parse(op.as_str()), None);
            } else {
                assert_eq!(Op::parse(op.as_str()), Some(op));
            }
        }
    }

    fn within(outer: &str, inner: &str) -> bool {
        let (o, i) = (outer.as_ptr() as usize, inner.as_ptr() as usize);
        i >= o && i + inner.len() <= o + outer.len()
    }

    #[test]
    fn parse_borrows_the_line_and_echoes_the_id_verbatim() {
        let mut doc = ZDoc::new();
        let line = r#"{"id":1.50,"op":"paste","session":"alice","values":["x"],"deadline_ms":250}"#;
        let req = Request::parse(&mut doc, line).unwrap();
        // Verbatim echo: the client's exact spelling, not a canonical
        // re-serialization ("1.50", not "1.5").
        assert_eq!(req.id, "1.50");
        assert_eq!(req.op, Op::Paste);
        assert_eq!(req.deadline_ms, Some(250));
        // The session and string params are slices INTO the line — no
        // copies were made.
        let session = req.session.unwrap();
        assert_eq!(session, "alice");
        assert!(within(line, session), "session must borrow the line");
        let values = req.strings_param("values").unwrap();
        assert_eq!(values, vec!["x"]);
        assert!(within(line, values[0]), "payload strings must borrow the line");
    }

    #[test]
    fn parse_errors_keep_the_owned_protocol_wording() {
        let mut doc = ZDoc::new();
        let (id, msg) = Request::parse(&mut doc, "this is not json").unwrap_err();
        assert_eq!(id, "null");
        assert_eq!(msg, "json error: invalid literal (expected true) at byte 0");
        let mut doc = ZDoc::new();
        let (id, msg) = Request::parse(&mut doc, r#"{"id":3}"#).unwrap_err();
        assert_eq!(id, "3");
        assert_eq!(msg, "missing \"op\"");
        let mut doc = ZDoc::new();
        let (_, msg) = Request::parse(&mut doc, r#"{"op":"warp"}"#).unwrap_err();
        assert_eq!(msg, "unknown op \"warp\"");
    }

    #[test]
    fn param_errors_keep_the_owned_protocol_wording() {
        let mut doc = ZDoc::new();
        let line = r#"{"op":"ping","n":1.5,"s":"x","a":[1],"b":"y"}"#;
        let req = Request::parse(&mut doc, line).unwrap();
        assert_eq!(req.str_param("missing").unwrap_err().to_string(), "json error: missing field \"missing\"");
        assert_eq!(req.str_param("n").unwrap_err().to_string(), "json error: \"n\" must be a string");
        assert_eq!(req.usize_param("s").unwrap_err().to_string(), "json error: \"s\" must be a number");
        assert_eq!(req.usize_param("n").unwrap_err().to_string(), "json error: \"n\" must be a non-negative integer");
        assert_eq!(req.f64_param("s").unwrap_err().to_string(), "json error: \"s\" must be a number");
        assert_eq!(req.strings_param("b").unwrap_err().to_string(), "json error: \"b\" must be an array");
        assert_eq!(req.strings_param("a").unwrap_err().to_string(), "json error: \"a\" must hold strings");
        assert_eq!(req.f64_param("n").unwrap(), 1.5);
        assert_eq!(req.usize_param("a").unwrap_err().to_string(), "json error: \"a\" must be a number");
    }

    #[test]
    fn responses_serialize_to_the_pinned_wire_shape() {
        assert_eq!(flag("7", "pong"), r#"{"id":7,"ok":true,"result":{"pong":true}}"#);
        assert_eq!(
            ok_response::<Infallible>("\"abc\"", |_| Ok(())),
            Ok(r#"{"id":"abc","ok":true,"result":{}}"#.to_string())
        );
        assert_eq!(
            err_response("null", ErrorKind::BadRequest, "a \"quoted\" reason"),
            r#"{"id":null,"ok":false,"error":{"kind":"bad_request","message":"a \"quoted\" reason"}}"#
        );
    }
}
