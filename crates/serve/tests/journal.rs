//! The router's journal decision, pinned by outcome: one request for
//! each outcome that can be produced deterministically in-process, sent
//! through an ephemeral router and through a durable one on a simulated
//! disk. A mutating request is journaled unless it was refused before
//! any engine ran (`no_such_session`, `session_exists`,
//! `shutting_down`), so `ok`, a `bad_request` raised while handling the
//! request, an `unavailable` answer from tripped breakers and a timeout
//! raised after execution are all journaled, the timeout without its
//! `deadline_ms`. After every step `journal_history` must hold exactly
//! those lines, byte for byte, since the session's last close, and a
//! durable router must recover the same lines from disk. A name that
//! journaled nothing has no journal at all: a request refused for a
//! session that does not exist leaves none behind, and `stats()` does
//! not count it.

use copycat_serve::router::{Router, RouterConfig};
use copycat_serve::server::ServerConfig;
use copycat_services::{World, WorldConfig};
use copycat_store::{Fs, SimFs};
use copycat_util::json::Json;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// A request line, the error kind it must be answered with (`None` for
/// `ok`) and whether the router journals it.
struct Step {
    line: String,
    session: String,
    kind: Option<&'static str>,
    journaled: bool,
}

/// The conversation: each step is sent in order, and each session's
/// journal must hold its journaled steps, in order.
struct Script {
    steps: Vec<Step>,
    next_id: u64,
}

impl Script {
    fn send(&mut self, session: &str, body: &str, kind: Option<&'static str>, journaled: bool) {
        self.next_id += 1;
        let name = Json::str(session);
        let line = format!("{{\"id\":{},\"op\":{body},\"session\":{name}}}", self.next_id);
        self.steps.push(Step { line, session: session.to_string(), kind, journaled });
    }

    fn ok(&mut self, session: &str, body: &str) {
        self.send(session, body, None, true);
    }

    /// The journal `session` must hold after the first `steps` steps:
    /// its journaled lines since its last successful close, each with
    /// `deadline_ms` stripped; `None` when there are none.
    fn journal_after(&self, session: &str, steps: usize) -> Option<Vec<String>> {
        let mut lines = Vec::new();
        for step in self.steps[..steps].iter().filter(|s| s.session == session) {
            if step.kind.is_none() && step.line.contains("\"op\":\"close_session\"") {
                lines.clear();
            } else if step.journaled {
                lines.push(step.line.replace(",\"deadline_ms\":100", ""));
            }
        }
        (!lines.is_empty()).then_some(lines)
    }

    /// The journal `session` must hold once every step was sent.
    fn journal(&self, session: &str) -> Option<Vec<String>> {
        self.journal_after(session, self.steps.len())
    }
}

/// Import the world's shelters into `session` and wrap `zip_resolver`
/// in a healthy fault-injection probe charging `latency_ms` of virtual
/// latency per call.
fn import_shelters(script: &mut Script, session: &str, latency_ms: u64) {
    let world = World::generate(&WorldConfig { seed: 2009, venues: 8, ..WorldConfig::default() });
    let rows = world.shelter_rows();
    let row = |r: &Vec<String>| Json::Arr(r.iter().map(|c| Json::str(c.as_str())).collect());
    let all = Json::Arr(rows.iter().map(row).collect());
    script.ok(session, "\"create_session\"");
    script.ok(session, "\"register_world\",\"seed\":2009,\"venues\":8");
    script.ok(
        session,
        &format!("\"open_doc\",\"name\":\"Sheet\",\"headers\":[\"Name\",\"Street\",\"City\"],\"rows\":{all}"),
    );
    script.ok(session, &format!("\"paste\",\"doc\":0,\"values\":{}", row(&rows[0])));
    script.ok(session, "\"accept_rows\"");
    script.ok(session, "\"set_column_type\",\"col\":2,\"type\":\"PR-City\"");
    script.ok(session, "\"commit_source\",\"name\":\"Shelters\"");
    script.ok(
        session,
        &format!(
            "\"register_flaky\",\"service\":\"zip_resolver\",\"failure_rate\":0,\
             \"latency_ms\":{latency_ms},\"seed\":7"
        ),
    );
}

fn script() -> Script {
    let mut s = Script { steps: Vec::new(), next_id: 0 };
    import_shelters(&mut s, "pin", 0);
    s.send("pin", "\"create_session\"", Some("session_exists"), false);
    // Parameter validation fails after the session was found.
    s.send("pin", "\"name_column\",\"col\":\"x\",\"name\":\"N\"", Some("bad_request"), true);
    // Parameters are valid; the index names no shown suggestion.
    s.send("pin", "\"accept_column\",\"index\":9", Some("bad_request"), true);
    // Every service that could complete a column hard down behind a
    // breaker, with no replacement: the round that trips them is
    // answered `unavailable`.
    for svc in ["zip_resolver", "geocoder", "address_resolver"] {
        s.ok(
            "pin",
            &format!(
                "\"register_flaky\",\"service\":\"{svc}\",\"failure_rate\":1,\"latency_ms\":1,\
                 \"seed\":3,\"retries\":2,\"breaker_threshold\":2,\"cooldown_ms\":1000000"
            ),
        );
    }
    s.send("pin", "\"column_suggestions\"", Some("unavailable"), true);
    // 500 ms of virtual latency per zip_resolver call against a 100 ms
    // budget: the deadline fires after execution, effects kept.
    import_shelters(&mut s, "slow", 500);
    s.send("slow", "\"column_suggestions\",\"deadline_ms\":100", Some("timeout"), true);
    // Names that were never created are refused and leave no journal,
    // reads and mutations alike; a later create journals normally.
    s.send("ghost", "\"paste\",\"doc\":0,\"values\":[\"a\"]", Some("no_such_session"), false);
    s.send("nobody", "\"render\"", Some("no_such_session"), false);
    s.ok("ghost", "\"create_session\"");
    // A failed close of one session leaves every other session alone.
    s.send("gone", "\"close_session\"", Some("no_such_session"), false);
    // A successful close drops the session's journal and disk state.
    s.ok("temp", "\"create_session\"");
    s.ok("temp", "\"close_session\"");
    s.steps.push(Step {
        line: "{\"id\":900,\"op\":\"shutdown\"}".to_string(),
        session: String::new(),
        kind: None,
        journaled: false,
    });
    s.send("pin", "\"accept_rows\"", Some("shutting_down"), false);
    s
}

/// Send every step, checking each answer's kind and, after it, the
/// step's session's journal; after the failed close, `pin`'s journal
/// (and, with `disk`, the session directories) must be what they were
/// before it.
fn drive(router: &Router, script: &Script, disk: Option<(&Fs, &Path)>) {
    let dirs = || disk.map(|(fs, root)| fs.list_dirs(root).expect("list session dirs"));
    for (i, step) in script.steps.iter().enumerate() {
        let before = (router.journal_history("pin"), dirs());
        let resp = Json::parse(&router.handle_line(&step.line)).expect("json response");
        let kind = resp["error"]["kind"].as_str();
        assert_eq!(kind, step.kind, "{} -> {resp}", step.line);
        if !step.session.is_empty() {
            let want = script.journal_after(&step.session, i + 1);
            assert_eq!(router.journal_history(&step.session), want, "after {}", step.line);
        }
        if step.session == "gone" {
            assert_eq!((router.journal_history("pin"), dirs()), before, "failed close touched `pin`");
        }
    }
}

/// Every named session holds its journal, and `stats()` counts exactly
/// the sessions that hold one.
fn assert_journals(router: &Router, script: &Script) {
    let mut journaled = 0;
    for session in ["pin", "slow", "ghost", "nobody", "gone", "temp"] {
        let want = script.journal(session);
        journaled += usize::from(want.is_some());
        assert_eq!(router.journal_history(session), want, "{session}");
    }
    assert_eq!(journaled, 3, "`pin`, `slow` and `ghost` hold journals");
    let sessions = router.stats()["sessions"].as_f64();
    assert_eq!(sessions, Some(journaled as f64), "refused and closed names are not counted");
}

fn config(fs: Fs, root: Option<PathBuf>) -> RouterConfig {
    RouterConfig {
        shards: 2,
        server: ServerConfig { workers: 2, queue_depth: 8, shards: 2 },
        store_root: root,
        snapshot_every: 4,
        fs,
        ..RouterConfig::default()
    }
}

#[test]
fn ephemeral_router_journals_exactly_what_took_effect() {
    let script = script();
    let router = Router::new(config(Fs::real(), None));
    drive(&router, &script, None);
    assert_journals(&router, &script);
    // Migration looks a session up; it makes no entry for a name it
    // does not know.
    assert!(router.migrate_session("nowhere", 1).is_err());
    assert_eq!(router.journal_history("nowhere"), None);
    assert_journals(&router, &script);
    router.shutdown();
}

#[test]
fn durable_router_journals_and_recovers_exactly_what_took_effect() {
    let script = script();
    let sim = Arc::new(SimFs::new(29));
    let fs = Fs::sim(Arc::clone(&sim));
    let root = PathBuf::from("/journal");
    let router = Router::new(config(fs.clone(), Some(root.clone())));
    drive(&router, &script, Some((&fs, &root)));
    assert_journals(&router, &script);
    let dirs = fs.list_dirs(&root).expect("list session dirs");
    assert_eq!(dirs.len(), 3, "one directory each for `pin`, `slow` and `ghost`: {dirs:?}");
    drop(router); // kill: no shutdown, no flush
    sim.crash();
    let recovered = Router::recover(config(fs, Some(root))).expect("recovery");
    assert_journals(&recovered, &script);
    recovered.shutdown();
}
