//! The router's journal decision, pinned by outcome: one request for
//! each outcome that can be produced deterministically in-process, sent
//! through an ephemeral router and through a durable one on a simulated
//! disk. A mutating request is journaled unless it was refused before
//! any engine ran (`no_such_session`, `session_exists`,
//! `shutting_down`), so `ok`, a `bad_request` raised while handling the
//! request, an `unavailable` answer from tripped breakers and a timeout
//! raised after execution are all journaled, the timeout without its
//! `deadline_ms`. `journal_history` must hold exactly those lines, byte
//! for byte, and a durable router must recover the same lines from disk.

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
        let session = Json::str(session);
        let line = format!("{{\"id\":{},\"op\":{body},\"session\":{session}}}", self.next_id);
        self.steps.push(Step { line, kind, journaled });
    }

    fn ok(&mut self, session: &str, body: &str) {
        self.send(session, body, None, true);
    }

    /// The journal a session must hold: its journaled lines, each with
    /// `deadline_ms` stripped.
    fn journal(&self, session: &str) -> Vec<String> {
        let tag = format!(",\"session\":{}}}", Json::str(session));
        self.steps
            .iter()
            .filter(|s| s.journaled && s.line.ends_with(&tag))
            .map(|s| s.line.replace(",\"deadline_ms\":100", ""))
            .collect()
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
    s.send("ghost", "\"paste\",\"doc\":0,\"values\":[\"a\"]", Some("no_such_session"), false);
    // A failed close of one session leaves every other session alone.
    s.send("gone", "\"close_session\"", Some("no_such_session"), false);
    // A successful close drops the session's journal and disk state.
    s.ok("temp", "\"create_session\"");
    s.ok("temp", "\"close_session\"");
    s.steps.push(Step {
        line: "{\"id\":900,\"op\":\"shutdown\"}".to_string(),
        kind: None,
        journaled: false,
    });
    s.send("pin", "\"accept_rows\"", Some("shutting_down"), false);
    s
}

/// Send every step, checking each answer's kind; after the failed
/// close, `pin`'s journal (and, with `disk`, the session directories)
/// must be what they were before it.
fn drive(router: &Router, script: &Script, disk: Option<(&Fs, &Path)>) {
    let dirs = || disk.map(|(fs, root)| fs.list_dirs(root).expect("list session dirs"));
    for step in &script.steps {
        let before = (router.journal_history("pin"), dirs());
        let resp = Json::parse(&router.handle_line(&step.line)).expect("json response");
        let kind = resp["error"]["kind"].as_str();
        assert_eq!(kind, step.kind, "{} -> {resp}", step.line);
        if step.line.contains("\"session\":\"gone\"") {
            assert_eq!((router.journal_history("pin"), dirs()), before, "failed close touched `pin`");
        }
    }
}

fn assert_journals(router: &Router, script: &Script) {
    for session in ["pin", "slow"] {
        assert_eq!(router.journal_history(session), Some(script.journal(session)), "{session}");
    }
    assert_eq!(router.journal_history("temp"), None, "a closed session keeps no journal");
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
    assert_eq!(dirs.len(), 2, "one directory each for `pin` and `slow`: {dirs:?}");
    drop(router); // kill: no shutdown, no flush
    sim.crash();
    let recovered = Router::recover(config(fs, Some(root))).expect("recovery");
    assert_journals(&recovered, &script);
    recovered.shutdown();
}
