//! Golden wire-schema tests.
//!
//! The fixtures are committed snapshots of the protocol's observable
//! surface: the scenario transcripts (`golden/wire_transcript.txt`, a
//! full conversation with one request of every class, and the files
//! under `scenarios/`), the `SavedSession` JSON document, and the key
//! shape of the router `stats` document. A transcript pins every answer
//! byte for byte, except `stats`, whose values carry real timing and
//! are pinned by key shape (the wire transcript's `stats` block is the
//! server stats shape). Any unversioned change to the wire format — a
//! renamed field, a dropped key, a reordered object — fails here.
//!
//! To version a deliberate change, regenerate and commit the fixtures
//! (a crash scenario is rewritten from its never-crashed control, and
//! only once its recovered router agrees):
//!
//! ```sh
//! UPDATE_GOLDEN=1 cargo test -p copycat-serve --test golden
//! ```

use copycat_serve::{smoke, Router, RouterConfig, Server};
use copycat_util::json::Json;
use std::path::PathBuf;

/// `name` under the crate's `tests/` directory.
fn fixture_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests").join(name)
}

/// Compare `actual` to the committed fixture, or rewrite the fixture
/// when `UPDATE_GOLDEN` is set.
fn assert_golden(name: &str, actual: &str) {
    let path = fixture_path(name);
    if std::env::var("UPDATE_GOLDEN").is_ok() {
        std::fs::create_dir_all(path.parent().unwrap()).expect("fixture dir");
        std::fs::write(&path, actual).expect("write fixture");
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden fixture {path:?} ({e}); \
             run UPDATE_GOLDEN=1 cargo test -p copycat-serve --test golden"
        )
    });
    if let Some((n, want, got)) = smoke::first_difference(&expected, actual) {
        panic!(
            "wire schema drifted from golden fixture {name} at line {n}:\n  \
             fixture: {want}\n  actual : {got}\n\
             If this change is intentional, version it: regenerate with \
             UPDATE_GOLDEN=1 and commit the new fixture."
        );
    }
}

/// The scenario transcripts: the wire transcript and every file under
/// `tests/scenarios/`.
fn scenarios() -> Vec<String> {
    let dir = fixture_path("scenarios");
    let mut names: Vec<String> = std::fs::read_dir(&dir)
        .unwrap_or_else(|e| panic!("scenario dir {dir:?}: {e}"))
        .map(|entry| {
            format!("scenarios/{}", entry.expect("dir entry").file_name().to_string_lossy())
        })
        .collect();
    names.sort();
    names.insert(0, "golden/wire_transcript.txt".to_string());
    names
}

/// Every scenario replays to its committed transcript byte for byte:
/// the full wire conversation (one request of every class), the chaos
/// failover, and the crash scenarios, whose recovered router must also
/// answer exactly like its never-crashed control. Responses carry no
/// timing by protocol design; `stats` is pinned by its key shape.
#[test]
fn golden_wire_transcript() {
    for name in scenarios() {
        let text = std::fs::read_to_string(fixture_path(&name)).expect("scenario file");
        let rendered = smoke::replay(&text).unwrap_or_else(|e| panic!("{name}: {e}"));
        assert_golden(&name, &rendered);
    }
}

/// An altered answer fails the replay and names its line.
#[test]
fn replay_names_the_first_altered_line() {
    let text = smoke::replay(">> {\"id\":1,\"op\":\"ping\"}\n>> {\"id\":2,\"op\":\"ping\"}\n")
        .expect("two pings replay");
    assert!(smoke::check(&text).is_ok(), "{text}");
    let altered = text.replacen("{\"id\":2,\"ok\":true", "{\"id\":2,\"ok\":false", 1);
    assert_ne!(altered, text);
    let err = smoke::check(&altered).expect_err("an altered answer must fail");
    assert!(err.starts_with("line 4 differs"), "{err}");
    assert!(err.contains("expected: << {\"id\":2,\"ok\":false"), "{err}");
}

/// A text without a `>>` line is refused rather than passing empty.
#[test]
fn replay_refuses_a_file_without_requests() {
    for text in ["", "<< {\"id\":1,\"ok\":true}\n", "-- crash\n"] {
        let err = smoke::check(text).expect_err("nothing to replay must fail");
        assert!(err.contains("no `>>` request line"), "{text:?}: {err}");
    }
}

/// The `SavedSession` document — now carrying `health` (breaker and
/// retry state) and `probes` (fault-injection counters) — pinned
/// byte-for-byte. This is the durability format: WAL checkpoints and
/// `save_session` both rest on it surviving unchanged.
#[test]
fn golden_saved_session_document() {
    let text =
        std::fs::read_to_string(fixture_path("golden/wire_transcript.txt")).expect("transcript");
    let rendered = smoke::replay(&text).expect("replay");
    let mut lines = rendered.lines();
    lines.find(|l| l.starts_with(">> ") && l.contains("\"op\":\"save_session\""));
    let answer = lines.next().and_then(|l| l.strip_prefix("<< ")).expect("save_session answer");
    let snapshot = Json::parse(answer).expect("json")["result"]["snapshot"]
        .as_str()
        .expect("snapshot string")
        .to_string();
    // Belt and braces: the document must still round-trip through the
    // parser before we pin its bytes.
    let parsed = Json::parse(&snapshot).expect("snapshot is valid JSON");
    for key in ["health", "probes"] {
        assert!(
            matches!(parsed.get(key), Some(Json::Arr(_))),
            "SavedSession must carry {key:?}: {snapshot}"
        );
    }
    let mut doc = snapshot;
    doc.push('\n');
    assert_golden("golden/saved_session.json", &doc);
}

/// Backward compatibility: the committed `SavedSession` fixture —
/// written before copy-on-write worlds existed — still loads into a
/// live (flat) session. Snapshots taken by earlier releases must stay
/// loadable after the CoW refactor.
#[test]
fn pre_cow_saved_session_fixture_loads() {
    let snapshot =
        std::fs::read_to_string(fixture_path("golden/saved_session.json")).expect("fixture");
    let server = Server::with_defaults();
    let request = Json::obj(vec![
        ("id".to_string(), Json::Num(1.0)),
        ("op".to_string(), Json::str("load_session")),
        ("session".to_string(), Json::str("legacy")),
        ("snapshot".to_string(), Json::str(snapshot.trim_end())),
    ])
    .to_string();
    let resp = server.handle_line(&request);
    let j = Json::parse(&resp).expect("json");
    assert_eq!(j["ok"].as_bool(), Some(true), "pre-CoW snapshot rejected: {resp}");
    // The loaded session answers queries: render and stats both work.
    let render = server.handle_line("{\"id\":2,\"op\":\"render\",\"session\":\"legacy\"}");
    assert!(render.contains("\"ok\":true"), "{render}");
    let stats = server.handle_line("{\"id\":3,\"op\":\"session_stats\",\"session\":\"legacy\"}");
    let sj = Json::parse(&stats).expect("json");
    assert_eq!(sj["ok"].as_bool(), Some(true), "{stats}");
    assert!(
        sj["result"]["relations"].as_f64().is_some_and(|n| n >= 1.0),
        "loaded session carries its relations: {stats}"
    );
    server.shutdown();
}

/// The router `stats` document's key shape — placement and durability
/// accounting included. A dropped durability counter fails here.
#[test]
fn golden_router_stats_shape() {
    let root = std::env::temp_dir().join(format!(
        "copycat-golden-router-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&root);
    let router = Router::new(RouterConfig {
        shards: 2,
        store_root: Some(root.clone()),
        ..RouterConfig::default()
    });
    // A little durable traffic so every durability counter is live.
    for line in [
        "{\"id\":1,\"op\":\"create_session\",\"session\":\"g\"}",
        "{\"id\":2,\"op\":\"open_doc\",\"session\":\"g\",\"name\":\"D\",\
         \"headers\":[\"A\"],\"rows\":[[\"x\"]]}",
    ] {
        let resp = router.handle_line(line);
        assert!(resp.contains("\"ok\":true"), "{resp}");
    }
    assert_golden("golden/router_stats_shape.txt", &smoke::shape(&router.stats()));
    router.shutdown();
    let _ = std::fs::remove_dir_all(&root);
}
