//! Golden wire-schema tests.
//!
//! The fixtures under `tests/golden/` are committed snapshots of the
//! protocol's observable surface: a full request/response transcript,
//! the `SavedSession` JSON document, and the key-shape of the two
//! stats documents (whose *values* carry real timing and therefore
//! cannot be byte-pinned). Any unversioned change to the wire format —
//! a renamed field, a dropped key, a reordered object — fails here.
//!
//! To version a deliberate change, regenerate and commit the fixtures:
//!
//! ```sh
//! UPDATE_GOLDEN=1 cargo test -p copycat-serve --test golden
//! ```

use copycat_serve::{smoke, Router, RouterConfig, Server};
use copycat_util::json::Json;
use std::collections::BTreeSet;
use std::path::PathBuf;

fn fixture_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden").join(name)
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
    if expected != actual {
        // Locate the first differing line for a readable failure.
        let diff_line = expected
            .lines()
            .zip(actual.lines())
            .position(|(e, a)| e != a)
            .map(|i| {
                let e = expected.lines().nth(i).unwrap_or("<eof>");
                let a = actual.lines().nth(i).unwrap_or("<eof>");
                format!("first difference at line {}:\n  fixture: {e}\n  actual : {a}", i + 1)
            })
            .unwrap_or_else(|| {
                format!(
                    "line counts differ: fixture {} vs actual {}",
                    expected.lines().count(),
                    actual.lines().count()
                )
            });
        panic!(
            "wire schema drifted from golden fixture {name} — {diff_line}\n\
             If this change is intentional, version it: regenerate with \
             UPDATE_GOLDEN=1 and commit the new fixture."
        );
    }
}

/// Sorted key paths with leaf type tags: the *shape* of a JSON value,
/// independent of the (possibly timing-dependent) values.
fn shape(j: &Json) -> String {
    fn walk(j: &Json, prefix: &str, out: &mut BTreeSet<String>) {
        match j {
            Json::Obj(fields) => {
                if fields.is_empty() {
                    out.insert(format!("{prefix}:obj"));
                }
                for (k, v) in fields {
                    walk(v, &format!("{prefix}.{k}"), out);
                }
            }
            Json::Arr(items) => {
                out.insert(format!("{prefix}[]"));
                for v in items {
                    walk(v, &format!("{prefix}[]"), out);
                }
            }
            Json::Str(_) => {
                out.insert(format!("{prefix}:str"));
            }
            Json::Num(_) => {
                out.insert(format!("{prefix}:num"));
            }
            Json::Bool(_) => {
                out.insert(format!("{prefix}:bool"));
            }
            Json::Null => {
                out.insert(format!("{prefix}:null"));
            }
        }
    }
    let mut out = BTreeSet::new();
    walk(j, "", &mut out);
    let mut s: String = out.into_iter().map(|p| format!("{p}\n")).collect();
    if s.is_empty() {
        s.push('\n');
    }
    s
}

/// The full smoke conversation — one request of every class — as a
/// committed transcript. Responses are deterministic by protocol
/// design (no timing on the wire); the one exception, `stats`, is
/// normalized to its key shape.
#[test]
fn golden_wire_transcript() {
    let server = Server::with_defaults();
    let log = smoke::run(&server).unwrap_or_else(|e| panic!("smoke failed at {e:?}"));
    let mut transcript = String::new();
    for x in &log {
        transcript.push_str(">> ");
        transcript.push_str(&x.request);
        transcript.push('\n');
        if x.op == "stats" {
            let j = Json::parse(&x.response).expect("stats parses");
            transcript.push_str("<< stats (shape only; values carry timing)\n");
            for line in shape(&j).lines() {
                transcript.push_str("   ");
                transcript.push_str(line);
                transcript.push('\n');
            }
        } else {
            transcript.push_str("<< ");
            transcript.push_str(&x.response);
            transcript.push('\n');
        }
    }
    // The transcript must be reproducible before it is comparable:
    // a second fresh server must produce the identical conversation.
    let server2 = Server::with_defaults();
    let log2 = smoke::run(&server2).expect("second smoke run");
    for (a, b) in log.iter().zip(log2.iter()) {
        if a.op != "stats" {
            assert_eq!(a.response, b.response, "nondeterministic response for {}", a.op);
        }
    }
    assert_golden("wire_transcript.txt", &transcript);
}

/// The `SavedSession` document — now carrying `health` (breaker and
/// retry state) and `probes` (fault-injection counters) — pinned
/// byte-for-byte. This is the durability format: WAL checkpoints and
/// `save_session` both rest on it surviving unchanged.
#[test]
fn golden_saved_session_document() {
    let server = Server::with_defaults();
    let log = smoke::run(&server).unwrap_or_else(|e| panic!("smoke failed at {e:?}"));
    let saved = log
        .iter()
        .find(|x| x.op == "save_session")
        .expect("smoke script saves the session");
    let snapshot = Json::parse(&saved.response).expect("json")["result"]["snapshot"]
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
    assert_golden("saved_session.json", &doc);
}

/// Backward compatibility: the committed `SavedSession` fixture —
/// written before copy-on-write worlds existed — still loads into a
/// live (flat) session. Snapshots taken by earlier releases must stay
/// loadable after the CoW refactor.
#[test]
fn pre_cow_saved_session_fixture_loads() {
    let snapshot =
        std::fs::read_to_string(fixture_path("saved_session.json")).expect("committed fixture");
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

/// The server `stats` document's key shape (values are timing).
#[test]
fn golden_server_stats_shape() {
    let server = Server::with_defaults();
    let log = smoke::run(&server).unwrap_or_else(|e| panic!("smoke failed at {e:?}"));
    let stats = log.iter().find(|x| x.op == "stats").expect("smoke script calls stats");
    let j = Json::parse(&stats.response).expect("json");
    assert_golden("server_stats_shape.txt", &shape(&j["result"]));
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
    assert_golden("router_stats_shape.txt", &shape(&router.stats()));
    router.shutdown();
    let _ = std::fs::remove_dir_all(&root);
}
