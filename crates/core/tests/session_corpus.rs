//! Session snapshots pinned as a golden corpus.
//!
//! `tests/golden/session_corpus.txt` holds one row per case:
//!
//! ```text
//! session/<label>\t<save_session_json bytes as a JSON string>
//! bad/<label>\t<the load_session answer>
//! ```
//!
//! `session/` rows are seeded sessions with varied venues and seeds,
//! column accept/reject histories, query feedback, learned user types,
//! learned transform edges, tripped breakers and fault-injection probes;
//! each holds the exact snapshot bytes. Loading a row's snapshot and
//! saving again must reproduce it (the load→save fixpoint).
//!
//! `bad/` rows feed hand-damaged snapshots to `load_session_json`: the
//! hostile transform pieces, wrong value kinds, missing fields, trailing
//! garbage, and the pre-health and pre-transform fixtures. Each row holds
//! the exact `bad snapshot: …` text the server would answer, or `ok`
//! followed by the re-saved snapshot for inputs that still load.
//!
//! To version a deliberate snapshot change, regenerate and commit:
//!
//! ```sh
//! UPDATE_GOLDEN=1 cargo test -p copycat-core --test session_corpus
//! ```

#![expect(clippy::disallowed_methods, reason = "reads and regenerates its golden file")]

use copycat_core::{CopyCat, Scenario, ScenarioConfig};
use copycat_query::{Service, Value};
use copycat_services::{Flaky, Geocoder, RetryPolicy, ZipResolver};
use copycat_util::json::{write_escaped, Json};
use copycat_util::rng::{Rng, SeedableRng, StdRng};
use std::path::PathBuf;
use std::sync::Arc;

fn golden_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/session_corpus.txt")
}

/// One seeded session, built by the recipe `i` selects.
fn session(i: usize) -> CopyCat {
    let mut rng = StdRng::seed_from_u64(0x5e55_1000 + i as u64);
    let venues = 3 + (i * 7) % 10;
    let seed = 1 + (i as u64) * 37;
    let mut s = Scenario::build(&ScenarioConfig { venues, seed, ..Default::default() });
    s.import_shelters(1 + i % 2);
    let contacts = !i.is_multiple_of(3);
    if contacts {
        s.import_contacts();
    }
    // A column accept/reject history.
    for _ in 0..rng.gen_range(0..4) {
        let suggs = s.engine.column_suggestions().to_vec();
        if suggs.is_empty() {
            break;
        }
        let pick = rng.gen_range(0..suggs.len());
        if rng.gen_bool(0.5) {
            s.engine.reject_column(&suggs[pick]);
        } else {
            s.engine.accept_column(&suggs[pick]);
        }
    }
    // Query feedback across the two sources.
    if contacts && i % 4 == 1 {
        let values = [s.shelter_rows[0][1].as_str(), s.contact_rows[0][1].as_str()];
        let found = s.engine.discover_queries_for_tuple(&values, 3);
        if found.len() > 1 {
            let accepted = found[1].tree.clone();
            s.engine.prefer_query(&accepted, &[&found[0].tree]);
        }
    }
    // Learned user types.
    for t in 0..(i % 3) {
        let examples: Vec<String> = (0..3)
            .map(|_| format!("{}-{:04}", ["SHL", "VEN", "ZN"][t], rng.gen_range(0..10_000)))
            .collect();
        s.engine.registry_mut().learn_type(&format!("UserType{t}"), &examples);
    }
    // A learned transform edge.
    if contacts && i % 5 == 2 {
        let examples = [
            ("(954) 555-1000".to_string(), "954-555-1000".to_string()),
            ("(954) 555-2000".to_string(), "954-555-2000".to_string()),
        ];
        s.engine.learn_transform("Contacts", "Phone", "Shelters", "Name", &examples);
    }
    // A tripped breaker over an always-failing resolver, and a
    // half-failing geocoder probe registered without the resilient layer.
    if i % 4 == 3 {
        let policy = RetryPolicy {
            max_attempts: 2,
            backoff_base_ms: 10,
            backoff_cap_ms: 80,
            breaker_threshold: 3,
            cooldown_ms: 600_000,
        };
        let flaky = Flaky::new(Arc::new(ZipResolver::new(Arc::clone(&s.world))), 1.0, 7, 42);
        let resilient = s.engine.register_resilient(Arc::new(flaky), policy);
        let probe = Arc::new(Flaky::new(Arc::new(Geocoder::new(Arc::clone(&s.world))), 0.5, 3, 7));
        s.engine.register_service(probe.clone() as Arc<dyn Service>);
        for _ in 0..6 {
            let _ = resilient.try_call(&[Value::str("1 Main St"), Value::str("Springfield")]);
        }
        for n in 0..(4 + i % 7) {
            let _ = probe.try_call(&[Value::str(format!("{n} Oak")), Value::str("Springfield")]);
        }
    }
    s.engine
}

/// `bad snapshot: …` as the server answers it, or `ok` plus the
/// re-saved snapshot when the input still loads.
fn load_answer(snapshot: &str) -> String {
    match CopyCat::load_session_json(snapshot) {
        Ok(cc) => {
            let mut out = "ok ".to_string();
            write_escaped(&mut out, &cc.save_session_json());
            out
        }
        Err(e) => format!("bad snapshot: {e}"),
    }
}

/// A compact copy of `snapshot` with `edit` applied to its tree.
fn edited(snapshot: &str, edit: impl FnOnce(&mut Json)) -> String {
    let mut j = Json::parse(snapshot).expect("saved snapshot parses");
    edit(&mut j);
    j.to_string()
}

fn member<'a>(j: &'a mut Json, key: &str) -> &'a mut Json {
    let Json::Obj(pairs) = j else { panic!("not an object") };
    &mut pairs.iter_mut().find(|(k, _)| k == key).expect("member present").1
}

fn elem(j: &mut Json, i: usize) -> &mut Json {
    let Json::Arr(items) = j else { panic!("not an array") };
    &mut items[i]
}

fn remove(j: &mut Json, key: &str) {
    let Json::Obj(pairs) = j else { panic!("not an object") };
    pairs.retain(|(k, _)| k != key);
}

/// The first session whose snapshot carries a learned transform edge.
fn transform_session() -> String {
    let mut s = Scenario::build(&ScenarioConfig::default());
    s.import_directory();
    s.import_contacts();
    let examples: Vec<(String, String)> = s
        .contact_rows
        .iter()
        .take(3)
        .map(|r| (r[1].clone(), copycat_services::World::directory_phone(&r[1])))
        .collect();
    s.engine
        .learn_transform("Contacts", "Phone", "Directory", "Phone", &examples)
        .expect("learnable");
    s.engine.save_session_json()
}

fn bad_rows(base: &str) -> Vec<(String, String)> {
    let mut cases: Vec<(String, String)> = Vec::new();
    let mut case = |label: &str, text: String| cases.push((label.to_string(), text));

    // Hostile transform pieces: a negative, fractional or huge token
    // index, and a non-bool `rev`.
    let compact = Json::parse(&transform_session()).expect("parses").to_string();
    let piece = "\"index\":0,\"rev\":true";
    assert!(compact.contains(piece), "the saved program extracts word[-1]");
    case("transform/untampered", compact.clone());
    for (label, hostile) in [
        ("negative_index", "-3,\"rev\":true"),
        ("fractional_index", "0.5,\"rev\":true"),
        ("huge_index", "1e20,\"rev\":true"),
        ("string_rev", "0,\"rev\":\"yes\""),
    ] {
        case(&format!("transform/{label}"), compact.replace(piece, &format!("\"index\":{hostile}")));
    }

    // Wrong value kinds, one per member the snapshot walks.
    type Edit = fn(&mut Json);
    let kinds: [(&str, Edit); 16] = [
        ("root_array", |j| *j = Json::Arr(vec![])),
        ("relations_number", |j| *member(j, "relations") = Json::Num(5.0)),
        ("relation_name_number", |j| {
            *member(elem(member(j, "relations"), 0), "name") = Json::Num(1.0)
        }),
        ("relation_rows_number_cell", |j| {
            let rows = member(elem(member(j, "relations"), 0), "rows");
            *elem(elem(rows, 0), 0) = Json::Num(1.0)
        }),
        ("relation_schema_string", |j| {
            *member(elem(member(j, "relations"), 0), "schema") = Json::str("Name")
        }),
        ("node_kind_unknown", |j| {
            *member(elem(member(j, "graph_nodes"), 0), "kind") = Json::str("Banana")
        }),
        ("node_arity_fraction", |j| {
            *member(elem(member(j, "graph_nodes"), 0), "input_arity") = Json::Num(1.5)
        }),
        ("node_cost_hint_bool", |j| {
            *member(elem(member(j, "graph_nodes"), 0), "cost_hint") = Json::Bool(true)
        }),
        ("edge_endpoint_negative", |j| {
            *member(elem(member(j, "graph_edges"), 0), "a") = Json::Num(-1.0)
        }),
        ("edge_kind_empty", |j| {
            *member(elem(member(j, "graph_edges"), 0), "kind") = Json::Obj(vec![])
        }),
        ("edge_weight_string", |j| {
            *member(elem(member(j, "graph_edges"), 0), "weight") = Json::str("x")
        }),
        ("wrappers_one_element_pair", |j| {
            *member(j, "wrappers") = Json::Arr(vec![Json::Arr(vec![Json::str("x")])])
        }),
        ("wrapper_body_null", |j| {
            *elem(elem(member(j, "wrappers"), 0), 1) = Json::Null
        }),
        ("user_types_number", |j| *member(j, "user_types") = Json::Num(3.0)),
        ("health_string", |j| *member(j, "health") = Json::str("no")),
        ("probes_number_pair", |j| {
            *member(j, "probes") =
                Json::Arr(vec![Json::Arr(vec![Json::Num(1.0), Json::Num(2.0)])])
        }),
    ];
    for (label, edit) in kinds {
        case(&format!("kind/{label}"), edited(base, edit));
    }

    // Missing fields, top level and nested.
    for key in ["relations", "graph_nodes", "graph_edges", "wrappers", "user_types"] {
        case(&format!("missing/{key}"), edited(base, |j| remove(j, key)));
    }
    case("missing/relation_name", edited(base, |j| remove(elem(member(j, "relations"), 0), "name")));
    case("missing/relation_rows", edited(base, |j| remove(elem(member(j, "relations"), 0), "rows")));
    case("missing/node_schema", edited(base, |j| remove(elem(member(j, "graph_nodes"), 0), "schema")));
    case("missing/edge_weight", edited(base, |j| remove(elem(member(j, "graph_edges"), 0), "weight")));
    case("missing/edge_kind", edited(base, |j| remove(elem(member(j, "graph_edges"), 0), "kind")));

    // Trailing garbage and truncation.
    case("syntax/trailing_garbage", format!("{base}x"));
    case("syntax/trailing_brace", format!("{base} }}"));
    case("syntax/truncated", base[..base.len() / 2].to_string());
    case("syntax/empty", String::new());
    case("syntax/null", "null".to_string());
    case("syntax/empty_object", "{}".to_string());

    // Snapshots from before health and transforms persisted.
    case("compat/pre_health", edited(base, |j| {
        remove(j, "health");
        remove(j, "probes");
    }));
    case(
        "compat/pre_transform_fixture",
        include_str!("../../serve/tests/golden/saved_session.json").to_string(),
    );
    cases
}

fn corpus_rows() -> Vec<String> {
    let mut rows = Vec::new();
    let mut first_with_breaker = None;
    for i in 0..40 {
        let snapshot = session(i).save_session_json();
        let mut row = format!("session/{i:02}\t");
        write_escaped(&mut row, &snapshot);
        rows.push(row);
        if i % 4 == 3 && first_with_breaker.is_none() {
            first_with_breaker = Some(snapshot);
        }
    }
    let base = first_with_breaker.expect("a session with health and probes");
    for (label, input) in bad_rows(&base) {
        rows.push(format!("bad/{label}\t{}", load_answer(&input)));
    }
    rows
}

#[test]
fn snapshots_match_the_golden_corpus() {
    let rows = corpus_rows();
    let path = golden_path();
    if std::env::var("UPDATE_GOLDEN").is_ok() {
        let text: String = rows.iter().map(|r| format!("{r}\n")).collect();
        std::fs::create_dir_all(path.parent().expect("golden dir")).expect("golden dir");
        std::fs::write(&path, text).expect("write corpus");
        return;
    }
    let corpus = std::fs::read_to_string(&path).expect("committed session corpus");
    let expected: Vec<&str> = corpus.lines().collect();
    assert_eq!(expected.len(), rows.len(), "corpus row count");
    for (n, (want, got)) in expected.iter().zip(&rows).enumerate() {
        assert_eq!(got, want, "corpus row {} diverged", n + 1);
    }
}

/// The corpus's `session/` rows as (label, snapshot).
fn corpus_sessions() -> Vec<(String, String)> {
    let corpus = std::fs::read_to_string(golden_path()).expect("committed session corpus");
    let sessions: Vec<(String, String)> = corpus
        .lines()
        .filter(|l| l.starts_with("session/"))
        .map(|line| {
            let (label, escaped) = line.split_once('\t').expect("tab-separated row");
            (label.to_string(), copycat_util::json::from_str(escaped).expect("escaped snapshot"))
        })
        .collect();
    assert_eq!(sessions.len(), 40);
    sessions
}

/// Loading any corpus snapshot and saving again reproduces its bytes.
/// Runtime health re-attaches as its service re-registers (the restore
/// contract), so sessions that saved a breaker and a probe get the same
/// two services registered again before the second save.
#[test]
fn load_then_save_is_a_fixpoint() {
    for (label, snapshot) in corpus_sessions() {
        let mut reloaded = CopyCat::load_session_json(&snapshot).expect("corpus snapshot loads");
        if !snapshot.contains("\"health\": []") {
            let world = Arc::new(copycat_services::World::generate(&Default::default()));
            let policy = RetryPolicy {
                max_attempts: 2,
                backoff_base_ms: 10,
                backoff_cap_ms: 80,
                breaker_threshold: 3,
                cooldown_ms: 600_000,
            };
            let flaky = Flaky::new(Arc::new(ZipResolver::new(Arc::clone(&world))), 1.0, 7, 42);
            reloaded.register_resilient(Arc::new(flaky), policy);
            let probe = Flaky::new(Arc::new(Geocoder::new(world)), 0.5, 3, 7);
            reloaded.register_service(Arc::new(probe));
        }
        assert_eq!(reloaded.save_session_json(), snapshot, "{label}: load→save moved bytes");
    }
}

/// The same fixpoint with no service registered again: health the load
/// has not re-attached yet is saved back as it was read, so a tripped
/// breaker survives any number of load→save round trips.
#[test]
fn raw_load_then_save_keeps_unattached_health() {
    for (label, snapshot) in corpus_sessions() {
        let reloaded = CopyCat::load_session_json(&snapshot).expect("corpus snapshot loads");
        assert_eq!(reloaded.save_session_json(), snapshot, "{label}: raw load→save moved bytes");
    }
}
