//! Kill-and-recover and shard-routing integration tests.
//!
//! The contract under test: a [`Router`] with a durable store that is
//! *dropped without shutdown* (the crash simulation — buffered journal
//! records and in-memory sessions die abruptly) and then rebuilt with
//! [`Router::recover`] serves **byte-identical** responses to a control
//! router that never crashed. Determinism of the protocol (responses
//! carry no timing, engines are seeded) is what makes replay a correct
//! recovery strategy, and these tests are what pin it.

#![expect(
    clippy::disallowed_methods,
    clippy::disallowed_types,
    reason = "test temp-dir setup and cleanup, and a raw-file corruption probe, off the durable path"
)]

use copycat_serve::router::{Router, RouterConfig};
use copycat_serve::server::ServerConfig;
use copycat_services::{World, WorldConfig};
use copycat_util::check::check;
use copycat_util::json::Json;
use std::path::PathBuf;

/// A unique, empty scratch root per test invocation.
fn temp_root(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "copycat-durability-{tag}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn small_server() -> ServerConfig {
    ServerConfig { workers: 2, queue_depth: 64, shards: 4 }
}

/// A deterministic two-source import + integration conversation.
fn script(session: &str, tag: &str, venues: usize) -> Vec<String> {
    let esc = |s: &str| Json::str(s).to_string();
    let s = format!("\"session\":{}", esc(session));
    let mut id = 0u64;
    let mut lines = Vec::new();
    fn push(id: &mut u64, body: String, lines: &mut Vec<String>) {
        *id += 1;
        lines.push(format!("{{\"id\":{id},{body}}}"));
    }
    // World-consistent rows: column suggestions only surface when the
    // simulated services can actually answer for the pasted values, so
    // the pasted sheets must come from the same deterministic world the
    // session registers. The seed varies by tag to keep sessions'
    // content distinct.
    let seed = 2009 + tag.bytes().map(u64::from).sum::<u64>();
    let world =
        World::generate(&WorldConfig { seed, venues: venues.max(1), ..WorldConfig::default() });
    let shelter_rows: Vec<Vec<String>> = world.shelter_rows();
    let contact_rows: Vec<Vec<String>> = world.contact_rows();
    let rows_json = |rows: &[Vec<String>]| {
        let rendered: Vec<String> = rows
            .iter()
            .map(|r| {
                let cells: Vec<String> = r.iter().map(|c| esc(c)).collect();
                format!("[{}]", cells.join(","))
            })
            .collect();
        format!("[{}]", rendered.join(","))
    };

    push(&mut id, format!("\"op\":\"create_session\",{s}"), &mut lines);
    // Deterministic service registry (zip_resolver, geocoder, …): what
    // column_suggestions binds against.
    push(
        &mut id,
        format!("\"op\":\"register_world\",{s},\"seed\":{seed},\"venues\":{}", venues.max(1)),
        &mut lines,
    );
    push(
        &mut id,
        format!(
            "\"op\":\"open_doc\",{s},\"name\":\"Shelters\",\
             \"headers\":[\"Venue\",\"Street\",\"City\"],\"rows\":{}",
            rows_json(&shelter_rows)
        ),
        &mut lines,
    );
    for row in &shelter_rows {
        let cells: Vec<String> = row.iter().map(|c| esc(c)).collect();
        push(
            &mut id,
            format!("\"op\":\"paste\",{s},\"doc\":0,\"values\":[{}]", cells.join(",")),
            &mut lines,
        );
    }
    push(&mut id, format!("\"op\":\"accept_rows\",{s}"), &mut lines);
    push(&mut id, format!("\"op\":\"name_column\",{s},\"col\":0,\"name\":\"Venue\""), &mut lines);
    // Explicit street name + city type: the zip_resolver/geocoder bind
    // edges match inputs by name or semantic type, and street-suffix
    // inference is not reliable for every generated world.
    push(&mut id, format!("\"op\":\"name_column\",{s},\"col\":1,\"name\":\"Street\""), &mut lines);
    push(&mut id, format!("\"op\":\"set_column_type\",{s},\"col\":2,\"type\":\"PR-City\""), &mut lines);
    push(&mut id, format!("\"op\":\"commit_source\",{s},\"name\":\"Shelters\""), &mut lines);
    // Integration suggestions on the Shelters tab (the PR-City column
    // binds the world services), one accepted and one rejected — both
    // decisions are mutating state the replay must reproduce
    // (suggestion lists are referenced by index).
    push(&mut id, format!("\"op\":\"column_suggestions\",{s}"), &mut lines);
    push(&mut id, format!("\"op\":\"accept_column\",{s},\"index\":0"), &mut lines);
    push(&mut id, format!("\"op\":\"column_suggestions\",{s}"), &mut lines);
    push(&mut id, format!("\"op\":\"reject_column\",{s},\"index\":0"), &mut lines);
    push(
        &mut id,
        format!(
            "\"op\":\"open_doc\",{s},\"name\":\"Contacts\",\
             \"headers\":[\"Person\",\"Phone\",\"Venue\"],\"rows\":{}",
            rows_json(&contact_rows)
        ),
        &mut lines,
    );
    for row in &contact_rows {
        let cells: Vec<String> = row.iter().map(|c| esc(c)).collect();
        push(
            &mut id,
            format!("\"op\":\"paste\",{s},\"doc\":1,\"values\":[{}]", cells.join(",")),
            &mut lines,
        );
    }
    push(&mut id, format!("\"op\":\"accept_rows\",{s}"), &mut lines);
    push(&mut id, format!("\"op\":\"name_column\",{s},\"col\":2,\"name\":\"Venue\""), &mut lines);
    push(&mut id, format!("\"op\":\"commit_source\",{s},\"name\":\"Contacts\""), &mut lines);
    // An example-learned transform edge (identity over venue names).
    let examples: Vec<String> = contact_rows
        .iter()
        .take(3)
        .map(|row| {
            let v = esc(&row[2]);
            format!("[{v},{v}]")
        })
        .collect();
    push(
        &mut id,
        format!(
            "\"op\":\"learn_transform\",{s},\"from\":\"Contacts\",\"from_col\":\"Venue\",\
             \"to\":\"Shelters\",\"to_col\":\"Venue\",\"examples\":[{}]",
            examples.join(",")
        ),
        &mut lines,
    );
    push(
        &mut id,
        format!(
            "\"op\":\"autocomplete\",{s},\"values\":[{},{}],\"k\":3",
            esc(&shelter_rows[0][1]),
            esc(&contact_rows[0][1]),
        ),
        &mut lines,
    );
    push(&mut id, format!("\"op\":\"feedback\",{s},\"accept\":0"), &mut lines);
    push(&mut id, format!("\"op\":\"render\",{s}"), &mut lines);
    lines
}

/// Read-only observation requests: identical answers on a recovered
/// router and a never-crashed control prove state equivalence.
fn probes(session: &str) -> Vec<String> {
    let s = Json::str(session).to_string();
    vec![
        format!("{{\"id\":900,\"op\":\"render\",\"session\":{s}}}"),
        format!("{{\"id\":901,\"op\":\"export\",\"session\":{s},\"format\":\"csv\"}}"),
        format!("{{\"id\":902,\"op\":\"session_stats\",\"session\":{s}}}"),
        format!("{{\"id\":903,\"op\":\"health\",\"session\":{s}}}"),
        format!("{{\"id\":904,\"op\":\"save_session\",\"session\":{s}}}"),
    ]
}

fn drive(router: &Router, lines: &[String]) -> Vec<String> {
    lines.iter().map(|l| router.handle_line(l)).collect()
}

/// Basic kill-and-recover: run a full conversation with snapshots
/// enabled (small `snapshot_every` forces checkpoint + WAL-tail
/// recovery, not just tail replay), crash, recover, and observe the
/// exact same session.
#[test]
fn kill_and_recover_is_byte_identical_with_snapshots() {
    let root = temp_root("basic");
    let lines = script("alice", "a", 4);

    let durable = Router::new(RouterConfig {
        shards: 2,
        server: small_server(),
        store_root: Some(root.clone()),
        snapshot_every: 3,
        ..RouterConfig::default()
    });
    for resp in drive(&durable, &lines) {
        let j = Json::parse(&resp).expect("json");
        assert_eq!(j["ok"].as_bool(), Some(true), "{resp}");
    }
    drop(durable); // crash: no shutdown, no final flush

    let recovered = Router::recover(RouterConfig {
        shards: 2,
        server: small_server(),
        store_root: Some(root.clone()),
        snapshot_every: 3,
        ..RouterConfig::default()
    })
    .expect("recovery");
    let stats = recovered.stats();
    assert_eq!(stats["durability"]["recovered_sessions"].as_f64(), Some(1.0), "{stats}");
    assert!(
        stats["durability"]["replayed_records"].as_f64().unwrap_or(0.0) > 0.0,
        "{stats}"
    );

    let control = Router::new(RouterConfig {
        shards: 2,
        server: small_server(),
        ..RouterConfig::default()
    });
    drive(&control, &lines);

    assert_eq!(drive(&recovered, &probes("alice")), drive(&control, &probes("alice")));
    // The recovered session is live, not a museum piece: it keeps
    // accepting work identically.
    let more = "{\"id\":950,\"op\":\"autocomplete\",\"session\":\"alice\",\
                \"values\":[\"0 Oak St a\",\"555-0100-a\"],\"k\":2}";
    assert_eq!(recovered.handle_line(more), control.handle_line(more));

    recovered.shutdown();
    control.shutdown();
    let _ = std::fs::remove_dir_all(&root);
}

/// The tentpole property: for a *random cut point k*, a router killed
/// after k acked requests recovers to exactly the state of a control
/// that executed those same k requests — for arbitrary script sizes
/// and snapshot cadences, byte-for-byte.
#[test]
fn prop_kill_and_recover_preserves_every_acked_prefix() {
    check("router_kill_and_recover", 5, &[], |g| {
        let venues = g.usize_in(3..6);
        let snapshot_every = g.u64_in(2..8);
        let lines = script("tenant", "p", venues);
        let k = g.usize_in(1..lines.len() + 1);
        let root = temp_root(&format!("prop-{venues}-{snapshot_every}-{k}"));
        let config = || RouterConfig {
            shards: 2,
            server: small_server(),
            store_root: Some(root.clone()),
            snapshot_every,
            ..RouterConfig::default()
        };

        let durable = Router::new(config());
        drive(&durable, &lines[..k]);
        drop(durable); // crash

        let recovered = Router::recover(config()).map_err(|e| format!("recover: {e}"))?;
        let control = Router::new(RouterConfig {
            shards: 2,
            server: small_server(),
            ..RouterConfig::default()
        });
        drive(&control, &lines[..k]);

        let got = drive(&recovered, &probes("tenant"));
        let want = drive(&control, &probes("tenant"));
        copycat_util::prop_ensure_eq!(
            got,
            want,
            "cut at {k}/{} with snapshot_every={snapshot_every}",
            lines.len()
        );
        // And both continue identically past the cut.
        if k < lines.len() {
            let got_rest = drive(&recovered, &lines[k..]);
            let want_rest = drive(&control, &lines[k..]);
            copycat_util::prop_ensure_eq!(got_rest, want_rest, "continuation after cut {k}");
        }
        recovered.shutdown();
        control.shutdown();
        let _ = std::fs::remove_dir_all(&root);
        Ok(())
    });
}

/// Chaos recovery: a session whose zip resolver is hard-down behind a
/// retry + breaker wrapper trips the breaker, crashes, and recovers
/// with the breaker *still tripped* and the fault-injection roll
/// sequence intact — replay reproduces the health machine exactly.
#[test]
fn recovery_preserves_tripped_breakers_under_chaos() {
    // Build the chaos conversation against a throwaway server first:
    // the open_doc rows come from the seeded world response, so the
    // final script is a static line list both routers replay verbatim.
    let throwaway = copycat_serve::Server::with_defaults();
    let _ = throwaway.handle("{\"id\":0,\"op\":\"create_session\",\"session\":\"x\"}");
    let world = throwaway.handle(
        "{\"id\":1,\"op\":\"register_world\",\"session\":\"x\",\"seed\":2009,\"venues\":8}",
    );
    assert_eq!(world["ok"].as_bool(), Some(true), "{world}");
    let rows = world["result"]["shelters"].to_string();
    let first = world["result"]["shelters"][0].to_string();
    throwaway.shutdown();

    let mut lines = vec![
        "{\"id\":1,\"op\":\"create_session\",\"session\":\"chaos\"}".to_string(),
        "{\"id\":2,\"op\":\"register_world\",\"session\":\"chaos\",\"seed\":2009,\"venues\":8}"
            .to_string(),
        format!(
            "{{\"id\":3,\"op\":\"open_doc\",\"session\":\"chaos\",\"name\":\"Sheet\",\
             \"headers\":[\"Name\",\"Street\",\"City\"],\"rows\":{rows}}}"
        ),
        format!("{{\"id\":4,\"op\":\"paste\",\"session\":\"chaos\",\"doc\":0,\"values\":{first}}}"),
        "{\"id\":5,\"op\":\"accept_rows\",\"session\":\"chaos\"}".to_string(),
        "{\"id\":6,\"op\":\"set_column_type\",\"session\":\"chaos\",\"col\":2,\"type\":\"PR-City\"}"
            .to_string(),
        "{\"id\":7,\"op\":\"commit_source\",\"session\":\"chaos\",\"name\":\"Shelters\"}"
            .to_string(),
        // Hard-down primary behind retry + breaker, big cooldown so the
        // trip is durable state, not a transient.
        "{\"id\":8,\"op\":\"register_flaky\",\"session\":\"chaos\",\"service\":\"zip_resolver\",\
         \"failure_rate\":1,\"latency_ms\":1,\"seed\":3,\"retries\":2,\
         \"breaker_threshold\":2,\"cooldown_ms\":1000000}"
            .to_string(),
    ];
    for i in 0..4 {
        lines.push(format!(
            "{{\"id\":{},\"op\":\"column_suggestions\",\"session\":\"chaos\"}}",
            9 + i
        ));
    }

    let root = temp_root("chaos");
    let config = || RouterConfig {
        shards: 2,
        server: small_server(),
        store_root: Some(root.clone()),
        snapshot_every: 5,
        ..RouterConfig::default()
    };
    let durable = Router::new(config());
    let responses = drive(&durable, &lines);
    drop(durable); // crash with the breaker tripped

    let recovered = Router::recover(config()).expect("recovery");
    let control = Router::new(RouterConfig {
        shards: 2,
        server: small_server(),
        ..RouterConfig::default()
    });
    let control_responses = drive(&control, &lines);
    assert_eq!(responses, control_responses, "pre-crash run matches control");

    let got = drive(&recovered, &probes("chaos"));
    let want = drive(&control, &probes("chaos"));
    assert_eq!(got, want, "recovered chaos session is byte-identical");

    // The breaker state specifically survived: health names the trip.
    let health = Json::parse(&got[3]).expect("json");
    let tripped = health["result"]["tripped"].to_string();
    assert!(tripped.contains("zip_resolver"), "breaker still open after recovery: {health}");

    recovered.shutdown();
    control.shutdown();
    let _ = std::fs::remove_dir_all(&root);
}

/// Live migration: drain → checkpoint → transfer → resume. The session
/// answers identically after moving shards, placement reflects the
/// override, and the global listing never changes.
#[test]
fn migration_moves_a_live_session_without_observable_change() {
    let router = Router::new(RouterConfig {
        shards: 3,
        server: small_server(),
        ..RouterConfig::default()
    });
    let control = Router::new(RouterConfig {
        shards: 3,
        server: small_server(),
        ..RouterConfig::default()
    });
    let lines = script("mover", "m", 4);
    drive(&router, &lines);
    drive(&control, &lines);

    let before = router.handle_line("{\"id\":10,\"op\":\"list_sessions\"}");
    let from = router.shard_of("mover");
    let to = (from + 1) % 3;
    let report = router.migrate_session("mover", to).expect("migrate");
    assert_eq!((report.from, report.to), (from, to));
    assert!(report.replayed > 0, "checkpoint replayed: {report:?}");
    assert_eq!(router.shard_of("mover"), to);
    // The target shard now owns the session; the source does not.
    assert!(router.shard(to).registry().get("mover").is_ok());
    assert!(router.shard(from).registry().get("mover").is_err());
    assert_eq!(router.handle_line("{\"id\":10,\"op\":\"list_sessions\"}"), before);

    // Same answers as the never-migrated control, and the session
    // keeps working on its new shard.
    assert_eq!(drive(&router, &probes("mover")), drive(&control, &probes("mover")));
    let more = "{\"id\":950,\"op\":\"autocomplete\",\"session\":\"mover\",\
                \"values\":[\"0 Oak St m\",\"555-0100-m\"],\"k\":2}";
    assert_eq!(router.handle_line(more), control.handle_line(more));

    // Degenerate migrations are typed, not silent corruption.
    assert!(router.migrate_session("ghost", 0).is_err());
    assert!(router.migrate_session("mover", 99).is_err());
    assert_eq!(router.migrate_session("mover", to).expect("no-op").replayed, 0);

    router.shutdown();
    control.shutdown();
}

/// Multi-tenant recovery across shards, including a torn WAL tail:
/// garbage appended to one session's log (a crash mid-write) is
/// truncated and counted, never poisoning the other tenants.
#[test]
fn recovery_restores_all_tenants_and_survives_torn_tails() {
    let root = temp_root("multi");
    let config = || RouterConfig {
        shards: 3,
        server: small_server(),
        store_root: Some(root.clone()),
        snapshot_every: 100, // keep everything in the WAL tail
        ..RouterConfig::default()
    };
    let names = ["ann", "bob", "cyd", "dee"];
    let durable = Router::new(config());
    let control = Router::new(RouterConfig {
        shards: 3,
        server: small_server(),
        ..RouterConfig::default()
    });
    for (i, name) in names.iter().enumerate() {
        let lines = script(name, &format!("t{i}"), 3);
        drive(&durable, &lines);
        drive(&control, &lines);
    }
    let listing = durable.handle_line("{\"id\":1,\"op\":\"list_sessions\"}");
    drop(durable); // crash

    // Tear one WAL: append garbage past the last synced record.
    let mut wals: Vec<PathBuf> = std::fs::read_dir(&root)
        .expect("root")
        .filter_map(|e| e.ok())
        .map(|e| e.path().join("wal.log"))
        .filter(|p| p.exists())
        .collect();
    wals.sort();
    assert_eq!(wals.len(), names.len(), "one store per tenant");
    {
        use std::io::Write;
        let mut f = std::fs::OpenOptions::new()
            .append(true)
            .open(&wals[0])
            .expect("open wal");
        f.write_all(&[0xFF, 0x00, 0xAB, 0x17, 0x99]).expect("tear");
    }

    let recovered = Router::recover(config()).expect("recovery");
    let stats = recovered.stats();
    assert_eq!(
        stats["durability"]["recovered_sessions"].as_f64(),
        Some(names.len() as f64),
        "{stats}"
    );
    assert!(stats["durability"]["torn_bytes"].as_f64().unwrap_or(0.0) > 0.0, "{stats}");
    assert_eq!(recovered.handle_line("{\"id\":1,\"op\":\"list_sessions\"}"), listing);
    for name in names {
        assert_eq!(
            drive(&recovered, &probes(name)),
            drive(&control, &probes(name)),
            "tenant {name}"
        );
    }

    recovered.shutdown();
    control.shutdown();
    let _ = std::fs::remove_dir_all(&root);
}

/// Copy-on-write worlds recover like flat sessions: a `create_session`
/// carrying a `"world"` config is journaled, so replay rebuilds the
/// session over a deterministically reconstructed shared base —
/// [`WorldBase::synthetic`] is a pure function of the config — and
/// every follow-up request lands on byte-identical state.
#[test]
fn shared_world_sessions_kill_and_recover_byte_identically() {
    // Fetch world-consistent probe values once: the same seed produces
    // the same world inside the shared base.
    let throwaway = copycat_serve::Server::with_defaults();
    let _ = throwaway.handle("{\"id\":0,\"op\":\"create_session\",\"session\":\"x\"}");
    let world = throwaway.handle(
        "{\"id\":1,\"op\":\"register_world\",\"session\":\"x\",\"seed\":7,\"venues\":6}",
    );
    assert_eq!(world["ok"].as_bool(), Some(true), "{world}");
    let street = world["result"]["shelters"][0][1].to_string();
    let phone = world["result"]["contacts"][0][1].to_string();
    throwaway.shutdown();

    let lines = vec![
        "{\"id\":1,\"op\":\"create_session\",\"session\":\"cow\",\
         \"world\":{\"seed\":7,\"venues\":6}}"
            .to_string(),
        // The shared base answers autocomplete with no per-session
        // import: Shelters and Contacts live in the frozen prefix.
        format!(
            "{{\"id\":2,\"op\":\"autocomplete\",\"session\":\"cow\",\
             \"values\":[{street},{phone}],\"k\":3}}"
        ),
        "{\"id\":3,\"op\":\"feedback\",\"session\":\"cow\",\"accept\":0}".to_string(),
        // Session-local growth layered over the shared base.
        "{\"id\":4,\"op\":\"open_doc\",\"session\":\"cow\",\"name\":\"Notes\",\
         \"headers\":[\"K\",\"V\"],\"rows\":[[\"a\",\"1\"],[\"b\",\"2\"]]}"
            .to_string(),
        "{\"id\":5,\"op\":\"paste\",\"session\":\"cow\",\"doc\":0,\"values\":[\"a\",\"1\"]}"
            .to_string(),
        "{\"id\":6,\"op\":\"accept_rows\",\"session\":\"cow\"}".to_string(),
        "{\"id\":7,\"op\":\"commit_source\",\"session\":\"cow\",\"name\":\"Notes\"}".to_string(),
    ];

    let root = temp_root("cow");
    let config = || RouterConfig {
        shards: 2,
        server: small_server(),
        store_root: Some(root.clone()),
        snapshot_every: 3,
        ..RouterConfig::default()
    };
    let durable = Router::new(config());
    for resp in drive(&durable, &lines) {
        let j = Json::parse(&resp).expect("json");
        assert_eq!(j["ok"].as_bool(), Some(true), "{resp}");
    }
    drop(durable); // crash

    let recovered = Router::recover(config()).expect("recovery");
    let control = Router::new(RouterConfig {
        shards: 2,
        server: small_server(),
        ..RouterConfig::default()
    });
    drive(&control, &lines);
    assert_eq!(drive(&recovered, &probes("cow")), drive(&control, &probes("cow")));
    // And the recovered overlay session keeps answering from the
    // shared world identically.
    let more = format!(
        "{{\"id\":950,\"op\":\"autocomplete\",\"session\":\"cow\",\
         \"values\":[{street},{phone}],\"k\":2}}"
    );
    assert_eq!(recovered.handle_line(&more), control.handle_line(&more));

    recovered.shutdown();
    control.shutdown();
    let _ = std::fs::remove_dir_all(&root);
}

/// `load_session` is journaled like any other mutation: a session
/// restored from a snapshot string, then crashed, recovers to the same
/// state as a control that loaded the same snapshot and never crashed.
#[test]
fn load_session_snapshot_recovers_after_crash() {
    // Build a snapshot with a throwaway server so the load_session
    // request is a static line both routers replay verbatim.
    let throwaway = copycat_serve::Server::with_defaults();
    for line in script("donor", "l", 3) {
        let resp = throwaway.handle(&line);
        assert_eq!(resp["ok"].as_bool(), Some(true), "{resp}");
    }
    let saved = throwaway.handle("{\"id\":800,\"op\":\"save_session\",\"session\":\"donor\"}");
    assert_eq!(saved["ok"].as_bool(), Some(true), "{saved}");
    let snapshot = saved["result"]["snapshot"].to_string();
    throwaway.shutdown();

    let lines = vec![
        "{\"id\":1,\"op\":\"create_session\",\"session\":\"clone\"}".to_string(),
        format!("{{\"id\":2,\"op\":\"load_session\",\"session\":\"clone\",\"snapshot\":{snapshot}}}"),
        "{\"id\":3,\"op\":\"autocomplete\",\"session\":\"clone\",\
         \"values\":[\"0 Oak St l\",\"555-0100-l\"],\"k\":2}"
            .to_string(),
    ];
    let root = temp_root("load");
    let config = || RouterConfig {
        shards: 2,
        server: small_server(),
        store_root: Some(root.clone()),
        ..RouterConfig::default()
    };
    let durable = Router::new(config());
    for resp in drive(&durable, &lines) {
        let j = Json::parse(&resp).expect("json");
        assert_eq!(j["ok"].as_bool(), Some(true), "{resp}");
    }
    drop(durable); // crash

    let recovered = Router::recover(config()).expect("recovery");
    let control = Router::new(RouterConfig {
        shards: 2,
        server: small_server(),
        ..RouterConfig::default()
    });
    drive(&control, &lines);
    assert_eq!(drive(&recovered, &probes("clone")), drive(&control, &probes("clone")));
    recovered.shutdown();
    control.shutdown();
    let _ = std::fs::remove_dir_all(&root);
}

/// `close_session` is a durable close: the on-disk state is removed
/// and a recovery does not resurrect the tenant.
#[test]
fn closed_sessions_stay_closed_after_recovery() {
    let root = temp_root("close");
    let config = || RouterConfig {
        shards: 2,
        server: small_server(),
        store_root: Some(root.clone()),
        ..RouterConfig::default()
    };
    let durable = Router::new(config());
    drive(&durable, &script("gone", "g", 3));
    drive(&durable, &script("kept", "k", 3));
    let closed = durable.handle_line("{\"id\":1,\"op\":\"close_session\",\"session\":\"gone\"}");
    assert!(closed.contains("\"ok\":true"), "{closed}");
    drop(durable);

    let recovered = Router::recover(config()).expect("recovery");
    let listing = recovered.handle_line("{\"id\":2,\"op\":\"list_sessions\"}");
    let j = Json::parse(&listing).expect("json");
    let sessions = j["result"]["sessions"].to_string();
    assert!(sessions.contains("kept"), "{listing}");
    assert!(!sessions.contains("gone"), "closed tenant resurrected: {listing}");
    recovered.shutdown();
    let _ = std::fs::remove_dir_all(&root);
}
