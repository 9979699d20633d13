//! Integration tests for the serving layer: full-surface smoke,
//! determinism under concurrency, graceful drain, deadline handling
//! with fault-injected services, and the TCP transport.

use copycat_serve::protocol::Op;
use copycat_serve::server::{Server, ServerConfig};
use copycat_util::check::check;
use copycat_util::json::Json;
use std::sync::Arc;

// ---------------------------------------------------------------- smoke

/// The wire transcript sends one request of every class (the golden
/// test replays it and pins every answer): each `>>` line names an op,
/// and a line that is not JSON stands for the `invalid` class.
#[test]
fn smoke_round_trips_every_request_class() {
    let sent: Vec<String> = include_str!("golden/wire_transcript.txt")
        .lines()
        .filter_map(|l| l.strip_prefix(">> "))
        .map(|line| match Json::parse(line) {
            Ok(j) => j["op"].as_str().unwrap_or("").to_string(),
            Err(_) => Op::Invalid.as_str().to_string(),
        })
        .collect();
    for op in Op::ALL {
        assert!(sent.iter().any(|s| s == op.as_str()), "class {:?} never exercised", op.as_str());
    }
}

/// The herd smoke on a small herd: every session is created over the
/// one shared world and every sampled session answers `render`,
/// `session_stats` and `autocomplete`. The memory floor is the binary's
/// (≥ 100k sessions per GiB); this test binary counts no allocations,
/// so it exercises the floor check without measuring against it.
#[test]
fn small_herd_answers_every_probe() {
    let server = Server::new(ServerConfig::default());
    let no_counts = copycat_util::bench::AllocSnapshot::default;
    let report = copycat_serve::smoke::run_herd(&server, 48, 100_000.0, &no_counts)
        .expect("every herd probe answers ok");
    assert_eq!(report.sessions, 48);
    assert_eq!(report.probes_ok, 16 * 3, "every third session x three probes");
    server.shutdown();
}

// ------------------------------------------------- deterministic scripts

/// The per-session conversation the determinism test drives: import two
/// small sources whose rows embed `tag`, join-discover, give feedback,
/// snapshot. Every response to this script is timing-free.
fn session_script(session: &str, tag: &str, venues: usize) -> Vec<String> {
    let esc = |s: &str| Json::str(s).to_string();
    let mut lines = Vec::new();
    let s = format!("\"session\":{}", esc(session));
    let mut id = 0u64;
    let mut push = |id: &mut u64, body: String| {
        *id += 1;
        lines.push(format!("{{\"id\":{id},{body}}}"));
    };
    let shelter_rows: Vec<Vec<String>> = (0..venues)
        .map(|i| {
            vec![
                format!("Venue-{tag}-{i}"),
                format!("{i} Oak St {tag}"),
                format!("City{}", i % 3),
            ]
        })
        .collect();
    let contact_rows: Vec<Vec<String>> = (0..venues)
        .map(|i| {
            vec![
                format!("Person-{tag}-{i}"),
                format!("555-01{i:02}-{tag}"),
                format!("Venue-{tag}-{i}"),
            ]
        })
        .collect();
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

    push(&mut id, format!("\"op\":\"create_session\",{s}"));
    push(
        &mut id,
        format!(
            "\"op\":\"open_doc\",{s},\"name\":\"Shelters\",\
             \"headers\":[\"Venue\",\"Street\",\"City\"],\"rows\":{}",
            rows_json(&shelter_rows)
        ),
    );
    for row in &shelter_rows {
        let cells: Vec<String> = row.iter().map(|c| esc(c)).collect();
        push(
            &mut id,
            format!("\"op\":\"paste\",{s},\"doc\":0,\"values\":[{}]", cells.join(",")),
        );
    }
    push(&mut id, format!("\"op\":\"accept_rows\",{s}"));
    push(&mut id, format!("\"op\":\"name_column\",{s},\"col\":0,\"name\":\"Venue\""));
    push(&mut id, format!("\"op\":\"commit_source\",{s},\"name\":\"Shelters\""));
    push(
        &mut id,
        format!(
            "\"op\":\"open_doc\",{s},\"name\":\"Contacts\",\
             \"headers\":[\"Person\",\"Phone\",\"Venue\"],\"rows\":{}",
            rows_json(&contact_rows)
        ),
    );
    for row in &contact_rows {
        let cells: Vec<String> = row.iter().map(|c| esc(c)).collect();
        push(
            &mut id,
            format!("\"op\":\"paste\",{s},\"doc\":1,\"values\":[{}]", cells.join(",")),
        );
    }
    push(&mut id, format!("\"op\":\"accept_rows\",{s}"));
    push(&mut id, format!("\"op\":\"name_column\",{s},\"col\":2,\"name\":\"Venue\""));
    push(&mut id, format!("\"op\":\"commit_source\",{s},\"name\":\"Contacts\""));
    push(
        &mut id,
        format!(
            "\"op\":\"autocomplete\",{s},\"values\":[{},{}],\"k\":3",
            esc(&shelter_rows[0][1]),
            esc(&contact_rows[0][1]),
        ),
    );
    push(&mut id, format!("\"op\":\"feedback\",{s},\"accept\":0"));
    push(&mut id, format!("\"op\":\"autocomplete\",{s},\"values\":[{},{}],\"k\":3",
        esc(&shelter_rows[0][1]),
        esc(&contact_rows[0][1]),
    ));
    push(&mut id, format!("\"op\":\"render\",{s}"));
    push(&mut id, format!("\"op\":\"session_stats\",{s}"));
    push(&mut id, format!("\"op\":\"save_session\",{s}"));
    lines
}

fn drive(server: &Server, script: &[String]) -> Vec<String> {
    script.iter().map(|line| server.handle_line(line)).collect()
}

/// N sessions driven concurrently produce byte-identical per-session
/// responses to the same sessions driven sequentially, the queries they
/// discover are real, and the metrics reconcile every admitted request
/// with exactly one response.
#[test]
fn concurrent_sessions_are_deterministic_and_reconcile() {
    check("serve_concurrent_determinism", 4, &[], |g| {
        let n_sessions = g.usize_in(2..5);
        let venues = g.usize_in(3..6);
        let scripts: Vec<(String, Vec<String>)> = (0..n_sessions)
            .map(|i| {
                let name = format!("tenant-{i}");
                let script = session_script(&name, &format!("t{i}"), venues);
                (name, script)
            })
            .collect();

        // Sequential reference run.
        let reference = Server::new(ServerConfig { workers: 2, queue_depth: 64, shards: 4 });
        let expected: Vec<Vec<String>> = scripts
            .iter()
            .map(|(_, script)| drive(&reference, script))
            .collect();
        reference.shutdown();

        // The reference discovers at least one cross-source query.
        let discovery = Json::parse(&expected[0][scripts[0].1.len() - 6]).expect("json");
        copycat_util::prop_ensure!(
            discovery["result"]["queries"]
                .as_array()
                .is_some_and(|qs| !qs.is_empty()),
            "expected cross-source queries, got {discovery}"
        );

        // Concurrent run: one closed-loop client thread per session.
        let server = Arc::new(Server::new(ServerConfig {
            workers: 4,
            queue_depth: 64,
            shards: 4,
        }));
        let mut handles = Vec::new();
        for (_, script) in scripts.iter() {
            let server = Arc::clone(&server);
            let script = script.clone();
            handles.push(std::thread::spawn(move || drive(&server, &script)));
        }
        let got: Vec<Vec<String>> = handles.into_iter().map(|h| h.join().unwrap()).collect();

        for (i, (exp, act)) in expected.iter().zip(&got).enumerate() {
            copycat_util::prop_ensure_eq!(
                exp,
                act,
                "session {i}: concurrent responses differ from sequential"
            );
        }

        // Reconciliation: every admitted request produced one response.
        let sent: u64 = scripts.iter().map(|(_, s)| s.len() as u64).sum();
        copycat_util::prop_ensure_eq!(server.metrics().grand_total(), sent);
        copycat_util::prop_ensure_eq!(server.metrics().grand_responses(), sent);

        let server = Arc::into_inner(server).expect("all clients joined");
        server.shutdown();
        Ok(())
    });
}

/// Fault-injected sessions stay deterministic under concurrency: each
/// session wraps its zip resolver in failure injection + retries with a
/// replacement alias, and the responses — including degraded markers,
/// retry exhaustion, and health counters — are byte-identical whether
/// the sessions run sequentially or concurrently.
#[test]
fn concurrent_fault_injected_sessions_are_deterministic() {
    use copycat_services::{World, WorldConfig};

    // One session's chaos script. The world rows are regenerated locally
    // with the same (seed, venues) the server will use, so the script is
    // fully static.
    fn chaos_script(session: &str, seed: u64, rate: f64) -> Vec<String> {
        let esc = |s: &str| Json::str(s).to_string();
        let world = World::generate(&WorldConfig { seed, venues: 6, ..WorldConfig::default() });
        let shelters = world.shelter_rows();
        let rows_json = {
            let rendered: Vec<String> = shelters
                .iter()
                .map(|r| {
                    let cells: Vec<String> = r.iter().map(|c| esc(c)).collect();
                    format!("[{}]", cells.join(","))
                })
                .collect();
            format!("[{}]", rendered.join(","))
        };
        let first: Vec<String> = shelters[0].iter().map(|c| esc(c)).collect();
        let s = format!("\"session\":{}", esc(session));
        let mut lines = Vec::new();
        let mut id = 0u64;
        let mut push = |id: &mut u64, body: String| {
            *id += 1;
            lines.push(format!("{{\"id\":{id},{body}}}"));
        };
        push(&mut id, format!("\"op\":\"create_session\",{s}"));
        push(
            &mut id,
            format!("\"op\":\"register_world\",{s},\"seed\":{seed},\"venues\":6"),
        );
        push(
            &mut id,
            format!(
                "\"op\":\"open_doc\",{s},\"name\":\"Sheet\",\
                 \"headers\":[\"Name\",\"Street\",\"City\"],\"rows\":{rows_json}"
            ),
        );
        push(
            &mut id,
            format!("\"op\":\"paste\",{s},\"doc\":0,\"values\":[{}]", first.join(",")),
        );
        push(&mut id, format!("\"op\":\"accept_rows\",{s}"));
        push(
            &mut id,
            format!("\"op\":\"set_column_type\",{s},\"col\":2,\"type\":\"PR-City\""),
        );
        push(&mut id, format!("\"op\":\"commit_source\",{s},\"name\":\"Shelters\""));
        push(
            &mut id,
            format!(
                "\"op\":\"register_flaky\",{s},\"service\":\"zip_resolver\",\
                 \"failure_rate\":{rate},\"latency_ms\":2,\"seed\":{},\"retries\":2,\
                 \"breaker_threshold\":3,\"cooldown_ms\":100,\
                 \"replacement\":\"zip_backup\"",
                seed ^ 0xF417
            ),
        );
        // Two suggestion rounds: the second sees advanced per-input
        // attempt counters and any breaker state the first produced.
        push(&mut id, format!("\"op\":\"column_suggestions\",{s}"));
        push(&mut id, format!("\"op\":\"column_suggestions\",{s}"));
        push(&mut id, format!("\"op\":\"health\",{s}"));
        push(&mut id, format!("\"op\":\"session_stats\",{s}"));
        lines
    }

    check("serve_chaos_determinism", 3, &[], |g| {
        let n_sessions = g.usize_in(2..5);
        let rate = [0.3, 0.6, 1.0][g.usize_in(0..3)];
        let scripts: Vec<Vec<String>> = (0..n_sessions)
            .map(|i| chaos_script(&format!("chaos-{i}"), 2009 + i as u64, rate))
            .collect();

        let reference = Server::new(ServerConfig { workers: 2, queue_depth: 64, shards: 4 });
        let expected: Vec<Vec<String>> =
            scripts.iter().map(|sc| drive(&reference, sc)).collect();
        reference.shutdown();

        let server = Arc::new(Server::new(ServerConfig {
            workers: 4,
            queue_depth: 64,
            shards: 4,
        }));
        let mut handles = Vec::new();
        for sc in scripts.iter() {
            let server = Arc::clone(&server);
            let sc = sc.clone();
            handles.push(std::thread::spawn(move || drive(&server, &sc)));
        }
        let got: Vec<Vec<String>> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        for (i, (exp, act)) in expected.iter().zip(&got).enumerate() {
            copycat_util::prop_ensure_eq!(
                exp,
                act,
                "chaos session {i}: concurrent responses differ from sequential"
            );
        }
        let server = Arc::into_inner(server).expect("all clients joined");
        server.shutdown();
        Ok(())
    });
}

// ------------------------------------------------------- graceful drain

// ------------------------------------------------ shared built-in types

/// A zip column as one session's registry ranks it.
fn zip_ranking(server: &Server, session: &str) -> String {
    let zips = ["33063", "33441", "FL", "33302"];
    let s = server.registry().get(session).expect("session exists");
    let state = s.state.lock();
    format!("{:?}", state.engine.registry().recognize_column(&zips))
}

/// Every flat session layers over one process-wide list of trained
/// built-in types. Replacing `PR-Zip` from a loaded snapshot's user
/// types, or refining it with `learn_type`, stays inside that session:
/// siblings created before and after, on other threads, still rank a
/// zip column exactly as a fresh engine does.
#[test]
fn shared_builtin_types_stay_session_local() {
    let server = Server::new(ServerConfig { workers: 4, queue_depth: 64, shards: 4 });
    let create = |name: &str| {
        let resp = server.handle(&format!(r#"{{"id":1,"op":"create_session","session":"{name}"}}"#));
        assert_eq!(resp["ok"].as_bool(), Some(true), "{resp}");
    };
    create("fresh");
    let expected = zip_ranking(&server, "fresh");
    assert!(expected.starts_with(r#"[("PR-Zip", RecognitionScore { coverage: 0.75"#), "{expected}");
    create("before");

    // A snapshot whose user types replace PR-Zip with PR-Street's model.
    let mut donor = copycat_core::CopyCat::new();
    let street = donor.registry().get("PR-Street").expect("built-in").patterns.clone();
    donor.registry_mut().install_user_type("PR-Zip", street);
    let snapshot = Json::str(Json::parse(&donor.save_session_json()).expect("saved JSON").to_string());

    std::thread::scope(|scope| {
        scope.spawn(|| {
            let resp = server.handle(&format!(
                r#"{{"id":2,"op":"load_session","session":"loader","snapshot":{snapshot}}}"#
            ));
            assert_eq!(resp["ok"].as_bool(), Some(true), "{resp}");
            assert_ne!(zip_ranking(&server, "loader"), expected, "the snapshot replaced PR-Zip");
        });
        scope.spawn(|| {
            create("refiner");
            let s = server.registry().get("refiner").expect("session exists");
            s.state.lock().engine.registry_mut().learn_type("PR-Zip", &["FL", "GA"]);
            drop(s);
            assert_ne!(zip_ranking(&server, "refiner"), expected, "learn_type refined PR-Zip");
        });
        scope.spawn(|| {
            for _ in 0..50 {
                assert_eq!(zip_ranking(&server, "before"), expected);
            }
        });
        scope.spawn(|| {
            for i in 0..20 {
                let name = format!("during-{i}");
                create(&name);
                assert_eq!(zip_ranking(&server, &name), expected);
            }
        });
    });

    create("after");
    assert_eq!(zip_ranking(&server, "before"), expected);
    assert_eq!(zip_ranking(&server, "after"), expected);
    server.shutdown();
}

/// Shutdown while clients are mid-flight: every sent request receives a
/// response (ok or shutting_down), nothing hangs, and the metrics
/// reconcile.
#[test]
fn shutdown_drains_in_flight_requests_without_dropping_responses() {
    let server = Arc::new(Server::new(ServerConfig {
        workers: 2,
        queue_depth: 8,
        shards: 2,
    }));
    let mut clients = Vec::new();
    for c in 0..4 {
        let server = Arc::clone(&server);
        clients.push(std::thread::spawn(move || {
            let mut sent = 0u64;
            let mut received = 0u64;
            let mut shed = false;
            for i in 0..200 {
                let line = format!("{{\"id\":\"c{c}-{i}\",\"op\":\"ping\"}}");
                sent += 1;
                let resp = server.handle_line(&line);
                assert!(!resp.is_empty());
                received += 1;
                if resp.contains("shutting_down") {
                    shed = true;
                    break;
                }
            }
            (sent, received, shed)
        }));
    }
    // Let the clients get going, then drain.
    std::thread::sleep(std::time::Duration::from_millis(5));
    let resp = server.handle_line("{\"id\":0,\"op\":\"shutdown\"}");
    assert!(resp.contains("\"draining\":true"), "{resp}");

    let mut total_sent = 0;
    let mut total_received = 0;
    for c in clients {
        let (sent, received, _) = c.join().unwrap();
        assert_eq!(sent, received, "a client lost a response");
        total_sent += sent;
        total_received += received;
    }
    assert_eq!(total_sent, total_received);
    // +1 for the shutdown request itself.
    assert_eq!(server.metrics().grand_total(), total_sent + 1);
    assert_eq!(server.metrics().grand_responses(), total_sent + 1);
    let server = Arc::into_inner(server).expect("clients joined");
    server.shutdown();
}

/// Poll until `n` callers wait at the admission gate. With every permit
/// out, a waiter is what proves the permit holders are parked.
fn await_waiters(server: &Server, n: usize) {
    let start = std::time::Instant::now();
    while server.queued() < n {
        assert!(start.elapsed().as_secs() < 10, "only {} of {n} waiters arrived", server.queued());
        std::thread::sleep(std::time::Duration::from_millis(1));
    }
}

/// One permit, one waiting slot: A parks holding the permit (the test
/// holds its session's lock), B waits for the permit, and C is turned
/// away `overloaded` at once, counted under its class. After release, A
/// and B both answer ok.
#[test]
fn full_gate_answers_overloaded_and_counts_it() {
    let server = Server::new(ServerConfig { workers: 1, queue_depth: 1, shards: 2 });
    let created = server.handle("{\"id\":0,\"op\":\"create_session\",\"session\":\"s\"}");
    assert_eq!(created["ok"].as_bool(), Some(true), "{created}");
    let session = server.registry().get("s").expect("session exists");
    let held = session.state.lock();
    std::thread::scope(|scope| {
        let parked: Vec<_> = ["a", "b"]
            .into_iter()
            .map(|id| {
                let server = &server;
                scope.spawn(move || {
                    server.handle(&format!("{{\"id\":\"{id}\",\"op\":\"render\",\"session\":\"s\"}}"))
                })
            })
            .collect();
        await_waiters(&server, 1);
        let c = server.handle("{\"id\":\"c\",\"op\":\"ping\"}");
        assert_eq!(c["error"]["kind"].as_str(), Some("overloaded"), "{c}");
        assert_eq!(c["id"].as_str(), Some("c"), "{c}");
        assert_eq!(server.metrics().class(Op::Ping).overloaded.load(std::sync::atomic::Ordering::Acquire), 1);
        drop(held);
        for handle in parked {
            let resp = handle.join().expect("client thread");
            assert_eq!(resp["ok"].as_bool(), Some(true), "{resp}");
        }
    });
    let stats = server.handle("{\"id\":9,\"op\":\"stats\"}");
    let classes = &stats["result"]["server"]["classes"];
    assert_eq!(classes["ping"]["overloaded"].as_f64(), Some(1.0), "{stats}");
    assert_eq!(classes["render"]["ok"].as_f64(), Some(2.0), "{stats}");
    server.shutdown();
}

/// Shutdown while callers are parked at the admission gate: each one was
/// admitted before the drain, so each still gets exactly one response;
/// a request after the drain is shed; the metrics reconcile.
#[test]
fn shutdown_with_parked_waiters_answers_every_request_once() {
    const PARKED: usize = 5;
    let server = Server::new(ServerConfig { workers: 1, queue_depth: 8, shards: 2 });
    let created = server.handle("{\"id\":0,\"op\":\"create_session\",\"session\":\"s\"}");
    assert_eq!(created["ok"].as_bool(), Some(true), "{created}");
    let session = server.registry().get("s").expect("session exists");
    let held = session.state.lock();
    let responses: Vec<Json> = std::thread::scope(|scope| {
        let clients: Vec<_> = (0..PARKED)
            .map(|i| {
                let server = &server;
                scope.spawn(move || {
                    server.handle(&format!("{{\"id\":{i},\"op\":\"render\",\"session\":\"s\"}}"))
                })
            })
            .collect();
        // One caller holds the permit, parked on the session lock; the
        // rest wait for it.
        await_waiters(&server, PARKED - 1);
        let drain = server.handle("{\"id\":\"drain\",\"op\":\"shutdown\"}");
        assert_eq!(drain["result"]["draining"].as_bool(), Some(true), "{drain}");
        let late = server.handle("{\"id\":\"late\",\"op\":\"ping\"}");
        assert_eq!(late["error"]["kind"].as_str(), Some("shutting_down"), "{late}");
        drop(held);
        clients.into_iter().map(|c| c.join().expect("client thread")).collect()
    });
    let mut ids: Vec<usize> = responses
        .iter()
        .map(|r| {
            assert_eq!(r["ok"].as_bool(), Some(true), "{r}");
            r["id"].as_f64().expect("numeric id") as usize
        })
        .collect();
    ids.sort_unstable();
    assert_eq!(ids, (0..PARKED).collect::<Vec<_>>(), "one response per request");
    // create + parked + shutdown + late.
    let sent = PARKED as u64 + 3;
    assert_eq!(server.metrics().grand_total(), sent);
    assert_eq!(server.metrics().grand_responses(), sent);
    server.shutdown();
}

// ------------------------------------------- deadlines + fault injection

fn setup_session_with_flaky(server: &Server, latency_ms: u64) {
    let world = server.handle(
        "{\"id\":1,\"op\":\"create_session\",\"session\":\"s\"}",
    );
    assert_eq!(world["ok"].as_bool(), Some(true));
    let world = server.handle(
        "{\"id\":2,\"op\":\"register_world\",\"session\":\"s\",\"seed\":2009,\"venues\":8}",
    );
    assert_eq!(world["ok"].as_bool(), Some(true), "{world}");
    let shelters = &world["result"]["shelters"];
    let rows = shelters.to_string();
    let open = server.handle(&format!(
        "{{\"id\":3,\"op\":\"open_doc\",\"session\":\"s\",\"name\":\"Sheet\",\
         \"headers\":[\"Name\",\"Street\",\"City\"],\"rows\":{rows}}}"
    ));
    assert_eq!(open["ok"].as_bool(), Some(true), "{open}");
    let first = shelters[0].to_string();
    let paste = server.handle(&format!(
        "{{\"id\":4,\"op\":\"paste\",\"session\":\"s\",\"doc\":0,\"values\":{first}}}"
    ));
    assert_eq!(paste["ok"].as_bool(), Some(true), "{paste}");
    for line in [
        "{\"id\":5,\"op\":\"accept_rows\",\"session\":\"s\"}",
        "{\"id\":6,\"op\":\"set_column_type\",\"session\":\"s\",\"col\":2,\"type\":\"PR-City\"}",
        "{\"id\":7,\"op\":\"commit_source\",\"session\":\"s\",\"name\":\"Shelters\"}",
    ] {
        let resp = server.handle(line);
        assert_eq!(resp["ok"].as_bool(), Some(true), "{resp}");
    }
    let flaky = server.handle(&format!(
        "{{\"id\":8,\"op\":\"register_flaky\",\"session\":\"s\",\"service\":\"zip_resolver\",\
         \"failure_rate\":0,\"latency_ms\":{latency_ms},\"seed\":7}}"
    ));
    assert_eq!(flaky["ok"].as_bool(), Some(true), "{flaky}");
}

/// A request whose deadline is exceeded by injected (virtual) service
/// latency gets a typed `timeout` error — deterministically, with no
/// thread ever sleeping — and the session stays fully usable after.
#[test]
fn virtual_service_latency_trips_deadlines_deterministically() {
    let server = Server::new(ServerConfig::default());
    // 500ms of virtual latency per zip_resolver call, 100ms budgets.
    setup_session_with_flaky(&server, 500);

    let suggest = server.handle(
        "{\"id\":9,\"op\":\"column_suggestions\",\"session\":\"s\",\"deadline_ms\":100}",
    );
    assert_eq!(suggest["ok"].as_bool(), Some(false), "{suggest}");
    assert_eq!(
        suggest["error"]["kind"].as_str(),
        Some("timeout"),
        "virtual latency must trip the deadline: {suggest}"
    );

    // The shard lock is not poisoned: the same session still answers.
    let render = server.handle("{\"id\":10,\"op\":\"render\",\"session\":\"s\"}");
    assert_eq!(render["ok"].as_bool(), Some(true), "{render}");
    // Without a deadline the same operation succeeds.
    let suggest = server.handle(
        "{\"id\":11,\"op\":\"column_suggestions\",\"session\":\"s\"}",
    );
    assert_eq!(suggest["ok"].as_bool(), Some(true), "{suggest}");

    // The timeout is visible in the metrics, under its class.
    let stats = server.handle("{\"id\":12,\"op\":\"stats\"}");
    let class = &stats["result"]["server"]["classes"]["column_suggestions"];
    assert_eq!(class["timeout"].as_f64(), Some(1.0), "{stats}");
    assert_eq!(class["ok"].as_f64(), Some(1.0), "{stats}");
    server.shutdown();
}

/// Deadlines also fire while queued: a request admitted with an already
/// elapsed budget times out once it holds a permit, without touching the
/// session.
#[test]
fn zero_budget_requests_time_out_at_dequeue() {
    let server = Server::new(ServerConfig::default());
    let create = server.handle("{\"id\":1,\"op\":\"create_session\",\"session\":\"s\"}");
    assert_eq!(create["ok"].as_bool(), Some(true));
    let resp = server.handle(
        "{\"id\":2,\"op\":\"render\",\"session\":\"s\",\"deadline_ms\":0}",
    );
    assert_eq!(resp["ok"].as_bool(), Some(false), "{resp}");
    assert_eq!(resp["error"]["kind"].as_str(), Some("timeout"), "{resp}");
    server.shutdown();
}

// ------------------------------------------------------- error taxonomy

#[test]
fn typed_errors_cover_the_protocol_taxonomy() {
    let server = Server::new(ServerConfig::default());
    let kind = |resp: Json| resp["error"]["kind"].as_str().unwrap_or("?").to_string();

    // bad_request: garbage, unknown op, missing param.
    assert_eq!(kind(server.handle("not json")), "bad_request");
    assert_eq!(kind(server.handle("{\"id\":1,\"op\":\"warp\"}")), "bad_request");
    assert_eq!(
        kind(server.handle("{\"id\":1,\"op\":\"create_session\"}")),
        "bad_request"
    );
    // no_such_session.
    assert_eq!(
        kind(server.handle("{\"id\":1,\"op\":\"render\",\"session\":\"ghost\"}")),
        "no_such_session"
    );
    // session_exists.
    let ok = server.handle("{\"id\":1,\"op\":\"create_session\",\"session\":\"dup\"}");
    assert_eq!(ok["ok"].as_bool(), Some(true));
    assert_eq!(
        kind(server.handle("{\"id\":1,\"op\":\"create_session\",\"session\":\"dup\"}")),
        "session_exists"
    );
    // shutting_down.
    let drain = server.handle("{\"id\":1,\"op\":\"shutdown\"}");
    assert_eq!(drain["ok"].as_bool(), Some(true));
    assert_eq!(kind(server.handle("{\"id\":1,\"op\":\"ping\"}")), "shutting_down");
    server.shutdown();
}

/// `accept_column`, `reject_column` and `feedback` index the lists the
/// session's last `column_suggestions` and `autocomplete` showed:
/// rejecting keeps the column list, accepting clears it, and an index
/// outside the shown list is a typed `bad_request` with a stable text.
#[test]
fn shown_lists_answer_by_index_until_replaced() {
    let server = Server::new(ServerConfig::default());
    // The golden transcript's import of Shelters, up to its first
    // `column_suggestions` (id 11).
    let setup = include_str!("golden/wire_transcript.txt")
        .lines()
        .filter_map(|l| l.strip_prefix(">> "))
        .skip(1)
        .take(10);
    for line in setup {
        assert_eq!(server.handle(line)["ok"].as_bool(), Some(true), "{line}");
    }
    let s = "\"session\":\"smoke\"";
    let call = |body: &str| server.handle(&format!("{{\"id\":1,{s},{body}}}"));
    let message = |resp: Json| {
        assert_eq!(resp["error"]["kind"].as_str(), Some("bad_request"), "{resp:?}");
        resp["error"]["message"].as_str().unwrap_or("?").to_string()
    };

    let shown = call("\"op\":\"column_suggestions\"");
    assert!(shown["result"]["suggestions"].as_array().map_or(0, <[Json]>::len) >= 2);
    assert_eq!(call("\"op\":\"reject_column\",\"index\":1")["ok"].as_bool(), Some(true));
    assert_eq!(call("\"op\":\"accept_column\",\"index\":1")["ok"].as_bool(), Some(true));
    for op in ["accept_column", "reject_column"] {
        assert_eq!(
            message(call(&format!("\"op\":\"{op}\",\"index\":0"))),
            "no suggestion at index 0"
        );
    }

    assert_eq!(message(call("\"op\":\"feedback\",\"accept\":0")), "no query at index 0");
    assert_eq!(
        message(call("\"op\":\"feedback\",\"accept\":0,\"reject\":1")),
        "\"reject\" must be an array"
    );
    assert_eq!(
        message(call("\"op\":\"feedback\",\"accept\":0,\"reject\":[\"a\"]")),
        "\"reject\" must hold numbers"
    );
    server.shutdown();
}

/// A client-supplied snapshot whose transform program carries a hostile
/// token index or a non-bool `rev` answers a typed `bad_request`; it is
/// never cast into a program that panics or wraps when it runs.
#[test]
fn hostile_transform_programs_in_snapshots_are_bad_requests() {
    let mut s = copycat_core::Scenario::build(&copycat_core::ScenarioConfig::default());
    s.import_directory();
    s.import_contacts();
    let phone = |r: &Vec<String>| (r[1].clone(), copycat_services::World::directory_phone(&r[1]));
    let examples: Vec<(String, String)> = s.contact_rows.iter().take(3).map(phone).collect();
    s.engine.learn_transform("Contacts", "Phone", "Directory", "Phone", &examples).expect("learnable");
    // Compact, so the hostile edits below are plain substring swaps.
    let saved = Json::parse(&s.engine.save_session_json()).expect("saved JSON").to_string();
    let piece = "\"index\":0,\"rev\":true";
    assert!(saved.contains(piece), "the saved program extracts word[-1]");
    let server = Server::new(ServerConfig::default());
    let load = |snapshot: &str| {
        let snapshot = Json::str(snapshot);
        server.handle(&format!("{{\"id\":1,\"op\":\"load_session\",\"session\":\"s\",\"snapshot\":{snapshot}}}"))
    };
    assert_eq!(load(&saved)["ok"].as_bool(), Some(true), "the untampered snapshot loads");
    let hostile = ["-3,\"rev\":true", "0.5,\"rev\":true", "1e20,\"rev\":true", "0,\"rev\":\"yes\""];
    for (hostile, field) in hostile.into_iter().zip(["index", "index", "index", "rev"]) {
        let resp = load(&saved.replace(piece, &format!("\"index\":{hostile}")));
        assert_eq!(resp["error"]["kind"].as_str(), Some("bad_request"), "{hostile}: {resp}");
        assert!(resp["error"]["message"].as_str().is_some_and(|m| m.contains(field)), "{resp}");
    }
    server.shutdown();
}

/// A snapshot loaded over the wire and saved again before any service
/// re-registers keeps the runtime health it carried: the committed
/// fixture's `zip_resolver` probe comes back in the second snapshot.
#[test]
fn load_then_save_keeps_unattached_probe_state() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/saved_session.json");
    let fixture = std::fs::read_to_string(path).expect("fixture");
    let server = Server::new(ServerConfig::default());
    let snapshot = Json::str(fixture.trim_end());
    let loaded = server
        .handle(&format!("{{\"id\":1,\"op\":\"load_session\",\"session\":\"s\",\"snapshot\":{snapshot}}}"));
    assert_eq!(loaded["ok"].as_bool(), Some(true), "{loaded}");
    let saved = server.handle("{\"id\":2,\"op\":\"save_session\",\"session\":\"s\"}");
    let resaved = Json::parse(saved["result"]["snapshot"].as_str().expect("snapshot")).expect("json");
    let original = Json::parse(&fixture).expect("fixture json");
    assert_eq!(resaved.get("probes"), original.get("probes"), "{saved}");
    assert!(fixture.contains("\"zip_resolver\""), "the fixture carries a probe");
    server.shutdown();
}

/// When every service that could complete a column is breaker-open and
/// no replacement exists, `column_suggestions` answers the typed
/// `unavailable` error instead of an empty (indistinguishable) list.
#[test]
fn tripped_services_without_replacement_answer_unavailable() {
    let server = Server::new(ServerConfig::default());
    setup_session_with_flaky(&server, 0); // healthy flaky wrapper on zip
    // Re-wrap every street/city-bound service hard-down behind a breaker
    // (no replacement registered).
    for (i, svc) in ["zip_resolver", "geocoder", "address_resolver"].iter().enumerate() {
        let resp = server.handle(&format!(
            "{{\"id\":{},\"op\":\"register_flaky\",\"session\":\"s\",\"service\":\"{svc}\",\
             \"failure_rate\":1,\"latency_ms\":1,\"seed\":3,\"retries\":2,\
             \"breaker_threshold\":2,\"cooldown_ms\":1000000}}",
            20 + i
        ));
        assert_eq!(resp["ok"].as_bool(), Some(true), "{resp}");
    }
    // First round trips the breakers (answers may be partial/degraded);
    // once everything is open, the next round is typed unavailable.
    let mut saw_unavailable = false;
    for i in 0..4 {
        let resp = server.handle(&format!(
            "{{\"id\":{},\"op\":\"column_suggestions\",\"session\":\"s\"}}",
            30 + i
        ));
        if resp["ok"].as_bool() == Some(false) {
            assert_eq!(resp["error"]["kind"].as_str(), Some("unavailable"), "{resp}");
            saw_unavailable = true;
            break;
        }
    }
    assert!(saw_unavailable, "breakers never produced a typed unavailable error");
    server.shutdown();
}

// ----------------------------------------------------------------- tcp

#[test]
fn tcp_transport_round_trips_and_drains() {
    use std::io::{BufRead, BufReader, Write};
    use std::net::{TcpListener, TcpStream};

    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr");
    let server = Server::new(ServerConfig::default());
    let serve_thread = std::thread::spawn(move || copycat_serve::tcp::serve(listener, server));

    let stream = TcpStream::connect(addr).expect("connect");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let mut write = |line: &str| {
        let mut s = &stream;
        s.write_all(line.as_bytes()).unwrap();
        s.write_all(b"\n").unwrap();
        s.flush().unwrap();
        let mut resp = String::new();
        reader.read_line(&mut resp).unwrap();
        Json::parse(resp.trim()).expect("json response")
    };

    let pong = write("{\"id\":1,\"op\":\"ping\"}");
    assert_eq!(pong["ok"].as_bool(), Some(true));
    assert_eq!(pong["result"]["pong"].as_bool(), Some(true));
    let made = write("{\"id\":2,\"op\":\"create_session\",\"session\":\"tcp\"}");
    assert_eq!(made["ok"].as_bool(), Some(true));
    let listed = write("{\"id\":3,\"op\":\"list_sessions\"}");
    assert_eq!(listed["result"]["sessions"][0].as_str(), Some("tcp"));
    let drain = write("{\"id\":4,\"op\":\"shutdown\"}");
    assert_eq!(drain["result"]["draining"].as_bool(), Some(true));

    serve_thread.join().unwrap().expect("serve exits cleanly");
}

/// Regression: a response larger than the transport's write buffer used
/// to leave in two writes — the body, then its newline — on a socket
/// without `TCP_NODELAY`, so the newline sat in Nagle's buffer until the
/// client's delayed ACK (~40 ms per large response). Each response now
/// leaves in one write on a no-delay socket; a saved session (> 8 KiB)
/// round-trips far below the delayed-ACK floor.
#[test]
fn tcp_large_responses_do_not_wait_for_delayed_acks() {
    use std::io::{BufRead, BufReader, Write};
    use std::net::{TcpListener, TcpStream};
    use std::time::{Duration, Instant};

    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr");
    let server = Server::new(ServerConfig::default());
    let serve_thread = std::thread::spawn(move || copycat_serve::tcp::serve(listener, server));

    let stream = TcpStream::connect(addr).expect("connect");
    // The client sends each request in one write, so only the server's
    // side of the exchange can stall.
    stream.set_nodelay(true).expect("nodelay");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let mut call = |line: &str| {
        let mut s = &stream;
        s.write_all(format!("{line}\n").as_bytes()).unwrap();
        let mut resp = String::new();
        reader.read_line(&mut resp).unwrap();
        resp
    };

    let script = session_script("big", "b", 30);
    let (save, setup) = script.split_last().expect("non-empty script");
    assert!(save.contains("save_session"), "{save}");
    for line in setup {
        let resp = Json::parse(call(line).trim()).expect("json response");
        assert_eq!(resp["ok"].as_bool(), Some(true), "{resp}");
    }
    let mut waits = Vec::new();
    for _ in 0..5 {
        let start = Instant::now();
        let resp = call(save);
        waits.push(start.elapsed());
        assert!(resp.len() > 8 * 1024, "the saved session must exceed 8 KiB: {} bytes", resp.len());
        assert_eq!(Json::parse(resp.trim()).expect("json")["ok"].as_bool(), Some(true));
    }
    waits.sort();
    assert!(
        waits[2] < Duration::from_millis(20),
        "median save_session round trip {:?} (all {waits:?})",
        waits[2]
    );
    call("{\"id\":99,\"op\":\"shutdown\"}");
    serve_thread.join().unwrap().expect("serve exits cleanly");
}

/// Regression: a client that frames with CRLF (`\r\n`) — telnet, Windows
/// tooling, half the HTTP-adjacent world — must get the same answers as
/// a `\n` client, and a final request whose connection closed before the
/// terminating newline must still be served. Both used to depend on
/// `BufRead::lines()` quirks; framing is now explicit in the transport.
#[test]
fn tcp_transport_accepts_crlf_and_unterminated_final_line() {
    use std::io::{BufRead, BufReader, Write};
    use std::net::{Shutdown, TcpListener, TcpStream};

    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr");
    let server = Server::new(ServerConfig::default());
    let serve_thread = std::thread::spawn(move || copycat_serve::tcp::serve(listener, server));

    // Connection 1: CRLF framing throughout, including a blank CRLF
    // keep-alive line that must be ignored rather than answered.
    {
        let stream = TcpStream::connect(addr).expect("connect");
        let mut reader = BufReader::new(stream.try_clone().expect("clone"));
        let mut write_crlf = |line: &str| {
            let mut s = &stream;
            s.write_all(line.as_bytes()).unwrap();
            s.write_all(b"\r\n").unwrap();
            s.flush().unwrap();
            let mut resp = String::new();
            reader.read_line(&mut resp).unwrap();
            Json::parse(resp.trim()).expect("json response")
        };
        {
            let mut s = &stream;
            s.write_all(b"\r\n").unwrap(); // blank keep-alive
            s.flush().unwrap();
        }
        let pong = write_crlf("{\"id\":1,\"op\":\"ping\"}");
        assert_eq!(pong["ok"].as_bool(), Some(true), "{pong}");
        let made = write_crlf("{\"id\":2,\"op\":\"create_session\",\"session\":\"crlf\"}");
        assert_eq!(made["ok"].as_bool(), Some(true), "{made}");
    }

    // Connection 2: the final request has NO terminating newline — the
    // client closes its write half instead. It must still be answered.
    {
        let stream = TcpStream::connect(addr).expect("connect");
        let mut reader = BufReader::new(stream.try_clone().expect("clone"));
        {
            let mut s = &stream;
            s.write_all(b"{\"id\":3,\"op\":\"list_sessions\"}").unwrap();
            s.flush().unwrap();
            stream.shutdown(Shutdown::Write).expect("half-close");
        }
        let mut resp = String::new();
        reader.read_line(&mut resp).unwrap();
        let listed = Json::parse(resp.trim()).expect("json response");
        assert_eq!(listed["result"]["sessions"][0].as_str(), Some("crlf"), "{listed}");
    }

    // Shut the server down (plain framing still fine).
    {
        let stream = TcpStream::connect(addr).expect("connect");
        let mut reader = BufReader::new(stream.try_clone().expect("clone"));
        let mut s = &stream;
        s.write_all(b"{\"id\":4,\"op\":\"shutdown\"}\r\n").unwrap();
        s.flush().unwrap();
        let mut resp = String::new();
        reader.read_line(&mut resp).unwrap();
        let drain = Json::parse(resp.trim()).expect("json response");
        assert_eq!(drain["result"]["draining"].as_bool(), Some(true), "{drain}");
    }

    serve_thread.join().unwrap().expect("serve exits cleanly");
}
