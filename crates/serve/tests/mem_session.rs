//! Live-memory pin for resident sessions: what a copy-on-write session
//! of a shared world still holds after one read cycle (`autocomplete`,
//! `render`, `export`, `session_stats`, `column_suggestions`), the
//! cycle every resident session runs. A session keeps its overlay, its
//! query-cache entry and the shown queries' Steiner trees; the executed
//! answers die with the request that made them. This file holds exactly
//! one test because the global allocator counts every thread in the
//! process.

use copycat_serve::server::{Server, ServerConfig};
use copycat_services::{World, WorldConfig};
use copycat_util::bench::CountingAlloc;
use copycat_util::json::Json;
use copycat_util::rng::{Rng, SeedableRng, StdRng};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc::new();

const WORLD_SEED: u64 = 2009;
const VENUES: usize = 48;
/// Sessions measured together (the per-session figure is their mean).
const SESSIONS: usize = 64;
/// Live bytes one session may retain after its read cycle.
const BUDGET_BYTES: i64 = 6 * 1024;

fn answer(server: &Server, line: &str) {
    let resp = server.handle_line(line);
    let j = Json::parse(&resp).expect("json response");
    assert_eq!(j["ok"].as_bool(), Some(true), "request failed: {line} -> {resp}");
}

/// Create session `name` over the shared world and run its read cycle
/// once, autocompleting `values` (a JSON array).
fn create_and_cycle(server: &Server, name: &str, values: &str) {
    let session = Json::str(name).to_string();
    answer(
        server,
        &format!(
            r#"{{"id":0,"op":"create_session","session":{session},"world":{{"seed":{WORLD_SEED},"venues":{VENUES}}}}}"#
        ),
    );
    let cycle = [
        format!(r#""op":"autocomplete","values":{values},"k":3"#),
        r#""op":"render""#.to_string(),
        r#""op":"export","format":"csv""#.to_string(),
        r#""op":"session_stats""#.to_string(),
        r#""op":"column_suggestions""#.to_string(),
    ];
    for (id, body) in cycle.iter().enumerate() {
        answer(server, &format!(r#"{{"id":{},"session":{session},{body}}}"#, id + 1));
    }
}

#[test]
fn resident_session_live_bytes_budget() {
    let world = World::generate(&WorldConfig { seed: WORLD_SEED, venues: VENUES, ..WorldConfig::default() });
    let (shelters, contacts) = (world.shelter_rows(), world.contact_rows());
    let mut rng = StdRng::seed_from_u64(WORLD_SEED);
    let mut values = || {
        let street = &shelters[rng.gen_range(0..shelters.len())][1];
        let phone = &contacts[rng.gen_range(0..contacts.len())][1];
        format!("[{},{}]", Json::str(street.as_str()), Json::str(phone.as_str()))
    };

    let server = Server::new(ServerConfig::default());
    // The first session builds the shared world and warms the server's
    // pooled buffers; it is not counted.
    create_and_cycle(&server, "warm", &values());
    let tuples: Vec<String> = (0..SESSIONS).map(|_| values()).collect();
    let names: Vec<String> = (0..SESSIONS).map(|j| format!("hot-{j}")).collect();
    let before = ALLOC.snapshot();
    for (name, tuple) in names.iter().zip(&tuples) {
        create_and_cycle(&server, name, tuple);
    }
    let per_session = ALLOC.snapshot().live_growth_since(&before) / SESSIONS as i64;
    server.shutdown();

    assert!(
        per_session <= BUDGET_BYTES,
        "each resident session retains {per_session} live bytes > {BUDGET_BYTES}"
    );
}
