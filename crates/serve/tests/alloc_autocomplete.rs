//! Counting-allocator pin for the suggestion path: one warm
//! `autocomplete` (a query-cache hit whose discovered queries are still
//! planned and executed) stays within a fixed allocation budget, on a
//! copy-on-write session of a shared world and on a flat engine holding
//! the same relations and services. This file holds exactly one test
//! because the global allocator counts every thread in the process.

use copycat_core::WorldBase;
use copycat_serve::server::{Server, ServerConfig};
use copycat_services::{World, WorldConfig};
use copycat_util::bench::CountingAlloc;
use copycat_util::json::Json;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc::new();

const WORLD_SEED: u64 = 2009;
const VENUES: usize = 48;
/// Allocations one warm autocomplete may make on either side.
const BUDGET: u64 = 300;
/// Allowed shared ÷ flat allocation ratio: the overlay adds ~nothing.
const MAX_RATIO: f64 = 1.1;

/// The response with its id removed, for comparing two sessions.
fn answer(resp: &str) -> String {
    let j = Json::parse(resp).expect("json response");
    assert_eq!(j["ok"].as_bool(), Some(true), "request failed: {resp}");
    j["result"].to_string()
}

/// Median allocations of a warm autocomplete on `session`, and its answer.
fn warm_allocs(server: &Server, session: &str, values: &str) -> (u64, String) {
    let line = |id: u32| {
        format!(
            r#"{{"id":{id},"op":"autocomplete","session":{},"values":{values},"k":3}}"#,
            Json::str(session)
        )
    };
    // The first call fills the query cache; the rest are hits.
    let first = answer(&server.handle_line(&line(0)));
    let mut counts = Vec::new();
    for id in 1..=9 {
        let l = line(id);
        let before = ALLOC.snapshot();
        let resp = server.handle_line(&l);
        counts.push(ALLOC.snapshot().allocs_since(&before));
        assert_eq!(answer(&resp), first, "warm answers must not drift");
    }
    counts.sort_unstable();
    (counts[counts.len() / 2], first)
}

#[test]
fn warm_autocomplete_allocation_budget() {
    let config = WorldConfig { seed: WORLD_SEED, venues: VENUES, ..WorldConfig::default() };
    let world = World::generate(&config);
    let (street, phone) = (&world.shelter_rows()[5][1], &world.contact_rows()[7][1]);
    let values = format!("[{},{}]", Json::str(street.as_str()), Json::str(phone.as_str()));

    let server = Server::new(ServerConfig::default());
    let create = format!(
        r#"{{"id":0,"op":"create_session","session":"shared","world":{{"seed":{WORLD_SEED},"venues":{VENUES}}}}}"#
    );
    answer(&server.handle_line(&create));
    // The same relations, graph and services, owned by the session.
    let flat = WorldBase::flat_engine(&config);
    server.registry().create("flat", flat).expect("create flat session");

    let (shared, shared_answer) = warm_allocs(&server, "shared", &values);
    let (flat, flat_answer) = warm_allocs(&server, "flat", &values);
    server.shutdown();

    assert_eq!(shared_answer, flat_answer, "both sessions must discover the same queries");
    let queries = Json::parse(&shared_answer).expect("json")["queries"]
        .as_array()
        .map_or(0, <[Json]>::len);
    assert!(queries > 0, "the autocomplete must discover queries: {shared_answer}");
    assert!(shared <= BUDGET, "shared-world autocomplete: {shared} allocations > {BUDGET}");
    assert!(flat <= BUDGET, "flat autocomplete: {flat} allocations > {BUDGET}");
    let ratio = shared as f64 / flat as f64;
    assert!(ratio <= MAX_RATIO, "shared ÷ flat = {shared}/{flat} = {ratio:.2} > {MAX_RATIO}");
}
