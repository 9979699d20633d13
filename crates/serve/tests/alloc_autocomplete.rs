//! Counting-allocator pin for the suggestion path: one warm
//! `autocomplete` (a query-cache hit whose discovered queries are
//! planned again, with service-free row counts taken from the cache)
//! stays within a fixed allocation budget, on a
//! copy-on-write session of a shared world and on a flat engine holding
//! the same relations and services. The warm reads of the `hot_read`
//! benchmark cycle that follow it on the shared session — `render`,
//! `export` as csv and `session_stats` — each keep a budget too. This
//! file holds exactly one test because the global allocator counts
//! every thread in the process.

use copycat_core::WorldBase;
use copycat_serve::server::{Server, ServerConfig};
use copycat_services::{World, WorldConfig};
use copycat_util::bench::CountingAlloc;
use copycat_util::json::Json;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc::new();

const WORLD_SEED: u64 = 2009;
const VENUES: usize = 48;
/// Allocations one warm autocomplete may make on either side. It made
/// 56 on each while the answer was built as an owned `Json` tree and
/// then serialized; 35 since it is written straight into the response.
const BUDGET: u64 = 35;
/// Allowed shared ÷ flat allocation ratio: the overlay adds ~nothing.
const MAX_RATIO: f64 = 1.1;
/// Allocations a warm `render` of the shared session may make (8 with
/// the `Json` tree, 5 written straight into the response).
const RENDER_BUDGET: u64 = 5;
/// Allocations a warm csv `export` of the shared session may make (8
/// with the `Json` tree, 2 written straight into the response).
const EXPORT_BUDGET: u64 = 2;
/// Allocations a warm `session_stats` of the shared session may make
/// (22 with the `Json` tree, 5 written straight into the response, 1
/// since the relations are counted without collecting their names).
const STATS_BUDGET: u64 = 1;

/// The response with its id removed, for comparing two sessions.
fn answer(resp: &str) -> String {
    let j = Json::parse(resp).expect("json response");
    assert_eq!(j["ok"].as_bool(), Some(true), "request failed: {resp}");
    j["result"].to_string()
}

/// Median allocations of a warm `op` on `session` (`rest` holds its
/// parameters, each preceded by a comma), and its answer.
fn warm_allocs(server: &Server, session: &str, op: &str, rest: &str) -> (u64, String) {
    let line = |id: u32| {
        format!(r#"{{"id":{id},"op":"{op}","session":{}{rest}}}"#, Json::str(session))
    };
    // The first call warms the caches (the query cache for an
    // autocomplete); the rest are hits.
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
    let values = format!(
        r#","values":[{},{}],"k":3"#,
        Json::str(street.as_str()),
        Json::str(phone.as_str())
    );

    let server = Server::new(ServerConfig::default());
    let create = format!(
        r#"{{"id":0,"op":"create_session","session":"shared","world":{{"seed":{WORLD_SEED},"venues":{VENUES}}}}}"#
    );
    answer(&server.handle_line(&create));
    // The same relations, graph and services, owned by the session.
    let flat = WorldBase::flat_engine(&config);
    server.registry().create("flat", flat).expect("create flat session");

    let (shared, shared_answer) = warm_allocs(&server, "shared", "autocomplete", &values);
    let (flat, flat_answer) = warm_allocs(&server, "flat", "autocomplete", &values);
    let (render, _) = warm_allocs(&server, "shared", "render", "");
    let (export, _) = warm_allocs(&server, "shared", "export", r#","format":"csv""#);
    let (stats, _) = warm_allocs(&server, "shared", "session_stats", "");
    server.shutdown();
    eprintln!(
        "allocations: autocomplete shared {shared}, flat {flat}; render {render}, \
         export csv {export}, session_stats {stats}"
    );

    assert_eq!(shared_answer, flat_answer, "both sessions must discover the same queries");
    let queries = Json::parse(&shared_answer).expect("json")["queries"]
        .as_array()
        .map_or(0, <[Json]>::len);
    assert!(queries > 0, "the autocomplete must discover queries: {shared_answer}");
    assert!(shared <= BUDGET, "shared-world autocomplete: {shared} allocations > {BUDGET}");
    assert!(flat <= BUDGET, "flat autocomplete: {flat} allocations > {BUDGET}");
    let ratio = shared as f64 / flat as f64;
    assert!(ratio <= MAX_RATIO, "shared ÷ flat = {shared}/{flat} = {ratio:.2} > {MAX_RATIO}");
    assert!(render <= RENDER_BUDGET, "warm render: {render} allocations > {RENDER_BUDGET}");
    assert!(export <= EXPORT_BUDGET, "warm csv export: {export} allocations > {EXPORT_BUDGET}");
    assert!(stats <= STATS_BUDGET, "warm session_stats: {stats} allocations > {STATS_BUDGET}");
}
