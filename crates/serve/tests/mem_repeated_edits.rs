//! Live-memory pin for edits that open no undo entry of their own: a
//! column rename, a type pick and query feedback join the undo entry of
//! the last `commit_source`, which must keep one inverse per name, type
//! and edge cost however often they change. A client that loops them
//! then holds the session's memory flat. This file holds exactly one
//! test because the global allocator counts every thread in the process.

use copycat_serve::server::{Server, ServerConfig};
use copycat_services::{World, WorldConfig};
use copycat_util::bench::CountingAlloc;
use copycat_util::json::Json;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc::new();

const WORLD_SEED: u64 = 3;
const VENUES: usize = 10;

/// Answer `line`, asserting success; returns the result.
fn answer(server: &Server, line: &str) -> Json {
    let resp = server.handle_line(line);
    let j = Json::parse(&resp).expect("json response");
    assert_eq!(j["ok"].as_bool(), Some(true), "request failed: {line} -> {resp}");
    j["result"].clone()
}

fn row_json(row: &[String]) -> Json {
    Json::Arr(row.iter().map(|c| Json::str(c.as_str())).collect())
}

fn req(op: &str, rest: &str) -> String {
    format!(r#"{{"id":0,"op":"{op}","session":"s"{rest}}}"#)
}

/// Import `rows` from a sheet as source `name`: open it, paste the first
/// row, accept the proposed rows, name column `col` "Name" and commit.
fn import(server: &Server, doc: usize, name: &str, headers: &str, rows: &[Vec<String>], col: usize) {
    let rows_json = Json::Arr(rows.iter().map(|r| row_json(r)).collect());
    answer(server, &req("open_doc", &format!(r#","name":"{name}Sheet","headers":{headers},"rows":{rows_json}"#)));
    answer(server, &req("paste", &format!(r#","doc":{doc},"values":{}"#, row_json(&rows[0]))));
    answer(server, &req("accept_rows", ""));
    answer(server, &req("name_column", &format!(r#","col":{col},"name":"Name""#)));
    answer(server, &req("commit_source", &format!(r#","name":"{name}""#)));
}

/// `rounds` rounds of a rename, a type pick and a feedback, each
/// undoing the previous round's values, so an even count leaves the
/// session's visible state where it started. Returns how many feedback
/// constraints moved edge costs.
fn edit(server: &Server, rounds: usize) -> f64 {
    let mut moved = 0.0;
    for i in 0..rounds {
        let (name, ty) = [("Venue", "PR-City"), ("Place", "PR-Name")][i % 2];
        let renamed = answer(server, &req("name_column", &format!(r#","col":0,"name":"{name}""#)));
        assert_eq!(renamed["renamed"].as_bool(), Some(true));
        answer(server, &req("set_column_type", &format!(r#","col":1,"type":"{ty}""#)));
        let feedback = answer(server, &req("feedback", &format!(r#","accept":{}"#, i % 2)));
        moved += feedback["constraints"].as_f64().unwrap_or(0.0);
    }
    moved
}

#[test]
fn repeated_edits_keep_live_bytes_flat() {
    let world = World::generate(&WorldConfig { seed: WORLD_SEED, venues: VENUES, ..WorldConfig::default() });
    let (shelters, contacts) = (world.shelter_rows(), world.contact_rows());
    let server = Server::new(ServerConfig::default());
    answer(&server, &req("create_session", ""));
    answer(&server, &req("register_world", &format!(r#","seed":{WORLD_SEED},"venues":{VENUES}"#)));
    import(&server, 0, "Shelters", r#"["Name","Street","City"]"#, &shelters, 0);
    // Two copies of the contacts give a phone number two queries.
    import(&server, 1, "Contacts", r#"["Person","Phone","Venue"]"#, &contacts, 2);
    import(&server, 2, "Phonebook", r#"["Person","Phone","Venue"]"#, &contacts, 2);
    let values = Json::Arr(vec![Json::str(shelters[2][1].as_str()), Json::str(contacts[3][1].as_str())]);
    let found = answer(&server, &req("autocomplete", &format!(r#","values":{values},"k":3"#)));
    let queries = found["queries"].as_array().map_or(0, <[Json]>::len);
    assert!(queries >= 2, "feedback needs a query to reject: {found}");
    // Each slot's first change records its inverse, and the server's
    // buffers grow to fit; neither is counted.
    edit(&server, 2);
    let before = ALLOC.snapshot();
    let moved = edit(&server, 8);
    let few = ALLOC.snapshot().live_growth_since(&before);
    let moved = moved + edit(&server, 56);
    let many = ALLOC.snapshot().live_growth_since(&before);
    server.shutdown();
    eprintln!("live growth after 8 rounds of edits: {few} B; after 64: {many} B");

    assert_eq!(moved, 64.0, "every measured feedback moves edge costs");
    assert!(many <= few, "64 rounds of edits retain {many} live bytes, 8 retain {few}");
}
