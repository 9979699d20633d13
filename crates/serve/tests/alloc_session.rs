//! Counting-allocator pin for the import path: a flat `create_session`,
//! the second `paste` of the paste-to-export loop (the step that runs
//! structure learning and type recognition), a warm `column_suggestions`,
//! and the loop's `save_session` and `load_session` each stay within a
//! fixed allocation budget, as does a warm `ping` — the admission and
//! dispatch path alone.
//! The script mirrors the `integrate` benchmark workload on a 10-venue
//! world. This file holds exactly one test because the global allocator
//! counts every thread in the process.

use copycat_serve::server::{Server, ServerConfig};
use copycat_services::{World, WorldConfig};
use copycat_util::bench::CountingAlloc;
use copycat_util::json::Json;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc::new();

const WORLD_SEED: u64 = 3;
const VENUES: usize = 10;
/// Allocations a flat `create_session` may make once the process has
/// trained the built-in types.
const CREATE_BUDGET: u64 = 64;
/// Allocations the second shelter `paste` may make.
const PASTE_BUDGET: u64 = 600;
/// Allocations a second `column_suggestions` on the committed shelters
/// may make. It made 925 while the engine cloned the whole list, row
/// values and provenance included, on every call; 745 since it lends
/// the list it keeps.
const SUGGEST_BUDGET: u64 = 800;
/// Allocations `save_session` may make. It made 681 while the snapshot
/// was cloned into a `SavedSession`, built as an owned `Json` tree and
/// copied into the response; 29 since it streams through one writer.
const SAVE_BUDGET: u64 = 32;
/// Allocations `load_session` of the loop's snapshot may make. It made
/// 959 while the snapshot became an owned `Json` tree, then a
/// `SavedSession`, then cloned engine state; 286 since one `ZDoc` walk
/// moves each value into the engine.
const LOAD_BUDGET: u64 = 315;
/// Allocations a warm `ping` may make.
const PING_BUDGET: u64 = 5;

/// Answer `line`, asserting success; returns the result and the
/// allocations the request made.
fn counted(server: &Server, line: &str) -> (Json, u64) {
    let before = ALLOC.snapshot();
    let resp = server.handle_line(line);
    let allocs = ALLOC.snapshot().allocs_since(&before);
    let j = Json::parse(&resp).expect("json response");
    assert_eq!(j["ok"].as_bool(), Some(true), "request failed: {line} -> {resp}");
    (j["result"].clone(), allocs)
}

fn rows_json(rows: &[Vec<String>]) -> String {
    Json::Arr(rows.iter().map(|r| row_json(r)).collect()).to_string()
}

fn row_json(row: &[String]) -> Json {
    Json::Arr(row.iter().map(|c| Json::str(c.as_str())).collect())
}

#[test]
fn import_path_allocation_budget() {
    let world = World::generate(&WorldConfig { seed: WORLD_SEED, venues: VENUES, ..WorldConfig::default() });
    let (shelters, contacts) = (world.shelter_rows(), world.contact_rows());
    let server = Server::new(ServerConfig::default());
    let req = |id: u32, op: &str, rest: &str| {
        format!(r#"{{"id":{id},"op":"{op}","session":"s"{rest}}}"#)
    };

    // The first flat session in the process trains the built-ins.
    counted(&server, r#"{"id":0,"op":"create_session","session":"warm"}"#);
    let (_, create) = counted(&server, &req(1, "create_session", ""));
    counted(&server, &req(2, "register_world", &format!(r#","seed":{WORLD_SEED},"venues":{VENUES}"#)));
    counted(
        &server,
        &req(
            3,
            "open_doc",
            &format!(
                r#","name":"ShelterSheet","headers":["Name","Street","City"],"rows":{}"#,
                rows_json(&shelters)
            ),
        ),
    );
    counted(&server, &req(4, "paste", &format!(r#","doc":0,"values":{}"#, row_json(&shelters[0]))));
    let (_, paste) =
        counted(&server, &req(5, "paste", &format!(r#","doc":0,"values":{}"#, row_json(&shelters[1]))));
    counted(&server, &req(6, "accept_rows", ""));
    counted(&server, &req(7, "name_column", r#","col":0,"name":"Name""#));
    counted(&server, &req(8, "set_column_type", r#","col":2,"type":"PR-City""#));
    counted(&server, &req(9, "commit_source", r#","name":"Shelters""#));
    counted(&server, &req(10, "column_suggestions", ""));
    let (_, suggest) = counted(&server, &req(11, "column_suggestions", ""));
    counted(&server, &req(12, "accept_column", r#","index":0"#));
    counted(
        &server,
        &req(
            13,
            "open_doc",
            &format!(
                r#","name":"ContactSheet","headers":["Person","Phone","Venue"],"rows":{}"#,
                rows_json(&contacts)
            ),
        ),
    );
    counted(&server, &req(14, "paste", &format!(r#","doc":1,"values":{}"#, row_json(&contacts[0]))));
    counted(&server, &req(15, "accept_rows", ""));
    counted(&server, &req(16, "name_column", r#","col":2,"name":"Name""#));
    counted(&server, &req(17, "commit_source", r#","name":"Contacts""#));
    let values = Json::Arr(vec![Json::str(shelters[2][1].as_str()), Json::str(contacts[3][1].as_str())]);
    counted(&server, &req(18, "autocomplete", &format!(r#","values":{values},"k":3"#)));
    counted(&server, &req(19, "feedback", r#","accept":0"#));
    let examples: Vec<Json> = contacts
        .iter()
        .take(3)
        .map(|r| Json::Arr(vec![Json::str(r[2].as_str()), Json::str(r[2].as_str())]))
        .collect();
    counted(
        &server,
        &req(
            20,
            "learn_transform",
            &format!(
                r#","from":"Contacts","from_col":"Name","to":"Shelters","to_col":"Name","examples":{}"#,
                Json::Arr(examples)
            ),
        ),
    );
    let (saved, save) = counted(&server, &req(21, "save_session", ""));
    let snapshot = saved["snapshot"].as_str().expect("snapshot string").to_string();
    counted(&server, &req(22, "close_session", ""));
    let load = req(23, "load_session", &format!(r#","snapshot":{}"#, Json::str(snapshot.as_str())));
    let (loaded, load) = counted(&server, &load);
    counted(&server, r#"{"id":24,"op":"ping"}"#);
    let (_, ping) = counted(&server, r#"{"id":25,"op":"ping"}"#);
    server.shutdown();

    assert_eq!(loaded["relations"].as_f64(), Some(2.0), "both sources restored: {loaded}");
    assert!(create <= CREATE_BUDGET, "flat create_session: {create} allocations > {CREATE_BUDGET}");
    assert!(paste <= PASTE_BUDGET, "second paste: {paste} allocations > {PASTE_BUDGET}");
    assert!(
        suggest <= SUGGEST_BUDGET,
        "warm column_suggestions: {suggest} allocations > {SUGGEST_BUDGET}"
    );
    assert!(save <= SAVE_BUDGET, "save_session: {save} allocations > {SAVE_BUDGET}");
    assert!(load <= LOAD_BUDGET, "load_session: {load} allocations > {LOAD_BUDGET}");
    assert!(ping <= PING_BUDGET, "warm ping: {ping} allocations > {PING_BUDGET}");
    eprintln!(
        "allocations: create_session {create}, paste {paste}, warm column_suggestions {suggest}, \
         save_session {save}, load_session {load}, ping {ping}"
    );
}
