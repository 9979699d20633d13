//! Live-memory pin for an editing session: what a copy-on-write session
//! of a shared 48-venue world holds after a 48-row `open_doc` and 32
//! one-row pastes, each an undoable edit. Undo keeps an entry per edit
//! (up to 32), so this figure is where a per-edit undo cost shows. This
//! file holds exactly one test because the global allocator counts
//! every thread in the process.

use copycat_serve::server::{Server, ServerConfig};
use copycat_services::{World, WorldConfig};
use copycat_util::bench::CountingAlloc;
use copycat_util::json::Json;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc::new();

const WORLD_SEED: u64 = 2009;
const VENUES: usize = 48;
const PASTES: usize = 32;
/// Sessions measured together (the per-session figure is their mean).
const SESSIONS: usize = 4;
/// Live bytes one session may retain after its pastes. It held 326,985
/// while every edit first copied the whole workspace, plan, tab queries
/// and edge costs into an undo snapshot; 235,344 since undo records only
/// what each edit changed, here mostly the suggested rows each paste's
/// refresh removed (28,220 with no undo entries at all); 235,192 since
/// an import no longer keeps its lower-ranked wrapper hypotheses.
const BUDGET_BYTES: i64 = 235_192;

fn answer(server: &Server, line: &str) {
    let resp = server.handle_line(line);
    let j = Json::parse(&resp).expect("json response");
    assert_eq!(j["ok"].as_bool(), Some(true), "request failed: {line} -> {resp}");
}

/// Create session `name` over the shared world, open the shelters as a
/// sheet and paste one row at a time.
fn create_and_paste(server: &Server, name: &str, rows: &[Vec<String>]) {
    let session = Json::str(name).to_string();
    let row_json = |row: &[String]| Json::Arr(row.iter().map(|c| Json::str(c.as_str())).collect());
    let rows_json = Json::Arr(rows.iter().map(|r| row_json(r)).collect());
    answer(
        server,
        &format!(
            r#"{{"id":0,"op":"create_session","session":{session},"world":{{"seed":{WORLD_SEED},"venues":{VENUES}}}}}"#
        ),
    );
    answer(
        server,
        &format!(
            r#"{{"id":1,"op":"open_doc","session":{session},"name":"ShelterSheet","headers":["Name","Street","City"],"rows":{rows_json}}}"#
        ),
    );
    for i in 0..PASTES {
        let values = row_json(&rows[i % rows.len()]);
        answer(
            server,
            &format!(r#"{{"id":{},"op":"paste","session":{session},"doc":0,"values":{values}}}"#, i + 2),
        );
    }
}

#[test]
fn editing_session_live_bytes_budget() {
    let world = World::generate(&WorldConfig { seed: WORLD_SEED, venues: VENUES, ..WorldConfig::default() });
    let rows = world.shelter_rows();
    let server = Server::new(ServerConfig::default());
    // The first session builds the shared world and warms the server's
    // pooled buffers; it is not counted.
    create_and_paste(&server, "warm", &rows);
    let names: Vec<String> = (0..SESSIONS).map(|j| format!("edit-{j}")).collect();
    let before = ALLOC.snapshot();
    for name in &names {
        create_and_paste(&server, name, &rows);
    }
    let per_session = ALLOC.snapshot().live_growth_since(&before) / SESSIONS as i64;
    server.shutdown();
    eprintln!("live bytes per editing session: {per_session}");

    assert!(
        per_session <= BUDGET_BYTES,
        "each editing session retains {per_session} live bytes > {BUDGET_BYTES}"
    );
}
