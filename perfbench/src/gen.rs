//! Seeded request generation: the benchmark seed decides every request
//! line the program sees, and the program receives nothing else.

use copycat_serve::protocol::Op;
use copycat_services::{World, WorldConfig};
use copycat_util::json::Json;
use copycat_util::rng::{Rng, SeedableRng, StdRng};

/// Placeholder a `load_session` line carries until the client splices
/// in the snapshot its own `save_session` returned.
pub const SNAPSHOT_SLOT: &str = "\"@snapshot@\"";

/// The one shared world every `hot_read` session overlays.
pub const HOT_WORLD_SEED: u64 = 2009;
/// Venues in the shared `hot_read` world.
pub const HOT_WORLD_VENUES: usize = 48;
/// Resident copy-on-write sessions in `hot_read`.
pub const HOT_SESSIONS: usize = 2048;

/// Venues in each flat private world (`integrate`, durable histories): the
/// seed varies the world's contents, not its size.
const PRIVATE_WORLD_VENUES: usize = 10;

/// Edit cycles per durable session. Each session's journaled history is
/// fixed by this (130 records: two snapshots at the default
/// `snapshot_every=64`), so the WAL and snapshot costs it measures
/// never grow with the speed of the commit path.
pub const EDIT_CYCLES: usize = 28;
/// Leading edit cycles that also accept a column suggestion.
const EDIT_ACCEPTS: usize = 2;

/// The id stream of the traced run's probes.
pub const PROBE_STREAM: usize = 1000;

/// One request of a script.
#[derive(Debug, Clone, PartialEq)]
pub struct Step {
    /// The request class.
    pub op: Op,
    /// The request id (unique within a run; the span cause).
    pub id: u64,
    /// The request line, possibly holding [`SNAPSHOT_SLOT`].
    pub line: String,
}

/// Request ids unique within a run: each client draws from its own range.
#[derive(Debug)]
pub struct Ids {
    next: u64,
}

impl Ids {
    /// The id range of client `c`.
    pub fn for_client(c: usize) -> Ids {
        Ids {
            next: (c as u64 + 1) << 32,
        }
    }

    /// The next id.
    pub fn next_id(&mut self) -> u64 {
        self.next += 1;
        self.next
    }
}

/// The generator for one client: its own stream derived from the seed.
pub fn client_rng(seed: u64, client: usize) -> StdRng {
    StdRng::seed_from_u64(seed ^ (0x9E37_79B9_7F4A_7C15u64.wrapping_mul(client as u64 + 1)))
}

fn esc(s: &str) -> String {
    Json::str(s).to_string()
}

fn row_json(row: &[String]) -> String {
    let cells: Vec<String> = row.iter().map(|c| esc(c)).collect();
    format!("[{}]", cells.join(","))
}

fn rows_json(rows: &[Vec<String>]) -> String {
    let rendered: Vec<String> = rows.iter().map(|r| row_json(r)).collect();
    format!("[{}]", rendered.join(","))
}

/// A request line: `{"id":…,"op":…,<rest>}`.
pub fn line(id: u64, op: Op, rest: &str) -> String {
    format!("{{\"id\":{id},\"op\":\"{}\",{rest}}}", op.as_str())
}

/// `"session":"<name>"` followed by any further members.
fn session_rest(session: &str, more: &str) -> String {
    if more.is_empty() {
        format!("\"session\":{}", esc(session))
    } else {
        format!("\"session\":{},{more}", esc(session))
    }
}

struct Script<'a> {
    session: &'a str,
    ids: &'a mut Ids,
    steps: Vec<Step>,
}

impl Script<'_> {
    fn push(&mut self, op: Op, more: &str) {
        let id = self.ids.next_id();
        let line = line(id, op, &session_rest(self.session, more));
        self.steps.push(Step { op, id, line });
    }

    /// Import the shelter sheet: two pasted examples, accept, name,
    /// type, commit (the paper's §3 import loop).
    fn import_shelters(&mut self, shelters: &[Vec<String>], rng: &mut StdRng) {
        self.push(
            Op::OpenDoc,
            &format!(
                "\"name\":\"ShelterSheet\",\"headers\":[\"Name\",\"Street\",\"City\"],\"rows\":{}",
                rows_json(shelters)
            ),
        );
        let first = rng.gen_range(0..shelters.len());
        let second = (first + 1 + rng.gen_range(0..shelters.len() - 1)) % shelters.len();
        for r in [first, second] {
            self.push(
                Op::Paste,
                &format!("\"doc\":0,\"values\":{}", row_json(&shelters[r])),
            );
        }
        self.push(Op::AcceptRows, "");
        self.push(Op::NameColumn, "\"col\":0,\"name\":\"Name\"");
        self.push(Op::SetColumnType, "\"col\":2,\"type\":\"PR-City\"");
        self.push(Op::CommitSource, "\"name\":\"Shelters\"");
    }

    /// Import the contact sheet (shares venue names with the shelters).
    fn import_contacts(&mut self, contacts: &[Vec<String>], rng: &mut StdRng) {
        self.push(
            Op::OpenDoc,
            &format!(
                "\"name\":\"ContactSheet\",\"headers\":[\"Person\",\"Phone\",\"Venue\"],\"rows\":{}",
                rows_json(contacts)
            ),
        );
        let r = rng.gen_range(0..contacts.len());
        self.push(
            Op::Paste,
            &format!("\"doc\":1,\"values\":{}", row_json(&contacts[r])),
        );
        self.push(Op::AcceptRows, "");
        self.push(Op::NameColumn, "\"col\":2,\"name\":\"Name\"");
        self.push(Op::CommitSource, "\"name\":\"Contacts\"");
    }

    /// A tuple drawn from both sources: a cross-source Steiner query.
    fn autocomplete(
        &mut self,
        shelters: &[Vec<String>],
        contacts: &[Vec<String>],
        rng: &mut StdRng,
    ) {
        let street = &shelters[rng.gen_range(0..shelters.len())][1];
        let phone = &contacts[rng.gen_range(0..contacts.len())][1];
        self.push(
            Op::Autocomplete,
            &format!("\"values\":[{},{}],\"k\":3", esc(street), esc(phone)),
        );
    }
}

/// A flat private world for one session.
fn private_world(rng: &mut StdRng) -> (u64, usize, World) {
    let seed = rng.gen_range(1..1_000_000u64);
    let venues = PRIVATE_WORLD_VENUES;
    let world = World::generate(&WorldConfig {
        seed,
        venues,
        ..WorldConfig::default()
    });
    (seed, venues, world)
}

/// `integrate`: the paper's whole loop on a fresh session over a flat
/// private world — import, column completion, second import, cold
/// query discovery with feedback, provenance, export, transform
/// learning, and a save/close/load round trip.
pub fn integrate_script(session: &str, rng: &mut StdRng, ids: &mut Ids) -> Vec<Step> {
    let (seed, venues, world) = private_world(rng);
    let (shelters, contacts) = (world.shelter_rows(), world.contact_rows());
    let mut s = Script {
        session,
        ids,
        steps: Vec::new(),
    };
    s.push(Op::CreateSession, "");
    s.push(
        Op::RegisterWorld,
        &format!("\"seed\":{seed},\"venues\":{venues}"),
    );
    s.import_shelters(&shelters, rng);
    s.push(Op::ColumnSuggestions, "");
    s.push(Op::AcceptColumn, "\"index\":0");
    s.import_contacts(&contacts, rng);
    s.autocomplete(&shelters, &contacts, rng);
    s.push(Op::Feedback, "\"accept\":0");
    s.push(Op::Explain, "\"row\":0");
    s.push(Op::Export, "\"format\":\"csv\"");
    let examples: Vec<String> = contacts
        .iter()
        .take(3)
        .map(|r| format!("[{v},{v}]", v = esc(&r[2])))
        .collect();
    s.push(
        Op::LearnTransform,
        &format!(
            "\"from\":\"Contacts\",\"from_col\":\"Name\",\"to\":\"Shelters\",\"to_col\":\"Name\",\
             \"examples\":[{}]",
            examples.join(",")
        ),
    );
    s.push(Op::SaveSession, "");
    s.push(Op::CloseSession, "");
    s.push(Op::LoadSession, &format!("\"snapshot\":{SNAPSHOT_SLOT}"));
    s.push(Op::CloseSession, "");
    s.steps
}

/// A durable session: one long-lived session's fixed-length history — two
/// imports, then [`EDIT_CYCLES`] cycles of journaled edits interleaved
/// with reads.
pub fn durable_script(session: &str, rng: &mut StdRng, ids: &mut Ids) -> Vec<Step> {
    let (seed, venues, world) = private_world(rng);
    let (shelters, contacts) = (world.shelter_rows(), world.contact_rows());
    let mut s = Script {
        session,
        ids,
        steps: Vec::new(),
    };
    s.push(Op::CreateSession, "");
    s.push(
        Op::RegisterWorld,
        &format!("\"seed\":{seed},\"venues\":{venues}"),
    );
    s.import_shelters(&shelters, rng);
    s.import_contacts(&contacts, rng);
    for cycle in 0..EDIT_CYCLES {
        if cycle < EDIT_ACCEPTS {
            s.push(Op::ColumnSuggestions, "");
            s.push(Op::AcceptColumn, "\"index\":0");
        }
        s.autocomplete(&shelters, &contacts, rng);
        s.push(Op::Feedback, "\"accept\":0");
        s.push(
            Op::NameColumn,
            &format!("\"col\":0,\"name\":\"Person {cycle}\""),
        );
        let ty = if cycle % 2 == 0 {
            "PR-Person"
        } else {
            "PR-Phone"
        };
        s.push(Op::SetColumnType, &format!("\"col\":1,\"type\":\"{ty}\""));
        s.push(Op::Render, "");
        s.push(Op::Export, "\"format\":\"csv\"");
    }
    s.steps
}

/// The read probes a durable session must answer identically
/// before a crash and after recovery.
pub fn durable_probes(session: &str, ids: &mut Ids) -> Vec<Step> {
    let mut s = Script {
        session,
        ids,
        steps: Vec::new(),
    };
    s.push(Op::Render, "");
    s.push(Op::Export, "\"format\":\"csv\"");
    s.push(Op::Export, "\"format\":\"json\"");
    s.steps
}

/// One resident `hot_read` session: its creation line and the request
/// bodies (everything after the id) of its read cycle.
#[derive(Debug, Clone, PartialEq)]
pub struct HotSession {
    /// Session name.
    pub name: String,
    /// `create_session` over the shared world, without the id.
    pub create: String,
    /// The cycle: (class, request body after the id).
    pub cycle: Vec<(Op, String)>,
}

/// The `hot_read` sessions. Each is a copy-on-write overlay of the
/// shared world with its own autocomplete tuple, drawn by the seed.
pub fn hot_sessions(seed: u64) -> Vec<HotSession> {
    let world = World::generate(&WorldConfig {
        seed: HOT_WORLD_SEED,
        venues: HOT_WORLD_VENUES,
        ..WorldConfig::default()
    });
    let (shelters, contacts) = (world.shelter_rows(), world.contact_rows());
    let mut rng = StdRng::seed_from_u64(seed);
    (0..HOT_SESSIONS)
        .map(|j| {
            let name = format!("hot-{j}");
            let body = |op: Op, more: &str| {
                (
                    op,
                    format!("\"op\":\"{}\",{}", op.as_str(), session_rest(&name, more)),
                )
            };
            let street = &shelters[rng.gen_range(0..shelters.len())][1];
            let phone = &contacts[rng.gen_range(0..contacts.len())][1];
            let cycle = vec![
                body(
                    Op::Autocomplete,
                    &format!("\"values\":[{},{}],\"k\":3", esc(street), esc(phone)),
                ),
                body(Op::Render, ""),
                body(Op::Export, "\"format\":\"csv\""),
                body(Op::SessionStats, ""),
                body(Op::ColumnSuggestions, ""),
            ];
            let create = body(
                Op::CreateSession,
                &format!("\"world\":{{\"seed\":{HOT_WORLD_SEED},\"venues\":{HOT_WORLD_VENUES}}}"),
            )
            .1;
            HotSession {
                name,
                create,
                cycle,
            }
        })
        .collect()
}

/// `{"id":<id>,<body>}`.
pub fn with_id(id: u64, body: &str) -> String {
    format!("{{\"id\":{id},{body}}}")
}

/// The order in which client `c` of `clients` visits its share of the
/// hot sessions (a seeded permutation, repeated).
pub fn hot_visit_order(seed: u64, client: usize, clients: usize) -> Vec<usize> {
    let mut order: Vec<usize> = (client..HOT_SESSIONS).step_by(clients.max(1)).collect();
    client_rng(seed, client).shuffle(&mut order);
    order
}
