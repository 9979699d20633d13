//! Golden undo sequences: seeded random runs of engine edits with `undo`
//! interleaved — single undos, bursts longer than the 32-entry bound,
//! undo on an empty stack — and, after every step, what the engine
//! shows: the workspace (tab list and active tab) as rendered, the
//! active tab's csv export, the column suggestions' labels and costs,
//! the saved session, the undo depth and the step's own answer (for
//! `undo`, its return). Each step's observations are written as two
//! CRC-32 digests; the expected text is `golden/undo_journal.txt`.
//!
//! The edits cover every undoable engine call and the unrecorded edits
//! an undo must revert with them: `paste_example`, row acceptance and
//! rejection, column naming and typing, `commit_source`, `switch_tab`,
//! column suggestions with acceptance and rejection, `prefer_query`,
//! `learn_transform`, `accept_transform`, `edit_cell`, `reject_tuple`,
//! `set_cleaning`, new import tabs, source tabs, declared links and
//! services registered mid-sequence (one behind the retry layer, whose
//! observed health re-prices its edges). The worlds are a flat
//! 8-venue scenario and copy-on-write sessions of a shared 12-venue
//! world. The golden was captured while undo restored whole-state
//! snapshots, then moved where a refused row rejection stopped costing
//! the oldest entry and where undo started restoring a service's cost
//! hint; there is no update mode: a diff is a behaviour change, and the
//! test prints the first differing line.

use copycat_core::export::to_csv;
use copycat_core::{CopyCat, Scenario, ScenarioConfig, WorldBase};
use copycat_document::corpus::{contact_sheet, render_list, ListSpec, Tier};
use copycat_document::{Document, DocumentId};
use copycat_query::{Renamed, Service};
use copycat_services::{
    CurrencyConverter, Flaky, RetryPolicy, UnitConverter, World, WorldConfig, ZipResolver,
};
use copycat_util::checksum::crc32;
use copycat_util::rng::{Rng, SeedableRng, StdRng};
use std::fmt::Write;
use std::sync::Arc;

const GOLDEN: &str = include_str!("golden/undo_journal.txt");

/// Sequences on the flat scenario, then on sessions of the shared world.
const FLAT_SEQUENCES: u64 = 150;
const SHARED_SEQUENCES: u64 = 60;

/// Names a commit may take; the shared world already holds the first two.
const SOURCES: [&str; 5] = ["Shelters", "Contacts", "Directory", "Imported0", "Imported1"];
const TYPES: [&str; 5] = ["PR-City", "PR-Street", "PR-Zip", "PR-Phone", "PR-Person"];

/// One sequence's engine, its three open documents and their rows.
struct Run {
    cc: CopyCat,
    world: Arc<World>,
    docs: [DocumentId; 3],
    rows: [Vec<Vec<String>>; 3],
    /// Services registered mid-sequence so far.
    registered: usize,
}

fn documents(world: &World, tier: Tier, seed: u64) -> ([Document; 3], [Vec<Vec<String>>; 3]) {
    let shelters = world.shelter_rows();
    let contacts = world.contact_rows();
    let directory = world.directory_rows();
    let spec = ListSpec::new("County Shelters", &["Name", "Street", "City"], tier, seed);
    let docs = [
        Document::Site(render_list(&spec, &shelters).site),
        Document::Sheet(contact_sheet("contacts.xls", &["Person", "Phone", "Venue"], contacts.clone())),
        Document::Sheet(contact_sheet(
            "directory.xls",
            &["Venue", "Phone", "Registered"],
            directory.clone(),
        )),
    ];
    (docs, [shelters, contacts, directory])
}

impl Run {
    fn new(mut cc: CopyCat, world: Arc<World>, tier: Tier, seed: u64) -> Run {
        let (docs, rows) = documents(&world, tier, seed);
        let [a, b, c] = docs;
        let docs = [cc.open(a), cc.open(b), cc.open(c)];
        Run { cc, world, docs, rows, registered: 0 }
    }

    fn flat(seq: u64) -> Run {
        let tier = if seq % 3 == 2 { Tier::Noisy } else { Tier::Clean };
        let seed = 100 + seq % 5;
        let s = Scenario::build(&ScenarioConfig { seed, venues: 8, tier, contact_name_edits: 0 });
        Run::new(s.engine, s.world, tier, seed)
    }

    fn shared(base: &Arc<WorldBase>, seq: u64) -> Run {
        Run::new(CopyCat::with_base(base), base.world(), Tier::Clean, seq)
    }

    fn tab_rows(&self) -> usize {
        self.cc.workspace().active().rows.len()
    }

    /// Relations a transform or a query may name: committed or shared.
    fn sources(&self) -> Vec<String> {
        let mut names: Vec<String> = self
            .cc
            .catalog()
            .relation_names()
            .into_iter()
            .filter(|n| !n.contains('≈') && self.cc.graph().node_by_name(n).is_some())
            .collect();
        names.sort();
        names
    }

    /// Apply one random step; returns its description and answer.
    fn step(&mut self, rng: &mut StdRng) -> String {
        let sources = self.sources();
        let cols = self.cc.columns().len();
        let rows = self.tab_rows();
        match rng.gen_range(0..44) {
            0..=4 => {
                let d = rng.gen_range(0..3);
                let src = &self.rows[d];
                let mut values = src[rng.gen_range(0..src.len())].clone();
                if rng.gen_bool(0.1) {
                    values.pop();
                } else if rng.gen_bool(0.1) {
                    values[0] = format!("{} Annex", values[0]);
                }
                let refs: Vec<&str> = values.iter().map(String::as_str).collect();
                let n = self.cc.paste_example(self.docs[d], &refs);
                format!("paste doc{d} {:?} -> {n}", values.first())
            }
            5..=7 => format!("accept_rows -> {}", self.cc.accept_suggested_rows()),
            8 | 9 => {
                let i = rng.gen_range(0..rows + 2);
                format!("reject_row {i} -> {}", self.cc.reject_suggested_row(i))
            }
            10 | 11 => {
                let col = rng.gen_range(0..cols + 1);
                let name = ["Venue", "Street", "City", "Phone", "Name", "Zip"][rng.gen_range(0..6)];
                format!("name_column {col} {name} -> {}", self.cc.name_column(col, name))
            }
            12 | 13 => {
                let col = rng.gen_range(0..cols + 1);
                let ty = TYPES[rng.gen_range(0..TYPES.len())];
                format!("set_column_type {col} {ty} -> {}", self.cc.set_column_type(col, ty))
            }
            14..=16 => {
                let name = SOURCES[rng.gen_range(0..SOURCES.len())];
                format!("commit {name} -> {}", self.cc.commit_source(name))
            }
            17 | 18 => {
                let i = rng.gen_range(0..self.cc.workspace().tabs().len() + 1);
                format!("switch_tab {i} -> {}", self.cc.switch_tab(i))
            }
            19 => format!("column_suggestions -> {}", self.cc.column_suggestions().len()),
            20..=22 => {
                let i = rng.gen_range(0..3);
                format!("accept_column {i} -> {}", self.cc.accept_column(i))
            }
            23 | 24 => {
                let i = rng.gen_range(0..3);
                format!("reject_column {i} -> {}", self.cc.reject_column(i))
            }
            25 | 26 => self.prefer_query(rng),
            27 | 28 if !sources.is_empty() => self.learn_transform(&sources, rng),
            29 | 30 => self.accept_transform(rng),
            31..=33 => {
                let row = rng.gen_range(0..rows + 1);
                let col = if rng.gen_bool(0.5) { cols.saturating_sub(1) } else { rng.gen_range(0..cols + 1) };
                let value = match self.cc.workspace().active().rows.get(row) {
                    Some(r) if rng.gen_bool(0.6) => format!("{}!", r.cells[0]),
                    _ => format!("edit{}", rng.gen_range(0..100)),
                };
                format!("edit_cell {row} {col} {value:?} -> {:?}", self.cc.edit_cell(row, col, &value))
            }
            34 => {
                let row = rng.gen_range(0..rows + 1);
                let r = self.cc.reject_tuple(row);
                format!("reject_tuple {row} -> {:?} {:?}", r.queries, r.refined_sources)
            }
            35 => {
                let on = rng.gen_bool(0.5);
                self.cc.set_cleaning(on);
                format!("set_cleaning {on}")
            }
            36..=39 => {
                let n = rng.gen_range(1..4);
                let done = (0..n).filter(|_| self.cc.undo()).count();
                format!("undo x{n} -> {done}")
            }
            40 => {
                // A burst past the undo bound, or enough undos to empty
                // the stack and keep going.
                if rng.gen_bool(0.5) {
                    let n = rng.gen_range(33..40);
                    let accepted: usize = (0..n).map(|_| self.cc.accept_suggested_rows()).sum();
                    format!("accept_rows x{n} -> {accepted}")
                } else {
                    let n = rng.gen_range(30..42);
                    let done = (0..n).filter(|_| self.cc.undo()).count();
                    format!("undo x{n} -> {done}")
                }
            }
            41 => {
                let title = ["import", "more", "scratch"][rng.gen_range(0..3)];
                self.cc.start_import_tab(title);
                format!("start_import_tab {title}")
            }
            42 if !sources.is_empty() => {
                let name = &sources[rng.gen_range(0..sources.len())];
                format!("switch_tab_to_source {name} -> {}", self.cc.switch_tab_to_source(name))
            }
            _ => self.register_or_link(&sources, rng),
        }
    }

    /// The scripted start most sequences take, so later steps find
    /// committed sources and column suggestions: import the shelters
    /// and then the contacts (flat), or open a shared source's tab.
    fn warm_up(&mut self, rng: &mut StdRng) -> Vec<String> {
        let mut steps = Vec::new();
        if self.cc.catalog().relation("Shelters").is_some() {
            if rng.gen_bool(0.7) {
                let name = ["Shelters", "Contacts"][rng.gen_range(0..2)];
                steps.push(format!("switch_tab_to_source {name} -> {}", self.cc.switch_tab_to_source(name)));
            }
            return steps;
        }
        for (d, name, typed) in [(0, "Shelters", 2), (1, "Contacts", 1)] {
            if !rng.gen_bool(0.7) {
                break;
            }
            if d > 0 {
                self.cc.start_import_tab("contacts");
                steps.push("start_import_tab contacts".to_string());
            }
            for _ in 0..rng.gen_range(1..3) {
                let row = &self.rows[d][rng.gen_range(0..self.rows[d].len())];
                let refs: Vec<&str> = row.iter().map(String::as_str).collect();
                let n = self.cc.paste_example(self.docs[d], &refs);
                steps.push(format!("paste doc{d} {:?} -> {n}", row.first()));
            }
            steps.push(format!("accept_rows -> {}", self.cc.accept_suggested_rows()));
            let ty = TYPES[[0, 3][d]];
            steps.push(format!("set_column_type {typed} {ty} -> {}", self.cc.set_column_type(typed, ty)));
            steps.push(format!("commit {name} -> {}", self.cc.commit_source(name)));
        }
        steps
    }

    /// Discover the queries for three pasted tuples (a shelter street
    /// with a contact phone, with a shelter name, and with a directory
    /// phone) and prefer one shown tree over another.
    fn prefer_query(&mut self, rng: &mut StdRng) -> String {
        let mut pick = |d: usize, col: usize| self.rows[d][rng.gen_range(0..self.rows[d].len())][col].clone();
        let tuples = [
            [pick(0, 1), pick(1, 1)],
            [pick(0, 1), pick(0, 0)],
            [pick(0, 1), pick(2, 1)],
        ];
        let trees: Vec<_> = tuples
            .iter()
            .flat_map(|[a, b]| self.cc.discover_queries_for_tuple(&[a, b], 3))
            .map(|q| q.tree)
            .collect();
        if trees.len() < 2 {
            return format!("prefer_query of {} -> skipped", trees.len());
        }
        let (a, b) = (rng.gen_range(0..trees.len()), rng.gen_range(0..trees.len()));
        let updates = self.cc.prefer_query(&trees[a], &[&trees[b]]);
        format!("prefer_query {a}>{b} of {} -> {updates}", trees.len())
    }

    /// Learn a transform edge between two known relations from three
    /// of the source column's values, mapped to themselves or marked.
    fn learn_transform(&mut self, sources: &[String], rng: &mut StdRng) -> String {
        let from = &sources[rng.gen_range(0..sources.len())];
        let to = &sources[rng.gen_range(0..sources.len())];
        let (Some(f), Some(t)) = (self.cc.catalog().relation(from), self.cc.catalog().relation(to))
        else {
            return format!("learn_transform {from}->{to} -> missing");
        };
        if f.schema().arity() == 0 || t.schema().arity() == 0 {
            return format!("learn_transform {from}->{to} -> no columns");
        }
        let fc = f.schema().fields()[rng.gen_range(0..f.schema().arity())].name.clone();
        let tc = t.schema().fields()[rng.gen_range(0..t.schema().arity())].name.clone();
        let fi = f.schema().index_of(&fc).expect("own column");
        let marked = rng.gen_bool(0.3);
        let examples: Vec<(String, String)> = f
            .tuples()
            .iter()
            .take(3)
            .map(|tuple| {
                let v = tuple.values[fi].as_text();
                let out = if marked { format!("{v}!") } else { v.clone() };
                (v, out)
            })
            .collect();
        let learned = self.cc.learn_transform(from, &fc, to, &tc, &examples);
        match learned {
            Some(l) => format!("learn_transform {from}.{fc}->{to}.{tc} -> {:?} {:?}", l.edge, l.cost),
            None => format!("learn_transform {from}.{fc}->{to}.{tc} -> none"),
        }
    }

    /// Type a derived column's value for two committed rows and accept
    /// the suggested transform column.
    fn accept_transform(&mut self, rng: &mut StdRng) -> String {
        let rows = self.cc.workspace().active().committed_rows();
        if rows.len() < 2 || rows[0].is_empty() {
            return "accept_transform -> too few rows".to_string();
        }
        let shape = rng.gen_range(0..2);
        let out = |r: &Vec<String>| match shape {
            0 => format!("{}!", r[0]),
            _ => format!("{} ({})", r[0], r[r.len() - 1]),
        };
        let (a, b) = (out(&rows[0]), out(&rows[1]));
        match self.cc.suggest_transform(&[(0, &a), (1, &b)]) {
            Some(sugg) => {
                let name = ["Label", "Shout"][shape];
                self.cc.accept_transform(name, &sugg);
                format!("accept_transform {name} -> {}", sugg.program)
            }
            None => "accept_transform -> none".to_string(),
        }
    }

    /// Register the next mid-sequence service, or declare a link between
    /// two known relations.
    fn register_or_link(&mut self, sources: &[String], rng: &mut StdRng) -> String {
        if !sources.is_empty() && rng.gen_bool(0.5) {
            let a = &sources[rng.gen_range(0..sources.len())];
            let b = &sources[rng.gen_range(0..sources.len())];
            return format!("declare_link {a}.Name~{b}.Venue -> {}", self.cc.declare_link(a, "Name", b, "Venue"));
        }
        let w = Arc::clone(&self.world);
        let zip = || Arc::new(ZipResolver::new(Arc::clone(&w))) as Arc<dyn Service>;
        self.registered += 1;
        match self.registered {
            1 => {
                let mirror = Arc::new(Renamed::new("zip_mirror", Arc::new(Flaky::new(zip(), 0.4, 10, 7))));
                self.cc.register_resilient(mirror, RetryPolicy::default());
                "register_resilient zip_mirror".to_string()
            }
            2 => {
                self.cc.register_service(Arc::new(Renamed::new("zip_backup", zip())));
                "register zip_backup".to_string()
            }
            3 => {
                self.cc.register_service(Arc::new(CurrencyConverter::new()));
                "register currency".to_string()
            }
            4 => {
                self.cc.register_service(Arc::new(UnitConverter::new()));
                "register units".to_string()
            }
            n => format!("register {n} -> none left"),
        }
    }

    /// The step's observations: the workspace with the active tab's
    /// export and column suggestions, and the saved session.
    fn observe(&mut self) -> (u32, u32) {
        let mut view = format!("{}\n{}\n", self.cc.workspace(), to_csv(self.cc.workspace().active()));
        for s in self.cc.column_suggestions() {
            writeln!(view, "{} {:?}", s.label, s.cost).unwrap();
        }
        (crc32(view.as_bytes()), crc32(self.cc.save_session_json().as_bytes()))
    }
}

fn sequence(out: &mut String, label: &str, mut run: Run, seed: u64) {
    let mut rng = StdRng::seed_from_u64(seed);
    writeln!(out, "== {label} seed {seed}").unwrap();
    let warm = run.warm_up(&mut rng);
    let steps = warm.len() + rng.gen_range(14..26);
    let mut warm = warm.into_iter();
    for i in 0..steps {
        let what = match warm.next() {
            Some(what) => what,
            None => run.step(&mut rng),
        };
        let (view, saved) = run.observe();
        let depth = run.cc.undo_depth();
        writeln!(out, "{i:>2} {what} | {depth} {view:08x} {saved:08x}").unwrap();
    }
}

fn render() -> String {
    let mut out = String::new();
    for seq in 0..FLAT_SEQUENCES {
        sequence(&mut out, &format!("flat {seq}"), Run::flat(seq), 0x5eed_0000 + seq);
    }
    let config = WorldConfig { seed: 2009, venues: 12, ..WorldConfig::default() };
    let base = Arc::new(WorldBase::synthetic(&config));
    for seq in 0..SHARED_SEQUENCES {
        sequence(&mut out, &format!("shared {seq}"), Run::shared(&base, seq), 0x5a4e_0000 + seq);
    }
    out
}

#[test]
fn undo_sequences_match_the_golden_output() {
    let actual = render();
    if actual != GOLDEN {
        for (i, (a, g)) in actual.lines().zip(GOLDEN.lines()).enumerate() {
            if a != g {
                panic!("first difference at line {}:\n  actual: {a}\n  golden: {g}", i + 1);
            }
        }
        panic!(
            "output has {} lines, golden has {}",
            actual.lines().count(),
            GOLDEN.lines().count()
        );
    }
}
