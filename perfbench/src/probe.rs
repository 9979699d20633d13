//! The traced run's per-layer probes.
//!
//! A probe replays a sample of the workload's own request lines, one
//! request at a time with nothing else running, through:
//! - the socket, when the workload has one (`tcp.rtt`);
//! - replica A, an in-process `Server` (`protocol.parse`,
//!   `server.handle`, and the engine call behind idempotent reads);
//! - replica B, an in-process `Server` whose sessions also take direct
//!   engine-level calls before each request (`core.discover`,
//!   `graph.steiner`, `query.exec`, `semantic.hypotheses`);
//! - in `integrate`'s traced run, an ephemeral and a durable `Router`
//!   taking fixed-length edit histories, then a `SessionStore` fed the
//!   durable router's journal.
//!
//! Engine-level calls perturb caches, so they go to replica B only —
//! never to a session whose responses are checked or timed elsewhere.

use crate::gen::{self, HotSession, Ids, Step};
use crate::net::{body, Conn, Front};
use crate::stats::Recorder;
use crate::trace::Tracer;
use crate::workloads::{crash_and_recover, durable_config, saved_snapshot, splice, Ctx};
use crate::ALLOC;
use copycat_core::{export, CopyCat, WorldBase};
use copycat_serve::protocol::{Op, Request};
use copycat_serve::router::{Router, RouterConfig};
use copycat_serve::server::{Server, ServerConfig};
use copycat_services::{
    AddressResolver, CurrencyConverter, Geocoder, ReversePhone, UnitConverter, WorldConfig,
    ZipResolver,
};
use copycat_store::{Fs, SessionStore};
use copycat_util::json::Json;
use copycat_util::zjson::ZDoc;
use std::collections::BTreeMap;
use std::path::Path;
use std::sync::Arc;

/// Sessions each probe replays.
const INTEGRATE_PROBE_SESSIONS: usize = 6;
const HOT_PROBE_SESSIONS: usize = 16;
const HOT_PROBE_CYCLES: usize = 12;
const DURABLE_PROBE_SESSIONS: usize = 2;
/// Warm autocompletes compared on a shared-world and a flat session.
const OVERLAY_CALLS: usize = 32;
/// Sessions created to price one copy-on-write overlay.
const OVERLAY_SESSIONS: usize = 256;

/// Sums and counts behind the per-layer ratios and means.
#[derive(Default)]
struct Counts(BTreeMap<&'static str, (f64, f64)>);

impl Counts {
    fn add(&mut self, key: &'static str, value: f64) {
        let e = self.0.entry(key).or_default();
        e.0 += value;
        e.1 += 1.0;
    }

    fn mean(&self, key: &str) -> f64 {
        self.0
            .get(key)
            .map_or(0.0, |(sum, n)| if *n > 0.0 { sum / n } else { 0.0 })
    }

    fn sum(&self, key: &str) -> f64 {
        self.0.get(key).map_or(0.0, |e| e.0)
    }
}

fn session_of(line: &str) -> Option<String> {
    Json::parse(line).ok()?["session"]
        .as_str()
        .map(str::to_string)
}

/// The replicas and the per-request probe sequence.
struct Replicas {
    a: Server,
    b: Server,
    doc: ZDoc,
    snap: [Option<String>; 3],
    counts: Counts,
}

impl Replicas {
    fn new() -> Replicas {
        Replicas {
            a: Server::new(ServerConfig::default()),
            b: Server::new(ServerConfig::default()),
            doc: ZDoc::new(),
            snap: [None, None, None],
            counts: Counts::default(),
        }
    }

    /// Apply a line to both replicas without tracing (warm-up).
    fn untraced(&mut self, line: &str) {
        self.a.handle_line(line);
        self.b.handle_line(line);
    }

    /// Probe one request through every layer it reaches.
    fn step(&mut self, t: &mut Tracer, conn: Option<&mut Conn>, step: &Step) {
        let (class, id) = (step.op.as_str(), step.id);
        if let Some(conn) = conn {
            let line = splice(&step.line, self.snap[0].as_deref()).into_owned();
            let start = std::time::Instant::now();
            let resp = conn.call(&line).unwrap_or_default();
            t.push("tcp.rtt", class, id, start, std::time::Instant::now());
            self.counts
                .add("tcp.bytes", (line.len() + resp.len() + 2) as f64);
            if step.op == Op::SaveSession {
                self.snap[0] = saved_snapshot(&resp);
            }
        }
        let session = session_of(&step.line);
        if step.op == Op::CloseSession {
            self.cache_counts(session.as_deref());
        }

        let line = splice(&step.line, self.snap[1].as_deref()).into_owned();
        let doc = &mut self.doc;
        t.call("protocol.parse", class, id, || {
            Request::parse(doc, &line).is_ok()
        });
        let a = &self.a;
        let resp = t.call("server.handle", class, id, || a.handle_line(&line));
        if step.op == Op::SaveSession {
            self.snap[1] = saved_snapshot(&resp);
            self.counts.add(
                "session.snapshot_bytes",
                self.snap[1].as_ref().map_or(0, String::len) as f64,
            );
        }
        let engine_read = step.op == Op::Render
            || (step.op == Op::Export && step.line.contains("\"format\":\"csv\""));
        if engine_read {
            if let Some(sess) = session
                .as_deref()
                .and_then(|n| self.a.registry().get(n).ok())
            {
                let state = sess.state.lock();
                let engine = &state.engine;
                match step.op {
                    Op::Render => t.call("server.engine", class, id, || engine.render().len()),
                    _ => t.call("server.engine", class, id, || {
                        export::to_csv(engine.workspace().active()).len()
                    }),
                };
            }
        }

        let line = splice(&step.line, self.snap[2].as_deref()).into_owned();
        if step.op == Op::Autocomplete {
            if let Some(sess) = session
                .as_deref()
                .and_then(|n| self.b.registry().get(n).ok())
            {
                let state = sess.state.lock();
                engine_calls(t, &mut self.counts, &state.engine, &line, id);
            }
        }
        let resp = self.b.handle_line(&line);
        if step.op == Op::SaveSession {
            self.snap[2] = saved_snapshot(&resp);
        }
        if matches!(step.op, Op::Paste | Op::SetColumnType) {
            if let Some(sess) = session
                .as_deref()
                .and_then(|n| self.b.registry().get(n).ok())
            {
                let state = sess.state.lock();
                let engine = &state.engine;
                for col in 0..engine.columns().len() {
                    t.call("semantic.hypotheses", class, id, || {
                        engine.column_type_hypotheses(col).len()
                    });
                }
            }
        }
    }

    /// Fold replica A's query-cache counters for `session` into the
    /// hit ratio (before a close discards them).
    fn cache_counts(&mut self, session: Option<&str>) {
        if let Some(sess) = session.and_then(|n| self.a.registry().get(n).ok()) {
            let stats = sess.state.lock().engine.query_cache_stats();
            self.counts.add("cache.hits", stats.hits as f64);
            self.counts.add("cache.misses", stats.misses as f64);
        }
    }

    fn finish(mut self, sessions: &[String], layers: &mut BTreeMap<String, f64>) {
        for s in sessions {
            self.cache_counts(Some(s));
        }
        let c = &self.counts;
        let lookups = c.sum("cache.hits") + c.sum("cache.misses");
        if lookups > 0.0 {
            layers.insert("core.cache_hit_ratio".into(), c.sum("cache.hits") / lookups);
        }
        for (metric, key) in [
            ("tcp.bytes_per_req", "tcp.bytes"),
            ("graph.nodes", "graph.nodes"),
            ("query.rows_out", "query.rows_out"),
            ("session.snapshot_bytes", "session.snapshot_bytes"),
        ] {
            if c.0.contains_key(key) {
                layers.insert(metric.into(), c.mean(key));
            }
        }
        self.a.shutdown();
        self.b.shutdown();
    }
}

/// Direct engine-level calls behind one `autocomplete`: the discovery
/// entry point, a cold Steiner search on the same terminals, and the
/// execution of the top query's plan.
fn engine_calls(t: &mut Tracer, counts: &mut Counts, engine: &CopyCat, line: &str, id: u64) {
    let Ok(req) = Json::parse(line) else { return };
    let values: Vec<&str> = req["values"]
        .as_array()
        .unwrap_or(&[])
        .iter()
        .filter_map(Json::as_str)
        .collect();
    let k = req["k"].as_f64().map_or(3, |v| v as usize);
    let class = Op::Autocomplete.as_str();
    let queries = t.call("core.discover", class, id, || {
        engine.discover_queries_for_tuple(&values, k)
    });
    // The terminals discovery searches for: the first relation holding
    // each value (the same rule as `discover_queries_for_tuple`).
    let catalog = engine.catalog();
    let graph = engine.graph();
    let mut terminals = Vec::new();
    for v in &values {
        let holder = catalog.relation_names().into_iter().find(|name| {
            catalog.relation(name).is_some_and(|rel| {
                rel.tuples()
                    .iter()
                    .any(|tu| tu.values.iter().any(|c| c.as_text() == *v))
            })
        });
        if let Some(node) = holder.and_then(|name| graph.node_by_name(&name)) {
            if !terminals.contains(&node) {
                terminals.push(node);
            }
        }
    }
    if !terminals.is_empty() {
        t.call("graph.steiner", class, id, || {
            copycat_core::autocomplete::search_trees(graph, &terminals, k).len()
        });
        counts.add("graph.nodes", graph.node_count() as f64);
    }
    if let Some(top) = queries.first() {
        let rows = t.call("query.exec", class, id, || {
            copycat_query::execute(&top.plan, catalog).map_or(0, |r| r.len())
        });
        counts.add("query.rows_out", rows as f64);
    }
}

/// Probe a sample of fresh `integrate` sessions, over the live socket
/// and the replicas in lockstep.
pub fn integrate(ctx: &Ctx, t: &mut Tracer, conn: &mut Conn, layers: &mut BTreeMap<String, f64>) {
    let mut r = Replicas::new();
    let s = gen::PROBE_STREAM;
    let (mut rng, mut ids) = (gen::client_rng(ctx.seed, s), Ids::for_client(s));
    let mut names = Vec::new();
    for k in 0..INTEGRATE_PROBE_SESSIONS {
        let name = format!("probe-{k}");
        for step in gen::integrate_script(&name, &mut rng, &mut ids) {
            r.step(t, Some(conn), &step);
        }
        names.push(name);
    }
    r.finish(&names, layers);
}

/// Probe resident `hot_read` sessions: the socket side uses the warm
/// sessions the run created; the replicas create and warm their own.
/// Then price the copy-on-write overlay against a flat engine holding
/// the same world.
pub fn hot_read(
    ctx: &Ctx,
    t: &mut Tracer,
    conn: &mut Conn,
    sessions: &[HotSession],
    layers: &mut BTreeMap<String, f64>,
) {
    let mut r = Replicas::new();
    let s = gen::PROBE_STREAM;
    let mut ids = Ids::for_client(s);
    let stride = sessions.len() / HOT_PROBE_SESSIONS;
    let sample: Vec<&HotSession> = (0..HOT_PROBE_SESSIONS)
        .map(|i| &sessions[i * stride + ctx.seed as usize % stride.max(1)])
        .collect();
    for hs in &sample {
        r.untraced(&gen::with_id(0, &hs.create));
        for (_, b) in &hs.cycle {
            r.untraced(&gen::with_id(0, b));
        }
    }
    for _ in 0..HOT_PROBE_CYCLES {
        for hs in &sample {
            for (op, b) in &hs.cycle {
                let id = ids.next_id();
                r.step(
                    t,
                    Some(conn),
                    &Step {
                        op: *op,
                        id,
                        line: gen::with_id(id, b),
                    },
                );
            }
        }
    }
    overlay(t, &r.a, sample[0], &mut ids, layers);
    let names: Vec<String> = sample.iter().map(|h| h.name.clone()).collect();
    r.finish(&names, layers);
}

/// Allocations of one warm autocomplete on a shared-world overlay and
/// on a flat engine built from the very same world, and the marginal
/// bytes of one more overlay session.
fn overlay(
    t: &mut Tracer,
    a: &Server,
    hs: &HotSession,
    ids: &mut Ids,
    layers: &mut BTreeMap<String, f64>,
) {
    let config = WorldConfig {
        seed: gen::HOT_WORLD_SEED,
        venues: gen::HOT_WORLD_VENUES,
        ..WorldConfig::default()
    };
    let base = WorldBase::synthetic(&config);
    let mut flat = CopyCat::new();
    for name in ["Shelters", "Contacts"] {
        if let Some(rel) = base.catalog().relation(name) {
            flat.catalog().add_relation((*rel).clone());
            flat.add_graph_relation(name, rel.schema().clone());
        }
    }
    let world = base.world();
    flat.register_service(Arc::new(ZipResolver::new(Arc::clone(&world))));
    flat.register_service(Arc::new(Geocoder::new(Arc::clone(&world))));
    flat.register_service(Arc::new(AddressResolver::new(Arc::clone(&world))));
    flat.register_service(Arc::new(ReversePhone::new(Arc::clone(&world))));
    flat.register_service(Arc::new(CurrencyConverter::new()));
    flat.register_service(Arc::new(UnitConverter::new()));
    let flat_name = format!("{}-flat", hs.name);
    if a.registry().create(&flat_name, flat).is_err() {
        return;
    }
    let (_, shared_body) = &hs.cycle[0];
    let flat_body = shared_body.replace(
        &format!("\"session\":{}", Json::str(hs.name.as_str())),
        &format!("\"session\":{}", Json::str(flat_name.as_str())),
    );
    let mut allocs = [Vec::new(), Vec::new()];
    let mut answers = [String::new(), String::new()];
    for (slot, (name, body)) in [
        ("overlay.shared", shared_body),
        ("overlay.flat", &flat_body),
    ]
    .into_iter()
    .enumerate()
    {
        a.handle_line(&gen::with_id(0, body));
        for _ in 0..OVERLAY_CALLS {
            let id = ids.next_id();
            let line = gen::with_id(id, body);
            answers[slot] = t.call(name, Op::Autocomplete.as_str(), id, || a.handle_line(&line));
            allocs[slot].push(t.spans.last().map_or(0.0, |s| s.allocs as f64));
        }
    }
    let (shared, flat) = (
        crate::stats::median(&allocs[0]),
        crate::stats::median(&allocs[1]),
    );
    layers.insert("overlay.allocs_per_autocomplete".into(), shared);
    // Same world, same request: the two engines must answer alike, or
    // the ratio compares different work.
    if flat > 0.0 && body(&answers[0]) == body(&answers[1]) {
        layers.insert("overlay.alloc_ratio".into(), shared / flat);
    }
    let before = ALLOC.snapshot();
    for i in 0..OVERLAY_SESSIONS {
        let body = hs.create.replace(
            &format!("\"session\":{}", Json::str(hs.name.as_str())),
            &format!("\"session\":\"overlay-{i}\""),
        );
        a.handle_line(&gen::with_id(0, &body));
    }
    let grown = ALLOC.snapshot().live_growth_since(&before);
    layers.insert(
        "overlay.bytes_per_session".into(),
        grown as f64 / OVERLAY_SESSIONS as f64,
    );
}

/// Drive fixed-length edit histories through an ephemeral and a
/// durable router in lockstep; then crash the durable one, recover it
/// (its sessions must answer read probes as before), and replay its
/// journal into a bare `SessionStore`. Failed checks land in `rec`.
pub fn durable(
    ctx: &Ctx,
    t: &mut Tracer,
    layers: &mut BTreeMap<String, f64>,
    rec: &mut Recorder,
) -> Result<(), String> {
    let dir = ctx.work_dir.join("probe-data");
    if dir.exists() {
        std::fs::remove_dir_all(&dir).map_err(|e| format!("clear {}: {e}", dir.display()))?;
    }
    let config = durable_config(dir.join("router"));
    let ephemeral = Router::new(RouterConfig::ephemeral(config.shards));
    let durable = Router::new(config.clone());
    let s = gen::PROBE_STREAM;
    let (mut rng, mut ids) = (gen::client_rng(ctx.seed, s), Ids::for_client(s));
    let names: Vec<String> = (0..DURABLE_PROBE_SESSIONS)
        .map(|k| format!("durable-{k}"))
        .collect();
    for name in &names {
        for step in gen::durable_script(name, &mut rng, &mut ids) {
            let (class, id) = (step.op.as_str(), step.id);
            t.call("router.ephemeral", class, id, || {
                ephemeral.handle_line(&step.line)
            });
            t.call("router.durable", class, id, || {
                durable.handle_line(&step.line)
            });
        }
    }
    let histories: Vec<Vec<String>> = names
        .iter()
        .filter_map(|n| durable.journal_history(n))
        .collect();
    let journaled: usize = histories.iter().map(Vec::len).sum();
    let recovered = crash_and_recover(durable, &config, &names, &mut ids, rec, t)?;
    let replayed = recovered.stats()["durability"]["replayed_records"]
        .as_f64()
        .unwrap_or(0.0);
    if journaled > 0 {
        layers.insert("router.replay_ratio".into(), replayed / journaled as f64);
    }
    recovered.shutdown();
    ephemeral.shutdown();
    store_replay(t, &dir.join("store"), &histories, layers)
}

/// Feed each journaled history into a fresh `SessionStore` under the
/// router's policy (fsync per record, checkpoint every
/// `snapshot_every` records or `max_wal_bytes`), then recover it.
fn store_replay(
    t: &mut Tracer,
    root: &Path,
    histories: &[Vec<String>],
    layers: &mut BTreeMap<String, f64>,
) -> Result<(), String> {
    let policy = RouterConfig::default();
    let fs = Fs::real();
    let (mut line_bytes, mut written, mut snapshot_bytes, mut snapshots) = (0u64, 0u64, 0u64, 0u64);
    let (mut syncs, mut appends) = (0u64, 0u64);
    for (k, history) in histories.iter().enumerate() {
        let dir = root.join(format!("s{k}"));
        let mut store = SessionStore::create(&fs, &dir).map_err(|e| format!("store: {e}"))?;
        for (i, line) in history.iter().enumerate() {
            let cause = Json::parse(line)
                .ok()
                .and_then(|j| j["id"].as_f64())
                .map_or(0, |v| v as u64);
            line_bytes += line.len() as u64;
            t.call("store.append", "journal", cause, || store.append(line));
            t.call("store.sync", "journal", cause, || store.sync())
                .map_err(|e| format!("sync: {e}"))?;
            if store.records_since_snapshot() >= policy.snapshot_every
                || store.wal_bytes_since_snapshot() >= policy.max_wal_bytes
            {
                let payload = Json::Arr(
                    history[..=i]
                        .iter()
                        .map(|l| Json::str(l.as_str()))
                        .collect(),
                )
                .to_string();
                t.call("store.snapshot", "journal", cause, || {
                    store.snapshot(&payload)
                })
                .map_err(|e| format!("snapshot: {e}"))?;
                snapshot_bytes += payload.len() as u64;
                snapshots += 1;
            }
        }
        let st = store.stats();
        syncs += st.sync.syncs;
        appends += st.appends;
        written += st.sync.bytes_synced;
        drop(store);
        t.call("store.recover", "journal", 0, || {
            SessionStore::recover(&fs, &dir)
        })
        .map_err(|e| format!("store recover: {e}"))?;
    }
    if appends > 0 {
        layers.insert(
            "store.syncs_per_mutation".into(),
            syncs as f64 / appends as f64,
        );
    }
    if line_bytes > 0 {
        layers.insert(
            "store.write_amp".into(),
            (written + snapshot_bytes) as f64 / line_bytes as f64,
        );
    }
    if snapshots > 0 {
        layers.insert(
            "store.snapshot_bytes".into(),
            snapshot_bytes as f64 / snapshots as f64,
        );
    }
    Ok(())
}
