//! The two workloads, each driven closed-loop over TCP to a
//! `copycat-serve` child: `integrate` and `hot_read`.

use crate::gen::{self, HotSession, Ids, Step, SNAPSHOT_SLOT};
use crate::net::{body, is_ok, Front, RouterFront, ServerProc};
use crate::probe;
use crate::reference::Reference;
use crate::stats::{Phase, Recorder};
use crate::trace::Tracer;
use copycat_serve::protocol::Op;
use copycat_serve::router::{Router, RouterConfig};
use copycat_serve::server::{Server, ServerConfig};
use copycat_util::json::Json;
use copycat_util::rng::StdRng;
use std::borrow::Cow;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// Set-ups per run, at least; `setup_s` reports their median.
const MIN_SETUPS: usize = 5;
/// Cheap set-ups are repeated past their minimum until this much time
/// has gone into them (and at most `MAX_SAMPLES` times), so a median of
/// cheap, jittery samples rests on more of them.
const SAMPLE_BUDGET: Duration = Duration::from_secs(1);
const MAX_SAMPLES: usize = 64;

fn another_sample(taken: usize, min: usize, started: Instant) -> bool {
    taken < min || (taken < MAX_SAMPLES && started.elapsed() < SAMPLE_BUDGET)
}

/// Everything a workload needs to run.
pub struct Ctx {
    /// Input seed.
    pub seed: u64,
    /// Length of the measured loop.
    pub seconds: f64,
    /// Whether this is the traced run.
    pub trace: bool,
    /// Closed-loop clients (threads, and connections on TCP).
    pub clients: usize,
    /// The `copycat-serve` binary.
    pub serve_bin: PathBuf,
    /// Scratch directory inside the checkout (data dirs, results).
    pub work_dir: PathBuf,
}

/// What a run observed.
pub struct Outcome {
    /// Traffic and timed latencies (the untraced pass).
    pub rec: Recorder,
    /// The traced pass, in a traced run.
    pub traced: Option<Recorder>,
    /// Seconds per set-up.
    pub setup_s: Vec<f64>,
    /// Peak RSS of the process hosting the server, MiB.
    pub rss_mb: f64,
    /// Spans of the traced run.
    pub tracer: Tracer,
    /// Per-layer counts and ratios the probes measured directly.
    pub layers: BTreeMap<String, f64>,
    /// How the server was started.
    pub server: String,
    /// Share of the host's CPU time the hypervisor stole during the run.
    pub steal: f64,
}

impl Outcome {
    /// An empty outcome whose spans count from `epoch`.
    pub fn new(epoch: Instant) -> Outcome {
        Outcome {
            rec: Recorder::default(),
            traced: None,
            setup_s: Vec::new(),
            rss_mb: 0.0,
            tracer: Tracer::new(epoch),
            layers: BTreeMap::new(),
            server: String::new(),
            steal: 0.0,
        }
    }
}

/// One timed pass of a workload.
struct Pass {
    seconds: f64,
    /// Pass number: keeps session names and id ranges distinct.
    index: usize,
    traced: bool,
}

/// The passes a run makes: one untraced; a traced run splits its time
/// between an untraced and a traced pass so their difference is the
/// tracing overhead.
fn passes(ctx: &Ctx) -> Vec<Pass> {
    if ctx.trace {
        vec![
            Pass {
                seconds: ctx.seconds / 2.0,
                index: 1,
                traced: false,
            },
            Pass {
                seconds: ctx.seconds / 2.0,
                index: 2,
                traced: true,
            },
        ]
    } else {
        vec![Pass {
            seconds: ctx.seconds,
            index: 1,
            traced: false,
        }]
    }
}

/// Stream number of client `c` in pass `p`: timed passes are 1 and 2,
/// set-ups 10 and up (`hot_read`) or 100 and up (`integrate`).
fn stream(pass: usize, client: usize) -> usize {
    pass * 1024 + client
}

/// Run `f` on `n` client threads and collect their results in order.
fn on_clients<R: Send>(n: usize, f: impl Fn(usize) -> R + Sync) -> Vec<R> {
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..n)
            .map(|c| {
                let f = &f;
                scope.spawn(move || f(c))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    })
}

/// A client's request path: its recorder, and its span log when traced.
pub struct Client {
    /// What it observed.
    pub rec: Recorder,
    /// Its spans (traced pass only).
    pub spans: Option<Tracer>,
    /// Reference bursts between its timed requests.
    pub reference: Reference,
}

impl Client {
    pub(crate) fn new(epoch: Instant, traced: bool) -> Client {
        Client {
            rec: Recorder::default(),
            spans: traced.then(|| Tracer::new(epoch)),
            reference: Reference::new(),
        }
    }

    /// Send one request, time it, and count it. Returns the response
    /// when it arrived (whatever its `ok`).
    pub fn send(
        &mut self,
        front: &mut dyn Front,
        phase: Phase,
        op: Op,
        id: u64,
        line: &str,
        check: impl FnOnce(&str) -> bool,
    ) -> Option<String> {
        let start = Instant::now();
        let answer = front.call(line);
        let end = Instant::now();
        if let Some(t) = &mut self.spans {
            t.push("client.request", op.as_str(), id, start, end);
        }
        match answer {
            Ok(resp) => {
                let ok = is_ok(&resp) && check(&resp);
                self.rec.record(phase, op, Some(end - start), ok);
                if !ok {
                    self.rec.note(format!(
                        "{}: {} -> {}",
                        phase.as_str(),
                        clip(line),
                        clip(&resp)
                    ));
                }
                Some(resp)
            }
            Err(e) => {
                self.rec.record(phase, op, None, false);
                self.rec
                    .note(format!("{}: {} -> {e}", phase.as_str(), clip(line)));
                None
            }
        }
    }

    /// Run one scripted step, splicing in the last saved snapshot.
    pub(crate) fn step(
        &mut self,
        front: &mut dyn Front,
        phase: Phase,
        step: &Step,
        snapshot: &mut Option<String>,
    ) -> Option<(String, String)> {
        let line = splice(&step.line, snapshot.as_deref()).into_owned();
        let resp = self.send(front, phase, step.op, step.id, &line, |_| true)?;
        if step.op == Op::SaveSession {
            *snapshot = saved_snapshot(&resp);
        }
        Some((line, resp))
    }
}

fn clip(s: &str) -> &str {
    let mut end = s.len().min(160);
    while !s.is_char_boundary(end) {
        end -= 1;
    }
    &s[..end]
}

/// Fill a `load_session` line with the snapshot its session saved.
pub fn splice<'a>(line: &'a str, snapshot: Option<&str>) -> Cow<'a, str> {
    match snapshot {
        Some(s) if line.contains(SNAPSHOT_SLOT) => {
            Cow::Owned(line.replace(SNAPSHOT_SLOT, &Json::str(s).to_string()))
        }
        _ => Cow::Borrowed(line),
    }
}

/// The snapshot string of a `save_session` response.
pub fn saved_snapshot(resp: &str) -> Option<String> {
    Json::parse(resp).ok()?["result"]["snapshot"]
        .as_str()
        .map(str::to_string)
}

/// Check a server's own accounting over the socket: every admitted
/// request was answered (the `stats` request itself is the one still
/// in flight), and the server admitted exactly what we sent.
fn reconcile(srv: &ServerProc, rec: &mut Recorder, phase: Phase) {
    let got = srv
        .connect()
        .and_then(|mut c| c.call(r#"{"id":0,"op":"stats"}"#));
    let sent = srv.sent();
    let verdict = got.and_then(|resp| {
        let j = Json::parse(&resp).map_err(|e| e.to_string())?;
        let total = j["result"]["server"]["total"].as_f64().unwrap_or(-1.0) as i64;
        let responses = j["result"]["server"]["responses"].as_f64().unwrap_or(-1.0) as i64;
        if responses + 1 == total && total == sent as i64 {
            Ok(())
        } else {
            Err(format!(
                "stats: total {total}, responses {responses}, sent {sent}"
            ))
        }
    });
    rec.record(phase, Op::Stats, None, verdict.is_ok());
    if let Err(e) = verdict {
        rec.note(format!("server accounting does not reconcile: {e}"));
    }
}

/// Check a router's shards: every admitted request was answered.
fn reconcile_router(router: &Router, rec: &mut Recorder, phase: Phase) {
    let stats = router.stats();
    let shards = stats["shards"].as_array().unwrap_or(&[]);
    let all = !shards.is_empty()
        && shards.iter().all(|s| {
            let m = &s["metrics"];
            m["total"].as_f64().is_some() && m["total"].as_f64() == m["responses"].as_f64()
        });
    rec.record(phase, Op::Stats, None, all);
    if !all {
        rec.note(format!(
            "router accounting does not reconcile: {}",
            clip(&stats.to_string())
        ));
    }
}

// ---------------------------------------------------------------------------
// integrate

/// Run whole `integrate` sessions until `deadline` (or `sessions` of
/// them). With `keep_first`, returns the first session's exchanges.
#[allow(clippy::too_many_arguments)]
fn integrate_client(
    cl: &mut Client,
    front: &mut dyn Front,
    seed: u64,
    stream_no: usize,
    phase: Phase,
    deadline: Option<Instant>,
    sessions: usize,
    keep_first: bool,
) -> Vec<(String, String)> {
    let mut rng: StdRng = gen::client_rng(seed, stream_no);
    let mut ids = Ids::for_client(stream_no);
    let mut first = Vec::new();
    for k in 0..sessions {
        let t = Instant::now();
        let steps = gen::integrate_script(&format!("i{stream_no}-{k}"), &mut rng, &mut ids);
        cl.rec.gen_time += t.elapsed();
        cl.rec.generated += steps.len() as u64;
        let mut snapshot = None;
        for step in &steps {
            if deadline.is_some_and(|d| Instant::now() >= d) {
                return first;
            }
            if phase == Phase::Timed {
                cl.reference.tick();
            }
            let exchange = cl.step(front, phase, step, &mut snapshot);
            if keep_first && k == 0 {
                first.push(exchange.unwrap_or_default());
            }
        }
    }
    first
}

/// `integrate`: fresh sessions running the paper's whole loop.
pub fn integrate(ctx: &Ctx, out: &mut Outcome) -> Result<(), String> {
    let epoch = out.tracer.epoch();
    let srv = tcp_setups(ctx, out, |srv, rec, i| {
        let clients = on_clients(ctx.clients, |c| {
            let mut cl = Client::new(epoch, false);
            match srv.connect() {
                Ok(mut conn) => {
                    integrate_client(
                        &mut cl,
                        &mut conn,
                        ctx.seed,
                        stream(100 + i, c),
                        Phase::Setup,
                        None,
                        1,
                        false,
                    );
                }
                Err(e) => cl.rec.fail(Phase::Setup, Op::CreateSession, e),
            }
            cl.rec
        });
        clients.into_iter().for_each(|r| rec.merge(r));
    })?;
    for pass in passes(ctx) {
        let deadline = Instant::now() + Duration::from_secs_f64(pass.seconds);
        let start = Instant::now();
        let cpu = srv.cpu_seconds();
        let mut results = on_clients(ctx.clients, |c| {
            let mut cl = Client::new(epoch, pass.traced);
            let first = match srv.connect() {
                Ok(mut conn) => integrate_client(
                    &mut cl,
                    &mut conn,
                    ctx.seed,
                    stream(pass.index, c),
                    Phase::Timed,
                    Some(deadline),
                    usize::MAX,
                    c == 0,
                ),
                Err(e) => {
                    cl.rec.fail(Phase::Timed, Op::CreateSession, e);
                    Vec::new()
                }
            };
            (cl, first)
        });
        let wall = start.elapsed();
        let first = std::mem::take(&mut results[0].1);
        let mut rec = collect(out, results.into_iter().map(|(cl, _)| cl));
        // One client: its reference bursts paused the whole load.
        rec.timed_wall = wall.saturating_sub(rec.reference_time);
        rec.cpu_s = srv.cpu_seconds() - cpu;
        if pass.index == 1 {
            control_check(&first, &mut rec);
        }
        out.finish_pass(rec, pass.traced);
    }
    out.rss_mb = srv.peak_rss_mb();
    reconcile(&srv, &mut out.rec, Phase::Timed);
    if ctx.trace {
        let mut conn = srv.connect()?;
        probe::integrate(ctx, &mut out.tracer, &mut conn, &mut out.layers);
        drop(conn);
        reconcile(&srv, &mut out.rec, Phase::Probe);
        probe::durable(ctx, &mut out.tracer, &mut out.layers, &mut out.rec)?;
    }
    stop(srv, &mut out.rec)
}

/// The first session of the run, replayed on an in-process
/// `Server::handle_line` control, must match the socket byte for byte.
pub(crate) fn control_check(first: &[(String, String)], rec: &mut Recorder) {
    let control = Server::new(ServerConfig::default());
    for (line, resp) in first {
        let want = control.handle_line(line);
        if *resp != want {
            rec.fail(
                Phase::Timed,
                Op::Invalid,
                format!(
                    "control mismatch on {}: {} vs {}",
                    clip(line),
                    clip(resp),
                    clip(&want)
                ),
            );
            break;
        }
    }
    control.shutdown();
}

fn collect(out: &mut Outcome, clients: impl Iterator<Item = Client>) -> Recorder {
    let mut rec = Recorder::default();
    for cl in clients {
        if let Some(t) = cl.spans {
            out.tracer.extend(t.spans);
        }
        rec.merge(cl.rec);
        rec.reference_us.extend(cl.reference.samples_us);
        rec.reference_time += cl.reference.spent;
    }
    rec
}

impl Outcome {
    /// File a finished pass: the untraced one gives the end-to-end
    /// numbers, the traced one its overhead.
    fn finish_pass(&mut self, rec: Recorder, traced: bool) {
        if traced {
            self.traced = Some(rec);
        } else {
            self.rec.merge(rec);
        }
    }
}

/// Start the server, each time through to a warm, ready state, at
/// least `MIN_SETUPS` times, and keep the last one.
fn tcp_setups(
    ctx: &Ctx,
    out: &mut Outcome,
    warm: impl Fn(&ServerProc, &mut Recorder, usize),
) -> Result<ServerProc, String> {
    let started = Instant::now();
    for i in 0.. {
        let t = Instant::now();
        let srv = ServerProc::spawn(&ctx.serve_bin)?;
        warm(&srv, &mut out.rec, i);
        out.setup_s.push(t.elapsed().as_secs_f64());
        out.server = crate::net::server_flags(srv.port).join(" ");
        if !another_sample(i + 1, MIN_SETUPS, started) {
            return Ok(srv);
        }
        reconcile(&srv, &mut out.rec, Phase::Setup);
        if let Err(e) = srv.shutdown() {
            out.rec.fail(Phase::Setup, Op::Shutdown, e);
        }
    }
    unreachable!("the set-up loop returns")
}

/// Stop a server gracefully once its work is done.
fn stop(srv: ServerProc, rec: &mut Recorder) -> Result<(), String> {
    if let Err(e) = srv.shutdown() {
        rec.fail(Phase::Timed, Op::Shutdown, e);
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// hot_read

/// The warm answers of every hot session, by session index then cycle
/// position (`session_stats` with its hit counter masked).
type Answers = Vec<Vec<String>>;

/// `session_stats` bodies differ only in the cache-hit counter, which
/// every warm autocomplete advances.
fn mask_hits(resp: &str) -> String {
    let b = body(resp);
    match b.find("\"hits\":") {
        Some(at) => {
            let digits = at + "\"hits\":".len();
            let end = b[digits..]
                .find(|ch: char| !ch.is_ascii_digit())
                .map_or(b.len(), |e| digits + e);
            format!("{}#{}", &b[..digits], &b[end..])
        }
        None => b.to_string(),
    }
}

fn answer_key(op: Op, resp: &str) -> String {
    if op == Op::SessionStats {
        mask_hits(resp)
    } else {
        body(resp).to_string()
    }
}

/// Create every hot session (clients split them), optionally followed
/// by one warm pass that fills query caches and records the answers.
fn hot_create(
    srv: &ServerProc,
    sessions: &[HotSession],
    clients: usize,
    stream_base: usize,
    phase: Phase,
    warm: bool,
) -> (Recorder, Answers) {
    let per_client = on_clients(clients, |c| {
        let mut cl = Client::new(Instant::now(), false);
        let mut ids = Ids::for_client(stream(stream_base, c));
        let mut answers = Vec::new();
        let Ok(mut conn) = srv.connect() else {
            cl.rec
                .fail(phase, Op::CreateSession, "connect failed".into());
            return (cl.rec, answers);
        };
        for j in (c..sessions.len()).step_by(clients) {
            let s = &sessions[j];
            let id = ids.next_id();
            cl.send(
                &mut conn,
                phase,
                Op::CreateSession,
                id,
                &gen::with_id(id, &s.create),
                |_| true,
            );
        }
        if warm {
            for j in (c..sessions.len()).step_by(clients) {
                let row = sessions[j]
                    .cycle
                    .iter()
                    .map(|(op, b)| {
                        let id = ids.next_id();
                        let resp =
                            cl.send(&mut conn, phase, *op, id, &gen::with_id(id, b), |_| true);
                        resp.map(|r| answer_key(*op, &r)).unwrap_or_default()
                    })
                    .collect();
                answers.push((j, row));
            }
        }
        (cl.rec, answers)
    });
    let mut rec = Recorder::default();
    let mut all = vec![Vec::new(); sessions.len()];
    for (r, answers) in per_client {
        rec.merge(r);
        for (j, row) in answers {
            all[j] = row;
        }
    }
    (rec, all)
}

/// `hot_read`: warm reads over ~2k resident copy-on-write sessions.
pub fn hot_read(ctx: &Ctx, out: &mut Outcome) -> Result<(), String> {
    let epoch = out.tracer.epoch();
    let sessions = gen::hot_sessions(ctx.seed);
    let answers = std::sync::Mutex::new(Answers::new());
    let srv = tcp_setups(ctx, out, |srv, rec, i| {
        let (r, a) = hot_create(srv, &sessions, ctx.clients, 10 + i, Phase::Setup, true);
        rec.merge(r);
        *answers.lock().expect("answers lock") = a;
    })?;
    let answers = answers.into_inner().expect("answers lock");
    for pass in passes(ctx) {
        let deadline = Instant::now() + Duration::from_secs_f64(pass.seconds);
        let start = Instant::now();
        let cpu = srv.cpu_seconds();
        let clients = on_clients(ctx.clients, |c| {
            let mut cl = Client::new(epoch, pass.traced);
            let mut ids = Ids::for_client(stream(pass.index, c));
            let order = gen::hot_visit_order(ctx.seed, c, ctx.clients);
            let Ok(mut conn) = srv.connect() else {
                cl.rec
                    .fail(Phase::Timed, Op::Autocomplete, "connect failed".into());
                return cl;
            };
            'run: for &j in order.iter().cycle() {
                for (k, (op, b)) in sessions[j].cycle.iter().enumerate() {
                    if Instant::now() >= deadline {
                        break 'run;
                    }
                    cl.reference.tick();
                    let t = Instant::now();
                    let id = ids.next_id();
                    let line = gen::with_id(id, b);
                    cl.rec.gen_time += t.elapsed();
                    cl.rec.generated += 1;
                    let want = &answers[j][k];
                    cl.send(&mut conn, Phase::Timed, *op, id, &line, |resp| {
                        answer_key(*op, resp) == *want
                    });
                }
            }
            cl
        });
        let wall = start.elapsed();
        let mut rec = collect(out, clients.into_iter());
        // One client: its reference bursts paused the whole load.
        rec.timed_wall = wall.saturating_sub(rec.reference_time);
        rec.cpu_s = srv.cpu_seconds() - cpu;
        out.finish_pass(rec, pass.traced);
    }
    out.rss_mb = srv.peak_rss_mb();
    reconcile(&srv, &mut out.rec, Phase::Timed);
    if ctx.trace {
        let mut conn = srv.connect()?;
        probe::hot_read(ctx, &mut out.tracer, &mut conn, &sessions, &mut out.layers);
        drop(conn);
        reconcile(&srv, &mut out.rec, Phase::Probe);
    }
    stop(srv, &mut out.rec)
}

// ---------------------------------------------------------------------------
// the durable router (probed in `integrate`'s traced run)

/// The router configuration under test: the stated defaults
/// (`sync_every=1`, `snapshot_every=64`) on the real filesystem.
pub fn durable_config(dir: PathBuf) -> RouterConfig {
    RouterConfig::durable(RouterConfig::default().shards, dir)
}

/// Read probes before the crash, drop the router without shutdown,
/// `Router::recover` from the data dir (timed), and require the
/// recovered sessions to answer the probes byte-identically.
pub(crate) fn crash_and_recover(
    router: Router,
    config: &RouterConfig,
    names: &[String],
    ids: &mut Ids,
    rec: &mut Recorder,
    t: &mut Tracer,
) -> Result<Router, String> {
    let mut cl = Client::new(Instant::now(), false);
    let probes: Vec<Step> = names
        .iter()
        .flat_map(|n| gen::durable_probes(n, ids))
        .collect();
    let before: Vec<String> = probes
        .iter()
        .map(|p| {
            cl.send(
                &mut RouterFront(&router),
                Phase::Recover,
                p.op,
                p.id,
                &p.line,
                |_| true,
            )
            .map(|r| body(&r).to_string())
            .unwrap_or_default()
        })
        .collect();
    reconcile_router(&router, &mut cl.rec, Phase::Recover);
    drop(router);
    let router = t
        .call("router.recover", "recover", 0, || Router::recover(config.clone()))
        .map_err(|e| format!("recover: {e}"))?;
    for (p, want) in probes.iter().zip(&before) {
        cl.send(
            &mut RouterFront(&router),
            Phase::Recover,
            p.op,
            p.id,
            &p.line,
            |r| body(r) == want,
        );
    }
    rec.merge(cl.rec);
    Ok(router)
}
