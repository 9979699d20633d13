//! Scenario replay, plus the two smokes a transcript cannot express.
//!
//! A scenario is a transcript of one client conversation:
//!
//! ```text
//! >> {"id":1,"op":"ping"}                  a request, sent verbatim
//! << {"id":1,"ok":true,"result":{...}}     the answer it must get
//! -- crash                                 kill the server, recover
//! ```
//!
//! A `stats` answer is written as its key shape only (its values carry
//! timing). [`replay`] reads nothing but the `>>` and `-- crash` lines
//! and renders the transcript again; [`check`] requires the rendering
//! to reproduce the file byte for byte: if observed behavior differs
//! from the file, the behavior is a bug. A scenario without `-- crash`
//! runs on [`Server::with_defaults`]. One with it runs twice on
//! [`crash_config`]: on an ephemeral control router that ignores the
//! crash, and on a durable router over a fault-free simulated disk that
//! is killed at each `-- crash` (dropped without shutdown, disk
//! crashed, recovered from snapshot + WAL); both must render alike.
//! The scenarios are `tests/golden/wire_transcript.txt` and the files
//! under `tests/scenarios/`; `copycat-serve replay FILE...` checks them.
//!
//! [`run_crash_storm`] injects every storage fault at every I/O
//! operation of the `storm.txt` scenario; [`run_herd`] measures the
//! memory of 10k copy-on-write sessions.

use crate::router::{Router, RouterConfig};
use crate::server::{Server, ServerConfig};
use copycat_store::{FaultKind, FaultPlan, Fs, SimFs};
use copycat_util::json::{self, Json};
use std::collections::BTreeSet;
use std::path::PathBuf;
use std::sync::Arc;

/// The crash-storm scenario: two sessions' journaled traffic, sized so
/// `snapshot_every: 4` crosses two snapshot generations on `storm-a`,
/// then a `-- crash` and read-only probes of both sessions.
pub const STORM: &str = include_str!("../tests/scenarios/storm.txt");

const CRASH: &str = "-- crash";

/// Seed of the fault-free simulated disk a crash scenario's durable
/// side runs on.
const REPLAY_SEED: u64 = 0x5EED;

/// The one durable configuration: one router shard over a single-permit
/// server, a snapshot every four records and an fsync on every record,
/// so a short scenario crosses snapshot generations and every acked
/// effect survives a crash. `root: None` is the ephemeral control.
pub fn crash_config(fs: &Fs, root: Option<PathBuf>) -> RouterConfig {
    RouterConfig {
        shards: 1,
        server: ServerConfig { workers: 1, queue_depth: 32, shards: 2 },
        snapshot_every: 4,
        store_root: root,
        fs: fs.clone(),
        ..RouterConfig::default()
    }
}

/// One line of a scenario the runner acts on.
#[derive(Clone, Copy, PartialEq)]
enum Step<'a> {
    Send(&'a str),
    Crash,
}

/// The `>>` and `-- crash` lines of `text`, in order. A text without a
/// request is refused, so an empty or misnamed scenario cannot pass.
fn steps(text: &str) -> Result<Vec<Step<'_>>, String> {
    let steps: Vec<Step> = text
        .lines()
        .filter_map(|l| match l.strip_prefix(">> ") {
            Some(request) => Some(Step::Send(request)),
            None => (l == CRASH).then_some(Step::Crash),
        })
        .collect();
    if !steps.iter().any(|s| matches!(s, Step::Send(_))) {
        return Err("no `>>` request line: nothing to replay".to_string());
    }
    Ok(steps)
}

fn requests<'a>(steps: &'a [Step<'a>]) -> impl Iterator<Item = &'a str> + 'a {
    steps.iter().filter_map(|s| match s {
        Step::Send(line) => Some(*line),
        Step::Crash => None,
    })
}

/// The never-crashed control's answers, one per request: an ephemeral
/// router on [`crash_config`] that ignores `-- crash`.
fn control_answers(steps: &[Step]) -> Vec<String> {
    let control = Router::new(crash_config(&Fs::real(), None));
    let answers = requests(steps).map(|line| control.handle_line(line)).collect();
    control.shutdown();
    answers
}

/// The durable side's answers: a router on a fault-free simulated disk,
/// killed and recovered at every `-- crash`.
fn durable_answers(steps: &[Step]) -> Result<Vec<String>, String> {
    let sim = Arc::new(SimFs::new(REPLAY_SEED));
    let fs = Fs::sim(Arc::clone(&sim));
    let root = PathBuf::from("/replay");
    let mut router = Router::new(crash_config(&fs, Some(root.clone())));
    let mut answers = Vec::new();
    for step in steps {
        match step {
            Step::Send(line) => answers.push(router.handle_line(line)),
            Step::Crash => {
                drop(router); // kill: no shutdown, no flush
                sim.crash();
                router = Router::recover(crash_config(&fs, Some(root.clone())))
                    .map_err(|e| format!("recovery failed: {e}"))?;
            }
        }
    }
    router.shutdown();
    Ok(answers)
}

/// The transcript of `steps` with one answer per request.
fn render(steps: &[Step], answers: &[String]) -> String {
    let mut out = String::new();
    let mut answers = answers.iter();
    for step in steps {
        let Step::Send(line) = step else {
            out.push_str(CRASH);
            out.push('\n');
            continue;
        };
        let answer = answers.next().map_or("", String::as_str);
        out.push_str(">> ");
        out.push_str(line);
        out.push('\n');
        let is_stats = Json::parse(line).is_ok_and(|j| j["op"].as_str() == Some("stats"));
        match Json::parse(answer) {
            Ok(j) if is_stats => {
                out.push_str("<< stats (shape only; values carry timing)\n");
                for path in shape(&j).lines() {
                    out.push_str("   ");
                    out.push_str(path);
                    out.push('\n');
                }
            }
            _ => {
                out.push_str("<< ");
                out.push_str(answer);
                out.push('\n');
            }
        }
    }
    out
}

/// Replay a scenario and render its transcript from the answers
/// received. `Err` when the text holds no request, or when a crash
/// scenario's recovered router answers differently from the control
/// (naming the first differing line).
pub fn replay(text: &str) -> Result<String, String> {
    let steps = steps(text)?;
    if !steps.contains(&Step::Crash) {
        let server = Server::with_defaults();
        let answers: Vec<String> = requests(&steps).map(|l| server.handle_line(l)).collect();
        server.shutdown();
        return Ok(render(&steps, &answers));
    }
    let control = render(&steps, &control_answers(&steps));
    let durable = render(&steps, &durable_answers(&steps)?);
    match first_difference(&control, &durable) {
        None => Ok(control),
        Some((n, want, got)) => Err(format!(
            "recovered router diverged from the never-crashed control at line {n}:\n  \
             control:   {want}\n  recovered: {got}"
        )),
    }
}

/// Replay `text` and require the rendering to reproduce it byte for
/// byte; `Err` names the first differing line, expected and actual.
pub fn check(text: &str) -> Result<(), String> {
    let actual = replay(text)?;
    match first_difference(text, &actual) {
        None => Ok(()),
        Some((n, want, got)) => {
            Err(format!("line {n} differs:\n  expected: {want}\n  actual:   {got}"))
        }
    }
}

/// The first line (1-based) at which `a` and `b` differ, with both
/// lines (`<eof>` past the end); `None` when they are byte-identical.
pub fn first_difference<'a>(a: &'a str, b: &'a str) -> Option<(usize, &'a str, &'a str)> {
    if a == b {
        return None;
    }
    let (mut left, mut right) = (a.split('\n'), b.split('\n'));
    let mut n = 1;
    loop {
        match (left.next(), right.next()) {
            (Some(l), Some(r)) if l == r => n += 1,
            (l, r) => return Some((n, l.unwrap_or("<eof>"), r.unwrap_or("<eof>"))),
        }
    }
}

/// Sorted key paths with leaf type tags, one per line: the *shape* of
/// a JSON value, independent of its (possibly timing-dependent) values.
pub fn shape(j: &Json) -> String {
    fn walk(j: &Json, prefix: &str, out: &mut BTreeSet<String>) {
        let tag = match j {
            Json::Obj(fields) => {
                for (k, v) in fields {
                    walk(v, &format!("{prefix}.{k}"), out);
                }
                if !fields.is_empty() {
                    return;
                }
                ":obj"
            }
            Json::Arr(items) => {
                for v in items {
                    walk(v, &format!("{prefix}[]"), out);
                }
                "[]"
            }
            Json::Str(_) => ":str",
            Json::Num(_) => ":num",
            Json::Bool(_) => ":bool",
            Json::Null => ":null",
        };
        out.insert(format!("{prefix}{tag}"));
    }
    let mut out = BTreeSet::new();
    walk(j, "", &mut out);
    let mut s: String = out.into_iter().map(|p| format!("{p}\n")).collect();
    if s.is_empty() {
        s.push('\n');
    }
    s
}

/// Summary of a [`run_herd`] sweep: many shared-world sessions on one
/// server, with the marginal per-session memory cost measured by
/// differencing allocator snapshots around the bulk creation.
#[derive(Debug, Clone)]
pub struct HerdReport {
    /// Shared-world sessions created.
    pub sessions: usize,
    /// Net live-byte growth per session during the bulk creation.
    pub marginal_bytes_per_session: f64,
    /// Sessions that fit in one GiB at that marginal cost.
    pub sessions_per_gb: f64,
    /// Probe requests answered `ok:true` (render + stats + autocomplete
    /// on a sample of the herd).
    pub probes_ok: u64,
}

/// The 10k-session herd smoke: create `sessions` copy-on-write sessions
/// over one shared world, measure the marginal per-session memory via
/// `snap` (a [`CountingAlloc`](copycat_util::bench::CountingAlloc)
/// snapshot hook installed by the caller's binary), and probe a sample
/// of the herd end to end. Fails if any probe errs or if the marginal
/// cost implies fewer than `floor_sessions_per_gb` sessions per GiB.
pub fn run_herd(
    server: &Server,
    sessions: usize,
    floor_sessions_per_gb: f64,
    snap: &dyn Fn() -> copycat_util::bench::AllocSnapshot,
) -> Result<HerdReport, String> {
    let esc = |s: &str| json::to_string(&Json::str(s));
    let world = "\"world\":{\"seed\":2009,\"venues\":6}";
    let create = |name: &str| {
        let resp = server
            .handle_line(&format!("{{\"id\":0,\"op\":\"create_session\",\"session\":{},{world}}}", esc(name)));
        if resp.contains("\"ok\":true") { Ok(()) } else { Err(format!("create {name}: {resp}")) }
    };
    // Warm rounds pay the one-time costs (shared world build, scratch
    // pools, registry shards) outside the measured window.
    let warm = 64.min(sessions / 4).max(1);
    for i in 0..warm {
        create(&format!("herd-warm-{i}"))?;
    }
    let before = snap();
    for i in 0..sessions {
        create(&format!("herd-{i}"))?;
    }
    let after = snap();
    let marginal = after.live_growth_since(&before).max(1) as f64 / sessions as f64;
    let sessions_per_gb = (1u64 << 30) as f64 / marginal;

    // Probe a spread of the herd: every session sampled must answer
    // the interactive hot path.
    let mut probes_ok = 0u64;
    let stride = (sessions / 16).max(1);
    for i in (0..sessions).step_by(stride) {
        let s = esc(&format!("herd-{i}"));
        for line in [
            format!("{{\"id\":1,\"op\":\"render\",\"session\":{s}}}"),
            format!("{{\"id\":2,\"op\":\"session_stats\",\"session\":{s}}}"),
            format!("{{\"id\":3,\"op\":\"autocomplete\",\"session\":{s},\"values\":[\"a\"],\"k\":1}}"),
        ] {
            let resp = server.handle_line(&line);
            if !resp.contains("\"ok\":true") {
                return Err(format!("herd probe failed: {line} -> {resp}"));
            }
            probes_ok += 1;
        }
    }
    if sessions_per_gb < floor_sessions_per_gb {
        return Err(format!(
            "marginal session cost too high: {marginal:.0} B/session \
             ({sessions_per_gb:.0} sessions/GiB < floor {floor_sessions_per_gb:.0})"
        ));
    }
    Ok(HerdReport { sessions, marginal_bytes_per_session: marginal, sessions_per_gb, probes_ok })
}

/// The sessions [`STORM`] journals to.
const STORM_SESSIONS: [&str; 2] = ["storm-a", "storm-b"];

/// Summary of a [`run_crash_storm`] sweep.
#[derive(Debug, Clone)]
pub struct CrashStormReport {
    /// Seed driving the simulated filesystem (torn cuts, bit picks,
    /// crash retention).
    pub seed: u64,
    /// Countable I/O operations in the fault-free workload — the
    /// sweep's injection domain.
    pub workload_ops: u64,
    /// Fault-injected runs executed (kinds × strided injection points).
    pub runs: u64,
    /// Faults that actually fired across all runs.
    pub faults_fired: u64,
    /// Acknowledged effects across all runs (baseline included).
    pub acked: u64,
    /// Acked effects present byte-identically after recovery.
    pub recovered: u64,
    /// Acked effects explicitly reported lost to interior corruption.
    pub quarantined: u64,
    /// Acked effects explicitly reported lost with the torn tail.
    pub tail_lost: u64,
    /// Acked effects neither recovered nor reported — must be zero.
    pub silent_losses: u64,
    /// Probe responses checked across all recoveries.
    pub probes: u64,
}

/// What one kill-and-recover run under a fault plan observed.
#[derive(Default)]
struct StormRun {
    acked: u64,
    recovered: u64,
    quarantined: u64,
    tail_lost: u64,
    fired: u64,
    /// Property violations: acked effects that vanished without being
    /// reported, or recovered bytes that differ from what was acked.
    silent: Vec<String>,
    probe_responses: Vec<String>,
}

/// One kill-and-recover run under `plan`: drive the workload through a
/// durable router on a seeded [`SimFs`], kill it (drop, no flush),
/// crash the disk, recover, and check the loss-accounting property per
/// session: the recovered journal must equal the acked history at
/// exactly the sequence numbers the [`copycat_store::RecoveryReport`]
/// says survived — byte for byte — with every other acked effect
/// attributed to a reported loss class (quarantined interior record,
/// or tail at `seq > last_seq`). Returns the run plus the simulated
/// op count (the baseline caller uses it to size the sweep).
fn storm_run(
    seed: u64,
    plan: Vec<FaultPlan>,
    workload: &[&str],
    probes: &[&str],
) -> Result<(StormRun, u64), String> {
    let sim = Arc::new(SimFs::with_faults(seed, plan));
    let fs = Fs::sim(Arc::clone(&sim));
    let root = PathBuf::from("/storm");
    let router = Router::new(crash_config(&fs, Some(root.clone())));
    for line in workload {
        // Under an armed fault a request may legitimately fail; what
        // matters is what got *acked*, captured from the journal below.
        let _ = router.handle_line(line);
    }
    let pre: Vec<(String, Vec<String>)> = STORM_SESSIONS
        .iter()
        .map(|s| (s.to_string(), router.journal_history(s).unwrap_or_default()))
        .collect();
    drop(router); // kill: no shutdown, no flush
    let ops = sim.op_count();
    sim.crash();
    let recovered = Router::recover(crash_config(&fs, Some(root)))
        .map_err(|e| format!("recovery failed: {e}"))?;
    let reports = recovered.recovery_reports();
    let mut out = StormRun { fired: sim.fired().len() as u64, ..StormRun::default() };
    for (name, acked_lines) in &pre {
        // No report = nothing recovered for the session (e.g. its store
        // never materialized, or its name sidecar was corrupt): every
        // acked effect is then tail-shaped loss against last_seq 0.
        let rep = reports
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, r)| r.clone())
            .unwrap_or_default();
        let acked = acked_lines.len() as u64;
        out.acked += acked;
        if rep.last_seq > acked {
            out.silent.push(format!(
                "session {name}: recovery invented records (last_seq {} > acked {acked})",
                rep.last_seq
            ));
            continue;
        }
        // Seqs are assigned 1:1 with journal pushes, so acked line k
        // carries seq k+1; the report enumerates exactly which survive.
        let expected: Vec<&String> = (1..=rep.last_seq)
            .filter(|s| !rep.quarantined.contains(s))
            .map(|s| &acked_lines[(s - 1) as usize])
            .collect();
        let post = recovered.journal_history(name).unwrap_or_default();
        let identical =
            post.len() == expected.len() && post.iter().zip(&expected).all(|(a, b)| a == *b);
        if !identical {
            out.silent.push(format!(
                "session {name}: recovered journal diverges from acked effects \
                 ({} recovered vs {} expected survivors)",
                post.len(),
                expected.len()
            ));
            continue;
        }
        out.recovered += expected.len() as u64;
        out.quarantined += rep.quarantined.len() as u64;
        out.tail_lost += acked - rep.last_seq;
    }
    for probe in probes {
        let resp = recovered.handle_line(probe);
        if Json::parse(&resp).is_err() {
            return Err(format!("probe answered non-JSON after recovery: {probe} -> {resp}"));
        }
        out.probe_responses.push(resp);
    }
    recovered.shutdown();
    Ok((out, ops))
}

/// The crash-storm property sweep: for **every fault kind at every
/// `stride`-th I/O operation** of the seeded workload, kill the router
/// and recover, asserting zero silent losses — each acked effect is
/// byte-identically present or explicitly accounted in a recovery
/// report. Runs that recovered with zero reported loss must also
/// answer every probe byte-identically to a never-crashed control.
/// `stride: 1` (the first row of the reproduction's F2 table, `harness
/// faults`, checked by `harness check`) covers every injection point;
/// tests use a coarser stride.
pub fn run_crash_storm(seed: u64, stride: u64) -> Result<CrashStormReport, String> {
    let steps = steps(STORM)?;
    let crash =
        steps.iter().position(|s| *s == Step::Crash).ok_or("storm.txt has no `-- crash`")?;
    let workload: Vec<&str> = requests(&steps[..crash]).collect();
    let probes: Vec<&str> = requests(&steps[crash + 1..]).collect();
    let stride = stride.max(1);

    // The never-crashed control's probe answers: the replay's control side.
    let control_probes = control_answers(&steps).split_off(workload.len());

    // Fault-free baseline: defines the sweep domain (op count) and must
    // ack and recover everything, byte-identical to the control.
    let (base, ops) = storm_run(seed, Vec::new(), &workload, &probes)?;
    if base.acked != workload.len() as u64 {
        return Err(format!("baseline acked {} of {} workload lines", base.acked, workload.len()));
    }
    if !base.silent.is_empty() || base.quarantined + base.tail_lost != 0 {
        return Err(format!(
            "fault-free baseline lost effects: quarantined {} tail {} silent {:?}",
            base.quarantined, base.tail_lost, base.silent
        ));
    }
    if base.probe_responses != control_probes {
        return Err("baseline recovery diverged from the never-crashed control".into());
    }

    let mut report = CrashStormReport {
        seed,
        workload_ops: ops,
        runs: 0,
        faults_fired: 0,
        acked: base.acked,
        recovered: base.recovered,
        quarantined: 0,
        tail_lost: 0,
        silent_losses: 0,
        probes: base.probe_responses.len() as u64,
    };
    let mut silent: Vec<String> = Vec::new();
    for kind in FaultKind::ALL {
        let mut at = 1u64;
        while at <= ops {
            let plan = vec![FaultPlan { at_op: at, kind }];
            let (run, _) = storm_run(seed, plan, &workload, &probes)?;
            report.runs += 1;
            report.faults_fired += run.fired;
            report.acked += run.acked;
            report.recovered += run.recovered;
            report.quarantined += run.quarantined;
            report.tail_lost += run.tail_lost;
            report.probes += run.probe_responses.len() as u64;
            if run.silent.is_empty()
                && run.quarantined + run.tail_lost == 0
                && run.probe_responses != control_probes
            {
                silent.push(format!(
                    "{}@op{at}: lossless recovery diverged from the control on probes",
                    kind.name()
                ));
            }
            for s in run.silent {
                silent.push(format!("{}@op{at}: {s}", kind.name()));
            }
            at += stride;
        }
    }
    report.silent_losses = silent.len() as u64;
    if !silent.is_empty() {
        let first = &silent[0];
        return Err(format!("{} silent loss(es) across the storm; first: {first}", silent.len()));
    }
    Ok(report)
}
