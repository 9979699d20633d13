//! The copycat-serve binary.
//!
//! ```text
//! copycat-serve [--addr 127.0.0.1:7878] [--workers N] [--queue N] [--shards N]
//! copycat-serve replay FILE...
//! copycat-serve crash-storm [seed] [stride]
//! copycat-serve herd [sessions]
//! ```
//!
//! The default mode binds a TCP listener and serves line-delimited JSON
//! until a client issues `{"op":"shutdown"}`. `replay` replays each
//! scenario transcript (`>>` requests, `<<` answers, `-- crash`; see
//! `copycat_serve::smoke`) and exits non-zero, naming the file, the
//! line and the expected and actual text, at the first one whose
//! answers differ from the file or whose recovered router diverges from
//! its never-crashed control — the hook `scripts/verify.sh` uses.
//! `crash-storm` runs the storage-fault sweep: every fault
//! kind (short writes, torn appends, failed/lying fsyncs, bit flips,
//! partial reads, ENOSPC) injected at every I/O operation of the
//! `storm.txt` scenario on the simulated filesystem, each followed by
//! kill, recovery, and the no-silent-loss property check.
//! `herd` creates 10k copy-on-write sessions over one shared
//! world, probes a sample end to end, and exits non-zero if the
//! marginal memory cost falls below the sessions-per-GiB floor.

use copycat_serve::server::{Server, ServerConfig};
use copycat_serve::{smoke, tcp};
use copycat_store::Fs;
use copycat_util::bench::CountingAlloc;
use std::net::TcpListener;
use std::path::Path;
use std::process::ExitCode;

/// Counting allocator so `herd` can measure live-byte growth; the
/// delegation to `System` costs two relaxed increments per call.
#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc::new();

/// Minimum copy-on-write sessions that must fit in one GiB. Measured
/// marginal cost is ~1.6 KiB/session (~650k sessions/GiB); the floor
/// asserts the title claim — 100k sessions in well under a gigabyte —
/// with generous headroom against allocator and platform variance.
const HERD_SESSIONS_PER_GB_FLOOR: f64 = 100_000.0;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("replay") {
        return run_replay(&args[1..]);
    }
    if args.first().map(String::as_str) == Some("crash-storm") {
        let seed = args.get(1).and_then(|v| v.parse().ok()).unwrap_or(0xC1D9);
        let stride = args.get(2).and_then(|v| v.parse().ok()).unwrap_or(1);
        return run_crash_storm(seed, stride);
    }
    if args.first().map(String::as_str) == Some("herd") {
        let sessions = args.get(1).and_then(|v| v.parse().ok()).unwrap_or(10_000);
        return run_herd(sessions);
    }
    let mut addr = "127.0.0.1:7878".to_string();
    let mut config = ServerConfig::default();
    let mut i = 0;
    while i < args.len() {
        let (flag, value) = (args[i].as_str(), args.get(i + 1));
        let Some(value) = value else {
            eprintln!("missing value for {flag}");
            return ExitCode::from(2);
        };
        match flag {
            "--addr" => addr = value.clone(),
            "--workers" => config.workers = value.parse().unwrap_or(config.workers),
            "--queue" => config.queue_depth = value.parse().unwrap_or(config.queue_depth),
            "--shards" => config.shards = value.parse().unwrap_or(config.shards),
            other => {
                eprintln!("unknown flag {other}");
                return ExitCode::from(2);
            }
        }
        i += 2;
    }
    let listener = match TcpListener::bind(&addr) {
        Ok(l) => l,
        Err(e) => {
            eprintln!("bind {addr}: {e}");
            return ExitCode::from(1);
        }
    };
    eprintln!(
        "copycat-serve listening on {addr} ({} workers, queue {})",
        config.workers, config.queue_depth
    );
    match tcp::serve(listener, Server::new(config)) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("serve: {e}");
            ExitCode::from(1)
        }
    }
}

fn run_replay(files: &[String]) -> ExitCode {
    if files.is_empty() {
        eprintln!("usage: copycat-serve replay FILE...");
        return ExitCode::from(2);
    }
    for file in files {
        let checked = Fs::real()
            .read(Path::new(file))
            .map_err(|e| e.to_string())
            .and_then(|bytes| String::from_utf8(bytes).map_err(|e| e.to_string()))
            .and_then(|text| smoke::check(&text).map(|()| text));
        match checked {
            Ok(text) => {
                let requests = text.lines().filter(|l| l.starts_with(">> ")).count();
                println!("replay {file}: {requests} requests, byte-identical");
            }
            Err(e) => {
                eprintln!("replay FAILED: {file}: {e}");
                return ExitCode::from(1);
            }
        }
    }
    ExitCode::SUCCESS
}

fn run_crash_storm(seed: u64, stride: u64) -> ExitCode {
    match smoke::run_crash_storm(seed, stride) {
        Ok(r) => {
            println!(
                "crash-storm: {} runs over {} ops (stride {stride}, seed {}), \
                 {} faults fired, {} acked -> {} recovered + {} quarantined + \
                 {} tail-lost, 0 silent losses, {} probes",
                r.runs, r.workload_ops, r.seed, r.faults_fired, r.acked,
                r.recovered, r.quarantined, r.tail_lost, r.probes
            );
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("crash-storm FAILED: {e}");
            ExitCode::from(1)
        }
    }
}

fn run_herd(sessions: usize) -> ExitCode {
    let server = Server::new(ServerConfig { workers: 4, queue_depth: 128, shards: 256 });
    let report =
        smoke::run_herd(&server, sessions, HERD_SESSIONS_PER_GB_FLOOR, &|| ALLOC.snapshot());
    server.shutdown();
    match report {
        Ok(r) => {
            println!(
                "herd: {} shared-world sessions, {:.0} B/session marginal, \
                 {:.0} sessions/GiB (floor {:.0}), {} probes ok",
                r.sessions,
                r.marginal_bytes_per_session,
                r.sessions_per_gb,
                HERD_SESSIONS_PER_GB_FLOOR,
                r.probes_ok
            );
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("herd FAILED: {e}");
            ExitCode::from(1)
        }
    }
}
