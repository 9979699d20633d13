//! The copycat-serve binary.
//!
//! ```text
//! copycat-serve [--addr 127.0.0.1:7878] [--workers N] [--queue N] [--shards N]
//! copycat-serve replay FILE...
//! ```
//!
//! The default mode binds a TCP listener and serves line-delimited JSON
//! until a client issues `{"op":"shutdown"}`. `replay` replays each
//! scenario transcript (`>>` requests, `<<` answers, `-- crash`; see
//! `copycat_serve::smoke`) and exits non-zero, naming the file, the
//! line and the expected and actual text, at the first one whose
//! answers differ from the file or whose recovered router diverges from
//! its never-crashed control — the hook `scripts/verify.sh` uses.
//! It runs on the system allocator: the sessions-per-GiB smoke, which
//! counts allocations, is its own binary, `copycat-herd`.

// Failures end in an exit code naming them, never a panic (the serve
// library's rule, see its crate root).
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented
)]

use copycat_serve::server::{Server, ServerConfig};
use copycat_serve::{smoke, tcp};
use copycat_store::Fs;
use std::net::TcpListener;
use std::path::Path;
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("replay") {
        return run_replay(&args[1..]);
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
