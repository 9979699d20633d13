//! The `copycat-lint` binary. See the crate docs for semantics.
//!
//! Exit codes: 0 clean, 1 findings (or a blown wall-time budget), 2
//! usage or I/O failure.

use copycat_lint::{analyze_tree, findings, walk};
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "usage: copycat-lint [--root <dir>] [--budget-ms <n>] <check|json>

  check     lint crates/*/src and fail on any finding
            (--budget-ms also fails the run if analysis takes longer)
  json      print the full findings report as JSON (includes runtime_ms)";

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1);
    let mut root: Option<PathBuf> = None;
    let mut cmd: Option<String> = None;
    let mut budget_ms: Option<u64> = None;
    while let Some(a) = args.next() {
        match a.as_str() {
            "--root" => match args.next() {
                Some(p) => root = Some(PathBuf::from(p)),
                None => return usage("--root needs a path"),
            },
            "--budget-ms" => match args.next().and_then(|n| n.parse().ok()) {
                Some(n) => budget_ms = Some(n),
                None => return usage("--budget-ms needs a number"),
            },
            "check" | "json" if cmd.is_none() => cmd = Some(a),
            other => return usage(&format!("unrecognized argument {other:?}")),
        }
    }
    let Some(cmd) = cmd else { return usage("missing subcommand") };
    let root = match root {
        Some(r) => r,
        None => {
            let cwd = match std::env::current_dir() {
                Ok(c) => c,
                Err(e) => return fail(&format!("cannot read cwd: {e}")),
            };
            match walk::find_root(&cwd) {
                Some(r) => r,
                None => return fail("no workspace root (Cargo.toml + crates/) above cwd; pass --root"),
            }
        }
    };
    #[expect(
        clippy::disallowed_methods,
        reason = "the budget times the linter's own CI latency, not simulated time"
    )]
    let started = std::time::Instant::now();
    let found = match analyze_tree(&root) {
        Ok(f) => f,
        Err(e) => return fail(&format!("walking {}: {e}", root.display())),
    };
    let runtime_ms = started.elapsed().as_millis() as u64;
    let over_budget = budget_ms.is_some_and(|b| runtime_ms > b);
    match cmd.as_str() {
        "json" => {
            println!("{}", findings::report_json(&found, Some(runtime_ms)));
            ExitCode::SUCCESS
        }
        "check" => {
            for f in &found {
                eprintln!("{}:{} [{}] {}", f.file, f.line, f.rule, f.message);
                for p in &f.provenance {
                    eprintln!("    via {p}");
                }
            }
            if over_budget {
                eprintln!(
                    "copycat-lint: analysis took {runtime_ms}ms, over the --budget-ms {}ms budget",
                    budget_ms.unwrap_or(0)
                );
            }
            if found.is_empty() && !over_budget {
                println!("copycat-lint: clean ({runtime_ms}ms)");
                ExitCode::SUCCESS
            } else {
                eprintln!("copycat-lint: {} finding(s)", found.len());
                ExitCode::FAILURE
            }
        }
        _ => usage("unreachable subcommand"),
    }
}

fn usage(msg: &str) -> ExitCode {
    eprintln!("copycat-lint: {msg}\n{USAGE}");
    ExitCode::from(2)
}

fn fail(msg: &str) -> ExitCode {
    eprintln!("copycat-lint: {msg}");
    ExitCode::from(2)
}
