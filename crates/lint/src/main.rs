//! The `copycat-lint` binary. See the crate docs for semantics.
//!
//! Exit codes: 0 clean, 1 findings (or an invalid baseline, or a blown
//! wall-time budget), 2 usage or I/O failure.

use copycat_lint::{analyze_tree, baseline, findings, load_baseline, walk, BASELINE_FILE};
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "usage: copycat-lint [--root <dir>] [--budget-ms <n>] <check|json|baseline>

  check     lint crates/*/src and fail on any non-baseline finding
            (--budget-ms also fails the run if analysis takes longer)
  json      print the full findings report as JSON (includes runtime_ms)
  baseline  regenerate LINT_BASELINE.json (ratchet), printing a diff";

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
            "check" | "json" | "baseline" if cmd.is_none() => cmd = Some(a),
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
        "baseline" => {
            let old = match load_baseline(&root) {
                Ok(b) => b,
                Err(e) => return fail(&e),
            };
            let new = baseline::from_findings(&found);
            let strict_remaining: Vec<_> =
                found.iter().filter(|f| !new.counts.contains_key(&(f.rule.to_string(), f.file.clone()))).collect();
            #[expect(
                clippy::disallowed_methods,
                reason = "the linter writes its committed baseline"
            )]
            let written = std::fs::write(root.join(BASELINE_FILE), format!("{}\n", baseline::to_json(&new)));
            if let Err(e) = written {
                return fail(&format!("writing {BASELINE_FILE}: {e}"));
            }
            let diff = baseline::diff_summary(&old, &new);
            if diff.is_empty() {
                println!("copycat-lint baseline: unchanged ({} entries)", new.counts.len());
            } else {
                println!("copycat-lint baseline: {} change(s)", diff.len());
                for line in diff {
                    println!("  {line}");
                }
            }
            if !strict_remaining.is_empty() {
                eprintln!(
                    "warning: {} strict-rule finding(s) were NOT baselined (strict rules are \
                     un-baselineable) — fix or lint:allow them:",
                    strict_remaining.len()
                );
                for f in strict_remaining {
                    eprintln!("  {}:{} [{}] {}", f.file, f.line, f.rule, f.message);
                }
            }
            ExitCode::SUCCESS
        }
        "check" => {
            let base = match load_baseline(&root) {
                Ok(b) => b,
                Err(e) => return fail(&e),
            };
            let verdict = baseline::compare(&found, &base);
            for (rule, file, n) in &verdict.illegal_entries {
                eprintln!(
                    "{BASELINE_FILE}: illegal entry [{rule}] {file} ({n}) — strict rules \
                     cannot be baselined"
                );
            }
            for f in &verdict.violations {
                eprintln!("{}:{} [{}] {}", f.file, f.line, f.rule, f.message);
                for p in &f.provenance {
                    eprintln!("    via {p}");
                }
            }
            for (rule, file, was, now) in &verdict.improvements {
                eprintln!(
                    "note: [{rule}] {file} improved {was} -> {now}; run `copycat-lint baseline` \
                     to ratchet down"
                );
            }
            if over_budget {
                eprintln!(
                    "copycat-lint: analysis took {runtime_ms}ms, over the --budget-ms {}ms budget",
                    budget_ms.unwrap_or(0)
                );
            }
            if verdict.clean() && !over_budget {
                println!(
                    "copycat-lint: clean ({} finding(s), all baselined; {} baseline entr(ies); {runtime_ms}ms)",
                    found.len(),
                    base.counts.len()
                );
                ExitCode::SUCCESS
            } else {
                eprintln!(
                    "copycat-lint: {} violation(s) ({} illegal baseline entr(ies))",
                    verdict.violations.len(),
                    verdict.illegal_entries.len()
                );
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
