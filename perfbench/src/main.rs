//! The CopyCat benchmark: seeded workloads through the production front
//! doors, end-to-end metrics from an untraced run, per-layer metrics
//! from a traced one. See `README.md` beside this crate.
//!
//! ```text
//! perfbench --workload <integrate|hot_read> --seed <n>
//!           --seconds <s> --trace <0|1> --serve-bin <path> [--out <dir>]
//! perfbench compare <results-dir-a> <results-dir-b> [--benchmark <BENCHMARK.json>]
//! ```

mod compare;
mod gen;
mod metrics;
mod net;
mod probe;
mod reference;
mod stats;
#[cfg(test)]
mod tests;
mod trace;
mod workloads;

use copycat_util::bench::CountingAlloc;
use copycat_util::json::Json;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;
use workloads::{Ctx, Outcome};

/// Counts allocations for the traced run's probes.
#[global_allocator]
pub static ALLOC: CountingAlloc = CountingAlloc::new();

/// The workloads, by name.
pub const WORKLOADS: [&str; 2] = ["integrate", "hot_read"];

/// Closed-loop clients: one user waiting on each answer.
const CLIENTS: usize = 1;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    serve_bin: PathBuf,
    out: PathBuf,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut a = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        serve_bin: PathBuf::new(),
        out: PathBuf::from(".perfbench/results"),
    };
    let mut i = 0;
    while i < args.len() {
        let value = args
            .get(i + 1)
            .ok_or_else(|| format!("missing value for {}", args[i]))?;
        let bad = |what: &str| format!("bad {what}: {value}");
        match args[i].as_str() {
            "--workload" => a.workload = value.clone(),
            "--seed" => a.seed = value.parse().map_err(|_| bad("seed"))?,
            "--seconds" => a.seconds = value.parse().map_err(|_| bad("seconds"))?,
            "--trace" => a.trace = value == "1",
            "--serve-bin" => a.serve_bin = PathBuf::from(value),
            "--out" => a.out = PathBuf::from(value),
            other => return Err(format!("unknown flag {other}")),
        }
        i += 2;
    }
    if !WORKLOADS.contains(&a.workload.as_str()) {
        return Err(format!("--workload must be one of {WORKLOADS:?}"));
    }
    if a.seconds.is_nan() || a.seconds <= 0.0 {
        return Err("--seconds must be positive".to_string());
    }
    Ok(a)
}

fn git_revision() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

/// Host CPU ticks from `/proc/stat`: (all, stolen).
fn host_cpu() -> (f64, f64) {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let ticks: Vec<f64> = stat
        .lines()
        .next()
        .unwrap_or_default()
        .split_whitespace()
        .skip(1)
        .take(8)
        .filter_map(|t| t.parse().ok())
        .collect();
    (ticks.iter().sum(), ticks.get(7).copied().unwrap_or(0.0))
}

fn num(v: f64) -> Json {
    Json::Num(if v.is_finite() { v } else { 0.0 })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("compare") {
        return compare::main(&args[1..]);
    }
    let a = match parse_args(&args) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    match run(&a) {
        Ok(correct) => {
            if correct {
                ExitCode::SUCCESS
            } else {
                ExitCode::from(1)
            }
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(2)
        }
    }
}

/// Run one workload, write the results and spans, print the metrics.
/// Returns whether every correctness check passed.
fn run(a: &Args) -> Result<bool, String> {
    if !a.serve_bin.is_file() {
        return Err(format!("no server binary at {}", a.serve_bin.display()));
    }
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let work_dir = std::env::current_dir()
        .map_err(|e| e.to_string())?
        .join(".perfbench");
    let ctx = Ctx {
        seed: a.seed,
        seconds: a.seconds,
        trace: a.trace,
        clients: CLIENTS,
        serve_bin: a.serve_bin.clone(),
        work_dir: work_dir.clone(),
    };
    let mut out = Outcome::new(Instant::now());
    let cpu0 = host_cpu();
    match a.workload.as_str() {
        "integrate" => workloads::integrate(&ctx, &mut out)?,
        _ => workloads::hot_read(&ctx, &mut out)?,
    }

    let cpu1 = host_cpu();
    out.steal = (cpu1.1 - cpu0.1) / (cpu1.0 - cpu0.0).max(1.0);
    let e2e = metrics::end_to_end(&out.rec, &out);
    let (mut attempted, mut failed) = out.rec.attempted_failed();
    if let Some(traced) = &out.traced {
        let (ta, tf) = traced.attempted_failed();
        attempted += ta;
        failed += tf;
    }
    let correct = failed == 0;
    for f in out
        .rec
        .failures
        .iter()
        .chain(out.traced.iter().flat_map(|r| r.failures.iter()))
    {
        eprintln!("perfbench: FAILED {f}");
    }

    let metrics_json = |pairs: Vec<(String, f64, &str)>| {
        Json::obj(
            pairs
                .into_iter()
                .map(|(n, v, u)| {
                    (
                        n,
                        Json::obj(vec![
                            ("value".into(), num(v)),
                            ("unit".into(), Json::str(u)),
                        ]),
                    )
                })
                .collect(),
        )
    };
    let e2e_pairs: Vec<(String, f64, &str)> = metrics::END_TO_END
        .iter()
        .map(|(n, u)| (n.to_string(), e2e[n], *u))
        .collect();
    let layer_pairs: Vec<(String, f64, &str)> = if a.trace {
        let values = metrics::per_layer_values(&out);
        metrics::per_layer()
            .into_iter()
            .map(|(n, u)| (n.clone(), values[&n], u))
            .collect()
    } else {
        Vec::new()
    };
    let printed = if a.trace { &layer_pairs } else { &e2e_pairs };
    for (n, v, u) in printed {
        println!("{:<40} {v:>14.3} {u}", format!("{}.{n}", a.workload));
    }
    let failed_frac = failed as f64 / attempted.max(1) as f64;
    if !a.trace {
        for (n, u) in metrics::UNGATED {
            println!(
                "{:<40} {:>14.3} {u} (not gated)",
                format!("{}.{n}", a.workload),
                e2e[n]
            );
        }
        println!(
            "{:<40} {failed_frac:>14.6} ratio (not gated)",
            format!("{}.failed_frac", a.workload)
        );
    }

    let tag = format!("{}-seed{}-trace{}", a.workload, a.seed, u8::from(a.trace));
    if a.trace {
        let path = work_dir.join("spans").join(format!("{tag}.jsonl"));
        out.tracer
            .write_jsonl(&path)
            .map_err(|e| format!("write {}: {e}", path.display()))?;
    }
    let traffic: Vec<Json> = out
        .rec
        .tally
        .iter()
        .map(|((phase, class), t)| (phase.as_str().to_string(), class, t))
        .chain(out.traced.iter().flat_map(|r| {
            r.tally
                .iter()
                .map(|((_, class), t)| ("timed_traced".to_string(), class, t))
        }))
        .map(|(phase, class, t)| {
            Json::obj(vec![
                ("phase".into(), Json::str(phase)),
                ("class".into(), Json::str(*class)),
                ("sent".into(), num(t.sent as f64)),
                ("ok".into(), num(t.ok as f64)),
                ("failed".into(), num(t.failed as f64)),
            ])
        })
        .collect();
    let nums = |v: &[f64]| Json::Arr(v.iter().map(|x| num(*x)).collect());
    let meta = Json::obj(vec![
        ("nproc".into(), num(nproc as f64)),
        ("clients".into(), num(ctx.clients as f64)),
        (
            "profile".into(),
            Json::str(if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            }),
        ),
        ("git_revision".into(), Json::str(git_revision())),
        ("seed".into(), num(a.seed as f64)),
        ("seconds".into(), num(a.seconds)),
        ("server".into(), Json::str(&out.server)),
        ("data_dir_fs".into(), Json::str(net::fs_type(&work_dir))),
        ("steal_frac".into(), num(out.steal)),
        (
            "generator_us_per_req".into(),
            num(metrics::generator_us(&out.rec)),
        ),
    ]);
    let mut result = vec![
        ("workload".to_string(), Json::str(&a.workload)),
        ("trace".into(), Json::Bool(a.trace)),
        ("meta".into(), meta),
        ("correct".into(), Json::Bool(correct)),
        ("attempted".into(), num(attempted as f64)),
        ("failed".into(), num(failed as f64)),
        ("failed_frac".into(), num(failed_frac)),
        (
            "ungated".into(),
            metrics_json(
                metrics::UNGATED
                    .iter()
                    .map(|(n, u)| (n.to_string(), e2e[n], *u))
                    .collect(),
            ),
        ),
        ("end_to_end".into(), metrics_json(e2e_pairs.clone())),
        ("setup_s".into(), nums(&out.setup_s)),
        ("traffic".into(), Json::Arr(traffic)),
        ("timed_latency_us".into(), class_latencies(&out.rec)),
        (
            "failures".into(),
            Json::Arr(
                out.rec
                    .failures
                    .iter()
                    .chain(out.traced.iter().flat_map(|r| r.failures.iter()))
                    .map(|f| Json::str(f.as_str()))
                    .collect(),
            ),
        ),
    ];
    if a.trace {
        result.push(("per_layer".into(), metrics_json(layer_pairs.clone())));
    }
    let path = a.out.join(format!("{tag}.json"));
    std::fs::create_dir_all(&a.out)
        .and_then(|()| std::fs::write(&path, Json::obj(result).to_string_pretty()))
        .map_err(|e| format!("write {}: {e}", path.display()))?;

    let line = Json::obj(vec![
        ("correct".into(), Json::Bool(correct)),
        ("attempted".into(), num(attempted as f64)),
        ("failed".into(), num(failed as f64)),
        (
            "metrics".into(),
            metrics_json(if a.trace { layer_pairs } else { e2e_pairs }),
        ),
    ]);
    println!("{}", line.to_string());
    Ok(correct)
}

/// Timed latency per request class: count, p50, p90, p99.
fn class_latencies(rec: &stats::Recorder) -> Json {
    Json::obj(
        rec.latency_us
            .iter()
            .map(|(class, v)| {
                let mut v = v.clone();
                v.sort_by(f64::total_cmp);
                (
                    class.to_string(),
                    Json::obj(vec![
                        ("n".into(), num(v.len() as f64)),
                        ("p50".into(), num(stats::percentile(&v, 0.5))),
                        ("p90".into(), num(stats::percentile(&v, 0.9))),
                        ("p99".into(), num(stats::percentile(&v, 0.99))),
                    ]),
                )
            })
            .collect(),
    )
}
