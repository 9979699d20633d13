//! Compare mode: two sets of result files, each workload × end-to-end
//! metric's median and quartiles side by side, and every difference
//! outside the bound `BENCHMARK.json` fixes for that metric flagged.

use copycat_util::json::Json;
use std::collections::BTreeMap;
use std::path::Path;
use std::process::ExitCode;

/// Quartiles as Python's `statistics.quantiles(values, n=4)` computes
/// them (the "exclusive" method), so spreads read the same everywhere.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64, f64)> {
    let mut d = values.to_vec();
    d.sort_by(f64::total_cmp);
    let ld = d.len() as i64;
    if ld < 2 {
        return d.first().map(|v| (*v, *v, *v));
    }
    let m = ld + 1;
    let q = |i: i64| {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m - j * 4) as f64;
        (d[(j - 1) as usize] * (4.0 - delta) + d[j as usize] * delta) / 4.0
    };
    Some((q(1), q(2), q(3)))
}

/// workload → metric → values, from every untraced result file in `dir`.
fn load(dir: &Path) -> Result<BTreeMap<String, BTreeMap<String, Vec<f64>>>, String> {
    let mut out: BTreeMap<String, BTreeMap<String, Vec<f64>>> = BTreeMap::new();
    let entries = std::fs::read_dir(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let mut paths: Vec<_> = entries.filter_map(|e| e.ok().map(|e| e.path())).collect();
    paths.sort();
    for path in paths
        .iter()
        .filter(|p| p.extension().is_some_and(|x| x == "json"))
    {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
        let Ok(j) = Json::parse(&text) else { continue };
        let (Some(workload), Some(false)) = (j["workload"].as_str(), j["trace"].as_bool()) else {
            continue;
        };
        for (name, m) in j["end_to_end"].as_object().unwrap_or(&[]) {
            if let Some(v) = m["value"].as_f64() {
                out.entry(workload.to_string())
                    .or_default()
                    .entry(name.clone())
                    .or_default()
                    .push(v);
            }
        }
    }
    Ok(out)
}

/// `perfbench compare <dir-a> <dir-b> [--benchmark <path>]`. Exits 1
/// when any metric got worse by more than its bound.
pub fn main(args: &[String]) -> ExitCode {
    match run(args) {
        Ok(regressed) => ExitCode::from(u8::from(regressed)),
        Err(e) => {
            eprintln!("perfbench compare: {e}");
            ExitCode::from(2)
        }
    }
}

fn run(args: &[String]) -> Result<bool, String> {
    let (a, b) = match args {
        [a, b, ..] => (Path::new(a), Path::new(b)),
        _ => return Err("usage: perfbench compare <dir-a> <dir-b> [--benchmark <path>]".into()),
    };
    let bench_path = match args.get(2..) {
        Some([flag, path]) if flag == "--benchmark" => path.as_str(),
        _ => "BENCHMARK.json",
    };
    let bench = std::fs::read_to_string(bench_path)
        .map_err(|e| format!("{bench_path}: {e}"))
        .and_then(|t| Json::parse(&t).map_err(|e| format!("{bench_path}: {e}")))?;
    let (old, new) = (load(a)?, load(b)?);
    println!(
        "{:<14} {:<22} {:>12} {:>12} {:>12} {:>12} {:>12} {:>12} {:>8}  verdict",
        "workload", "metric", "a.q1", "a.median", "a.q3", "b.q1", "b.median", "b.q3", "delta"
    );
    let mut regressed = false;
    for (workload, metrics) in &old {
        for m in bench["end_to_end"].as_array().unwrap_or(&[]) {
            let (Some(name), Some(bound)) = (m["name"].as_str(), m["bound"].as_f64()) else {
                continue;
            };
            let lower = m["better"].as_str() == Some("lower");
            let (Some(qa), Some(qb)) = (
                metrics.get(name).and_then(|v| quartiles(v)),
                new.get(workload)
                    .and_then(|w| w.get(name))
                    .and_then(|v| quartiles(v)),
            ) else {
                continue;
            };
            let delta = if qa.1 != 0.0 {
                (qb.1 - qa.1) / qa.1
            } else {
                0.0
            };
            let worse = if lower { delta } else { -delta };
            let spread = if qa.1 != 0.0 {
                (qa.2 - qa.0) / qa.1
            } else {
                0.0
            };
            let verdict = if worse > bound {
                regressed = true;
                "WORSE beyond bound"
            } else if -worse > bound {
                "better beyond bound"
            } else if spread > bound {
                "unresolved (a's spread exceeds bound)"
            } else {
                "within bound"
            };
            println!(
                "{workload:<14} {name:<22} {:>12.3} {:>12.3} {:>12.3} {:>12.3} {:>12.3} {:>12.3} {:>+7.1}%  {verdict}",
                qa.0, qa.1, qa.2, qb.0, qb.1, qb.2, delta * 100.0
            );
        }
    }
    Ok(regressed)
}

#[cfg(test)]
mod tests {
    use super::quartiles;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 5.5, 8.25)));
        // statistics.quantiles([1, 2, 3, 4, 100], n=4) == [1.5, 3.0, 52.0]
        assert_eq!(
            quartiles(&[4.0, 1.0, 100.0, 2.0, 3.0]),
            Some((1.5, 3.0, 52.0))
        );
    }
}
