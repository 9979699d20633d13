//! The findings baseline: a committed ratchet that only goes down.
//!
//! `LINT_BASELINE.json` records, per `(rule, file)`, how many findings
//! are tolerated. `copycat-lint check` fails on any finding *beyond*
//! its baselined count — so new debt cannot land — and nags when the
//! live count drops below the baseline, so paid-off debt gets locked in
//! with `copycat-lint baseline`. Strict rules ([`crate::rules::STRICT`])
//! and malformed suppressions may never be baselined at all: for those,
//! the only ways forward are a fix or an inline `lint:allow` reason.

use crate::findings::Finding;
use crate::rules::STRICT;
use copycat_util::json::Json;
use std::collections::BTreeMap;

/// Tolerated finding counts per `(rule, file)`.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct Baseline {
    /// `(rule, file) → count`, ordered for stable serialization.
    pub counts: BTreeMap<(String, String), u64>,
}

/// The verdict of comparing live findings against the baseline.
#[derive(Debug, Default)]
pub struct Verdict {
    /// Findings beyond their baselined count (check fails).
    pub violations: Vec<Finding>,
    /// Baseline entries naming strict rules (check fails: un-baselineable).
    pub illegal_entries: Vec<(String, String, u64)>,
    /// `(rule, file, baselined, live)` where live < baselined — the
    /// ratchet can be tightened.
    pub improvements: Vec<(String, String, u64, u64)>,
}

impl Verdict {
    /// Whether `check` should exit zero.
    pub fn clean(&self) -> bool {
        self.violations.is_empty() && self.illegal_entries.is_empty()
    }
}

/// Group findings into `(rule, file) → count`.
pub fn count(findings: &[Finding]) -> BTreeMap<(String, String), u64> {
    let mut m = BTreeMap::new();
    for f in findings {
        *m.entry((f.rule.to_string(), f.file.clone())).or_insert(0) += 1;
    }
    m
}

/// A rule that may never carry baseline entries. Beyond the strict
/// set, malformed and stale suppressions are un-baselineable: tolerated
/// suppression rot defeats the point of tracking it.
fn unbaselineable(rule: &str) -> bool {
    STRICT.contains(&rule) || rule == "bad-suppression" || rule == "stale-suppression"
}

/// Compare live findings against a baseline.
pub fn compare(findings: &[Finding], baseline: &Baseline) -> Verdict {
    let mut v = Verdict::default();
    for ((rule, file), &allowed) in &baseline.counts {
        if unbaselineable(rule) {
            v.illegal_entries.push((rule.clone(), file.clone(), allowed));
        }
    }
    let live = count(findings);
    for (key @ (rule, file), &n) in &live {
        let allowed = if unbaselineable(rule) { 0 } else { baseline.counts.get(key).copied().unwrap_or(0) };
        if n > allowed {
            // Surface the individual findings; the trailing `allowed`
            // ones (by sorted order they are interchangeable) stay quiet.
            let mut over = n - allowed;
            for f in findings.iter().filter(|f| f.rule == rule && &f.file == file) {
                if over == 0 {
                    break;
                }
                v.violations.push(f.clone());
                over -= 1;
            }
        }
    }
    for (key @ (rule, file), &allowed) in &baseline.counts {
        if unbaselineable(rule) {
            continue;
        }
        let n = live.get(key).copied().unwrap_or(0);
        if n < allowed {
            v.improvements.push((rule.clone(), file.clone(), allowed, n));
        }
    }
    v
}

/// Build the baseline that tolerates exactly the given findings —
/// minus strict-rule findings, which are never written.
pub fn from_findings(findings: &[Finding]) -> Baseline {
    let mut counts = count(findings);
    counts.retain(|(rule, _), _| !unbaselineable(rule));
    Baseline { counts }
}

/// Serialize to the committed JSON shape.
pub fn to_json(b: &Baseline) -> Json {
    Json::obj(vec![
        ("version".into(), Json::Num(1.0)),
        (
            "entries".into(),
            Json::Arr(
                b.counts
                    .iter()
                    .map(|((rule, file), n)| {
                        Json::obj(vec![
                            ("rule".into(), Json::str(rule)),
                            ("file".into(), Json::str(file)),
                            ("count".into(), Json::Num(*n as f64)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

/// Parse the committed JSON shape. `Err` carries a human message.
pub fn from_json(text: &str) -> Result<Baseline, String> {
    let j = Json::parse(text).map_err(|e| format!("baseline is not valid JSON: {e}"))?;
    let entries = j
        .get("entries")
        .and_then(Json::as_array)
        .ok_or_else(|| "baseline has no \"entries\" array".to_string())?;
    let mut counts = BTreeMap::new();
    for e in entries {
        let rule = e.get("rule").and_then(Json::as_str).ok_or("entry missing \"rule\"")?;
        let file = e.get("file").and_then(Json::as_str).ok_or("entry missing \"file\"")?;
        let n = e.get("count").and_then(Json::as_f64).ok_or("entry missing \"count\"")?;
        counts.insert((rule.to_string(), file.to_string()), n as u64);
    }
    Ok(Baseline { counts })
}

/// Human diff summary between two baselines (for `copycat-lint baseline`).
pub fn diff_summary(old: &Baseline, new: &Baseline) -> Vec<String> {
    let mut lines = Vec::new();
    for (key @ (rule, file), n) in &new.counts {
        match old.counts.get(key) {
            None => lines.push(format!("+ {rule} {file}: {n}")),
            Some(o) if o != n => lines.push(format!("~ {rule} {file}: {o} -> {n}")),
            _ => {}
        }
    }
    for (key @ (rule, file), o) in &old.counts {
        if !new.counts.contains_key(key) {
            lines.push(format!("- {rule} {file}: {o} -> 0"));
        }
    }
    lines
}

#[cfg(test)]
mod tests {
    use super::*;

    fn f(rule: &'static str, file: &str, line: u32) -> Finding {
        Finding::new(rule, file, line, "m".to_string())
    }

    #[test]
    fn ratchet_blocks_growth_and_reports_shrink() {
        let baseline = from_findings(&[
            f("relaxed-atomics", "a.rs", 1),
            f("relaxed-atomics", "a.rs", 2),
            f("spawn-discipline", "b.rs", 1),
        ]);
        // Same counts: clean.
        assert!(compare(&[f("relaxed-atomics", "a.rs", 9), f("relaxed-atomics", "a.rs", 10),
                          f("spawn-discipline", "b.rs", 3)], &baseline).clean());
        // One more in a.rs: exactly one violation escapes.
        let v = compare(
            &[f("relaxed-atomics", "a.rs", 1), f("relaxed-atomics", "a.rs", 2),
              f("relaxed-atomics", "a.rs", 3), f("spawn-discipline", "b.rs", 1)],
            &baseline,
        );
        assert_eq!(v.violations.len(), 1);
        // One fewer: clean, with an improvement nag.
        let v = compare(&[f("relaxed-atomics", "a.rs", 1), f("spawn-discipline", "b.rs", 1)], &baseline);
        assert!(v.clean());
        assert_eq!(v.improvements, vec![("relaxed-atomics".into(), "a.rs".into(), 2, 1)]);
    }

    #[test]
    fn strict_rules_cannot_be_baselined() {
        // from_findings refuses to write them…
        let b = from_findings(&[f("hot-path-alloc", "a.rs", 1), f("relaxed-atomics", "a.rs", 2)]);
        assert_eq!(b.counts.len(), 1);
        // …a hand-edited baseline naming them is itself a violation…
        let mut hacked = Baseline::default();
        hacked.counts.insert(("panic-path".into(), "x.rs".into()), 5);
        let v = compare(&[], &hacked);
        assert!(!v.clean());
        assert_eq!(v.illegal_entries.len(), 1);
        // …and strict findings violate even when "covered".
        let v = compare(&[f("panic-path", "x.rs", 3)], &hacked);
        assert_eq!(v.violations.len(), 1);
    }

    #[test]
    fn json_roundtrip_and_diff() {
        let b = from_findings(&[f("relaxed-atomics", "a.rs", 1), f("guard-across-blocking", "c.rs", 2)]);
        let round = from_json(&to_json(&b).to_string()).unwrap();
        assert_eq!(b, round);
        let empty = Baseline::default();
        let d = diff_summary(&b, &empty);
        assert_eq!(d.len(), 2);
        assert!(d.iter().all(|l| l.starts_with("- ")));
    }
}
