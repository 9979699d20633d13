//! The experiment harness: regenerates every table of EXPERIMENTS.md.
//!
//! ```text
//! harness [SECTION...|all]    print the named sections (all by default)
//! harness check               compare every section with the golden record
//! ```
//!
//! A section is `e1`…`e8`, `faults`, `transforms` or `a1`…`a3`; any
//! other name is a usage error (exit 2). Sections run one after another,
//! so each one's wall-clock cells time it alone on the machine.
//!
//! `check` renders every section with its wall-clock cells masked
//! ([`Timing::Masked`]) and requires the text to equal
//! `crates/bench/tests/golden/reproduction.txt` byte for byte; on a
//! mismatch it exits 1, naming the first differing section and row.
//! With `UPDATE_GOLDEN` set it rewrites the file instead.

use copycat_bench::table::{dur, f1, f3, Cell, Timing, TextTable};
use copycat_bench::{
    ablations, chaos_sweep, e1_keystrokes, e2_feedback, e3_steiner, e4_structure, e5_column,
    e6_semantic, e7_linkage, e8_figure4, fault_recovery, transform_sweep,
};
use copycat_serve::smoke::first_difference;
use copycat_store::Fs;
use std::fmt::Write;
use std::path::Path;
use std::process::ExitCode;

fn section_e1(timing: Timing) -> String {
    let mut out = String::new();
    writeln!(out, "== E1: keystroke savings (paper: Karma saved ~75%) ==\n").unwrap();
    let rows = e1_keystrokes::run(20);
    let mut t = TextTable::new(&["task", "manual", "scp", "savings %"]);
    for r in &rows {
        t.row(vec![r.task.clone(), f1(r.manual), f1(r.scp), f1(r.savings_pct)]);
    }
    writeln!(out, "{}", t.render(timing)).unwrap();
    writeln!(
        out,
        "mean savings: {:.1}%  (paper: ~75%)\n",
        e1_keystrokes::mean_savings(&rows)
    )
    .unwrap();
    out
}

fn section_e2(timing: Timing) -> String {
    let mut out = String::new();
    writeln!(out, "== E2a: feedback items until the preferred query ranks first ==").unwrap();
    writeln!(
        out,
        "   (paper: \"as little as one item of feedback for a single query\")\n"
    )
    .unwrap();
    let a = e2_feedback::run_e2a(30);
    let mut t = TextTable::new(&["converged/trials", "mean feedback", "% <=1 item", "max"]);
    t.row(vec![
        format!("{}/{}", a.converged, a.trials),
        f3(a.mean_feedback),
        f1(a.pct_one),
        a.max_feedback.to_string(),
    ]);
    writeln!(out, "{}", t.render(timing)).unwrap();

    writeln!(out, "== E2b: query-family generalization vs training queries ==").unwrap();
    writeln!(
        out,
        "   (paper: \"feedback on 10 queries to learn rankings for an entire family\")\n"
    )
    .unwrap();
    let b = e2_feedback::run_e2b(&[0, 1, 2, 5, 10, 15], 30);
    let mut t = TextTable::new(&["queries trained on", "held-out top-1 accuracy %"]);
    for (k, acc) in &b.curve {
        t.row(vec![k.to_string(), f1(*acc)]);
    }
    writeln!(out, "{}", t.render(timing)).unwrap();
    out
}

/// The E3 sweeps: graph sizes at 4 terminals, terminal counts at 60 nodes.
const E3_SIZES: &[usize] = &[10, 20, 40, 80, 160, 300, 600];
const E3_TERMINALS: &[usize] = &[2, 4, 6, 8, 10, 12, 14];

fn section_e3(timing: Timing) -> String {
    let mut out = String::new();
    writeln!(out, "== E3: Steiner search scale-up (exact vs SPCSH) ==\n").unwrap();
    let (sizes, terms) = e3_steiner::run(E3_SIZES, E3_TERMINALS);
    let mut t = TextTable::new(&["nodes", "terminals", "exact time", "spcsh time", "cost ratio"]);
    for r in sizes.iter().chain(terms.iter()) {
        t.row(vec![
            r.nodes.to_string().into(),
            r.terminals.to_string().into(),
            r.exact_time.map_or(Cell::Seeded("-".into()), |d| Cell::Timed(dur(d))),
            Cell::Timed(dur(r.spcsh_time)),
            r.cost_ratio.map(f3).unwrap_or_else(|| "-".into()).into(),
        ]);
    }
    writeln!(out, "{}", t.render(timing)).unwrap();
    out
}

fn section_e4(timing: Timing) -> String {
    let mut out = String::new();
    writeln!(out, "== E4: row auto-completion quality vs pasted examples ==").unwrap();
    writeln!(
        out,
        "   (paper: well-structured pages need one example; complex pages more)\n"
    )
    .unwrap();
    let rows = e4_structure::run(3, 5);
    let mut t = TextTable::new(&["setting", "examples", "precision", "recall", "F1"]);
    for r in &rows {
        t.row(vec![
            r.setting.clone(),
            r.examples.to_string(),
            f3(r.precision),
            f3(r.recall),
            f3(r.f1),
        ]);
    }
    writeln!(out, "{}", t.render(timing)).unwrap();
    out
}

fn section_e5(timing: Timing) -> String {
    let mut out = String::new();
    writeln!(out, "== E5: column-completion ranking vs distractor sources ==\n").unwrap();
    let rows = e5_column::run(&[0, 5, 10, 20]);
    let mut t = TextTable::new(&["distractors", "hit@1", "hit@3", "MRR", "zip value accuracy"]);
    for r in &rows {
        t.row(vec![
            r.distractors.to_string(),
            r.hit_at_1.to_string(),
            r.hit_at_3.to_string(),
            f3(r.reciprocal_rank),
            f3(r.value_accuracy),
        ]);
    }
    writeln!(out, "{}", t.render(timing)).unwrap();
    out
}

fn section_e6(timing: Timing) -> String {
    let mut out = String::new();
    writeln!(out, "== E6: semantic-type recognition vs training size ==\n").unwrap();
    let rows = e6_semantic::run(&[1, 2, 5, 10, 20, 50], 6);
    let mut t = TextTable::new(&["training values/type", "cross-source top-1 accuracy %"]);
    for r in &rows {
        t.row(vec![r.train_size.to_string(), f1(r.accuracy)]);
    }
    writeln!(out, "{}", t.render(timing)).unwrap();
    writeln!(
        out,
        "same-session transfer (user-defined type, source A -> B): {:.1}%\n",
        e6_semantic::same_session_transfer(20)
    )
    .unwrap();
    out
}

fn section_e7(timing: Timing) -> String {
    let mut out = String::new();
    writeln!(
        out,
        "== E7: record-linkage F1, learned combination vs single heuristics ==\n"
    )
    .unwrap();
    let rows = e7_linkage::run(&[1, 2, 3], 5);
    let mut t = TextTable::new(&["matcher", "edits=1", "edits=2", "edits=3"]);
    let matchers: Vec<String> = {
        let mut m: Vec<String> = rows.iter().map(|r| r.matcher.clone()).collect();
        m.dedup();
        m.truncate(8);
        m
    };
    for m in matchers {
        let f1_at = |e: usize| {
            rows.iter()
                .find(|r| r.matcher == m && r.edits == e)
                .map(|r| f3(r.f1))
                .unwrap_or_else(|| "-".into())
        };
        t.row(vec![m.clone(), f1_at(1), f1_at(2), f1_at(3)]);
    }
    writeln!(out, "{}", t.render(timing)).unwrap();
    out
}

fn section_e8(_: Timing) -> String {
    let mut out = String::new();
    writeln!(out, "== E8: Figure 4 reconstruction ==\n").unwrap();
    let r = e8_figure4::run();
    writeln!(out, "{}", r.graph).unwrap();
    writeln!(out, "chosen query: {}", r.plan).unwrap();
    writeln!(out, "rows: {}   zip accuracy: {:.3}", r.rows, r.zip_accuracy).unwrap();
    writeln!(out, "\nsample explanation:\n{}", r.explanation).unwrap();
    out
}

/// The F1 sweep's injected failure rates.
const FAULT_RATES: &[f64] = &[0.0, 0.1, 0.3, 0.6, 1.0];

fn section_faults(timing: Timing) -> String {
    let mut out = String::new();
    writeln!(
        out,
        "== F1: fault tolerance (failure rate x resilience mode, virtual time) ==\n"
    )
    .unwrap();
    let rows = chaos_sweep::run(FAULT_RATES);
    let mut t = TextTable::new(&[
        "failure rate",
        "mode",
        "completeness",
        "degraded",
        "virtual ms",
        "retries",
        "trips",
    ]);
    for r in &rows {
        t.row(vec![
            f1(r.rate * 100.0) + "%",
            r.mode.to_string(),
            f3(r.completeness),
            if r.degraded { "yes".into() } else { "no".into() },
            r.virtual_ms.to_string(),
            r.retries.to_string(),
            r.trips.to_string(),
        ]);
    }
    writeln!(out, "{}", t.render(timing)).unwrap();

    writeln!(
        out,
        "== F2: recovery under storage faults (crash storm on SimFs) ==\n"
    )
    .unwrap();
    let rows = fault_recovery::run(STORM_SEED, STORM_STRIDES);
    let mut t = TextTable::new(&[
        "stride",
        "workload ops",
        "runs",
        "fired",
        "acked",
        "recovered",
        "quarantined",
        "tail lost",
        "silent",
        "probes",
        "mean run",
    ]);
    for r in &rows {
        t.row(vec![
            r.stride.to_string().into(),
            r.workload_ops.to_string().into(),
            r.runs.to_string().into(),
            r.faults_fired.to_string().into(),
            r.acked.to_string().into(),
            r.recovered.to_string().into(),
            r.quarantined.to_string().into(),
            r.tail_lost.to_string().into(),
            r.silent_losses.to_string().into(),
            r.probes.to_string().into(),
            Cell::Timed(format!("{} us", r.mean_run_us)),
        ]);
    }
    writeln!(out, "{}", t.render(timing)).unwrap();
    writeln!(out, "StoreFs trait overhead (append+fsync loop, trait vs raw std::fs):\n").unwrap();
    let o = fault_recovery::run_overhead(OVERHEAD_RECORDS, OVERHEAD_SYNC_EVERY);
    let mut t = TextTable::new(&["records", "fsyncs", "via trait", "via std::fs", "ratio"]);
    t.row(vec![
        o.records.to_string().into(),
        o.syncs.to_string().into(),
        Cell::Timed(dur(o.via_trait)),
        Cell::Timed(dur(o.via_std)),
        Cell::Timed(format!("{:.2}", o.ratio)),
    ]);
    writeln!(out, "{}", t.render(timing)).unwrap();
    out
}

/// The F2 crash-storm sweep: seed plus injection strides (1 = every
/// I/O op; coarser strides show loss accounting is stable as coverage
/// thins).
const STORM_SEED: u64 = 0xC1D9;
const STORM_STRIDES: &[u64] = &[1, 3, 7];

/// The `StoreFs`-vs-`std::fs` overhead loop: enough records and fsyncs
/// for the timing to be sync-dominated on both sides.
const OVERHEAD_RECORDS: u64 = 2048;
const OVERHEAD_SYNC_EVERY: u64 = 64;

/// The T1 sweep's venue counts.
const TRANSFORM_SIZES: &[usize] = &[10, 30];

fn section_transforms(timing: Timing) -> String {
    let mut out = String::new();
    writeln!(
        out,
        "== T1: transform synthesis (messy-format world, service-only vs learned) ==\n"
    )
    .unwrap();
    let rows = transform_sweep::run(TRANSFORM_SIZES);
    let mut t = TextTable::new(&[
        "venues",
        "mode",
        "completeness",
        "coverage",
        "learn ms",
        "suggest ms",
        "amortized ms/row",
        "program",
    ]);
    for r in &rows {
        t.row(vec![
            r.venues.to_string().into(),
            r.mode.to_string().into(),
            f3(r.completeness).into(),
            f3(r.coverage).into(),
            Cell::Timed(f3(r.learn_ms)),
            Cell::Timed(f3(r.suggest_ms)),
            Cell::Timed(f3(r.amortized_ms)),
            if r.program.is_empty() { "-".to_string() } else { r.program.clone() }.into(),
        ]);
    }
    writeln!(out, "{}", t.render(timing)).unwrap();
    out
}

fn section_a1(timing: Timing) -> String {
    let mut out = String::new();
    writeln!(
        out,
        "== A1: conjunction-of-all-predicates default vs single predicate ==\n"
    )
    .unwrap();
    let r = ablations::run_a1();
    let mut t = TextTable::new(&["join strategy", "result rows", "precision"]);
    t.row(vec![
        "conjunction (default)".into(),
        r.conjunction.0.to_string(),
        f3(r.conjunction.1),
    ]);
    t.row(vec![
        "worst single predicate".into(),
        r.single.0.to_string(),
        f3(r.single.1),
    ]);
    writeln!(out, "{}", t.render(timing)).unwrap();
    out
}

fn section_a2(timing: Timing) -> String {
    let mut out = String::new();
    writeln!(
        out,
        "== A2: structure-learner expert ablation (1 example, hard tiers) ==\n"
    )
    .unwrap();
    let rows = ablations::run_a2(3);
    let mut t = TextTable::new(&["disabled expert", "mean F1"]);
    for r in &rows {
        t.row(vec![r.disabled.clone(), f3(r.f1)]);
    }
    writeln!(out, "{}", t.render(timing)).unwrap();
    out
}

fn section_a3(timing: Timing) -> String {
    let mut out = String::new();
    writeln!(out, "== A3: SPCSH prune-quantile sweep ==\n").unwrap();
    let mut t = TextTable::new(&["nodes", "prune quantile", "mean time", "mean cost ratio"]);
    for nodes in [80, 240] {
        for r in ablations::run_a3(&[0.3, 0.5, 0.7, 0.9, 1.0], 5, nodes) {
            t.row(vec![
                r.nodes.to_string().into(),
                format!("{:.1}", r.quantile).into(),
                Cell::Timed(dur(r.time)),
                f3(r.cost_ratio).into(),
            ]);
        }
    }
    writeln!(out, "{}", t.render(timing)).unwrap();
    out
}

/// A harness section: its CLI name and the function rendering it.
type Section = (&'static str, fn(Timing) -> String);

/// Every section, in report order.
const SECTIONS: &[Section] = &[
    ("e1", section_e1),
    ("e2", section_e2),
    ("e3", section_e3),
    ("e4", section_e4),
    ("e5", section_e5),
    ("e6", section_e6),
    ("e7", section_e7),
    ("e8", section_e8),
    ("faults", section_faults),
    ("transforms", section_transforms),
    ("a1", section_a1),
    ("a2", section_a2),
    ("a3", section_a3),
];

/// The golden reproduction record `check` compares against, relative
/// to the workspace root.
const GOLDEN: &str = "crates/bench/tests/golden/reproduction.txt";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if let [only] = args.as_slice() {
        if only == "check" {
            return check();
        }
    }
    let known = |a: &String| a == "all" || SECTIONS.iter().any(|(name, _)| name == a);
    if let Some(unknown) = args.iter().find(|a| !known(a)) {
        let names: Vec<&str> = SECTIONS.iter().map(|(name, _)| *name).collect();
        eprintln!(
            "harness: unknown section `{unknown}`\n\
             usage: harness [SECTION...|all] | harness check\n\
             sections: {}",
            names.join(" ")
        );
        return ExitCode::from(2);
    }
    let all = args.is_empty() || args.iter().any(|a| a == "all");
    for (name, section) in SECTIONS {
        if all || args.iter().any(|a| a == name) {
            print!("{}", section(Timing::Shown));
        }
    }
    ExitCode::SUCCESS
}

/// `harness check`: render every section masked and compare it with
/// [`GOLDEN`] (or rewrite it under `UPDATE_GOLDEN`).
fn check() -> ExitCode {
    let actual: String = SECTIONS.iter().map(|(_, section)| section(Timing::Masked)).collect();
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..").join(GOLDEN);
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        return match Fs::real().write(&path, actual.as_bytes()) {
            Ok(()) => {
                println!("harness check: rewrote {GOLDEN} ({} lines)", actual.lines().count());
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("harness check: cannot write {GOLDEN}: {e}");
                ExitCode::from(1)
            }
        };
    }
    let read = Fs::real()
        .read(&path)
        .map_err(|e| e.to_string())
        .and_then(|bytes| String::from_utf8(bytes).map_err(|e| e.to_string()));
    let expected = match read {
        Ok(text) => text,
        Err(e) => {
            eprintln!("harness check: cannot read {GOLDEN}: {e}");
            return ExitCode::from(1);
        }
    };
    match first_changed_row(&expected, &actual) {
        None => {
            println!("harness check: {} lines match {GOLDEN}", actual.lines().count());
            ExitCode::SUCCESS
        }
        Some((n, want, got)) => {
            let section = expected
                .lines()
                .take(n)
                .filter_map(|l| l.strip_prefix("== ")?.split(':').next())
                .last()
                .unwrap_or("(before the first section)");
            eprintln!(
                "harness check: section {section} differs from {GOLDEN} at line {n}\n  \
                 expected: {want}\n  actual:   {got}\n\
                 If the change is intended, rewrite the record with \
                 UPDATE_GOLDEN=1 harness check and commit it."
            );
            ExitCode::from(1)
        }
    }
}

/// The first line (1-based) whose words differ, with both lines, so a
/// value that widens its column is named at its row rather than at the
/// realigned header; failing that (a whitespace-only change), the first
/// line that differs at all. `None` when the texts are identical.
fn first_changed_row<'a>(want: &'a str, got: &'a str) -> Option<(usize, &'a str, &'a str)> {
    let (want_lines, got_lines): (Vec<&str>, Vec<&str>) =
        (want.lines().collect(), got.lines().collect());
    (0..want_lines.len().max(got_lines.len()))
        .map(|i| {
            let line = |lines: &[&'a str]| lines.get(i).copied().unwrap_or("<eof>");
            (i + 1, line(&want_lines), line(&got_lines))
        })
        .find(|(_, w, g)| w.split_whitespace().ne(g.split_whitespace()))
        .or_else(|| first_difference(want, got))
}
