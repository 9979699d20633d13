//! End-to-end tests for copycat-lint: every rule against its positive
//! and negative fixture, finding-order stability under shuffled input,
//! and a self-check of the real tree against the committed baseline.

use copycat_lint::index::AuxFile;
use copycat_lint::{
    analyze_files_with_aux, analyze_source, analyze_tree, load_baseline,
};
use copycat_util::check::check;

/// `(rule, virtual path, positive fixture, negative fixture)`. The
/// virtual path places the fixture where the rule applies — fixtures
/// live under `tests/fixtures/`, which the tree walk never visits.
const FIXTURES: &[(&str, &str, &str, &str)] = &[
    (
        "wallclock",
        "crates/query/src/fixture.rs",
        include_str!("fixtures/wallclock_pos.rs"),
        include_str!("fixtures/wallclock_neg.rs"),
    ),
    (
        "fs-discipline",
        "crates/store/src/fixture.rs",
        include_str!("fixtures/fs_discipline_pos.rs"),
        include_str!("fixtures/fs_discipline_neg.rs"),
    ),
    (
        "randomstate",
        "crates/query/src/fixture.rs",
        include_str!("fixtures/randomstate_pos.rs"),
        include_str!("fixtures/randomstate_neg.rs"),
    ),
    (
        "randomstate",
        "crates/transform/src/fixture.rs",
        include_str!("fixtures/randomstate_transform_pos.rs"),
        include_str!("fixtures/randomstate_transform_neg.rs"),
    ),
    (
        "panic-path",
        "crates/serve/src/fixture.rs",
        include_str!("fixtures/panic_path_pos.rs"),
        include_str!("fixtures/panic_path_neg.rs"),
    ),
    (
        "relaxed-atomics",
        "crates/graph/src/fixture.rs",
        include_str!("fixtures/relaxed_atomics_pos.rs"),
        include_str!("fixtures/relaxed_atomics_neg.rs"),
    ),
    (
        "guard-across-blocking",
        "crates/query/src/fixture.rs",
        include_str!("fixtures/guard_blocking_pos.rs"),
        include_str!("fixtures/guard_blocking_neg.rs"),
    ),
    (
        "guard-across-blocking",
        "crates/query/src/fixture.rs",
        include_str!("fixtures/guard_blocking_wait_pos.rs"),
        include_str!("fixtures/guard_blocking_wait_neg.rs"),
    ),
    (
        "spawn-discipline",
        "crates/services/src/fixture.rs",
        include_str!("fixtures/spawn_discipline_pos.rs"),
        include_str!("fixtures/spawn_discipline_neg.rs"),
    ),
    (
        "unsafe-safety",
        "crates/query/src/fixture.rs",
        include_str!("fixtures/unsafe_safety_pos.rs"),
        include_str!("fixtures/unsafe_safety_neg.rs"),
    ),
    (
        "lock-order",
        "crates/serve/src/fixture.rs",
        include_str!("fixtures/lock_order_pos.rs"),
        include_str!("fixtures/lock_order_neg.rs"),
    ),
    (
        "guard-across-blocking",
        "crates/serve/src/fixture.rs",
        include_str!("fixtures/guard_blocking_via_callee_pos.rs"),
        include_str!("fixtures/guard_blocking_via_callee_neg.rs"),
    ),
    (
        "hot-path-alloc",
        "crates/serve/src/fixture.rs",
        include_str!("fixtures/hotpath_pos.rs"),
        include_str!("fixtures/hotpath_neg.rs"),
    ),
    (
        "stale-suppression",
        "crates/query/src/fixture.rs",
        include_str!("fixtures/stale_suppression_pos.rs"),
        include_str!("fixtures/stale_suppression_neg.rs"),
    ),
];

/// The protocol-exhaustiveness fixtures are multi-file by nature (the
/// rule audits the protocol against its dispatch and test artifacts),
/// so they run through [`analyze_files_with_aux`] instead of the
/// per-file table above.
const PROTOCOL_POS: &str = include_str!("fixtures/protocol_pos.rs");
const PROTOCOL_NEG: &str = include_str!("fixtures/protocol_neg.rs");
const DISPATCH_POS: &str =
    "fn dispatch(op: Op) { match op { Op::Ping => a(), Op::Invalid => c(), _ => d() } }";
const DISPATCH_NEG: &str =
    "fn dispatch(op: Op) { match op { Op::Ping => a(), Op::Paste => b(), Op::Invalid => c() } }";

fn protocol_aux() -> Vec<AuxFile> {
    vec![
        AuxFile {
            path: "crates/serve/tests/golden/wire_transcript.txt".to_string(),
            text: "{\"op\":\"ping\"}\n{\"op\":\"paste\",\"text\":\"x\"}\n".to_string(),
        },
        AuxFile {
            path: "crates/serve/tests/durability.rs".to_string(),
            text: "const S: &str = \"{\\\"op\\\":\\\"paste\\\"}\";".to_string(),
        },
    ]
}

#[test]
fn protocol_positive_set_fires_exactly_its_rule() {
    let found = analyze_files_with_aux(
        &[
            ("crates/serve/src/protocol.rs", PROTOCOL_POS),
            ("crates/serve/src/server.rs", DISPATCH_POS),
        ],
        protocol_aux(),
    );
    assert!(!found.is_empty(), "positive protocol set produced no findings");
    for f in &found {
        assert_eq!(f.rule, "protocol-exhaustiveness", "{} at {}:{}", f.rule, f.file, f.line);
        assert_eq!(f.file, "crates/serve/src/protocol.rs");
    }
    // The four layers that dropped `Paste` each get their own finding.
    for gap in ["Op::ALL", "no wire name", "mutates()", "no handler"] {
        assert!(
            found.iter().any(|f| f.message.contains(gap)),
            "no finding mentions {gap:?}: {found:?}"
        );
    }
}

#[test]
fn protocol_negative_set_is_clean() {
    let found = analyze_files_with_aux(
        &[
            ("crates/serve/src/protocol.rs", PROTOCOL_NEG),
            ("crates/serve/src/server.rs", DISPATCH_NEG),
        ],
        protocol_aux(),
    );
    assert!(found.is_empty(), "{found:?}");
}

#[test]
fn every_positive_fixture_fires_exactly_its_rule() {
    for (rule, path, pos, _) in FIXTURES {
        let findings = analyze_source(path, pos);
        assert!(
            !findings.is_empty(),
            "{rule}: positive fixture produced no findings"
        );
        for f in &findings {
            assert_eq!(
                f.rule, *rule,
                "{rule}: positive fixture also fired {} at {}:{}",
                f.rule, f.file, f.line
            );
        }
    }
}

#[test]
fn every_negative_fixture_is_clean() {
    for (rule, path, _, neg) in FIXTURES {
        let findings = analyze_source(path, neg);
        assert!(
            findings.is_empty(),
            "{rule}: negative fixture fired {:?}",
            findings
                .iter()
                .map(|f| format!("{} at line {}", f.rule, f.line))
                .collect::<Vec<_>>()
        );
    }
}

#[test]
fn finding_order_is_independent_of_walk_order() {
    // The corpus: every positive fixture under a distinct path (the
    // real walk never hands the analyzer duplicate paths), plus the
    // multi-file protocol set so the shuffle exercises both phases —
    // per-file rules AND the symbol-index/call-graph tree rules.
    let mut corpus: Vec<(String, String)> = FIXTURES
        .iter()
        .enumerate()
        .map(|(i, (rule, _, pos, _))| {
            let dir = if *rule == "panic-path" { "serve" } else { "query" };
            (
                format!("crates/{dir}/src/fixture_{i}.rs"),
                pos.to_string(),
            )
        })
        .collect();
    corpus.push(("crates/serve/src/protocol.rs".to_string(), PROTOCOL_POS.to_string()));
    corpus.push(("crates/serve/src/server.rs".to_string(), DISPATCH_POS.to_string()));
    let run = |files: &[(String, String)]| {
        let pairs: Vec<(&str, &str)> =
            files.iter().map(|(p, s)| (p.as_str(), s.as_str())).collect();
        analyze_files_with_aux(&pairs, protocol_aux())
    };
    let canonical = run(&corpus);
    assert!(!canonical.is_empty());
    // Both phases contribute findings to the canonical report.
    assert!(canonical.iter().any(|f| f.rule == "wallclock"), "phase 1 absent");
    assert!(
        canonical.iter().any(|f| f.rule == "lock-order"),
        "phase 2 absent: {canonical:?}"
    );
    check("lint.shuffle_invariance", 64, &[], |g| {
        // A Fisher-Yates permutation drawn from the generator.
        let mut shuffled = corpus.clone();
        for i in (1..shuffled.len()).rev() {
            let j = g.usize_in(0..i + 1);
            shuffled.swap(i, j);
        }
        let got = run(&shuffled);
        if got == canonical {
            Ok(())
        } else {
            Err(format!(
                "shuffled input changed the report: {} vs {} findings",
                got.len(),
                canonical.len()
            ))
        }
    });
}

#[test]
fn real_tree_matches_committed_baseline() {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("..")
        .join("..");
    let findings = analyze_tree(&root).expect("walk the repo");
    let baseline = load_baseline(&root).expect("parse committed baseline");
    let verdict = copycat_lint::baseline::compare(&findings, &baseline);
    assert!(
        verdict.illegal_entries.is_empty(),
        "baseline names unbaselineable rules: {:?}",
        verdict.illegal_entries
    );
    assert!(
        verdict.violations.is_empty(),
        "tree has non-baselined findings:\n{}",
        verdict
            .violations
            .iter()
            .map(|f| format!("  {} {}:{} {}", f.rule, f.file, f.line, f.message))
            .collect::<Vec<_>>()
            .join("\n")
    );
    // Strict rules must be at zero outright, not merely baselined.
    for ((rule, file), n) in &baseline.counts {
        assert!(
            !copycat_lint::rules::STRICT.contains(&rule.as_str()),
            "strict rule {rule} baselined for {file} (count {n})"
        );
    }
}
