//! End-to-end tests for copycat-lint: every rule against its positive
//! and negative fixture, finding-order stability under shuffled input,
//! a self-check that the real tree has no findings, and the set of
//! files that may excuse clippy's determinism, thread and panic bans.

use copycat_lint::{analyze_files, analyze_source, analyze_tree};
use copycat_util::check::check;

/// `(rule, virtual path, positive fixture, negative fixture)`. The
/// virtual path places the fixture where the rule applies — fixtures
/// live under `tests/fixtures/`, which the tree walk never visits.
const FIXTURES: &[(&str, &str, &str, &str)] = &[
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
    // real walk never hands the analyzer duplicate paths). The
    // lock-order fixtures keep the shuffle exercising both phases —
    // per-file rules AND the symbol-index/call-graph lock-order pass.
    let corpus: Vec<(String, String)> = FIXTURES
        .iter()
        .enumerate()
        .map(|(i, (_, _, pos, _))| (format!("crates/query/src/fixture_{i}.rs"), pos.to_string()))
        .collect();
    let run = |files: &[(String, String)]| {
        let pairs: Vec<(&str, &str)> =
            files.iter().map(|(p, s)| (p.as_str(), s.as_str())).collect();
        analyze_files(&pairs)
    };
    let canonical = run(&corpus);
    // Both phases contribute findings to the canonical report.
    assert!(canonical.iter().any(|f| f.rule == "relaxed-atomics"), "phase 1 absent");
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
fn real_tree_has_zero_findings() {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let findings = analyze_tree(&root).expect("walk the repo");
    assert!(
        findings.is_empty(),
        "tree has findings:\n{}",
        findings
            .iter()
            .map(|f| format!("  {} {}:{} {}", f.rule, f.file, f.line, f.message))
            .collect::<Vec<_>>()
            .join("\n")
    );
}

/// The files allowed to excuse clippy's `disallowed-methods` /
/// `disallowed-types` bans (`clippy.toml`), each with the banned
/// families it owns: `clock` (`Instant::now`, `SystemTime::now`), `fs`
/// (`std::fs`), `hash` (std `HashMap`/`HashSet`/`RandomState`) and
/// `thread` (`thread::spawn`, `thread::Builder`). Clippy reports the
/// clock, fs and thread bans under one lint, so an expect sanctioned
/// for one would silently excuse the others; pinning the families per
/// file closes that gap. A new owner, or a new family for an old one,
/// is a design change: it is added here, in review, not by a quiet
/// `#[expect]`.
const DISALLOWED_EXPECT_SITES: &[(&str, &[&str])] = &[
    ("crates/bench/src/fault_recovery.rs", &["clock", "fs"]), // raw std::fs overhead baseline
    ("crates/bench/src/lib.rs", &["clock", "fs"]), // experiment drivers and their scratch dirs
    ("crates/core/tests/session_corpus.rs", &["fs"]), // golden file
    ("crates/lint/src/lib.rs", &["fs"]),            // reads the tree it audits
    ("crates/lint/src/main.rs", &["clock"]),        // times its own CI budget
    ("crates/lint/src/walk.rs", &["fs"]),           // walks the tree it audits
    ("crates/lint/tests/lint.rs", &["fs"]),         // this pin
    ("crates/semantic/tests/recognition_corpus.rs", &["fs"]), // golden file
    ("crates/serve/src/deadline.rs", &["clock"]),   // the deadline clock
    ("crates/serve/src/router.rs", &["fs"]),        // test temp-dir cleanups only
    ("crates/serve/tests/durability.rs", &["fs"]),  // temp dirs, raw-file corruption probe
    ("crates/serve/tests/golden.rs", &["fs"]),      // golden files, temp dirs
    ("crates/serve/tests/serve.rs", &["clock", "fs"]), // socket waits, scenario files
    ("crates/store/src/io.rs", &["fs"]),            // RealFs, the one std::fs passthrough
    ("crates/store/src/wal.rs", &["clock"]),        // fsync latency accounting
    ("crates/transform/tests/learner_corpus.rs", &["fs"]), // golden file
    ("crates/util/src/hash.rs", &["hash"]),         // defines the Fx aliases over std's maps
    ("crates/util/tests/json_corpus.rs", &["fs"]),  // golden file
];

/// The files allowed to `#[expect]` one of the panic lints the serve
/// crate roots deny (`unwrap_used`, `expect_used`, `panic`,
/// `unreachable`, `todo`, `unimplemented`): each excuses one panic off
/// the request path. A new site is added here, in review.
const PANIC_EXPECT_SITES: &[&str] = &[
    "crates/serve/src/router.rs", // Router::handle, a test/script convenience
    "crates/serve/src/server.rs", // Server::handle, the same
];

/// The restriction lints that keep panics off the serve request paths.
const PANIC_LINTS: [&str; 6] =
    ["unwrap_used", "expect_used", "panic", "unreachable", "todo", "unimplemented"];

/// What `src`'s tokens say (comments and string literals never count).
struct Scan {
    /// The banned families it uses.
    families: Vec<&'static str>,
    /// Whether it expects a `disallowed_*` lint (`Some(true)` when an
    /// inner `#![expect]` covers the module).
    disallowed_expect: Option<bool>,
    /// Whether it expects one of [`PANIC_LINTS`].
    panic_expect: bool,
}

fn scan(src: &str) -> Scan {
    let toks = copycat_lint::lex::lex(src).toks;
    let text = |i: usize| toks.get(i).map_or("", |t| t.text.as_str());
    let mut out = Scan { families: Vec::new(), disallowed_expect: None, panic_expect: false };
    for i in 0..toks.len() {
        // The attribute a `clippy::<lint>` path sits in: `#[` or `#![`.
        let open = || (0..i).rev().find(|&j| text(j) == "[").unwrap_or(0);
        out.families.push(match text(i) {
            "Instant" | "SystemTime" if text(i + 1) == "::" && text(i + 2) == "now" => "clock",
            "fs" if text(i + 1) == "::" || text(i.wrapping_sub(1)) == "::" => "fs",
            "HashMap" | "HashSet" | "RandomState" => "hash",
            "thread" if text(i + 1) == "::" && matches!(text(i + 2), "spawn" | "Builder") => {
                "thread"
            }
            "disallowed_methods" | "disallowed_types" if text(i.wrapping_sub(2)) == "clippy" => {
                let inner = text(open().wrapping_sub(1)) == "!";
                out.disallowed_expect = Some(out.disallowed_expect == Some(true) || inner);
                continue;
            }
            lint if PANIC_LINTS.contains(&lint) && text(i.wrapping_sub(2)) == "clippy" => {
                out.panic_expect |= text(open() + 1) == "expect";
                continue;
            }
            _ => continue,
        });
    }
    out.families.sort_unstable();
    out.families.dedup();
    out
}

#[test]
#[expect(clippy::disallowed_methods, reason = "reads the source tree under test")]
fn disallowed_expect_sites_own_only_their_pinned_families() {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    // Every clippy-linted target: the root package's and each crate's
    // src, tests, benches and examples. Fixtures are data, not targets.
    let mut packages = vec![root.clone()];
    packages.extend(std::fs::read_dir(root.join("crates")).expect("list").map(|e| e.expect("entry").path()));
    let mut paths = Vec::new();
    for dir in packages.iter().flat_map(|p| ["src", "tests", "benches", "examples"].map(|d| p.join(d))) {
        if dir.is_dir() {
            copycat_lint::walk::collect_rs(&dir, &mut paths).expect("walk");
        }
    }
    let mut files: Vec<(String, String)> = paths
        .iter()
        .map(|p| (p.strip_prefix(&root).expect("under root").to_string_lossy().into_owned(), p))
        .filter(|(rel, _)| !rel.starts_with("crates/lint/tests/fixtures/"))
        .map(|(rel, p)| (rel, std::fs::read_to_string(p).expect("read source")))
        .collect();
    files.sort();

    let panic_sites: Vec<&str> =
        files.iter().filter(|(_, src)| scan(src).panic_expect).map(|(rel, _)| rel.as_str()).collect();
    assert_eq!(panic_sites, PANIC_EXPECT_SITES);

    let mut sites = Vec::new();
    for (rel, src) in &files {
        let Some(inner) = scan(src).disallowed_expect else { continue };
        // An inner expect covers the module's subtree too: a crate root's
        // or `mod.rs`'s directory, `foo.rs`'s `foo/`.
        let sub = match rel.rsplit_once('/') {
            Some((dir, "lib.rs" | "main.rs" | "mod.rs")) => format!("{dir}/"),
            _ => format!("{}/", rel.trim_end_matches(".rs")),
        };
        let mut families: Vec<&str> = files
            .iter()
            .filter(|(other, _)| other == rel || (inner && other.starts_with(&sub)))
            .flat_map(|(_, text)| scan(text).families)
            .collect();
        families.sort_unstable();
        families.dedup();
        sites.push((rel.as_str(), families));
    }
    let pinned: Vec<(&str, Vec<&str>)> =
        DISALLOWED_EXPECT_SITES.iter().map(|(rel, families)| (*rel, families.to_vec())).collect();
    assert_eq!(sites, pinned);
}
