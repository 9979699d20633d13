//! copycat-lint: the in-tree concurrency and request-path invariant
//! checker.
//!
//! The reproduction's quantitative claims — byte-identical
//! concurrent-vs-sequential replay, virtual-time deadlines, seedable
//! experiments — rest on invariants. Those that a name-resolved lint
//! can state (no wall-clock read outside the deadline/bench modules, no
//! `std::fs` outside `store::io`, no random-seeded std hasher, a
//! `// SAFETY:` comment on every `unsafe` block) are clippy's, declared
//! in the repo root's `clippy.toml` and `[workspace.lints.clippy]`.
//! This crate enforces the rest, which need whole-tree or
//! region-level reasoning clippy has no lint for: no request path
//! panics, no lock guard blocks on a channel, lock acquisition has a
//! global order, the protocol is exhaustively handled, hot paths do not
//! allocate. It needs no registry crates: a lightweight Rust lexer
//! ([`lex`]), a token-tree matcher with per-file context ([`file`]), a
//! rule engine ([`rules`]), machine-readable findings ([`findings`]),
//! and a committed ratchet ([`baseline`]) that lets the finding count
//! only go down.
//!
//! ## Two-phase analysis
//!
//! Analysis runs in two phases over the whole tree:
//!
//! 1. **Per-file** ([`rules::Rule`]): each file's token stream is
//!    scanned independently — panic paths, hot-path allocations,
//!    relaxed atomics, and friends.
//! 2. **Whole-tree** ([`rules::TreeRule`]): a symbol index
//!    ([`index::SymbolIndex`]) and a conservative intra-crate call
//!    graph ([`callgraph::CallGraph`]) are built over all files at
//!    once, then interprocedural rules run — lock-order cycles,
//!    guard-held-across-transitively-blocking-call, and protocol
//!    exhaustiveness against companion artifacts (golden transcripts,
//!    durability tests) loaded as raw [`index::AuxFile`]s.
//!
//! Files are sorted by path before either phase, so findings are
//! independent of directory-walk order (pinned by a shuffle property
//! test).
//!
//! ## Suppressions
//!
//! A finding is silenced inline with
//!
//! ```text
//! // lint:allow(<rule>) <reason>
//! ```
//!
//! on the offending line (trailing) or the line above (standalone). The
//! reason is mandatory; a reasonless or unknown-rule `lint:allow` is
//! itself a finding (`bad-suppression`). Suppressions are applied
//! *centrally* after both phases, which is what makes staleness
//! detectable: a `lint:allow` that silenced nothing this run becomes a
//! `stale-suppression` finding — suppressions cannot outlive the code
//! they excuse. A `lint:allow` naming a rule this crate does not have
//! (including the four that moved to clippy) is a `bad-suppression`.
//! `relaxed-atomics` accepts a justification comment instead:
//! `// relaxed: <why>` at the site.
//!
//! ## CLI
//!
//! - `copycat-lint check [--budget-ms N]` — exit non-zero on any
//!   non-baseline finding, or if analysis blows the wall-time budget.
//! - `copycat-lint json` — full findings report (with rule provenance
//!   and runtime) as JSON on stdout.
//! - `copycat-lint baseline` — regenerate `LINT_BASELINE.json`, printing
//!   a diff summary. Strict rules are never written to the baseline.

pub mod baseline;
pub mod callgraph;
pub mod file;
pub mod findings;
pub mod index;
pub mod lex;
pub mod rules;
pub mod walk;

use crate::callgraph::CallGraph;
use crate::file::FileCtx;
use crate::findings::Finding;
use crate::index::{AuxFile, SymbolIndex};
use std::io;
use std::path::Path;

/// Companion files the tree rules read as raw text, relative to the
/// repo root. Loaded by [`analyze_tree`]; missing ones are reported by
/// the rules that need them, not silently skipped.
pub const AUX_FILES: &[&str] = &[
    "crates/serve/tests/golden/wire_transcript.txt",
    "crates/serve/tests/durability.rs",
];

/// Run the full two-phase pipeline over one file's source, `path`
/// being its repo-relative `/`-separated location (rule scoping keys
/// off it). Returns findings in canonical sorted order, suppressions
/// applied and stale ones reported.
pub fn analyze_source(path: &str, src: &str) -> Vec<Finding> {
    analyze_files_with_aux(&[(path, src)], Vec::new())
}

/// The testable core of [`analyze_tree`]: the full two-phase pipeline
/// over pre-loaded files plus raw companion files.
pub fn analyze_files_with_aux(files: &[(&str, &str)], aux: Vec<AuxFile>) -> Vec<Finding> {
    let names = rules::names();
    let mut ctxs: Vec<FileCtx> = files.iter().map(|(p, s)| FileCtx::new(p, s, &names)).collect();
    ctxs.sort_by(|a, b| a.path.cmp(&b.path));
    // Phase 1: per-file rules, raw (unsuppressed) findings.
    let mut raw: Vec<Finding> = Vec::new();
    for ctx in &ctxs {
        raw.extend(ctx.bad_suppressions.iter().cloned());
        for rule in rules::all() {
            rule.check(ctx, &mut raw);
        }
    }
    // Phase 2: whole-tree rules over the symbol index and call graph.
    let index = SymbolIndex::build(ctxs, aux);
    let graph = CallGraph::build(&index);
    for rule in rules::tree_rules() {
        rule.check(&index, &graph, &mut raw);
    }
    // Central suppression pass: drop suppressed findings, remember
    // which suppressions earned their keep, report the rest as stale.
    let mut out: Vec<Finding> = Vec::new();
    let mut used: Vec<(usize, usize)> = Vec::new(); // (file, suppression) pairs
    for f in raw {
        let hit = index.files.iter().enumerate().find_map(|(fi, ctx)| {
            if ctx.path != f.file {
                return None;
            }
            ctx.suppressions
                .iter()
                .position(|s| s.rule == f.rule && s.lines.contains(&f.line))
                .map(|si| (fi, si))
        });
        match hit {
            Some(pair) => used.push(pair),
            None => out.push(f),
        }
    }
    for (fi, ctx) in index.files.iter().enumerate() {
        for (si, s) in ctx.suppressions.iter().enumerate() {
            if !used.contains(&(fi, si)) {
                out.push(Finding::new(
                    "stale-suppression",
                    ctx.path.clone(),
                    s.at,
                    format!(
                        "lint:allow({}) suppresses nothing — the finding it excused is gone; delete the comment",
                        s.rule
                    ),
                ));
            }
        }
    }
    findings::sort(&mut out);
    out
}

/// Walk `crates/*/src/**/*.rs` under `root`, load the companion files,
/// and run the full two-phase analysis.
#[expect(clippy::disallowed_methods, reason = "the linter reads the source tree it audits")]
pub fn analyze_tree(root: &Path) -> io::Result<Vec<Finding>> {
    let mut files: Vec<(String, String)> = Vec::new();
    for rel in walk::lintable_files(root)? {
        let src = std::fs::read_to_string(root.join(&rel))?;
        files.push((rel, src));
    }
    let mut aux = Vec::new();
    for rel in AUX_FILES {
        if let Ok(text) = std::fs::read_to_string(root.join(rel)) {
            aux.push(AuxFile { path: (*rel).to_string(), text });
        }
    }
    let pairs: Vec<(&str, &str)> =
        files.iter().map(|(p, s)| (p.as_str(), s.as_str())).collect();
    Ok(analyze_files_with_aux(&pairs, aux))
}

/// The committed baseline's file name, relative to the repo root.
pub const BASELINE_FILE: &str = "LINT_BASELINE.json";

/// Load the committed baseline (absent file = empty baseline).
#[expect(clippy::disallowed_methods, reason = "the linter reads its committed baseline")]
pub fn load_baseline(root: &Path) -> Result<baseline::Baseline, String> {
    let path = root.join(BASELINE_FILE);
    if !path.is_file() {
        return Ok(baseline::Baseline::default());
    }
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    baseline::from_json(&text)
}
