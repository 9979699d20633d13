//! The by-example learner pinned as a golden differential corpus.
//!
//! `tests/golden/learner_corpus.txt` has one tab-separated row per
//! example set: `<id> <examples> <held-out row> <old> <single> <program>`.
//! `examples` (`[[[input, …], output], …]`) and the held-out row are
//! JSON; hand-written ids name the test, example, script or case they
//! come from, `seeded/` ids the generator. `old` is the retired multi-column
//! learner's output on the held-out row (`none`: it learned nothing);
//! `single` is the retired string-only learner's `[display, json]` on
//! single-column sets (`-` on the others); `program` is today's.
//!
//! All columns but `program` were captured before the two learners
//! merged and are frozen. Wherever the old learner learned, today's
//! program must be consistent and round-trip through JSON; single-column
//! rows keep the string-only program byte for byte (where it found
//! nothing, only a numeric program may appear); every held-out
//! divergence from the old learner is listed in [`DIVERGENT`], and a
//! hand-written row may diverge only where byte-identity decides it.
//! Regenerate the `program` column after a deliberate change with
//! `UPDATE_GOLDEN=1 cargo test -p copycat-transform --test learner_corpus`.

use copycat_transform::{learn, Piece, Program};
use copycat_util::json;
use std::path::PathBuf;

/// Rows whose held-out output differs from the old learner's, and why.
const DIVERGENT: &[(&str, &str)] = &[(
    "single/first_of_dash",
    "one example (\"a-b\" -> \"a\"): the string-only learner memorizes \"a\" (a 1-char \
     constant costs 0.6, an extraction 1.0), the old learner took the first token",
)];

fn program_column(p: Option<&Program>) -> String {
    p.map_or("none".to_string(), |p| {
        json::to_string(&(p.to_string(), p))
    })
}

#[test]
fn learner_matches_the_golden_corpus() {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/learner_corpus.txt");
    let corpus = std::fs::read_to_string(&path).expect("committed learner corpus");
    let update = std::env::var("UPDATE_GOLDEN").is_ok();
    let (mut refreshed, mut failures, mut divergent) = (String::new(), Vec::new(), Vec::new());
    for line in corpus.lines() {
        let [id, examples, held_out, old, single, golden] = line.split('\t').collect::<Vec<_>>()[..]
        else {
            panic!("row without 6 columns: {line}");
        };
        let examples: Vec<(Vec<String>, String)> = json::from_str(examples).expect("examples");
        let held_out: Vec<String> = json::from_str(held_out).expect("held-out row");
        let learned = learn(&examples);
        let now = program_column(learned.as_ref());
        let frozen = line.rsplit_once('\t').expect("six columns").0;
        refreshed += &format!("{frozen}\t{now}\n");
        let mut fail = |why: String| failures.push(format!("{id}: {why}"));
        if now != golden && !update {
            fail(format!("program {now} != golden {golden}"));
        }
        if let Some(p) = &learned {
            if !p.consistent(&examples) || json::from_str::<Program>(&json::to_string(p)).as_ref() != Ok(p) {
                fail(format!("{p} is inconsistent or does not round-trip through JSON"));
            }
        }
        let numeric = |p: &Program| matches!(p.pieces[..], [Piece::Arith { .. } | Piece::Sum]);
        match single {
            "none" if learned.as_ref().is_some_and(|p| !numeric(p)) => {
                fail(format!("string program {now} where the string-only learner found none"))
            }
            "-" | "none" => {}
            expected if expected != now => fail(format!("single-column program {now} != {expected}")),
            _ => {}
        }
        if old == "none" {
            continue;
        }
        let Some(p) = learned else {
            fail("the old learner learned, today's learner did not".to_string());
            continue;
        };
        let held = json::to_string(&p.apply(&held_out));
        if held != old {
            divergent.push(id.to_string());
            if !id.starts_with("seeded/") && single != now {
                fail(format!("held-out {held} != old {old} ({p})"));
            }
        }
    }
    if update {
        std::fs::write(&path, refreshed).expect("write corpus");
    }
    assert!(failures.is_empty(), "{} corpus failures:\n{}", failures.len(), failures.join("\n"));
    let listed: Vec<&str> = DIVERGENT.iter().map(|(id, _)| *id).collect();
    assert_eq!(divergent, listed, "held-out divergences from the old learner");
    assert!(corpus.lines().count() > 200, "corpus is populated");
}
