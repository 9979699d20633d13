//! Property tests for the transform learner.
//!
//! Two guarantees the rest of the system leans on: any program the
//! learner returns reproduces *every* training example (consistency is
//! by construction, so this doubles as a harness check), and learning
//! is a pure function of the example set — the same pairs produce the
//! same program on every run and on every thread. Both hold for
//! single-string, multi-column and numeric ground truths.

use copycat_transform::{learn, Case, Operand, Piece, Program, Row, Tok};
use copycat_util::check::{check, Gen};
use copycat_util::{prop_ensure, prop_ensure_eq};

/// A random ground-truth program over digit groups and short literal
/// separators — always within the learner's enumeration bounds, so a
/// consistent program is guaranteed to exist for examples it labels.
fn ground_truth(g: &mut Gen) -> Program {
    let pieces = g.vec_of(1..4, |g| {
        if g.bool_p(0.35) {
            Piece::Const(g.string_of("-./ x", 1..3))
        } else {
            Piece::Extract {
                col: 0,
                tok: Tok::Digits,
                index: g.usize_in(0..3),
                rev: g.bool_p(0.3),
                case: Case::Keep,
            }
        }
    });
    Program { pieces }
}

/// Phone-shaped inputs with exactly three digit groups, so every
/// `digits[0..3]` extraction (forward or reversed) resolves.
fn inputs(g: &mut Gen) -> Vec<String> {
    g.vec_of(2..6, |g| {
        format!(
            "({:03}) {:03}-{:04}",
            g.usize_in(0..1000),
            g.usize_in(0..1000),
            g.usize_in(0..10000)
        )
    })
}

fn labeled_pairs(g: &mut Gen) -> Option<Vec<(String, String)>> {
    let truth = ground_truth(g);
    inputs(g).into_iter().map(|i| truth.apply(&i).map(|out| (i, out))).collect()
}

/// Rows of 2–3 two-word cells labeled by a random concatenation of
/// whole cells and first/last words, some upper-cased, and separators.
fn multi_column_pairs(g: &mut Gen) -> Option<Vec<(Vec<String>, String)>> {
    let width = g.usize_in(2..4);
    let pieces = g.vec_of(1..5, |g| match g.usize_in(0..3) {
        0 => Piece::Const(g.string_of(" ,()-", 1..3)),
        n => Piece::Extract {
            col: g.usize_in(0..width),
            tok: if n == 1 { Tok::Whole } else { Tok::Space },
            index: 0,
            rev: n == 2 && g.bool_p(0.5),
            case: *g.choose(&[Case::Keep, Case::Upper]),
        },
    });
    let word = |g: &mut Gen| format!("{}{}", g.choose(&['A', 'M', 'T']), g.string_of("aeinorst", 2..6));
    let rows = g.vec_of(2..5, |g| (0..width).map(|_| format!("{} {}", word(g), word(g))).collect());
    label(&Program { pieces }, rows)
}

/// Rows of 1–3 integer cells labeled by the sum, `col ⊕ col` or
/// `col ⊕ k` with a constant whose results print exactly.
fn numeric_pairs(g: &mut Gen) -> Option<Vec<(Vec<String>, String)>> {
    let width = g.usize_in(1..4);
    let (op, col) = (*g.choose(&['+', '-', '*', '/']), g.usize_in(0..width));
    let piece = match g.usize_in(0..3) {
        0 if width > 1 => Piece::Sum,
        1 if width > 1 && op != '/' => Piece::Arith { op, col, rhs: Operand::Col((col + 1) % width) },
        _ => Piece::Arith { op, col, rhs: Operand::Num(*g.choose(&[2.0, 4.0, 5.0, 8.0, 10.0, 0.5])) },
    };
    let rows = g.vec_of(2..5, |g| (0..width).map(|_| g.usize_in(1..1000).to_string()).collect());
    label(&Program { pieces: vec![piece] }, rows)
}

fn label(truth: &Program, rows: Vec<Vec<String>>) -> Option<Vec<(Vec<String>, String)>> {
    rows.into_iter().map(|r| truth.apply(&r).map(|out| (r, out))).collect()
}

/// Learning succeeds and the program reproduces every training pair.
fn reproduces<R: Row + std::fmt::Debug>(pairs: &[(R, String)]) -> Result<(), String> {
    let program = learn(pairs)
        .ok_or_else(|| format!("no program found though ground truth exists: {pairs:?}"))?;
    for (input, expected) in pairs {
        let got = program.apply(input);
        prop_ensure_eq!(
            got.as_deref(),
            Some(expected.as_str()),
            "program {program} fails its own training example {input:?}"
        );
    }
    prop_ensure!(program.consistent(pairs));
    Ok(())
}

/// The same pairs give the same program (or the same `None`) on this
/// thread and on several concurrent ones: no shared state, no
/// iteration-order dependence.
fn deterministic<R: Row + Sync>(pairs: Vec<(R, String)>) -> Result<(), String> {
    let reference = learn(&pairs);
    prop_ensure_eq!(learn(&pairs), reference);
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..4).map(|_| s.spawn(|| learn(&pairs))).collect();
        for handle in handles {
            let threaded = handle.join().expect("learner thread panicked");
            prop_ensure_eq!(threaded, reference);
        }
        Ok(())
    })
}

#[test]
fn learned_programs_reproduce_all_training_examples() {
    // Ground truths unsatisfiable on their inputs (`None`) are skipped.
    check("transform-reproduces-training-examples", 64, &[], |g| {
        labeled_pairs(g).map_or(Ok(()), |p| reproduces(&p))
    });
    check("transform-multi-column-reproduces", 64, &[], |g| {
        multi_column_pairs(g).map_or(Ok(()), |p| reproduces(&p))
    });
    check("transform-numeric-reproduces", 64, &[], |g| {
        numeric_pairs(g).map_or(Ok(()), |p| reproduces(&p))
    });
}

#[test]
fn learning_is_deterministic_across_runs_and_threads() {
    check("transform-learning-deterministic", 24, &[], |g| {
        labeled_pairs(g).map_or(Ok(()), deterministic)
    });
    check("transform-multi-column-deterministic", 16, &[], |g| {
        multi_column_pairs(g).map_or(Ok(()), deterministic)
    });
    check("transform-numeric-deterministic", 16, &[], |g| {
        numeric_pairs(g).map_or(Ok(()), deterministic)
    });
}
