//! Property-based tests over cross-cutting invariants, running on the
//! in-tree `copycat::util::check` harness (seeded generation with
//! shrink-on-failure; failures print a seed to add to the property's
//! regression list).

use copycat::document::html::{parse, TagPath};
use copycat::document::Sheet;
use copycat::linkage::{Metric, TfIdfIndex};
use copycat::provenance::expr::{BoolSemiring, CountSemiring, TropicalSemiring};
use copycat::provenance::{witnesses, Provenance};
use copycat::query::Value;
use copycat::semantic::{recognize, tokenize_value, PatternSet, TokenClass};
use copycat::util::check::{check, Gen, DEFAULT_CASES};
use copycat::{prop_ensure, prop_ensure_eq};

// --- Provenance polynomial algebra ------------------------------------

/// A small recursive generator for provenance expressions.
fn gen_provenance(g: &mut Gen, depth: usize) -> Provenance {
    if depth == 0 || g.bool_p(0.35) {
        let r = g.u64_in(0..4);
        let i = g.u64_in(0..4);
        return Provenance::base(format!("r{r}"), i);
    }
    match g.usize_in(0..3) {
        0 => Provenance::times(gen_provenance(g, depth - 1), gen_provenance(g, depth - 1)),
        1 => Provenance::plus(gen_provenance(g, depth - 1), gen_provenance(g, depth - 1)),
        _ => Provenance::labeled("Q", gen_provenance(g, depth - 1)),
    }
}

/// Boolean evaluation agrees with witness semantics: the tuple exists
/// under an assignment iff some witness is fully present.
#[test]
fn bool_eval_matches_witnesses() {
    check("bool_eval_matches_witnesses", DEFAULT_CASES, &[], |g| {
        let p = gen_provenance(g, 3);
        let present_mask = g.u64_in(0..256) as u16;
        let present = |t: &copycat::provenance::TupleId| {
            let idx = (t.relation.as_bytes()[1] - b'0') as u64 * 4 + t.row;
            present_mask & (1 << (idx % 16)) != 0
        };
        let via_eval = p.eval::<BoolSemiring>(&present);
        let via_witnesses = witnesses(&p).iter().any(|w| w.iter().all(&present));
        prop_ensure_eq!(via_eval, via_witnesses);
        Ok(())
    });
}

/// The tropical cost of a derivation is the cheapest witness's cost.
#[test]
fn tropical_eval_is_min_witness_cost() {
    check("tropical_eval_is_min_witness_cost", DEFAULT_CASES, &[], |g| {
        let p = gen_provenance(g, 3);
        let cost = |t: &copycat::provenance::TupleId| t.row as f64 + 1.0;
        let via_eval = p.eval::<TropicalSemiring>(&cost);
        let via_witnesses = witnesses(&p)
            .iter()
            .map(|w| w.iter().map(cost).sum::<f64>())
            .fold(f64::INFINITY, f64::min);
        // Witness sets are deduplicated within a witness (idempotent ⊗),
        // so the eval cost can only be >= the witness cost; they agree
        // when no witness repeats a tuple.
        prop_ensure!(via_eval + 1e-9 >= via_witnesses);
        Ok(())
    });
}

/// Plus/times produce expressions whose derivation count is stable
/// under the algebra's flattening.
#[test]
fn count_eval_is_positive() {
    check("count_eval_is_positive", DEFAULT_CASES, &[], |g| {
        let p = gen_provenance(g, 3);
        prop_ensure!(p.eval::<CountSemiring>(&|_| 1) >= 1);
        Ok(())
    });
}

// --- Tag paths ---------------------------------------------------------

/// lgg subsumes both of its arguments (when defined), and parsing
/// round-trips through Display.
#[test]
fn tagpath_lgg_subsumes() {
    check("tagpath_lgg_subsumes", DEFAULT_CASES, &[], |g| {
        let names = ["div", "tr", "li"];
        let n = g.usize_in(1..5);
        let tags: Vec<usize> = (0..n).map(|_| g.usize_in(0..3)).collect();
        let idx_a: Vec<usize> = (0..n).map(|_| g.usize_in(0..4)).collect();
        let idx_b: Vec<usize> = (0..n).map(|_| g.usize_in(0..4)).collect();
        let mk = |idx: &[usize]| {
            TagPath::new(
                (0..n)
                    .map(|i| copycat::document::TagStep::nth(names[tags[i]], idx[i]))
                    .collect(),
            )
        };
        let a = mk(&idx_a);
        let b = mk(&idx_b);
        let g2 = a.lgg(&b).expect("same shape");
        prop_ensure!(g2.subsumes(&a));
        prop_ensure!(g2.subsumes(&b));
        let reparsed = TagPath::parse(&g2.to_string()).expect("parses");
        prop_ensure_eq!(reparsed, g2);
        Ok(())
    });
}

// --- HTML parsing never panics and keeps text --------------------------

#[test]
fn html_parse_total() {
    check("html_parse_total", DEFAULT_CASES, &[], |g| {
        let s = g.string_of("abcXYZ019<>/=\" ", 0..200);
        let doc = parse(&s);
        // Walking the whole tree is safe.
        let _ = doc.text_content(doc.root());
        let _ = doc.descendants(doc.root());
        Ok(())
    });
}

/// Escaped text content survives a render/parse round trip.
#[test]
fn html_text_roundtrip() {
    check("html_text_roundtrip", DEFAULT_CASES, &[], |g| {
        let text = g.string_of("abcdefXYZ0123,.& <", 1..60);
        let html = format!(
            "<p>{}</p>",
            text.replace('&', "&amp;").replace('<', "&lt;")
        );
        let doc = parse(&html);
        let expected: String = {
            // Whitespace normalizes.
            let mut out = String::new();
            let mut last_space = true;
            for c in text.chars() {
                if c.is_whitespace() {
                    if !last_space {
                        out.push(' ');
                        last_space = true;
                    }
                } else {
                    out.push(c);
                    last_space = false;
                }
            }
            out.trim().to_string()
        };
        prop_ensure_eq!(doc.text_content(doc.root()), expected);
        Ok(())
    });
}

// --- CSV / Sheet round trip ---------------------------------------------

#[test]
fn sheet_csv_roundtrip() {
    check("sheet_csv_roundtrip", DEFAULT_CASES, &[], |g| {
        let rows: Vec<Vec<String>> = {
            let n = g.usize_in(1..6);
            (0..n)
                .map(|_| {
                    let w = g.usize_in(1..4);
                    (0..w)
                        .map(|_| g.string_of("abcXYZ01,\" \n", 0..12))
                        .collect()
                })
                .collect()
        };
        let width = rows.iter().map(Vec::len).max().unwrap_or(0);
        let padded: Vec<Vec<String>> = rows
            .iter()
            .map(|r| {
                let mut r = r.clone();
                r.resize(width, String::new());
                r
            })
            .collect();
        let sheet = Sheet::new("s", None, padded.clone());
        let back = Sheet::from_csv("s", &sheet.to_csv(), false);
        // CSV cannot represent a trailing empty-celled row distinction;
        // compare cell-by-cell over the original dimensions.
        for (i, row) in padded.iter().enumerate() {
            for (j, cell) in row.iter().enumerate() {
                let got = back.cell(copycat::document::CellAddr::new(i, j)).unwrap_or("");
                prop_ensure_eq!(got, cell.as_str(), "cell ({}, {})", i, j);
            }
        }
        Ok(())
    });
}

// --- Pattern learning ----------------------------------------------------

/// A learned pattern set always covers its own training data.
#[test]
fn patterns_cover_training() {
    check("patterns_cover_training", DEFAULT_CASES, &[], |g| {
        let values: Vec<String> = {
            let n = g.usize_in(1..30);
            (0..n)
                .map(|_| g.string_of("abcdABCD0123 -", 1..16))
                .collect()
        };
        let non_empty: Vec<String> = values
            .into_iter()
            .filter(|v| !v.trim().is_empty())
            .collect();
        if non_empty.is_empty() {
            return Ok(());
        }
        let set = PatternSet::learn(&non_empty);
        prop_ensure!(
            (recognize(&set, &non_empty).coverage - 1.0).abs() < 1e-9,
            "coverage {} on {:?}",
            recognize(&set, &non_empty).coverage,
            non_empty
        );
        Ok(())
    });
}

/// Regression (ported from the proptest-recorded failure seed, shrunk
/// counterexample preserved verbatim): this mix of punctuation-bearing
/// and two-token values used to escape the learned set's coverage.
#[test]
fn patterns_cover_training_regression() {
    let values = [
        "-0", "a-", "A a", "a b", "A-A", "b A", "0 B", "c C", "0-B", "d D", "0",
    ];
    let set = PatternSet::learn(&values);
    assert!(
        (recognize(&set, &values).coverage - 1.0).abs() < 1e-9,
        "coverage {} over {:?}; patterns: {:?}",
        recognize(&set, &values).coverage,
        values,
        set.patterns().iter().map(|(p, s)| (p.to_string(), *s)).collect::<Vec<_>>()
    );
}

/// Token classes assigned by `of` always match their own token, and
/// generalization preserves matching.
#[test]
fn token_class_soundness() {
    check("token_class_soundness", DEFAULT_CASES, &[], |g| {
        let v = g.string_of("abcXYZ012().,-", 1..20);
        for tok in tokenize_value(&v) {
            prop_ensure!(tok.class.matches(&tok.text), "{:?} vs {:?}", tok.class, tok.text);
            let lub = tok.class.generalize(TokenClass::CapWord);
            prop_ensure!(lub.matches(&tok.text) || lub == TokenClass::CapWord);
        }
        Ok(())
    });
}

// --- Linkage metrics -------------------------------------------------------

/// Every metric is bounded, reflexive, and symmetric.
#[test]
fn metrics_are_sane() {
    check("metrics_are_sane", DEFAULT_CASES, &[], |g| {
        let a = g.string_of("abcdeXYZ012 ", 0..24);
        let b = g.string_of("abcdeXYZ012 ", 0..24);
        let idx = TfIdfIndex::build(&[a.clone(), b.clone()]);
        for m in Metric::ALL {
            let ab = m.eval(&a, &b, &idx);
            let ba = m.eval(&b, &a, &idx);
            prop_ensure!((0.0..=1.0 + 1e-9).contains(&ab), "{:?} out of range: {}", m, ab);
            prop_ensure!((ab - ba).abs() < 1e-9, "{:?} asymmetric", m);
            let aa = m.eval(&a, &a, &idx);
            if !a.trim().is_empty() {
                prop_ensure!((aa - 1.0).abs() < 1e-9, "{:?} not reflexive on {:?}: {}", m, a, aa);
            }
        }
        Ok(())
    });
}

// --- Value parsing -----------------------------------------------------------

/// parse → as_text round-trips trimmed input for non-numeric strings.
#[test]
fn value_parse_roundtrip() {
    check("value_parse_roundtrip", DEFAULT_CASES, &[], |g| {
        let s = g.string_of("abcdefgh XYZ", 1..20);
        let v = Value::parse(&s);
        if !s.trim().is_empty() {
            prop_ensure_eq!(v.as_text(), s.trim());
        }
        Ok(())
    });
}

#[test]
fn numeric_values_compare_across_forms() {
    check("numeric_values_compare_across_forms", DEFAULT_CASES, &[], |g| {
        let n = g.i64_in(-1_000_000..1_000_000);
        if n != 0 && n.to_string().starts_with('0') {
            return Ok(());
        }
        let from_num = Value::Num(n as f64);
        let from_str = Value::parse(&n.to_string());
        prop_ensure_eq!(from_num, from_str);
        Ok(())
    });
}
