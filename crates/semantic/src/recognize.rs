//! Recognition phase: does a column of values look like a known type?
//!
//! Per §3.2, a match need not be perfect: "the system evaluates whether
//! the distribution of matched patterns is statistically similar to the
//! matches on the training data". We score a candidate type by combining
//! *coverage* (fraction of values matching any pattern) with the
//! similarity between the column's pattern-match distribution and the
//! type's training distribution (1 − total-variation distance).

use crate::pattern::PatternSet;
use crate::token::split_tokens;

/// Score breakdown for one (type, column) recognition test.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RecognitionScore {
    /// Fraction of column values matching any pattern of the type.
    pub coverage: f64,
    /// 1 − total-variation distance between training and column
    /// distributions over patterns (1.0 = identical distributions).
    pub similarity: f64,
    /// Combined score in `[0, 1]`: `coverage * similarity`.
    pub score: f64,
}

/// A column of values tokenized once, so every candidate type is scored
/// against the same token texts (borrowed from the values).
#[derive(Debug)]
pub(crate) struct TokenizedColumn<'a> {
    /// Every value's token texts, back to back.
    texts: Vec<&'a str>,
    /// End offset into `texts` of each value.
    ends: Vec<usize>,
}

impl<'a> TokenizedColumn<'a> {
    /// Tokenize each value of a column.
    pub(crate) fn new<S: AsRef<str>>(values: &'a [S]) -> Self {
        let mut col = TokenizedColumn { texts: Vec::new(), ends: Vec::with_capacity(values.len()) };
        for v in values {
            split_tokens(v.as_ref(), &mut col.texts);
            col.ends.push(col.texts.len());
        }
        col
    }

    /// Number of values.
    fn len(&self) -> usize {
        self.ends.len()
    }

    /// True for a column without values.
    fn is_empty(&self) -> bool {
        self.ends.is_empty()
    }

    /// Each value's token texts, in column order.
    fn values(&self) -> impl Iterator<Item = &[&'a str]> {
        let starts = std::iter::once(0).chain(self.ends.iter().copied());
        starts.zip(&self.ends).map(|(s, &e)| &self.texts[s..e])
    }
}

/// Score a column of values against one type's pattern set.
pub fn recognize<S: AsRef<str>>(set: &PatternSet, values: &[S]) -> RecognitionScore {
    recognize_tokens(set, &TokenizedColumn::new(values), &mut Vec::new())
}

/// Score a tokenized column against one type's pattern set in a single
/// pass: each value is matched once, and its first matching pattern (or
/// the unmatched bucket) is counted in `counts`, a scratch buffer reused
/// across types.
pub(crate) fn recognize_tokens(
    set: &PatternSet,
    column: &TokenizedColumn<'_>,
    counts: &mut Vec<usize>,
) -> RecognitionScore {
    let patterns = set.patterns();
    if column.is_empty() || patterns.is_empty() {
        return RecognitionScore { coverage: 0.0, similarity: 0.0, score: 0.0 };
    }
    // Per-pattern match counts, then the unmatched count last.
    counts.clear();
    counts.resize(patterns.len() + 1, 0);
    for toks in column.values() {
        let bucket = set.match_index_tokens(toks).unwrap_or(patterns.len());
        counts[bucket] += 1;
    }
    let unmatched = counts[patterns.len()];
    let coverage = (column.len() - unmatched) as f64 / column.len() as f64;
    // Total-variation distance between the training distribution,
    // extended with a zero "unmatched" share, and the column's.
    let n = column.len() as f64;
    let train = patterns.iter().map(|(_, s)| set.training_share(*s)).chain([0.0]);
    let tv: f64 = train
        .zip(counts.iter())
        .map(|(a, &c)| (a - c as f64 / n).abs())
        .sum::<f64>()
        / 2.0;
    let similarity = 1.0 - tv;
    RecognitionScore { coverage, similarity, score: coverage * similarity }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_distribution_scores_high() {
        let train: Vec<String> = (0..30).map(|i| format!("3306{}", i % 10)).collect();
        let set = PatternSet::learn(&train);
        let col: Vec<String> = (0..10).map(|i| format!("3344{i}")).collect();
        let s = recognize(&set, &col);
        assert!(s.score > 0.8, "zips should be recognized as zips: {s:?}");
    }

    #[test]
    fn disjoint_shapes_score_zero() {
        let set = PatternSet::learn(&["33063", "33441", "33302"]);
        let s = recognize(&set, &["Coconut Creek", "Margate"]);
        assert_eq!(s.coverage, 0.0);
        assert_eq!(s.score, 0.0);
    }

    #[test]
    fn partial_overlap_scores_between() {
        let train: Vec<String> = (0..20).map(|i| format!("3306{}", i % 10)).collect();
        let set = PatternSet::learn(&train);
        let s = recognize(&set, &["33063", "Margate", "33441", "hello"]);
        assert!(s.coverage > 0.4 && s.coverage < 0.6);
        assert!(s.score > 0.0 && s.score < 0.8);
    }

    #[test]
    fn empty_inputs_score_zero() {
        let set = PatternSet::learn(&["33063"]);
        let empty: [&str; 0] = [];
        assert_eq!(recognize(&set, &empty).score, 0.0);
        let empty_set = PatternSet::new();
        assert_eq!(recognize(&empty_set, &["x"]).score, 0.0);
    }

    #[test]
    fn score_bounded_zero_one() {
        let set = PatternSet::learn(&["a 1", "b 2", "cc 33"]);
        for col in [vec!["a 1"], vec!["zzz"], vec!["a 1", "zzz"]] {
            let s = recognize(&set, &col);
            assert!((0.0..=1.0).contains(&s.score), "{s:?}");
            assert!((0.0..=1.0).contains(&s.similarity));
        }
    }
}
