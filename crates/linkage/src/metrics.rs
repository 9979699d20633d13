//! String-similarity heuristics. All return a similarity in `[0, 1]`
//! (1 = identical). Comparisons are case-insensitive.

use copycat_util::hash::{FxHashMap, FxHashSet};

/// The metric inventory (feature identifiers for the learner and the E7
/// experiment table).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Metric {
    /// Normalized Levenshtein similarity.
    Levenshtein,
    /// Jaro similarity.
    Jaro,
    /// Jaro-Winkler similarity (prefix-boosted Jaro).
    JaroWinkler,
    /// Jaccard overlap of word tokens.
    TokenJaccard,
    /// TF-IDF-weighted cosine over word tokens (needs a corpus index).
    TfIdfCosine,
    /// Exact (normalized) equality: 1.0 or 0.0.
    Exact,
    /// Numeric closeness when both parse as numbers, else exact match.
    Numeric,
}

impl Metric {
    /// All metrics in a stable order.
    pub const ALL: [Metric; 7] = [
        Metric::Levenshtein,
        Metric::Jaro,
        Metric::JaroWinkler,
        Metric::TokenJaccard,
        Metric::TfIdfCosine,
        Metric::Exact,
        Metric::Numeric,
    ];

    /// Stable lower-case name.
    pub fn name(&self) -> &'static str {
        match self {
            Metric::Levenshtein => "levenshtein",
            Metric::Jaro => "jaro",
            Metric::JaroWinkler => "jaro-winkler",
            Metric::TokenJaccard => "token-jaccard",
            Metric::TfIdfCosine => "tfidf-cosine",
            Metric::Exact => "exact",
            Metric::Numeric => "numeric",
        }
    }

    /// Evaluate this metric on a pair (the TF-IDF metric consults `idx`).
    pub fn eval(&self, a: &str, b: &str, idx: &TfIdfIndex) -> f64 {
        match self {
            Metric::Levenshtein => levenshtein_sim(a, b),
            Metric::Jaro => jaro(a, b),
            Metric::JaroWinkler => jaro_winkler(a, b),
            Metric::TokenJaccard => token_jaccard(a, b),
            Metric::TfIdfCosine => idx.cosine(a, b),
            Metric::Exact => {
                if norm(a) == norm(b) {
                    1.0
                } else {
                    0.0
                }
            }
            Metric::Numeric => numeric_sim(a, b),
        }
    }
}

fn norm(s: &str) -> String {
    s.trim().to_lowercase()
}

fn tokens(s: &str) -> Vec<String> {
    s.split(|c: char| !c.is_alphanumeric())
        .filter(|t| !t.is_empty())
        .map(|t| t.to_lowercase())
        .collect()
}

/// Levenshtein distance normalized to a similarity:
/// `1 - dist / max(len)`. Two empty strings are identical (1.0).
pub fn levenshtein_sim(a: &str, b: &str) -> f64 {
    let a: Vec<char> = norm(a).chars().collect();
    let b: Vec<char> = norm(b).chars().collect();
    let (n, m) = (a.len(), b.len());
    if n == 0 && m == 0 {
        return 1.0;
    }
    if n == 0 || m == 0 {
        return 0.0;
    }
    // Two-row dynamic program.
    let mut prev: Vec<usize> = (0..=m).collect();
    let mut cur = vec![0usize; m + 1];
    for i in 1..=n {
        cur[0] = i;
        for j in 1..=m {
            let cost = usize::from(a[i - 1] != b[j - 1]);
            cur[j] = (prev[j] + 1).min(cur[j - 1] + 1).min(prev[j - 1] + cost);
        }
        std::mem::swap(&mut prev, &mut cur);
    }
    let dist = prev[m];
    1.0 - dist as f64 / n.max(m) as f64
}

/// Jaro similarity.
pub fn jaro(a: &str, b: &str) -> f64 {
    let a: Vec<char> = norm(a).chars().collect();
    let b: Vec<char> = norm(b).chars().collect();
    let (n, m) = (a.len(), b.len());
    if n == 0 && m == 0 {
        return 1.0;
    }
    if n == 0 || m == 0 {
        return 0.0;
    }
    let window = (n.max(m) / 2).saturating_sub(1);
    let mut b_used = vec![false; m];
    let mut matches = 0usize;
    let mut a_matched = Vec::with_capacity(n);
    for (i, &ca) in a.iter().enumerate() {
        let lo = i.saturating_sub(window);
        let hi = (i + window + 1).min(m);
        for j in lo..hi {
            if !b_used[j] && b[j] == ca {
                b_used[j] = true;
                matches += 1;
                a_matched.push((i, j));
                break;
            }
        }
    }
    if matches == 0 {
        return 0.0;
    }
    // Transpositions: compare the matched characters of `a` (in a-order)
    // against the matched characters of `b` (in b-order); half the number
    // of positional mismatches.
    let matched_b: Vec<char> = {
        let mut idx: Vec<usize> = a_matched.iter().map(|&(_, j)| j).collect();
        idx.sort_unstable();
        idx.into_iter().map(|j| b[j]).collect()
    };
    let matched_a: Vec<char> = a_matched.iter().map(|&(i, _)| a[i]).collect();
    let t = matched_a
        .iter()
        .zip(matched_b.iter())
        .filter(|(x, y)| x != y)
        .count() as f64
        / 2.0;
    let mf = matches as f64;
    (mf / n as f64 + mf / m as f64 + (mf - t) / mf) / 3.0
}

/// Jaro-Winkler: Jaro boosted by shared prefix (up to 4 chars, p = 0.1).
pub fn jaro_winkler(a: &str, b: &str) -> f64 {
    let j = jaro(a, b);
    let an = norm(a);
    let bn = norm(b);
    let prefix = an
        .chars()
        .zip(bn.chars())
        .take(4)
        .take_while(|(x, y)| x == y)
        .count() as f64;
    j + prefix * 0.1 * (1.0 - j)
}

/// Jaccard overlap of word-token sets.
pub fn token_jaccard(a: &str, b: &str) -> f64 {
    let ta: FxHashSet<String> = tokens(a).into_iter().collect();
    let tb: FxHashSet<String> = tokens(b).into_iter().collect();
    if ta.is_empty() && tb.is_empty() {
        return 1.0;
    }
    let inter = ta.intersection(&tb).count() as f64;
    let union = ta.union(&tb).count() as f64;
    inter / union
}

fn numeric_sim(a: &str, b: &str) -> f64 {
    match (norm(a).parse::<f64>(), norm(b).parse::<f64>()) {
        (Ok(x), Ok(y)) => {
            let denom = x.abs().max(y.abs());
            if denom == 0.0 {
                1.0
            } else {
                (1.0 - (x - y).abs() / denom).max(0.0)
            }
        }
        _ => {
            if norm(a) == norm(b) {
                1.0
            } else {
                0.0
            }
        }
    }
}

/// Corpus-level token statistics for TF-IDF cosine similarity. Rare tokens
/// (street names) weigh more than ubiquitous ones (`St`, `Ave`).
#[derive(Debug, Clone, Default)]
pub struct TfIdfIndex {
    doc_freq: FxHashMap<String, usize>,
    docs: usize,
}

impl TfIdfIndex {
    /// An empty index: every token gets equal weight (cosine degrades to
    /// plain token cosine).
    pub fn new() -> Self {
        Self::default()
    }

    /// Build from a corpus of strings (e.g. both join columns).
    pub fn build<S: AsRef<str>>(corpus: &[S]) -> Self {
        let mut idx = Self::new();
        for s in corpus {
            idx.add(s.as_ref());
        }
        idx
    }

    /// Add one document's tokens.
    pub fn add(&mut self, s: &str) {
        self.docs += 1;
        let mut seen = copycat_util::hash::FxHashSet::default();
        for t in tokens(s) {
            if seen.insert(t.clone()) {
                *self.doc_freq.entry(t).or_default() += 1;
            }
        }
    }

    fn idf(&self, token: &str) -> f64 {
        let df = self.doc_freq.get(token).copied().unwrap_or(0);
        (((self.docs + 1) as f64) / ((df + 1) as f64)).ln() + 1.0
    }

    /// TF-IDF-weighted cosine similarity of two strings.
    pub fn cosine(&self, a: &str, b: &str) -> f64 {
        let weight = |s: &str| -> FxHashMap<String, f64> {
            let mut tf: FxHashMap<String, f64> = FxHashMap::default();
            for t in tokens(s) {
                *tf.entry(t).or_default() += 1.0;
            }
            for (t, w) in tf.iter_mut() {
                *w *= self.idf(t);
            }
            tf
        };
        let wa = weight(a);
        let wb = weight(b);
        if wa.is_empty() || wb.is_empty() {
            return f64::from(wa.is_empty() && wb.is_empty());
        }
        let dot: f64 = wa
            .iter()
            .filter_map(|(t, x)| wb.get(t).map(|y| x * y))
            .sum();
        let na: f64 = wa.values().map(|x| x * x).sum::<f64>().sqrt();
        let nb: f64 = wb.values().map(|x| x * x).sum::<f64>().sqrt();
        dot / (na * nb)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identical_strings_score_one() {
        let idx = TfIdfIndex::new();
        for m in Metric::ALL {
            assert!(
                (m.eval("Coconut Creek HS", "coconut creek hs", &idx) - 1.0).abs() < 1e-9,
                "{m:?}"
            );
        }
    }

    #[test]
    fn levenshtein_basics() {
        assert!((levenshtein_sim("kitten", "sitting") - (1.0 - 3.0 / 7.0)).abs() < 1e-9);
        assert_eq!(levenshtein_sim("", ""), 1.0);
        assert_eq!(levenshtein_sim("a", ""), 0.0);
    }

    #[test]
    fn jaro_winkler_known_value() {
        // Classic example: MARTHA vs MARHTA = 0.961.
        let jw = jaro_winkler("MARTHA", "MARHTA");
        assert!((jw - 0.961).abs() < 0.005, "got {jw}");
        // DIXON vs DICKSONX ≈ 0.813.
        let jw2 = jaro_winkler("DIXON", "DICKSONX");
        assert!((jw2 - 0.813).abs() < 0.01, "got {jw2}");
    }

    #[test]
    fn jaro_disjoint_is_zero() {
        assert_eq!(jaro("abc", "xyz"), 0.0);
    }

    #[test]
    fn token_jaccard_word_overlap() {
        assert!((token_jaccard("Coconut Creek HS", "Coconut Creek High School") - 2.0 / 5.0).abs() < 1e-9);
    }

    #[test]
    fn tfidf_downweights_common_suffixes() {
        // "St" appears everywhere; street names are rare.
        let corpus: Vec<String> = (0..50)
            .map(|i| format!("{} Name{} St", 100 + i % 5, i))
            .collect();
        let idx = TfIdfIndex::build(&corpus);
        // Same rare name, different (common) number: high.
        let same_name = idx.cosine("100 Name1 St", "103 Name1 St");
        // Same common number and suffix only: low.
        let suffix_only = idx.cosine("100 Name1 St", "100 Name2 St");
        assert!(same_name > suffix_only, "{same_name} vs {suffix_only}");
    }

    #[test]
    fn numeric_similarity() {
        assert!((numeric_sim("100", "110") - 0.909).abs() < 0.01);
        assert_eq!(numeric_sim("100", "abc"), 0.0);
        assert_eq!(numeric_sim("0", "0"), 1.0);
    }

    #[test]
    fn all_metrics_bounded() {
        let idx = TfIdfIndex::build(&["a b c", "d e f"]);
        let pairs = [("", "x"), ("x", ""), ("a b", "b a"), ("123", "abc")];
        for m in Metric::ALL {
            for (a, b) in pairs {
                let v = m.eval(a, b, &idx);
                assert!((0.0..=1.0 + 1e-9).contains(&v), "{m:?}({a:?},{b:?}) = {v}");
            }
        }
    }
}
