//! Learning the "best combination of heuristics" for a linkage task.
//!
//! A [`Matcher`] scores a candidate pair as a weighted sum of the metric
//! features over each aligned field pair. [`MatchLearner`] trains the
//! weights online with a passive-aggressive update (the same family as the
//! MIRA learner used by the integration learner, [Crammer et al. 2006]),
//! from labeled pairs that come from the user's pasted examples (positives)
//! and feedback rejections (negatives).

use crate::metrics::{Metric, TfIdfIndex};

/// A labeled training pair: the aligned key fields of a left and right
/// record plus whether they refer to the same entity.
#[derive(Debug, Clone)]
pub struct LabeledPair {
    /// Key fields from the left record.
    pub left: Vec<String>,
    /// Key fields from the right record (same arity as `left`).
    pub right: Vec<String>,
    /// True when the records match.
    pub matched: bool,
}

/// A trained (or hand-weighted) linkage scorer.
#[derive(Debug, Clone)]
pub struct Matcher {
    /// Per-(field, metric) weights, row-major: `weights[f * M + m]`.
    weights: Vec<f64>,
    /// Decision threshold on the weighted score.
    threshold: f64,
    /// Number of aligned key fields.
    fields: usize,
    /// TF-IDF statistics shared by the cosine metric.
    index: TfIdfIndex,
}

impl Matcher {
    /// A matcher using a single metric with weight 1 on every field —
    /// the per-heuristic baselines of experiment E7.
    pub fn single_metric(metric: Metric, fields: usize, index: TfIdfIndex) -> Self {
        let m = Metric::ALL.len();
        let mut weights = vec![0.0; fields * m];
        let mi = Metric::ALL
            .iter()
            .position(|x| *x == metric)
            .expect("metric in inventory");
        for f in 0..fields {
            weights[f * m + mi] = 1.0;
        }
        Self { weights, threshold: 0.5 * fields as f64, fields, index }
    }

    /// Feature vector of a pair.
    fn features(&self, left: &[String], right: &[String]) -> Vec<f64> {
        let m = Metric::ALL.len();
        let mut out = vec![0.0; self.fields * m];
        for f in 0..self.fields {
            let (a, b) = (
                left.get(f).map(String::as_str).unwrap_or(""),
                right.get(f).map(String::as_str).unwrap_or(""),
            );
            for (mi, metric) in Metric::ALL.iter().enumerate() {
                out[f * m + mi] = metric.eval(a, b, &self.index);
            }
        }
        out
    }

    /// The raw weighted score of a pair.
    pub fn score(&self, left: &[String], right: &[String]) -> f64 {
        self.features(left, right)
            .iter()
            .zip(self.weights.iter())
            .map(|(x, w)| x * w)
            .sum()
    }

    /// Whether the pair scores at or above the decision threshold.
    pub fn is_match(&self, left: &[String], right: &[String]) -> bool {
        self.score(left, right) >= self.threshold
    }

    /// The decision threshold.
    pub fn threshold(&self) -> f64 {
        self.threshold
    }

    /// The learned weights (for inspection / explanations).
    pub fn weights(&self) -> &[f64] {
        &self.weights
    }
}

/// Online passive-aggressive trainer for [`Matcher`] weights.
#[derive(Debug, Clone)]
pub struct MatchLearner {
    fields: usize,
    epochs: usize,
    aggressiveness: f64,
}

impl MatchLearner {
    /// A learner for `fields` aligned key fields.
    pub fn new(fields: usize) -> Self {
        Self { fields, epochs: 12, aggressiveness: 0.5 }
    }

    /// Train a matcher from labeled pairs. The TF-IDF index should be
    /// built over the values the matcher will see at join time.
    pub fn train(&self, pairs: &[LabeledPair], index: TfIdfIndex) -> Matcher {
        let m = Metric::ALL.len();
        let dim = self.fields * m;
        // Start from uniform small positive weights: with no training at
        // all the matcher behaves like an unweighted metric average.
        let mut matcher = Matcher {
            weights: vec![1.0 / m as f64; dim],
            threshold: 0.5 * self.fields as f64,
            fields: self.fields,
            index,
        };
        if pairs.is_empty() {
            // Untrained: a permissive threshold, so the uniform metric
            // average still links obvious near-matches out of the box.
            matcher.threshold = 0.35 * self.fields as f64;
            return matcher;
        }
        // Passive-aggressive I with margin 1 around the threshold:
        // positives must score >= threshold + 0.5, negatives <= threshold - 0.5.
        for _ in 0..self.epochs {
            for p in pairs {
                let x = matcher.features(&p.left, &p.right);
                let s: f64 = x
                    .iter()
                    .zip(matcher.weights.iter())
                    .map(|(xi, wi)| xi * wi)
                    .sum();
                let y = if p.matched { 1.0 } else { -1.0 };
                let margin = y * (s - matcher.threshold);
                let loss = (0.5 - margin).max(0.0);
                if loss > 0.0 {
                    let norm2: f64 = x.iter().map(|xi| xi * xi).sum();
                    if norm2 > 0.0 {
                        let tau = (loss / norm2).min(self.aggressiveness);
                        for (wi, xi) in matcher.weights.iter_mut().zip(x.iter()) {
                            *wi += tau * y * xi;
                        }
                    }
                }
            }
        }
        // Calibrate the threshold to the midpoint between the lowest
        // positive and highest negative scores, when both classes exist.
        let mut pos: Vec<f64> = Vec::new();
        let mut neg: Vec<f64> = Vec::new();
        for p in pairs {
            let s = matcher.score(&p.left, &p.right);
            if p.matched {
                pos.push(s);
            } else {
                neg.push(s);
            }
        }
        if let (Some(pmin), Some(nmax)) = (
            pos.iter().cloned().reduce(f64::min),
            neg.iter().cloned().reduce(f64::max),
        ) {
            if pmin > nmax {
                matcher.threshold = (pmin + nmax) / 2.0;
            }
        } else if let Some(pmin) = pos.iter().cloned().reduce(f64::min) {
            // Positives only (the common SCP case: user pasted matches).
            matcher.threshold = pmin * 0.9;
        }
        matcher
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pair(l: &str, r: &str, matched: bool) -> LabeledPair {
        LabeledPair {
            left: vec![l.to_string()],
            right: vec![r.to_string()],
            matched,
        }
    }

    fn training() -> Vec<LabeledPair> {
        vec![
            pair("Coconut Creek High School", "Coconut Creek HS", true),
            pair("Pompano Recreation Center", "Pompano Rec Ctr", true),
            pair("Margate Civic Center", "Margate Civic Ctr", true),
            pair("Coconut Creek High School", "Margate Civic Ctr", false),
            pair("Pompano Recreation Center", "Coconut Creek HS", false),
            pair("Margate Civic Center", "Tamarac Comm Ctr", false),
        ]
    }

    #[test]
    fn learned_matcher_separates_training_data() {
        let m = MatchLearner::new(1).train(&training(), TfIdfIndex::new());
        for p in training() {
            assert_eq!(
                m.is_match(&p.left, &p.right),
                p.matched,
                "{:?} vs {:?} score={}",
                p.left,
                p.right,
                m.score(&p.left, &p.right)
            );
        }
    }

    #[test]
    fn learned_matcher_generalizes() {
        let m = MatchLearner::new(1).train(&training(), TfIdfIndex::new());
        assert!(m.is_match(
            &["Tamarac Community Center".to_string()],
            &["Tamarac Comm Ctr".to_string()]
        ));
        assert!(!m.is_match(
            &["Tamarac Community Center".to_string()],
            &["Coconut Creek HS".to_string()]
        ));
    }

    #[test]
    fn positives_only_training_sets_permissive_threshold() {
        let pos: Vec<LabeledPair> = training().into_iter().filter(|p| p.matched).collect();
        let m = MatchLearner::new(1).train(&pos, TfIdfIndex::new());
        assert!(m.is_match(
            &["Coconut Creek High School".to_string()],
            &["Coconut Creek HS".to_string()]
        ));
    }

    #[test]
    fn untrained_matcher_is_sane() {
        let m = MatchLearner::new(1).train(&[], TfIdfIndex::new());
        assert!(m.is_match(&["same".to_string()], &["same".to_string()]));
        assert!(!m.is_match(&["same".to_string()], &["utterly different".to_string()]));
    }

    #[test]
    fn single_metric_baseline() {
        let m = Matcher::single_metric(Metric::Exact, 1, TfIdfIndex::new());
        assert!(m.is_match(&["X".to_string()], &["x".to_string()]));
        assert!(!m.is_match(&["X".to_string()], &["X Y".to_string()]));
    }

    #[test]
    fn multi_field_matching() {
        let pairs = vec![
            LabeledPair {
                left: vec!["Creek HS".into(), "100 Oak St".into()],
                right: vec!["Creek High School".into(), "100 Oak Street".into()],
                matched: true,
            },
            LabeledPair {
                left: vec!["Creek HS".into(), "100 Oak St".into()],
                right: vec!["Margate Civic".into(), "77 Elm Rd".into()],
                matched: false,
            },
        ];
        let m = MatchLearner::new(2).train(&pairs, TfIdfIndex::new());
        assert!(m.is_match(
            &["Margate Civic Ctr".to_string(), "77 Elm Road".to_string()],
            &["Margate Civic".to_string(), "77 Elm Rd".to_string()]
        ));
    }
}
