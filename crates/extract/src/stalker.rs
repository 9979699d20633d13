//! Landmark-based wrapper induction (the sequential-covering fallback).
//!
//! §3.1: "If this method cannot find a consistent hypothesis, the system
//! falls back on a sequential covering approach based on more traditional
//! wrapper induction techniques [Muslea, Minton, Knoblock 2001]."
//!
//! Records are lines; each field is captured between a learned *prefix
//! landmark* and *suffix landmark* (literal context strings). Landmarks
//! start maximally specific (the full observed context) and are shortened
//! to the longest context **common to all examples** — the sequential-
//! covering counterpart of the paper's most-general-consistent search.

use copycat_document::TextDocument;
use copycat_util::json::{FromJson, JsonError, JsonWriter, ToJson};
use copycat_util::zjson::ZRef;

/// Maximum landmark length retained from each example's context.
const MAX_CONTEXT: usize = 24;

/// A learned per-field extraction rule.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LandmarkRule {
    /// Literal text that must appear immediately before the field (empty =
    /// field starts at the beginning of the line).
    pub prefix: String,
    /// Literal text that must appear immediately after the field (empty =
    /// field runs to the end of the line).
    pub suffix: String,
}

impl ToJson for LandmarkRule {
    fn write_json(&self, w: &mut JsonWriter<'_>) {
        w.obj(|w| {
            w.field("prefix", &self.prefix);
            w.field("suffix", &self.suffix);
        });
    }
}

impl FromJson for LandmarkRule {
    fn from_json(j: ZRef<'_>) -> Result<Self, JsonError> {
        Ok(LandmarkRule {
            prefix: String::from_json(j.require("prefix")?)?,
            suffix: String::from_json(j.require("suffix")?)?,
        })
    }
}

impl LandmarkRule {
    /// Apply the rule to one line. Returns the captured field, trimmed.
    pub fn apply(&self, line: &str) -> Option<String> {
        let start = if self.prefix.is_empty() {
            0
        } else {
            line.find(&self.prefix)? + self.prefix.len()
        };
        let rest = &line[start..];
        let end = if self.suffix.is_empty() {
            rest.len()
        } else {
            rest.find(&self.suffix)?
        };
        Some(rest[..end].trim().to_string())
    }
}

/// Execute a rule set: one output row per line on which *every* rule fires.
pub fn execute(rules: &[LandmarkRule], doc: &TextDocument) -> Vec<Vec<String>> {
    let mut rows = Vec::new();
    for i in 0..doc.line_count() {
        let line = doc.line(i).expect("index in range");
        let mut row = Vec::with_capacity(rules.len());
        let mut ok = true;
        for r in rules {
            match r.apply(line) {
                Some(v) if !v.is_empty() => row.push(v),
                _ => {
                    ok = false;
                    break;
                }
            }
        }
        if ok {
            rows.push(row);
        }
    }
    rows
}

/// Learn landmark rules from example rows. Each example row's values must
/// co-occur on one line of the document. Returns `None` when no line
/// carries an example, or when the examples' contexts are irreconcilable.
pub fn learn(doc: &TextDocument, examples: &[Vec<String>]) -> Option<Vec<LandmarkRule>> {
    let first = examples.first()?;
    let arity = first.len();
    // Per field and example, the candidate (prefix, suffix) contexts — one
    // per occurrence of the value on its line (a value like "Coconut
    // Creek" may also occur inside "Coconut Creek HS").
    let mut contexts: Vec<Vec<Vec<(String, String)>>> = vec![Vec::new(); arity];
    for ex in examples {
        if ex.len() != arity {
            return None;
        }
        let line = find_line(doc, ex)?;
        for (f, value) in ex.iter().enumerate() {
            let cands = occurrence_contexts(line, value);
            if cands.is_empty() {
                return None;
            }
            contexts[f].push(cands);
        }
    }
    let mut rules = Vec::with_capacity(arity);
    for per_example in contexts {
        rules.push(best_rule(&per_example)?);
    }
    // The learned rules must reproduce every example value.
    let table = execute(&rules, doc);
    for ex in examples {
        if !table.iter().any(|row| row == ex) {
            return None;
        }
    }
    Some(rules)
}

/// Candidate landmark contexts for every occurrence of `value` in `line`.
fn occurrence_contexts(line: &str, value: &str) -> Vec<(String, String)> {
    if value.is_empty() {
        return Vec::new();
    }
    let mut out = Vec::new();
    let mut from = 0;
    while let Some(rel) = line[from..].find(value) {
        let pos = from + rel;
        let before = &line[..pos];
        let after = &line[pos + value.len()..];
        out.push((
            tail(last_context(before), MAX_CONTEXT).to_string(),
            head(first_context(after), MAX_CONTEXT).to_string(),
        ));
        from = pos + 1;
    }
    out
}

/// Choose, per example, the occurrence whose context agrees best with the
/// others', and return the resulting rule (longest shared landmarks win).
fn best_rule(per_example: &[Vec<(String, String)>]) -> Option<LandmarkRule> {
    let first = per_example.first()?;
    let mut best: Option<(usize, LandmarkRule)> = None;
    for (p0, s0) in first {
        let mut prefix = p0.clone();
        let mut suffix = s0.clone();
        for cands in &per_example[1..] {
            // Greedily pick the occurrence maximizing shared context.
            let (np, ns) = cands
                .iter()
                .map(|(p, s)| {
                    (
                        common_suffix(&prefix, p).to_string(),
                        common_prefix(&suffix, s).to_string(),
                    )
                })
                .max_by_key(|(p, s)| p.len() + s.len())?;
            prefix = np;
            suffix = ns;
        }
        let quality = prefix.len() + suffix.len();
        if best.as_ref().is_none_or(|(q, _)| quality > *q) {
            best = Some((quality, LandmarkRule { prefix, suffix }));
        }
    }
    best.map(|(_, r)| r)
}

/// The first line containing all values of the example row.
fn find_line<'a>(doc: &'a TextDocument, example: &[String]) -> Option<&'a str> {
    (0..doc.line_count())
        .filter_map(|i| doc.line(i))
        .find(|line| example.iter().all(|v| line.contains(v.as_str())))
}

/// The landmark-sized context at the end of `before`: the trailing
/// delimiter run plus the one token preceding it (`"… | City: "` →
/// `"City: "`). A single token of context is what keeps one-example
/// landmarks from swallowing neighbouring field values.
fn last_context(before: &str) -> &str {
    let mut idx = before.len();
    // Trailing delimiter run.
    for (i, c) in before.char_indices().rev() {
        if c.is_alphanumeric() {
            break;
        }
        idx = i;
    }
    // One preceding token.
    let mut start = idx;
    for (i, c) in before[..idx].char_indices().rev() {
        if !c.is_alphanumeric() {
            break;
        }
        start = i;
    }
    &before[start..]
}

/// The landmark-sized context at the start of `after`: the leading
/// delimiter run plus the one token following it (`" | City: …"` →
/// `" | City"`).
fn first_context(after: &str) -> &str {
    let mut idx = 0;
    for (i, c) in after.char_indices() {
        if c.is_alphanumeric() {
            idx = i;
            break;
        }
        idx = i + c.len_utf8();
    }
    let mut end = idx;
    for (i, c) in after[idx..].char_indices() {
        if !c.is_alphanumeric() {
            end = idx + i;
            break;
        }
        end = idx + i + c.len_utf8();
    }
    &after[..end]
}

fn tail(s: &str, n: usize) -> &str {
    let start = s.len().saturating_sub(n);
    // Snap to a char boundary.
    let mut start = start;
    while !s.is_char_boundary(start) {
        start += 1;
    }
    &s[start..]
}

fn head(s: &str, n: usize) -> &str {
    let mut end = n.min(s.len());
    while !s.is_char_boundary(end) {
        end -= 1;
    }
    &s[..end]
}

/// Longest common suffix of two strings (char-boundary safe).
fn common_suffix<'a>(a: &'a str, b: &str) -> &'a str {
    let mut n = 0;
    let mut ai = a.chars().rev();
    let mut bi = b.chars().rev();
    loop {
        match (ai.next(), bi.next()) {
            (Some(x), Some(y)) if x == y => n += x.len_utf8(),
            _ => break,
        }
    }
    &a[a.len() - n..]
}

/// Longest common prefix of two strings (char-boundary safe).
fn common_prefix<'a>(a: &'a str, b: &str) -> &'a str {
    let mut n = 0;
    let mut ai = a.chars();
    let mut bi = b.chars();
    loop {
        match (ai.next(), bi.next()) {
            (Some(x), Some(y)) if x == y => n += x.len_utf8(),
            _ => break,
        }
    }
    &a[..n]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn doc() -> TextDocument {
        TextDocument::new(
            "report",
            "Shelter: Coconut Creek HS | City: Coconut Creek\n\
             (header line to be ignored)\n\
             Shelter: Pompano Rec | City: Pompano Beach\n\
             Shelter: Margate Civic | City: Margate\n",
        )
    }

    #[test]
    fn learn_from_two_examples_and_generalize() {
        let d = doc();
        let examples = vec![
            vec!["Coconut Creek HS".to_string(), "Coconut Creek".to_string()],
            vec!["Pompano Rec".to_string(), "Pompano Beach".to_string()],
        ];
        let rules = learn(&d, &examples).expect("learned");
        let rows = execute(&rules, &d);
        assert_eq!(rows.len(), 3);
        assert_eq!(rows[2], vec!["Margate Civic", "Margate"]);
    }

    #[test]
    fn learn_from_one_example_uses_full_context() {
        let d = doc();
        let examples = vec![vec![
            "Pompano Rec".to_string(),
            "Pompano Beach".to_string(),
        ]];
        let rules = learn(&d, &examples).expect("learned");
        let rows = execute(&rules, &d);
        // Single-example landmarks still generalize: the literal context
        // "Shelter: " / " | City: " is shared by all record lines.
        assert_eq!(rows.len(), 3);
    }

    #[test]
    fn missing_value_fails_cleanly() {
        let d = doc();
        assert!(learn(&d, &[vec!["Nowhere".to_string()]]).is_none());
    }

    #[test]
    fn rule_application_edges() {
        let r = LandmarkRule { prefix: "x=".into(), suffix: ";".into() };
        assert_eq!(r.apply("a x=42; b"), Some("42".to_string()));
        assert_eq!(r.apply("no markers"), None);
        let open = LandmarkRule { prefix: String::new(), suffix: ":".into() };
        assert_eq!(open.apply("head: tail"), Some("head".to_string()));
        let tail = LandmarkRule { prefix: ":".into(), suffix: String::new() };
        assert_eq!(tail.apply("head: tail"), Some("tail".to_string()));
    }

    #[test]
    fn common_affix_helpers() {
        assert_eq!(common_prefix("abcde", "abxde"), "ab");
        assert_eq!(common_suffix("xyz | ", "abc | "), " | ");
        assert_eq!(common_prefix("", "abc"), "");
    }

    #[test]
    fn unicode_context_is_boundary_safe() {
        let d = TextDocument::new("t", "país: España → ok\npaís: México → ok\n");
        let rules = learn(
            &d,
            &[vec!["España".to_string()], vec!["México".to_string()]],
        )
        .expect("learned");
        let rows = execute(&rules, &d);
        assert_eq!(rows.len(), 2);
    }
}
