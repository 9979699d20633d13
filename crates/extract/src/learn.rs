//! The most-general-projection hypothesis search (§3.1).
//!
//! "Given one or more examples selected by the user, the system attempts
//! to find a most-general projection hypothesis consistent with the
//! example[s]." The learner:
//!
//! 1. locates the example rows in the source ([`crate::locate`]);
//! 2. builds candidate record paths: the lgg of the example records' paths
//!    plus progressively wider wildcardings, merged with the structural
//!    experts' proposals that are consistent with the examples;
//! 3. builds field rules (relative paths, with truncated variants robust
//!    to inline formatting; preceding-heading rules for outlier cells);
//! 4. executes every candidate, keeps those whose output *contains the
//!    examples*, and ranks by expert scores with a most-general tiebreak.
//!
//! Spreadsheets and text documents take the simpler dedicated paths
//! ([`crate::sheet`], [`crate::stalker`]).

use crate::experts;
use crate::locate::{locate_row, LocatedRow};
use crate::wrapper::{
    execute, is_descendant, relative_path, FieldRule, PageScope, RecordFilter, Wrapper,
};
use copycat_document::html::{HtmlDocument, StepIndex, TagPath};
use copycat_document::{Document, Page, Website};
use copycat_semantic::TypeRegistry;

/// Tunables for the hypothesis search.
#[derive(Debug, Clone)]
pub struct LearnOptions {
    /// Minimum records for an expert proposal to count.
    pub min_support: usize,
    /// Maximum hypotheses returned.
    pub max_hypotheses: usize,
    /// Weight of type coherence in the ranking score.
    pub w_types: f64,
    /// Weight of layout regularity.
    pub w_layout: f64,
    /// Penalty weight of the empty-cell fraction.
    pub w_empty: f64,
    /// Reward for extracting beyond the examples (log-scaled row count).
    pub w_yield: f64,
    /// Enable individual experts (used by ablation A2): list, template,
    /// types, layout, url.
    pub enabled_experts: ExpertToggles,
}

/// Which experts participate (ablation switch).
#[derive(Debug, Clone, Copy)]
pub struct ExpertToggles {
    /// Repeated-sibling expert.
    pub list: bool,
    /// Shape-clustering expert.
    pub template: bool,
    /// Data-type coherence scoring.
    pub types: bool,
    /// Layout regularity scoring.
    pub layout: bool,
    /// Multi-page URL expert.
    pub url: bool,
}

impl Default for ExpertToggles {
    fn default() -> Self {
        Self { list: true, template: true, types: true, layout: true, url: true }
    }
}

impl Default for LearnOptions {
    fn default() -> Self {
        Self {
            min_support: 2,
            max_hypotheses: 8,
            w_types: 2.0,
            w_layout: 0.5,
            w_empty: 2.0,
            // The most-general-consistent preference (§3.1) has to be
            // strong enough that generalizing across a site's pages beats
            // small per-page fluctuations in type coherence.
            w_yield: 1.0,
            enabled_experts: ExpertToggles::default(),
        }
    }
}

/// A ranked hypothesis: an executable wrapper plus its score and preview.
#[derive(Debug, Clone)]
pub struct ScoredWrapper {
    /// The executable rule.
    pub wrapper: Wrapper,
    /// Ranking score (higher is better).
    pub score: f64,
    /// The rows the wrapper extracted during ranking (the auto-complete
    /// suggestion preview).
    pub rows: Vec<Vec<String>>,
}

/// The structure learner: generalizes pasted examples into wrappers.
#[derive(Debug, Default)]
pub struct StructureLearner {
    opts: LearnOptions,
}

impl StructureLearner {
    /// Learner with default options.
    pub fn new() -> Self {
        Self::default()
    }

    /// Learner with custom options.
    pub fn with_options(opts: LearnOptions) -> Self {
        Self { opts }
    }

    /// The options in effect.
    pub fn options(&self) -> &LearnOptions {
        &self.opts
    }

    /// Learn ranked wrappers from example rows over a source document.
    /// Returns an empty vector when the examples cannot be located.
    pub fn learn(
        &self,
        doc: &Document,
        examples: &[Vec<String>],
        registry: &TypeRegistry,
    ) -> Vec<ScoredWrapper> {
        if examples.is_empty() {
            return Vec::new();
        }
        match doc {
            Document::Site(site) => self.learn_html(site, examples, registry, doc),
            Document::Sheet(sheet) => crate::sheet::learn(sheet, examples)
                .map(|w| {
                    let rows = execute(&w, doc);
                    vec![ScoredWrapper { wrapper: w, score: 1.0, rows }]
                })
                .unwrap_or_default(),
            Document::Text(text) => crate::stalker::learn(text, examples)
                .map(|rules| {
                    let w = Wrapper::Text { rules };
                    let rows = execute(&w, doc);
                    vec![ScoredWrapper { wrapper: w, score: 1.0, rows }]
                })
                .unwrap_or_default(),
        }
    }

    fn learn_html(
        &self,
        site: &Website,
        examples: &[Vec<String>],
        registry: &TypeRegistry,
        doc: &Document,
    ) -> Vec<ScoredWrapper> {
        // Find the page where all examples locate.
        let Some((page, located)) = self.locate_on_site(site, examples) else {
            return Vec::new();
        };
        let html = &page.html;

        // Candidate record paths from the examples themselves.
        let mut candidates = example_record_paths(html, &located);

        // Expert proposals consistent with every example record.
        let example_paths: Vec<TagPath> =
            located.iter().map(|l| html.tag_path(l.record)).collect();
        let mut proposals = Vec::new();
        if self.opts.enabled_experts.list {
            proposals.extend(experts::list_expert(html, self.opts.min_support));
        }
        if self.opts.enabled_experts.template {
            proposals.extend(experts::template_expert(html, self.opts.min_support));
        }
        for p in proposals {
            if example_paths.iter().all(|e| p.record_path.subsumes(e)) {
                candidates.push(p.record_path);
            }
        }
        candidates.sort_by_key(|c| c.to_string());
        candidates.dedup();

        // Field-rule variants per candidate.
        let mut scored = Vec::new();
        for record_path in candidates {
            for fields in field_rule_variants(html, &located) {
                let base = Wrapper::Html {
                    record_path: record_path.clone(),
                    fields: fields.clone(),
                    filters: vec![],
                    scope: PageScope::SinglePage(page.url.clone()),
                };
                let mut variants = vec![base.clone()];
                // Non-empty filter: require as many non-empty fields as
                // the *sparsest* example shows. This drops header/ad rows
                // while staying consistent with pasted rows that have a
                // missing field — additional examples with blanks teach
                // tolerance (the "more examples" mechanism of E4).
                let min_non_empty = examples
                    .iter()
                    .map(|ex| ex.iter().filter(|v| !v.trim().is_empty()).count())
                    .min()
                    .unwrap_or(fields.len())
                    .max(1);
                variants.push(with_filter(
                    &base,
                    RecordFilter::MinNonEmptyFields(min_non_empty),
                ));
                // Figure-1 ambiguity: when every example agrees on some
                // field's value ("both of which are in Coconut Creek"),
                // the value-scoped extraction is a live alternative. The
                // most-general preference ranks it behind the full list,
                // mirroring CopyCat's default guess.
                for f in 0..fields.len() {
                    let shared = examples
                        .first()
                        .and_then(|ex| ex.get(f))
                        .filter(|v| !v.trim().is_empty())
                        .filter(|v| examples.iter().all(|ex| ex.get(f) == Some(v)));
                    if let Some(value) = shared {
                        variants.push(with_filter(
                            &base,
                            RecordFilter::FieldEquals { field: f, value: value.clone() },
                        ));
                    }
                }
                // Multi-page variant when the pattern recurs elsewhere.
                if self.opts.enabled_experts.url
                    && experts::url_expert(site, page, &record_path) > 0
                {
                    for v in variants.clone() {
                        variants.push(with_scope(&v, PageScope::AllPages));
                    }
                }
                for wrapper in variants {
                    if let Some(sw) = self.score_wrapper(wrapper, doc, examples, registry) {
                        scored.push(sw);
                    }
                }
            }
        }

        // Fallback: landmark rules over the page's visible text.
        if scored.is_empty() {
            let text = copycat_document::TextDocument::new(
                page.url.to_string(),
                page_text_lines(html),
            );
            if let Some(rules) = crate::stalker::learn(&text, examples) {
                let rows = crate::stalker::execute(&rules, &text);
                scored.push(ScoredWrapper {
                    wrapper: Wrapper::Text { rules },
                    score: 0.1,
                    rows,
                });
            }
        }

        scored.sort_by(|a, b| b.score.partial_cmp(&a.score).expect("finite scores"));
        scored.dedup_by(|a, b| a.rows == b.rows);
        scored.truncate(self.opts.max_hypotheses);
        scored
    }

    fn locate_on_site<'a>(
        &self,
        site: &'a Website,
        examples: &[Vec<String>],
    ) -> Option<(&'a Page, Vec<LocatedRow>)> {
        for page in site.crawl() {
            let located: Vec<LocatedRow> = examples
                .iter()
                .filter_map(|ex| locate_row(&page.html, ex))
                .collect();
            if located.len() == examples.len() {
                return Some((page, located));
            }
        }
        None
    }

    /// Execute, check consistency with the examples, and score.
    fn score_wrapper(
        &self,
        wrapper: Wrapper,
        doc: &Document,
        examples: &[Vec<String>],
        registry: &TypeRegistry,
    ) -> Option<ScoredWrapper> {
        let rows = execute(&wrapper, doc);
        // Consistency: every example row must appear among the output.
        for ex in examples {
            if !rows.iter().any(|r| r == ex) {
                return None;
            }
        }
        let mut score = 0.0;
        if self.opts.enabled_experts.types {
            score += self.opts.w_types * experts::type_coherence(&rows, registry);
        }
        if self.opts.enabled_experts.layout {
            score += self.opts.w_layout * experts::layout_regularity(&rows);
        }
        let empty_frac = {
            let cells = rows.len().max(1) * wrapper.arity().max(1);
            let empties: usize = rows
                .iter()
                .map(|r| r.iter().filter(|v| v.is_empty()).count())
                .sum();
            empties as f64 / cells as f64
        };
        score -= self.opts.w_empty * empty_frac;
        // Most-general preference: reward extracting beyond the examples,
        // log-scaled so 100 rows do not dominate type coherence.
        let extra = rows.len().saturating_sub(examples.len());
        score += self.opts.w_yield * ((1 + extra) as f64).ln() / 4.0;
        Some(ScoredWrapper { wrapper, score, rows })
    }
}

/// Candidate record paths from the examples: the lgg of the example record
/// paths, plus suffix wildcardings of it (most-general candidates).
fn example_record_paths(html: &HtmlDocument, located: &[LocatedRow]) -> Vec<TagPath> {
    let mut paths = located.iter().map(|l| html.tag_path(l.record));
    let Some(first) = paths.next() else {
        return Vec::new();
    };
    let Some(base) = paths.try_fold(first, |acc, p| acc.lgg(&p)) else {
        return Vec::new();
    };
    let mut out = Vec::new();
    // Wildcard the last k steps for k = 1..=len (the record index, then its
    // containers): `table[0]/tr[3]` → `table[0]/tr[*]` → `table[*]/tr[*]`.
    let len = base.len();
    let mut cur = base.clone();
    for k in (0..len).rev() {
        if cur.steps()[k].index != StepIndex::Any {
            cur = cur.wildcard_step(k);
        }
        out.push(cur.clone());
    }
    if out.is_empty() {
        out.push(base);
    }
    out
}

/// Field-rule variants across the example rows. Variant A uses the full
/// relative paths (lgg across examples); variant B truncates every
/// relative path to its first step, which is robust to inline wrappers
/// (`<b>`, `<span>`) present on some rows only.
fn field_rule_variants(html: &HtmlDocument, located: &[LocatedRow]) -> Vec<Vec<FieldRule>> {
    let arity = located.iter().map(|l| l.cells.len()).max().unwrap_or(0);
    let mut full: Vec<FieldRule> = Vec::with_capacity(arity);
    let mut truncated: Vec<FieldRule> = Vec::with_capacity(arity);
    for f in 0..arity {
        // A heading-style field: any example marked this column an outlier.
        let heading = located.iter().find_map(|l| {
            if l.outliers.contains(&f) {
                l.cells.get(f).copied().flatten().and_then(|n| html.tag(n))
            } else {
                None
            }
        });
        if let Some(tag) = heading {
            full.push(FieldRule::PrecedingHeading(tag.to_string()));
            truncated.push(FieldRule::PrecedingHeading(tag.to_string()));
            continue;
        }
        // lgg of the relative paths across the examples that carry the
        // field (empty cells constrain nothing); shape disagreements fall
        // back to the first carrying example's path.
        let mut rels = located.iter().filter_map(|l| {
            let cell = l.cells.get(f).copied().flatten()?;
            if l.outliers.contains(&f) || !is_descendant(html, l.record, cell) {
                None
            } else {
                relative_path(html, l.record, cell)
            }
        });
        let rel = match rels.next() {
            Some(first_rel) => rels
                .try_fold(first_rel.clone(), |acc, p| acc.lgg(&p))
                .unwrap_or(first_rel),
            None => TagPath::default(),
        };
        let trunc = TagPath::new(rel.steps().iter().take(1).cloned().collect());
        full.push(FieldRule::Relative(rel));
        truncated.push(FieldRule::Relative(trunc));
    }
    if full == truncated {
        vec![full]
    } else {
        vec![truncated, full]
    }
}

fn with_filter(w: &Wrapper, filter: RecordFilter) -> Wrapper {
    match w {
        Wrapper::Html { record_path, fields, filters, scope } => {
            let mut filters = filters.clone();
            filters.push(filter);
            Wrapper::Html {
                record_path: record_path.clone(),
                fields: fields.clone(),
                filters,
                scope: scope.clone(),
            }
        }
        other => other.clone(),
    }
}

fn with_scope(w: &Wrapper, scope: PageScope) -> Wrapper {
    match w {
        Wrapper::Html { record_path, fields, filters, .. } => Wrapper::Html {
            record_path: record_path.clone(),
            fields: fields.clone(),
            filters: filters.clone(),
            scope,
        },
        other => other.clone(),
    }
}

/// The page's visible text, one block-level element per line (fallback
/// substrate for landmark induction).
fn page_text_lines(html: &HtmlDocument) -> String {
    const BLOCKS: &[&str] = &["p", "li", "tr", "h1", "h2", "h3", "div", "dd", "dt"];
    let mut out = String::new();
    for id in html.iter() {
        if let Some(tag) = html.tag(id) {
            if BLOCKS.contains(&tag) {
                // Only leaf-most blocks: skip if a child is also a block.
                let has_block_child = html
                    .descendants(id)
                    .into_iter()
                    .any(|d| html.tag(d).is_some_and(|t| BLOCKS.contains(&t)));
                if !has_block_child {
                    let line = html.text_content(id);
                    if !line.is_empty() {
                        out.push_str(&line);
                        out.push('\n');
                    }
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use copycat_document::corpus::{render_list, Faker, ListSpec, Tier};

    fn shelters(n: usize) -> Vec<Vec<String>> {
        Faker::new(11).shelters(n)
    }

    fn learn_tier(tier: Tier, n_examples: usize) -> (Vec<Vec<String>>, Vec<ScoredWrapper>) {
        let rows = shelters(16);
        let spec = ListSpec::new("Shelters", &["Name", "Street", "City"], tier, 5);
        let rendered = render_list(&spec, &rows);
        let doc = Document::Site(rendered.site);
        let registry = TypeRegistry::with_builtins();
        let learner = StructureLearner::new();
        let examples: Vec<Vec<String>> = rows[..n_examples].to_vec();
        let hyps = learner.learn(&doc, &examples, &registry);
        (rows, hyps)
    }

    fn recall(expected: &[Vec<String>], got: &[Vec<String>]) -> f64 {
        let hit = expected.iter().filter(|e| got.contains(e)).count();
        hit as f64 / expected.len() as f64
    }

    #[test]
    fn clean_tier_one_example_generalizes_fully() {
        let (rows, hyps) = learn_tier(Tier::Clean, 1);
        assert!(!hyps.is_empty());
        let top = &hyps[0];
        assert!(
            recall(&rows, &top.rows) > 0.99,
            "top hypothesis should extract all rows, got {} of {}",
            top.rows.len(),
            rows.len()
        );
    }

    #[test]
    fn noisy_tier_two_examples() {
        let (rows, hyps) = learn_tier(Tier::Noisy, 2);
        assert!(!hyps.is_empty());
        let top = &hyps[0];
        assert!(recall(&rows, &top.rows) > 0.9, "recall too low: {}", recall(&rows, &top.rows));
    }

    #[test]
    fn nested_tier_extracts_with_heading_field() {
        let (rows, hyps) = learn_tier(Tier::Nested, 2);
        assert!(!hyps.is_empty(), "nested tier should learn something");
        let top = &hyps[0];
        assert!(
            recall(&rows, &top.rows) > 0.8,
            "recall too low: {} rows extracted {:?}",
            top.rows.len(),
            top.rows.first()
        );
    }

    #[test]
    fn multipage_tier_crawls_all_pages() {
        let (rows, hyps) = learn_tier(Tier::MultiPage, 1);
        assert!(!hyps.is_empty());
        let top = &hyps[0];
        assert!(
            recall(&rows, &top.rows) > 0.99,
            "multi-page extraction incomplete: {} of {}",
            top.rows.len(),
            rows.len()
        );
        if let Wrapper::Html { scope, .. } = &top.wrapper {
            assert_eq!(*scope, PageScope::AllPages);
        } else {
            panic!("expected html wrapper");
        }
    }

    #[test]
    fn sheet_learning() {
        let sheet = copycat_document::Sheet::new(
            "contacts",
            Some(vec!["Who".into(), "Phone".into()]),
            vec![
                vec!["Ann".into(), "555-0101".into()],
                vec!["Bob".into(), "555-0102".into()],
                vec!["Cy".into(), "555-0103".into()],
            ],
        );
        let doc = Document::Sheet(sheet);
        let reg = TypeRegistry::with_builtins();
        let hyps = StructureLearner::new().learn(
            &doc,
            &[vec!["Bob".to_string(), "555-0102".to_string()]],
            &reg,
        );
        assert_eq!(hyps.len(), 1);
        assert_eq!(hyps[0].rows.len(), 3);
    }

    #[test]
    fn unlocatable_examples_yield_nothing() {
        let (_, hyps) = {
            let rows = shelters(5);
            let spec = ListSpec::new("S", &["N", "St", "C"], Tier::Clean, 1);
            let rendered = render_list(&spec, &rows);
            let doc = Document::Site(rendered.site);
            let reg = TypeRegistry::with_builtins();
            let learner = StructureLearner::new();
            (
                rows,
                learner.learn(&doc, &[vec!["Not There".to_string()]], &reg),
            )
        };
        assert!(hyps.is_empty());
    }

    #[test]
    fn figure1_city_scoped_alternative_exists() {
        // Both examples are in the same city: "it is not immediately
        // clear whether the proper generalization is to copy the entire
        // list, or copy just the shelters in Coconut Creek" (§3.1). The
        // most-general hypothesis wins, but the city-scoped one must be
        // among the alternatives.
        let mut rows = shelters(12);
        rows[0][2] = "Coconut Creek".to_string();
        rows[1][2] = "Coconut Creek".to_string();
        let spec = ListSpec::new("Shelters", &["Name", "Street", "City"], Tier::Clean, 3);
        let rendered = render_list(&spec, &rows);
        let doc = Document::Site(rendered.site);
        let registry = TypeRegistry::with_builtins();
        let hyps = StructureLearner::new().learn(&doc, &rows[..2], &registry);
        let n_creek = rows.iter().filter(|r| r[2] == "Coconut Creek").count();
        // Top hypothesis: the whole list.
        assert_eq!(hyps[0].rows.len(), rows.len());
        // Some alternative extracts exactly the Coconut Creek subset.
        assert!(
            hyps.iter().any(|h| h.rows.len() == n_creek
                && h.rows.iter().all(|r| r[2] == "Coconut Creek")),
            "city-scoped alternative missing; got sizes {:?}",
            hyps.iter().map(|h| h.rows.len()).collect::<Vec<_>>()
        );
    }

    #[test]
    fn sparse_example_teaches_blank_tolerance() {
        let mut rows = shelters(12);
        rows[3][1] = String::new();
        rows[9][1] = String::new();
        let spec = ListSpec::new("Shelters", &["Name", "Street", "City"], Tier::Clean, 5);
        let rendered = render_list(&spec, &rows);
        let doc = Document::Site(rendered.site);
        let registry = TypeRegistry::with_builtins();
        let learner = StructureLearner::new();
        // One complete example: blank-street rows are filtered out.
        let one = learner.learn(&doc, &rows[..1], &registry);
        assert_eq!(one[0].rows.len(), 10);
        // Adding the sparse row as a second example keeps them.
        let two = learner.learn(&doc, &[rows[0].clone(), rows[3].clone()], &registry);
        assert_eq!(two[0].rows.len(), 12, "{:?}", two[0].wrapper.describe());
    }

    #[test]
    fn suggestions_are_ranked_and_bounded() {
        let (_, hyps) = learn_tier(Tier::Clean, 2);
        assert!(hyps.len() <= LearnOptions::default().max_hypotheses);
        for pair in hyps.windows(2) {
            assert!(pair[0].score >= pair[1].score);
        }
    }
}
