//! Executable extraction rules ("wrappers").
//!
//! A wrapper is plain data describing how to turn a source document into a
//! table of string rows. The learner produces them; the SCP engine stores
//! them in its catalog and re-runs them whenever the source is queried.

use copycat_document::html::{HtmlDocument, NodeId, StepIndex, TagPath, TagStep};
use copycat_document::{Document, Page, Sheet, Website};
use copycat_util::json::{FromJson, JsonError, JsonWriter, ToJson};
use copycat_util::zjson::ZRef;

/// How one output field is obtained from a record node.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FieldRule {
    /// Follow a tag path *relative to the record node* and take the target
    /// element's text content. The empty path takes the record's own text.
    Relative(TagPath),
    /// Take the text of the nearest element with this tag that *precedes*
    /// the record in document order — group headings (`<h2>City</h2>`)
    /// carrying a field shared by every record in the group.
    PrecedingHeading(String),
}

impl ToJson for FieldRule {
    fn write_json(&self, w: &mut JsonWriter<'_>) {
        match self {
            FieldRule::Relative(p) => w.tagged("Relative", |w| p.write_json(w)),
            FieldRule::PrecedingHeading(t) => w.tagged("PrecedingHeading", |w| w.str(t)),
        }
    }
}

impl FromJson for FieldRule {
    fn from_json(j: ZRef<'_>) -> Result<Self, JsonError> {
        if let Some(p) = j.get("Relative") {
            return Ok(FieldRule::Relative(TagPath::from_json(p)?));
        }
        if let Some(t) = j.get("PrecedingHeading") {
            return Ok(FieldRule::PrecedingHeading(String::from_json(t)?));
        }
        Err(JsonError::expected("field rule", j))
    }
}

/// A predicate a record node must satisfy; learned from feedback
/// (e.g. rejecting advertisement rows).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RecordFilter {
    /// Reject records whose attribute equals this value
    /// (e.g. `class="ad"`).
    AttrNotEquals {
        /// Attribute name.
        attr: String,
        /// Forbidden value.
        value: String,
    },
    /// Require at least this many of the wrapper's fields to be non-empty.
    MinNonEmptyFields(usize),
    /// Require the record element to have exactly this many children with
    /// the given tag (ad rows often have one wide cell instead of `k`).
    ChildCount {
        /// Child tag to count.
        tag: String,
        /// Required count.
        count: usize,
    },
    /// Require an extracted field to equal a constant — the Figure-1
    /// ambiguity ("copy just the shelters in Coconut Creek") as an
    /// explicit alternative hypothesis.
    FieldEquals {
        /// Output column index.
        field: usize,
        /// Required value.
        value: String,
    },
}

impl ToJson for RecordFilter {
    fn write_json(&self, w: &mut JsonWriter<'_>) {
        match self {
            RecordFilter::AttrNotEquals { attr, value } => w.tagged("AttrNotEquals", |w| {
                w.obj(|w| {
                    w.field("attr", attr);
                    w.field("value", value);
                })
            }),
            RecordFilter::MinNonEmptyFields(k) => w.tagged("MinNonEmptyFields", |w| k.write_json(w)),
            RecordFilter::ChildCount { tag, count } => w.tagged("ChildCount", |w| {
                w.obj(|w| {
                    w.field("tag", tag);
                    w.field("count", count);
                })
            }),
            RecordFilter::FieldEquals { field, value } => w.tagged("FieldEquals", |w| {
                w.obj(|w| {
                    w.field("field", field);
                    w.field("value", value);
                })
            }),
        }
    }
}

impl FromJson for RecordFilter {
    fn from_json(j: ZRef<'_>) -> Result<Self, JsonError> {
        if let Some(body) = j.get("AttrNotEquals") {
            return Ok(RecordFilter::AttrNotEquals {
                attr: String::from_json(body.require("attr")?)?,
                value: String::from_json(body.require("value")?)?,
            });
        }
        if let Some(k) = j.get("MinNonEmptyFields") {
            return Ok(RecordFilter::MinNonEmptyFields(usize::from_json(k)?));
        }
        if let Some(body) = j.get("ChildCount") {
            return Ok(RecordFilter::ChildCount {
                tag: String::from_json(body.require("tag")?)?,
                count: usize::from_json(body.require("count")?)?,
            });
        }
        if let Some(body) = j.get("FieldEquals") {
            return Ok(RecordFilter::FieldEquals {
                field: usize::from_json(body.require("field")?)?,
                value: String::from_json(body.require("value")?)?,
            });
        }
        Err(JsonError::expected("record filter", j))
    }
}

/// Which pages of a site a wrapper extracts from.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PageScope {
    /// Only the page the examples came from.
    SinglePage(copycat_document::Url),
    /// Every page reachable by crawling from the entry page.
    AllPages,
}

impl ToJson for PageScope {
    fn write_json(&self, w: &mut JsonWriter<'_>) {
        match self {
            PageScope::SinglePage(u) => w.tagged("SinglePage", |w| u.write_json(w)),
            PageScope::AllPages => w.str("AllPages"),
        }
    }
}

impl FromJson for PageScope {
    fn from_json(j: ZRef<'_>) -> Result<Self, JsonError> {
        if j.as_str() == Some("AllPages") {
            return Ok(PageScope::AllPages);
        }
        if let Some(u) = j.get("SinglePage") {
            return Ok(PageScope::SinglePage(copycat_document::Url::from_json(u)?));
        }
        Err(JsonError::expected("page scope", j))
    }
}

/// An executable extraction rule over one kind of source document.
#[derive(Debug, Clone, PartialEq)]
pub enum Wrapper {
    /// Extraction from a (possibly multi-page) Web site.
    Html {
        /// Generalized (wildcarded) path addressing record nodes.
        record_path: TagPath,
        /// One rule per output column.
        fields: Vec<FieldRule>,
        /// Conjunctive record predicates.
        filters: Vec<RecordFilter>,
        /// Page scope.
        scope: PageScope,
    },
    /// Column projection from a spreadsheet.
    Sheet {
        /// Source column index per output column.
        columns: Vec<usize>,
        /// Number of leading data rows to skip (sheets whose header row
        /// was not modeled as a header).
        skip_rows: usize,
    },
    /// Landmark-rule extraction from plain text (one record per line).
    Text {
        /// Per-field landmark rules.
        rules: Vec<crate::stalker::LandmarkRule>,
    },
}

impl ToJson for Wrapper {
    fn write_json(&self, w: &mut JsonWriter<'_>) {
        match self {
            Wrapper::Html { record_path, fields, filters, scope } => w.tagged("Html", |w| {
                w.obj(|w| {
                    w.field("record_path", record_path);
                    w.field("fields", fields);
                    w.field("filters", filters);
                    w.field("scope", scope);
                })
            }),
            Wrapper::Sheet { columns, skip_rows } => w.tagged("Sheet", |w| {
                w.obj(|w| {
                    w.field("columns", columns);
                    w.field("skip_rows", skip_rows);
                })
            }),
            Wrapper::Text { rules } => w.tagged("Text", |w| w.obj(|w| w.field("rules", rules))),
        }
    }
}

impl FromJson for Wrapper {
    fn from_json(j: ZRef<'_>) -> Result<Self, JsonError> {
        if let Some(body) = j.get("Html") {
            return Ok(Wrapper::Html {
                record_path: TagPath::from_json(body.require("record_path")?)?,
                fields: Vec::from_json(body.require("fields")?)?,
                filters: Vec::from_json(body.require("filters")?)?,
                scope: PageScope::from_json(body.require("scope")?)?,
            });
        }
        if let Some(body) = j.get("Sheet") {
            return Ok(Wrapper::Sheet {
                columns: Vec::from_json(body.require("columns")?)?,
                skip_rows: usize::from_json(body.require("skip_rows")?)?,
            });
        }
        if let Some(body) = j.get("Text") {
            return Ok(Wrapper::Text { rules: Vec::from_json(body.require("rules")?)? });
        }
        Err(JsonError::expected("wrapper", j))
    }
}

impl Wrapper {
    /// Number of output columns.
    pub fn arity(&self) -> usize {
        match self {
            Wrapper::Html { fields, .. } => fields.len(),
            Wrapper::Sheet { columns, .. } => columns.len(),
            Wrapper::Text { rules } => rules.len(),
        }
    }

    /// A short human-readable description (shown in explanations).
    pub fn describe(&self) -> String {
        match self {
            Wrapper::Html { record_path, fields, filters, scope } => format!(
                "html records at {} with {} field(s), {} filter(s), {}",
                record_path,
                fields.len(),
                filters.len(),
                match scope {
                    PageScope::SinglePage(u) => format!("page {u}"),
                    PageScope::AllPages => "all pages".to_string(),
                }
            ),
            Wrapper::Sheet { columns, skip_rows } => {
                format!("sheet columns {columns:?} (skip {skip_rows})")
            }
            Wrapper::Text { rules } => format!("text landmarks x{}", rules.len()),
        }
    }
}

/// Execute a wrapper against a document, producing string rows in source
/// order. A wrapper applied to the wrong document kind yields no rows.
pub fn execute(wrapper: &Wrapper, doc: &Document) -> Vec<Vec<String>> {
    match (wrapper, doc) {
        (Wrapper::Html { record_path, fields, filters, scope }, Document::Site(site)) => {
            execute_html(record_path, fields, filters, scope, site)
        }
        (Wrapper::Sheet { columns, skip_rows }, Document::Sheet(sheet)) => {
            execute_sheet(columns, *skip_rows, sheet)
        }
        (Wrapper::Text { rules }, Document::Text(text)) => crate::stalker::execute(rules, text),
        _ => Vec::new(),
    }
}

fn execute_html(
    record_path: &TagPath,
    fields: &[FieldRule],
    filters: &[RecordFilter],
    scope: &PageScope,
    site: &Website,
) -> Vec<Vec<String>> {
    let pages: Vec<&Page> = match scope {
        PageScope::SinglePage(url) => site.get(url).into_iter().collect(),
        PageScope::AllPages => site.crawl(),
    };
    let mut rows = Vec::new();
    for page in pages {
        for record in page.html.find_by_path(record_path) {
            let row: Vec<String> = fields
                .iter()
                .map(|f| extract_field(&page.html, record, f))
                .collect();
            if passes_filters(&page.html, record, &row, filters) {
                rows.push(row);
            }
        }
    }
    rows
}

/// Resolve a field rule at a record node.
pub(crate) fn extract_field(html: &HtmlDocument, record: NodeId, rule: &FieldRule) -> String {
    match rule {
        FieldRule::Relative(path) => resolve_relative(html, record, path)
            .map(|n| html.text_content(n))
            .unwrap_or_default(),
        FieldRule::PrecedingHeading(tag) => {
            // Nearest preceding element with the tag, by arena order (the
            // arena is built in document order).
            let mut best = None;
            for id in html.iter() {
                if id >= record {
                    break;
                }
                if html.tag(id) == Some(tag.as_str()) {
                    best = Some(id);
                }
            }
            best.map(|n| html.text_content(n)).unwrap_or_default()
        }
    }
}

/// Follow a (possibly wildcarded) relative path from `from`; the first
/// match in document order wins.
pub(crate) fn resolve_relative(
    html: &HtmlDocument,
    from: NodeId,
    path: &TagPath,
) -> Option<NodeId> {
    let mut frontier = vec![from];
    for step in path.steps() {
        let mut next = Vec::new();
        for node in frontier {
            let mut same_tag_seen = 0usize;
            for &child in &html.node(node).children {
                let child_tag = match &html.node(child).kind {
                    copycat_document::NodeKind::Element { tag, .. } => tag.as_str(),
                    copycat_document::NodeKind::Text(_) => "#text",
                    copycat_document::NodeKind::Comment(_) => "#comment",
                };
                if child_tag == step.tag {
                    if step.matches_index(same_tag_seen) {
                        next.push(child);
                    }
                    same_tag_seen += 1;
                }
            }
        }
        frontier = next;
    }
    frontier.into_iter().next()
}

fn passes_filters(
    html: &HtmlDocument,
    record: NodeId,
    row: &[String],
    filters: &[RecordFilter],
) -> bool {
    filters.iter().all(|f| match f {
        RecordFilter::AttrNotEquals { attr, value } => {
            html.attr(record, attr) != Some(value.as_str())
        }
        RecordFilter::MinNonEmptyFields(k) => {
            row.iter().filter(|v| !v.is_empty()).count() >= *k
        }
        RecordFilter::ChildCount { tag, count } => {
            let n = html
                .node(record)
                .children
                .iter()
                .filter(|&&c| html.tag(c) == Some(tag.as_str()))
                .count();
            n == *count
        }
        RecordFilter::FieldEquals { field, value } => {
            row.get(*field).map(String::as_str) == Some(value.as_str())
        }
    })
}

fn execute_sheet(columns: &[usize], skip_rows: usize, sheet: &Sheet) -> Vec<Vec<String>> {
    sheet
        .rows()
        .iter()
        .skip(skip_rows)
        .map(|row| {
            columns
                .iter()
                .map(|&c| row.get(c).cloned().unwrap_or_default())
                .collect()
        })
        .collect()
}

/// Helper used by the learner: a concrete relative path from an ancestor
/// to a descendant. Returns `None` when `desc` is not under `anc`.
pub(crate) fn relative_path(html: &HtmlDocument, anc: NodeId, desc: NodeId) -> Option<TagPath> {
    if anc == desc {
        return Some(TagPath::default());
    }
    let mut steps = Vec::new();
    let mut cur = desc;
    loop {
        let parent = html.node(cur).parent?;
        let tag = match &html.node(cur).kind {
            copycat_document::NodeKind::Element { tag, .. } => tag.clone(),
            copycat_document::NodeKind::Text(_) => "#text".to_string(),
            copycat_document::NodeKind::Comment(_) => "#comment".to_string(),
        };
        steps.push(TagStep { tag, index: StepIndex::Nth(html.sibling_index(cur)) });
        if parent == anc {
            break;
        }
        cur = parent;
    }
    steps.reverse();
    Some(TagPath::new(steps))
}

/// Whether `desc` is a (transitive) descendant of `anc`.
pub(crate) fn is_descendant(html: &HtmlDocument, anc: NodeId, desc: NodeId) -> bool {
    let mut cur = desc;
    while let Some(p) = html.node(cur).parent {
        if p == anc {
            return true;
        }
        cur = p;
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use copycat_document::html::parse;
    use copycat_document::{TextDocument, Url};

    fn shelter_site() -> Website {
        let mut site = Website::new();
        site.add_html(
            "/",
            "<table>\
             <tr><th>Name</th><th>City</th></tr>\
             <tr><td>Coconut Creek HS</td><td>Coconut Creek</td></tr>\
             <tr class=\"ad\"><td colspan=\"2\">Buy now!</td></tr>\
             <tr><td><b>Pompano Rec</b></td><td>Pompano Beach</td></tr>\
             </table>",
        );
        site
    }

    fn tr_wrapper(filters: Vec<RecordFilter>) -> Wrapper {
        Wrapper::Html {
            record_path: TagPath::parse("table[0]/tr[*]").unwrap(),
            fields: vec![
                FieldRule::Relative(TagPath::parse("td[0]").unwrap()),
                FieldRule::Relative(TagPath::parse("td[1]").unwrap()),
            ],
            filters,
            scope: PageScope::SinglePage(Url::new("/")),
        }
    }

    #[test]
    fn html_extraction_with_wildcards() {
        let site = shelter_site();
        let rows = execute(&tr_wrapper(vec![]), &Document::Site(site));
        // Header row has no <td>, so both fields are empty; ad row has one td.
        assert_eq!(rows.len(), 4);
        assert_eq!(rows[1], vec!["Coconut Creek HS", "Coconut Creek"]);
        assert_eq!(rows[3], vec!["Pompano Rec", "Pompano Beach"]); // <b> unwrapped
    }

    #[test]
    fn filters_drop_header_and_ads() {
        let site = shelter_site();
        let w = tr_wrapper(vec![
            RecordFilter::MinNonEmptyFields(2),
            RecordFilter::AttrNotEquals { attr: "class".into(), value: "ad".into() },
        ]);
        let rows = execute(&w, &Document::Site(site));
        assert_eq!(rows.len(), 2);
    }

    #[test]
    fn child_count_filter() {
        let site = shelter_site();
        let w = tr_wrapper(vec![RecordFilter::ChildCount { tag: "td".into(), count: 2 }]);
        let rows = execute(&w, &Document::Site(site));
        assert_eq!(rows.len(), 2, "header (0 td) and ad (1 td) filtered");
    }

    #[test]
    fn preceding_heading_field() {
        let mut site = Website::new();
        site.add_html(
            "/",
            "<h2>Margate</h2><ul><li>Shelter A</li><li>Shelter B</li></ul>\
             <h2>Tamarac</h2><ul><li>Shelter C</li></ul>",
        );
        let w = Wrapper::Html {
            record_path: TagPath::parse("ul[*]/li[*]").unwrap(),
            fields: vec![
                FieldRule::Relative(TagPath::default()),
                FieldRule::PrecedingHeading("h2".into()),
            ],
            filters: vec![],
            scope: PageScope::SinglePage(Url::new("/")),
        };
        let rows = execute(&w, &Document::Site(site));
        assert_eq!(
            rows,
            vec![
                vec!["Shelter A".to_string(), "Margate".to_string()],
                vec!["Shelter B".to_string(), "Margate".to_string()],
                vec!["Shelter C".to_string(), "Tamarac".to_string()],
            ]
        );
    }

    #[test]
    fn sheet_projection() {
        let sheet = Sheet::new(
            "s",
            None,
            vec![
                vec!["hdr1".into(), "hdr2".into(), "x".into()],
                vec!["a".into(), "b".into(), "c".into()],
            ],
        );
        let w = Wrapper::Sheet { columns: vec![2, 0], skip_rows: 1 };
        assert_eq!(execute(&w, &Document::Sheet(sheet)), vec![vec!["c", "a"]]);
    }

    #[test]
    fn wrong_document_kind_extracts_nothing() {
        let w = Wrapper::Sheet { columns: vec![0], skip_rows: 0 };
        let doc = Document::Text(TextDocument::new("t", "hello"));
        assert!(execute(&w, &doc).is_empty());
    }

    #[test]
    fn relative_path_roundtrip() {
        let doc = parse("<div><p>a</p><p><span>b</span></p></div>");
        let div = doc.elements_by_tag("div")[0];
        let span = doc.elements_by_tag("span")[0];
        let rel = relative_path(&doc, div, span).unwrap();
        assert_eq!(rel.to_string(), "p[1]/span[0]");
        assert_eq!(resolve_relative(&doc, div, &rel), Some(span));
        assert!(is_descendant(&doc, div, span));
        assert!(!is_descendant(&doc, span, div));
    }

    #[test]
    fn json_roundtrip() {
        let wrappers = vec![
            tr_wrapper(vec![
                RecordFilter::AttrNotEquals { attr: "class".into(), value: "ad".into() },
                RecordFilter::MinNonEmptyFields(2),
                RecordFilter::ChildCount { tag: "td".into(), count: 2 },
                RecordFilter::FieldEquals { field: 1, value: "Coconut Creek".into() },
            ]),
            Wrapper::Html {
                record_path: TagPath::parse("ul[*]/li[*]").unwrap(),
                fields: vec![FieldRule::PrecedingHeading("h2".into())],
                filters: vec![],
                scope: PageScope::AllPages,
            },
            Wrapper::Sheet { columns: vec![2, 0], skip_rows: 1 },
            Wrapper::Text {
                rules: vec![crate::stalker::LandmarkRule {
                    prefix: "Name: ".into(),
                    suffix: ";".into(),
                }],
            },
        ];
        for w in wrappers {
            let text = copycat_util::json::to_string(&w);
            let back: Wrapper = copycat_util::json::from_str(&text).unwrap();
            assert_eq!(back, w, "round-trip through {text}");
        }
    }

    #[test]
    fn multipage_scope_crawls() {
        let mut site = Website::new();
        site.add_html("/", "<ul><li>A</li></ul><a href=\"/p2\">next</a>");
        site.add_html("/p2", "<ul><li>B</li></ul>");
        let w = Wrapper::Html {
            record_path: TagPath::parse("ul[0]/li[*]").unwrap(),
            fields: vec![FieldRule::Relative(TagPath::default())],
            filters: vec![],
            scope: PageScope::AllPages,
        };
        let rows = execute(&w, &Document::Site(site));
        assert_eq!(rows, vec![vec!["A".to_string()], vec!["B".to_string()]]);
    }
}
