//! Copy & paste events — the observable interactions an SCP system learns
//! from.
//!
//! The paper's application wrappers detect "copy and paste operations —
//! between source applications and the SCP workspace", and feed the learners
//! both the copied data and "context information like the document being
//! displayed in the source application" (§2.2). A [`CopyEvent`] carries
//! precisely that: the copied text, a handle to the source [`Document`], and
//! the structural [`Selection`] within it.

use crate::html::NodeId;
use crate::site::{Url, Website};
use crate::spreadsheet::{Sheet, SheetRange};
use crate::text::TextDocument;

/// Handle to a document registered with a [`Clipboard`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct DocumentId(pub u32);

/// A source document a user can copy from.
#[derive(Debug, Clone)]
pub enum Document {
    /// A (possibly multi-page) Web site displayed in the browser.
    Site(Website),
    /// A spreadsheet.
    Sheet(Sheet),
    /// A plain-text document.
    Text(TextDocument),
}

impl Document {
    /// Human-readable name for workspace tab labels.
    pub fn name(&self) -> String {
        match self {
            Document::Site(site) => site
                .entry()
                .map(|p| p.url.to_string())
                .unwrap_or_else(|| "(empty site)".to_string()),
            Document::Sheet(s) => s.name().to_string(),
            Document::Text(t) => t.name().to_string(),
        }
    }
}

/// What was selected inside the source document.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Selection {
    /// DOM nodes on one page of a site.
    HtmlNodes {
        /// Page the nodes live on.
        url: Url,
        /// Selected nodes in document order.
        nodes: Vec<NodeId>,
    },
    /// A rectangular cell range.
    Cells(SheetRange),
    /// A byte span `[start, end)` of a text document.
    Span {
        /// Start byte offset.
        start: usize,
        /// End byte offset (exclusive).
        end: usize,
    },
    /// Free text copied from outside any modeled document (the system can
    /// still learn from the pasted value itself, just not from structure).
    External,
}

/// One observed copy operation.
#[derive(Debug, Clone)]
pub struct CopyEvent {
    /// Source document, when modeled. `None` for [`Selection::External`].
    pub doc: Option<DocumentId>,
    /// The structural selection.
    pub selection: Selection,
    /// The text that landed on the clipboard. For multi-cell selections this
    /// is TSV (tabs between columns, newlines between rows), matching what
    /// real spreadsheet applications put on the clipboard.
    pub text: String,
}

/// One observed paste into a grid-shaped workspace.
///
/// Retains both views of the pasted data: the verbatim clipboard text
/// (via [`PasteEvent::raw`]) and the grid of cell values parsed from it.
/// Downstream learners need both — structure induction works on the
/// parsed cells, while example-driven transform synthesis needs the
/// untouched source text, whitespace and punctuation included.
#[derive(Debug, Clone)]
pub struct PasteEvent {
    /// The copy being pasted.
    pub copy: CopyEvent,
    /// Target row in the workspace grid.
    pub row: usize,
    /// Target column in the workspace grid.
    pub col: usize,
    /// Cell values parsed from the clipboard text: rows split on
    /// newlines, columns on tabs, mirroring how grid applications
    /// interpret a TSV clipboard on paste.
    pub values: Vec<Vec<String>>,
}

impl PasteEvent {
    /// Record a paste of `copy` at grid position (`row`, `col`),
    /// parsing the clipboard text into cells while keeping the raw
    /// text available through [`PasteEvent::raw`].
    pub fn new(copy: CopyEvent, row: usize, col: usize) -> Self {
        let values = copy
            .text
            .split('\n')
            .map(|line| line.split('\t').map(str::to_string).collect())
            .collect();
        PasteEvent { copy, row, col, values }
    }

    /// The verbatim copied source text, exactly as it left the source
    /// application — the input side of a transform-synthesis example.
    pub fn raw(&self) -> &str {
        &self.copy.text
    }
}

/// The monitored clipboard: owns registered documents and produces
/// [`CopyEvent`]s whose text is derived from the selection, exactly as the
/// OS clipboard would.
#[derive(Debug, Default)]
pub struct Clipboard {
    docs: Vec<Document>,
}

impl Clipboard {
    /// An empty clipboard with no registered documents.
    pub fn new() -> Self {
        Self::default()
    }

    /// Register a document the user has "opened"; returns its handle.
    pub fn register(&mut self, doc: Document) -> DocumentId {
        let id = DocumentId(self.docs.len() as u32);
        self.docs.push(doc);
        id
    }

    /// Borrow a registered document.
    pub fn document(&self, id: DocumentId) -> Option<&Document> {
        self.docs.get(id.0 as usize)
    }

    /// Copy a selection from a registered document. Returns `None` when the
    /// selection does not resolve (wrong document kind, bad page, bad span).
    pub fn copy(&self, id: DocumentId, selection: Selection) -> Option<CopyEvent> {
        let doc = self.document(id)?;
        let text = match (&selection, doc) {
            (Selection::HtmlNodes { url, nodes }, Document::Site(site)) => {
                let page = site.get(url)?;
                let parts: Vec<String> = nodes
                    .iter()
                    .map(|&n| page.html.text_content(n))
                    .collect();
                parts.join("\t")
            }
            (Selection::Cells(range), Document::Sheet(sheet)) => sheet.range_text(*range),
            (Selection::Span { start, end }, Document::Text(text)) => {
                text.span(*start, *end)?.to_string()
            }
            _ => return None,
        };
        Some(CopyEvent { doc: Some(id), selection, text })
    }

    /// A copy of free text from an unmodeled application.
    pub fn copy_external(text: impl Into<String>) -> CopyEvent {
        CopyEvent { doc: None, selection: Selection::External, text: text.into() }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spreadsheet::CellAddr;

    #[test]
    fn copy_from_sheet_is_tsv() {
        let mut cb = Clipboard::new();
        let sheet = Sheet::new(
            "contacts",
            None,
            vec![
                vec!["Ann".into(), "555-0101".into()],
                vec!["Bob".into(), "555-0102".into()],
            ],
        );
        let id = cb.register(Document::Sheet(sheet));
        let range = SheetRange::new(CellAddr::new(0, 0), CellAddr::new(1, 1));
        let ev = cb.copy(id, Selection::Cells(range)).unwrap();
        assert_eq!(ev.text, "Ann\t555-0101\nBob\t555-0102");
    }

    #[test]
    fn copy_from_html_nodes() {
        let mut cb = Clipboard::new();
        let mut site = Website::new();
        site.add_html("/", "<ul><li>Coconut Creek HS</li><li>Pompano Rec</li></ul>");
        let id = cb.register(Document::Site(site));
        let Document::Site(site) = cb.document(id).unwrap() else {
            unreachable!()
        };
        let page = site.entry().unwrap();
        let lis = page.html.elements_by_tag("li");
        let sel = Selection::HtmlNodes { url: page.url.clone(), nodes: vec![lis[0]] };
        let ev = cb.copy(id, sel).unwrap();
        assert_eq!(ev.text, "Coconut Creek HS");
    }

    #[test]
    fn mismatched_selection_kind_fails() {
        let mut cb = Clipboard::new();
        let id = cb.register(Document::Text(TextDocument::new("t", "hello")));
        let range = SheetRange::cell(CellAddr::new(0, 0));
        assert!(cb.copy(id, Selection::Cells(range)).is_none());
    }

    #[test]
    fn paste_event_parses_cells_and_keeps_raw_text() {
        let ev = PasteEvent::new(
            Clipboard::copy_external("Ann\t(555) 010-0101\nBob\t(555) 010-0102"),
            2,
            1,
        );
        assert_eq!(ev.raw(), "Ann\t(555) 010-0101\nBob\t(555) 010-0102");
        assert_eq!(
            ev.values,
            vec![
                vec!["Ann".to_string(), "(555) 010-0101".to_string()],
                vec!["Bob".to_string(), "(555) 010-0102".to_string()],
            ]
        );
        assert_eq!((ev.row, ev.col), (2, 1));
    }

    #[test]
    fn external_copy() {
        let ev = Clipboard::copy_external("33063");
        assert!(ev.doc.is_none());
        assert_eq!(ev.text, "33063");
    }
}
