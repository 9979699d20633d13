//! The CopyCat workspace: a dynamic, spreadsheet-like grid with tabs.
//!
//! §2.1: in integration mode "the SCP system will create a tabbed pane in
//! its GUI for each data source … The moment the user pastes or accepts a
//! row or column from a different source … the query's output receives
//! its own tabbed pane." Rows and columns carry suggestion state
//! (highlighted rows in Figure 1, the yellow Zip column in Figure 2),
//! which this headless model tracks explicitly.
//!
//! The [`Workspace`] changes its active tab only through methods that
//! record each change's inverse while an undo entry is open
//! ([`Workspace::open_undo`]), so an undo puts back exactly what the
//! undone action changed. [`Tab`]'s own methods are the unrecorded
//! primitives.

use copycat_provenance::Provenance;
use copycat_query::Field;
use copycat_util::undo::UndoLog;
use std::cell::Cell;
use std::fmt;

/// Where a row came from — drives both rendering and feedback routing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RowState {
    /// Pasted by the user (always kept).
    Pasted,
    /// Proposed by an auto-completion, awaiting feedback.
    Suggested,
    /// A suggestion the user accepted.
    Accepted,
}

/// One workspace row.
#[derive(Debug, Clone)]
pub struct Row {
    /// Cell texts, aligned with the tab's columns.
    pub cells: Vec<String>,
    /// Suggestion state.
    pub state: RowState,
    /// Provenance, when the row came from a query or wrapper.
    pub provenance: Option<Provenance>,
}

/// One tabbed pane: a titled grid.
#[derive(Debug, Clone, Default)]
pub struct Tab {
    /// Tab title (source name or query name).
    pub title: String,
    /// Column headers with semantic types.
    pub columns: Vec<Field>,
    /// Which columns were named by the user (vs. system-proposed).
    pub user_named: Vec<bool>,
    /// The rows.
    pub rows: Vec<Row>,
}

impl Tab {
    /// A new empty tab.
    pub fn new(title: impl Into<String>) -> Self {
        Self { title: title.into(), ..Self::default() }
    }

    /// Ensure at least `n` columns exist (named `Col1`, `Col2`, … until
    /// renamed by the system or the user).
    pub fn ensure_columns(&mut self, n: usize) {
        while self.columns.len() < n {
            let name = format!("Col{}", self.columns.len() + 1);
            self.columns.push(Field::new(name));
            self.user_named.push(false);
        }
        for row in &mut self.rows {
            row.cells.resize(self.columns.len(), String::new());
        }
    }

    /// Paste a row of values (user action).
    pub fn paste_row(&mut self, values: &[String]) {
        self.ensure_columns(values.len());
        let mut cells = values.to_vec();
        cells.resize(self.columns.len(), String::new());
        self.rows.push(Row { cells, state: RowState::Pasted, provenance: None });
    }

    /// Append a column with values aligned to the current rows (accepting
    /// a column auto-completion).
    pub fn add_column(&mut self, field: Field, values: &[String]) {
        self.columns.push(field);
        self.user_named.push(false);
        for (i, row) in self.rows.iter_mut().enumerate() {
            row.cells.push(values.get(i).cloned().unwrap_or_default());
        }
    }

    /// The non-suggested rows' cells (the "committed" table).
    pub fn committed_rows(&self) -> Vec<Vec<String>> {
        self.rows
            .iter()
            .filter(|r| r.state != RowState::Suggested)
            .map(|r| r.cells.clone())
            .collect()
    }

    /// The user-pasted rows only (the learner's examples).
    pub fn pasted_rows(&self) -> Vec<Vec<String>> {
        self.rows
            .iter()
            .filter(|r| r.state == RowState::Pasted)
            .map(|r| r.cells.clone())
            .collect()
    }

    /// Values of one column (committed rows only).
    pub fn column_values(&self, col: usize) -> Vec<String> {
        self.rows
            .iter()
            .filter(|r| r.state != RowState::Suggested)
            .filter_map(|r| r.cells.get(col).cloned())
            .collect()
    }

    /// ASCII rendering with suggestion markers — the headless stand-in
    /// for Figures 1 and 2.
    pub fn render_text(&self) -> String {
        let mut widths: Vec<usize> = self.columns.iter().map(|c| c.name.len()).collect();
        for row in &self.rows {
            for (i, c) in row.cells.iter().enumerate() {
                if i < widths.len() {
                    widths[i] = widths[i].max(c.len());
                }
            }
        }
        let mut out = String::new();
        out.push_str(&format!("=== {} ===\n", self.title));
        let mut header = String::from("   ");
        for (i, c) in self.columns.iter().enumerate() {
            let label = match &c.sem_type {
                Some(t) => format!("{} [{t}]", c.name),
                None => c.name.clone(),
            };
            header.push_str(&format!("{:<w$}  ", label, w = widths[i].max(label.len())));
            widths[i] = widths[i].max(label.len());
        }
        out.push_str(header.trim_end());
        out.push('\n');
        for row in &self.rows {
            let marker = match row.state {
                RowState::Pasted => "   ",
                RowState::Suggested => " ? ",
                RowState::Accepted => " + ",
            };
            out.push_str(marker);
            for (i, c) in row.cells.iter().enumerate() {
                out.push_str(&format!("{:<w$}  ", c, w = widths[i]));
            }
            while out.ends_with(' ') {
                out.pop();
            }
            out.push('\n');
        }
        out
    }
}

/// The inverse of one workspace change, kept while an undo entry is
/// open. `tab` is the index of the tab that changed.
#[derive(Debug, Clone)]
enum WsUndo {
    /// Drop the rows appended since: keep the first `len`.
    Rows { tab: usize, len: usize },
    /// Drop the columns appended since, with their cells: keep the
    /// first `len`.
    Columns { tab: usize, len: usize },
    /// Undo a suggestion refresh: drop the rows from `start` on, then
    /// put the suggestions it removed back at their indices, ascending.
    Suggestions { tab: usize, start: usize, removed: Vec<(usize, Row)> },
    /// Put back one removed row.
    Row { tab: usize, index: usize, row: Row },
    /// Mark these accepted rows suggested again.
    Suggested { tab: usize, rows: Vec<usize> },
    /// A column's previous name and whether the user had named it.
    Name { tab: usize, col: usize, name: String, user_named: bool },
    /// A column's previous semantic type.
    Type { tab: usize, col: usize, sem_type: Option<String> },
    /// A cell's previous text.
    Cell { tab: usize, row: usize, col: usize, text: String },
    /// A row's previous provenance.
    Provenance { tab: usize, row: usize, provenance: Option<Provenance> },
    /// The previous title.
    Title { tab: usize, title: String },
    /// The previously active tab.
    Active(usize),
    /// Drop the last tab, making `active` active again.
    Tab { active: usize },
}

impl WsUndo {
    /// Whether `self` and `other` put back the same slot's value, so
    /// that of the two only the older is needed.
    fn same_slot(&self, other: &Self) -> bool {
        use WsUndo::*;
        match (self, other) {
            (Name { tab, col, .. }, Name { tab: t, col: c, .. })
            | (Type { tab, col, .. }, Type { tab: t, col: c, .. }) => (tab, col) == (t, c),
            (Cell { tab, row, col, .. }, Cell { tab: t, row: r, col: c, .. }) => {
                (tab, row, col) == (t, r, c)
            }
            (Provenance { tab, row, .. }, Provenance { tab: t, row: r, .. }) => (tab, row) == (t, r),
            (Title { tab, .. }, Title { tab: t, .. }) => tab == t,
            (Active(_), Active(_)) => true,
            _ => false,
        }
    }
}

/// Whether `cells` equals `values` padded with empty cells to `width`.
fn padded_eq(cells: &[String], values: &[String], width: usize) -> bool {
    cells.len() == width
        && values.len() <= width
        && cells[..values.len()] == *values
        && cells[values.len()..].iter().all(String::is_empty)
}

/// The tabbed workspace.
#[derive(Debug, Clone, Default)]
pub struct Workspace {
    tabs: Vec<Tab>,
    active: usize,
    /// Inverses of the changes made since each open undo entry.
    undo: UndoLog<WsUndo>,
}

impl Workspace {
    /// A workspace with one empty tab.
    pub fn new() -> Self {
        Self { tabs: vec![Tab::new("Sheet1")], active: 0, undo: UndoLog::new() }
    }

    /// The active tab.
    pub fn active(&self) -> &Tab {
        &self.tabs[self.active]
    }

    /// All tabs.
    pub fn tabs(&self) -> &[Tab] {
        &self.tabs
    }

    /// Add a tab and switch to it; returns its index.
    pub fn add_tab(&mut self, tab: Tab) -> usize {
        self.undo.record(WsUndo::Tab { active: self.active });
        self.tabs.push(tab);
        self.active = self.tabs.len() - 1;
        self.active
    }

    /// Switch the active tab. False on bad index.
    pub fn switch_to(&mut self, i: usize) -> bool {
        if i >= self.tabs.len() {
            return false;
        }
        if i != self.active {
            self.record_set(WsUndo::Active(self.active));
            self.active = i;
        }
        true
    }

    /// Index of the active tab.
    pub fn active_index(&self) -> usize {
        self.active
    }

    // --- Recorded edits of the active tab --------------------------------

    /// Paste a row of values.
    pub fn paste_row(&mut self, values: &[String]) {
        let (tab, cols, rows) = self.shape();
        self.tabs[tab].paste_row(values);
        if self.tabs[tab].columns.len() > cols {
            self.undo.record(WsUndo::Columns { tab, len: cols });
        }
        self.undo.record(WsUndo::Rows { tab, len: rows });
    }

    /// Replace the active tab's suggested rows (system action): drop
    /// them all, then append each of `rows`, padded to the tab's width
    /// (columns grow to fit the widest), unless it equals a pasted or
    /// accepted row. The dropped rows move into the undo entry.
    pub fn replace_suggestions(&mut self, rows: &[&[String]]) {
        let (tab, cols, _) = self.shape();
        let t = &mut self.tabs[tab];
        // `extract_if` visits rows in order and hands each removed row
        // on before it tests the next, so `seen` is one past its index.
        let seen = Cell::new(0);
        let mut removed: Vec<(usize, Row)> = t
            .rows
            .extract_if(.., |r| {
                seen.set(seen.get() + 1);
                r.state == RowState::Suggested
            })
            .map(|row| (seen.get() - 1, row))
            .collect();
        let start = t.rows.len();
        t.ensure_columns(rows.iter().map(|r| r.len()).max().unwrap_or(0));
        let width = t.columns.len();
        for values in rows {
            // Rows before `start` are the pasted and accepted ones.
            if t.rows[..start].iter().any(|r| padded_eq(&r.cells, values, width)) {
                continue;
            }
            let mut cells = values.to_vec();
            cells.resize(width, String::new());
            t.rows.push(Row { cells, state: RowState::Suggested, provenance: None });
        }
        if width > cols {
            self.undo.record(WsUndo::Columns { tab, len: cols });
        }
        if !removed.is_empty() || self.tabs[tab].rows.len() > start {
            // The entry outlives the refresh: keep no spare capacity.
            removed.shrink_to_fit();
            self.undo.record(WsUndo::Suggestions { tab, start, removed });
        }
    }

    /// Accept every suggested row.
    pub fn accept_all_suggestions(&mut self) -> usize {
        let tab = self.active;
        let mut accepted = Vec::new();
        for (i, r) in self.tabs[tab].rows.iter_mut().enumerate() {
            if r.state == RowState::Suggested {
                r.state = RowState::Accepted;
                accepted.push(i);
            }
        }
        let n = accepted.len();
        if n > 0 {
            self.undo.record(WsUndo::Suggested { tab, rows: accepted });
        }
        n
    }

    /// Reject (remove) one suggested row by index, returning its cells.
    pub fn reject_row(&mut self, i: usize) -> Option<Vec<String>> {
        if self.active().rows.get(i)?.state != RowState::Suggested {
            return None;
        }
        self.remove_row(i)
    }

    /// Remove one row, whatever its state, returning its cells. `None`
    /// on bad index.
    pub fn remove_row(&mut self, i: usize) -> Option<Vec<String>> {
        let tab = self.active;
        if i >= self.tabs[tab].rows.len() {
            return None;
        }
        let row = self.tabs[tab].rows.remove(i);
        let cells = row.cells.clone();
        self.undo.record(WsUndo::Row { tab, index: i, row });
        Some(cells)
    }

    /// Set a column's header as the user's choice.
    pub fn name_column(&mut self, col: usize, name: &str) -> bool {
        let tab = self.active;
        let t = &mut self.tabs[tab];
        let Some(f) = t.columns.get_mut(col) else {
            return false;
        };
        if f.name != name || !t.user_named[col] {
            let name = std::mem::replace(&mut f.name, name.to_string());
            let user_named = std::mem::replace(&mut t.user_named[col], true);
            self.record_set(WsUndo::Name { tab, col, name, user_named });
        }
        true
    }

    /// System-proposed column label and semantic type; never overwrites
    /// a user-chosen name. Records only what it changes.
    pub fn propose_column(&mut self, col: usize, name: &str, sem_type: Option<&str>) {
        let tab = self.active;
        let t = &mut self.tabs[tab];
        let Some(f) = t.columns.get_mut(col) else {
            return;
        };
        if !t.user_named[col] && f.name != name {
            let name = std::mem::replace(&mut f.name, name.to_string());
            self.record_set(WsUndo::Name { tab, col, name, user_named: false });
        }
        let f = &mut self.tabs[tab].columns[col];
        if let Some(ty) = sem_type.filter(|&ty| f.sem_type.as_deref() != Some(ty)) {
            let sem_type = f.sem_type.replace(ty.to_string());
            self.record_set(WsUndo::Type { tab, col, sem_type });
        }
    }

    /// Append a column with values aligned to the current rows.
    pub fn add_column(&mut self, field: Field, values: &[String]) {
        let (tab, cols, _) = self.shape();
        self.tabs[tab].add_column(field, values);
        self.undo.record(WsUndo::Columns { tab, len: cols });
    }

    /// Set one cell's text. False when the row or column is missing.
    pub fn set_cell(&mut self, row: usize, col: usize, text: String) -> bool {
        let tab = self.active;
        let cell = self.tabs[tab].rows.get_mut(row).and_then(|r| r.cells.get_mut(col));
        let Some(cell) = cell else {
            return false;
        };
        if *cell != text {
            let text = std::mem::replace(cell, text);
            self.record_set(WsUndo::Cell { tab, row, col, text });
        }
        true
    }

    /// Set one row's provenance. False on bad index.
    pub fn set_provenance(&mut self, row: usize, provenance: Provenance) -> bool {
        let tab = self.active;
        let Some(r) = self.tabs[tab].rows.get_mut(row) else {
            return false;
        };
        let provenance = r.provenance.replace(provenance);
        self.record_set(WsUndo::Provenance { tab, row, provenance });
        true
    }

    /// Set the active tab's title.
    pub fn set_title(&mut self, title: &str) {
        let tab = self.active;
        if self.tabs[tab].title != title {
            let title = std::mem::replace(&mut self.tabs[tab].title, title.to_string());
            self.record_set(WsUndo::Title { tab, title });
        }
    }

    /// The active tab's index, column count and row count.
    fn shape(&self) -> (usize, usize, usize) {
        let t = self.active();
        (self.active, t.columns.len(), t.rows.len())
    }

    // --- Undo -----------------------------------------------------------

    /// Open an undo entry: until the next one, every change made
    /// through this type records its inverse. The newest
    /// [`MAX_ENTRIES`](copycat_util::undo::MAX_ENTRIES) entries stay
    /// open; the oldest is forgotten.
    pub fn open_undo(&mut self) {
        self.undo.open();
    }

    /// Record `op`, the inverse of setting one slot, unless the open
    /// entry already puts that slot back: an earlier record for it
    /// holds the older value, unless a row was removed since, which
    /// may have moved the row a slot names. So repeated edits of one
    /// slot (a column renamed over and over) keep one record.
    fn record_set(&mut self, op: WsUndo) {
        let restored = self
            .undo
            .newest()
            .take_while(|r| !matches!(r, WsUndo::Row { .. } | WsUndo::Suggestions { .. }))
            .any(|r| r.same_slot(&op));
        if !restored {
            self.undo.record(op);
        }
    }

    /// Undo the newest open entry: apply its inverses newest first.
    /// Nothing happens when no entry is open.
    pub fn undo(&mut self) {
        // Taken out while applying, so nothing is recorded meanwhile.
        let mut log = std::mem::take(&mut self.undo);
        if let Some(ops) = log.pop() {
            for op in ops.rev() {
                self.revert(op);
            }
        }
        self.undo = log;
    }

    fn revert(&mut self, op: WsUndo) {
        match op {
            WsUndo::Rows { tab, len } => self.tabs[tab].rows.truncate(len),
            WsUndo::Columns { tab, len } => {
                let t = &mut self.tabs[tab];
                t.columns.truncate(len);
                t.user_named.truncate(len);
                for r in &mut t.rows {
                    r.cells.truncate(len);
                }
            }
            WsUndo::Suggestions { tab, start, removed } => {
                let t = &mut self.tabs[tab];
                t.rows.truncate(start);
                for (at, row) in removed {
                    t.rows.insert(at, row);
                }
            }
            WsUndo::Row { tab, index, row } => self.tabs[tab].rows.insert(index, row),
            WsUndo::Suggested { tab, rows } => {
                for i in rows {
                    self.tabs[tab].rows[i].state = RowState::Suggested;
                }
            }
            WsUndo::Name { tab, col, name, user_named } => {
                self.tabs[tab].columns[col].name = name;
                self.tabs[tab].user_named[col] = user_named;
            }
            WsUndo::Type { tab, col, sem_type } => {
                self.tabs[tab].columns[col].sem_type = sem_type;
            }
            WsUndo::Cell { tab, row, col, text } => self.tabs[tab].rows[row].cells[col] = text,
            WsUndo::Provenance { tab, row, provenance } => {
                self.tabs[tab].rows[row].provenance = provenance;
            }
            WsUndo::Title { tab, title } => self.tabs[tab].title = title,
            WsUndo::Active(i) => self.active = i,
            WsUndo::Tab { active } => {
                self.tabs.pop();
                self.active = active;
            }
        }
    }
}

impl fmt::Display for Workspace {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, t) in self.tabs.iter().enumerate() {
            let star = if i == self.active { "*" } else { " " };
            writeln!(f, "{star}[{i}] {}", t.title)?;
        }
        write!(f, "{}", self.active().render_text())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strings(values: &[&str]) -> Vec<String> {
        values.iter().map(|v| v.to_string()).collect()
    }

    /// A one-tab workspace with pasted row `a` and suggestions `b`, `c`.
    fn suggested() -> Workspace {
        let mut w = Workspace::new();
        w.paste_row(&strings(&["a"]));
        let rows = [strings(&["a"]), strings(&["b"]), strings(&["c"])];
        let refs: Vec<&[String]> = rows.iter().map(|r| &r[..]).collect();
        w.replace_suggestions(&refs); // `a` duplicates the pasted row
        w
    }

    #[test]
    fn paste_grows_columns() {
        let mut t = Tab::new("t");
        t.paste_row(&strings(&["a", "b"]));
        assert_eq!(t.columns.len(), 2);
        t.paste_row(&strings(&["c", "d", "e"]));
        assert_eq!(t.columns.len(), 3);
        // Earlier rows padded.
        assert_eq!(t.rows[0].cells.len(), 3);
    }

    #[test]
    fn suggestions_lifecycle() {
        let mut w = suggested();
        assert_eq!(w.active().rows.len(), 3);
        let rejected = w.reject_row(2).unwrap();
        assert_eq!(rejected, vec!["c"]);
        assert_eq!(w.reject_row(0), None, "a pasted row is not rejected");
        assert_eq!(w.accept_all_suggestions(), 1);
        assert_eq!(w.active().rows[1].state, RowState::Accepted);
        assert_eq!(w.active().committed_rows().len(), 2);
        assert_eq!(w.active().pasted_rows().len(), 1);
    }

    #[test]
    fn accept_all() {
        let mut w = Workspace::new();
        w.replace_suggestions(&[&strings(&["x"]), &strings(&["y"])]);
        assert_eq!(w.accept_all_suggestions(), 2);
        assert_eq!(w.active().pasted_rows().len(), 0);
        assert_eq!(w.active().committed_rows().len(), 2);
    }

    #[test]
    fn user_names_beat_proposals() {
        let mut w = Workspace::new();
        w.paste_row(&strings(&["x", "y"]));
        w.propose_column(0, "Street", Some("PR-Street"));
        assert_eq!(w.active().columns[0].name, "Street");
        w.name_column(1, "Name");
        w.propose_column(1, "City", Some("PR-City"));
        assert_eq!(w.active().columns[1].name, "Name", "user name preserved");
        assert_eq!(w.active().columns[1].sem_type.as_deref(), Some("PR-City"));
    }

    #[test]
    fn add_column_aligns_values() {
        let mut t = Tab::new("t");
        t.paste_row(&strings(&["a"]));
        t.paste_row(&strings(&["b"]));
        t.add_column(Field::typed("Zip", "PR-Zip"), &strings(&["1"]));
        assert_eq!(t.rows[0].cells, vec!["a", "1"]);
        assert_eq!(t.rows[1].cells, vec!["b", ""]);
    }

    #[test]
    fn render_contains_markers_and_types() {
        let mut w = Workspace::new();
        w.set_title("Shelters");
        w.paste_row(&strings(&["Creek HS"]));
        w.propose_column(0, "Name", None);
        w.replace_suggestions(&[&strings(&["Rec Ctr"])[..]]);
        let txt = w.active().render_text();
        assert!(txt.contains("=== Shelters ==="));
        assert!(txt.contains(" ? Rec Ctr"));
    }

    #[test]
    fn workspace_tabs() {
        let mut w = Workspace::new();
        assert_eq!(w.active_index(), 0);
        let i = w.add_tab(Tab::new("Contacts"));
        assert_eq!(i, 1);
        assert_eq!(w.active().title, "Contacts");
        assert!(w.switch_to(0));
        assert!(!w.switch_to(9));
    }

    /// Everything a caller can see of the workspace.
    fn seen(w: &Workspace) -> String {
        let mut out = format!("{w}\n");
        for t in w.tabs() {
            let rows: Vec<_> = t.rows.iter().map(|r| (r.state, r.provenance.is_some())).collect();
            out += &format!("{:?} {:?} {rows:?}\n", t.columns, t.user_named);
        }
        out
    }

    #[test]
    fn nothing_is_recorded_without_an_open_entry() {
        let mut w = suggested();
        w.undo();
        assert_eq!(w.active().rows.len(), 3, "no entry: undo changes nothing");
    }

    #[test]
    fn undo_reverts_each_entry_exactly() {
        let mut w = suggested();
        let mut states = vec![seen(&w)];
        let rows = [strings(&["c"]), strings(&["d", "e"]), strings(&["b"])];
        let refs: Vec<&[String]> = rows.iter().map(|r| &r[..]).collect();
        let [p, q, r, n] = [["p"], ["q"], ["r"], ["n"]].map(|v| strings(&v));
        let edits: [&dyn Fn(&mut Workspace); 11] = [
            &|w| w.paste_row(&strings(&["b", "x"])),
            &|w| w.replace_suggestions(&[&p, &q, &r]),
            &|w| w.replace_suggestions(&[&p, &n, &q, &r]),
            &|w| w.replace_suggestions(&refs),
            &|w| {
                w.accept_all_suggestions();
                w.name_column(0, "Venue");
            },
            &|w| w.propose_column(1, "City", Some("PR-City")),
            &|w| {
                w.add_column(Field::new("Zip"), &strings(&["1", "2"]));
                w.set_cell(0, 2, "9".to_string());
            },
            &|w| {
                w.set_provenance(1, Provenance::base("Shelters", 1));
                w.remove_row(0);
            },
            &|w| w.set_title("Shelters"),
            &|w| {
                w.add_tab(Tab::new("more"));
                w.paste_row(&strings(&["z"]));
            },
            &|w| {
                w.switch_to(0);
                w.replace_suggestions(&[]);
            },
        ];
        for edit in edits {
            w.open_undo();
            edit(&mut w);
            states.push(seen(&w));
        }
        states.pop();
        for want in states.iter().rev() {
            w.undo();
            assert_eq!(&seen(&w), want);
        }
        w.undo();
        assert_eq!(seen(&w), states[0], "every entry was undone");
    }

    #[test]
    fn repeated_edits_of_one_slot_keep_one_record() {
        let mut w = suggested();
        w.open_undo();
        let before = seen(&w);
        for name in ["x", "y", "y"] {
            w.name_column(0, name);
        }
        w.propose_column(0, "p", Some("T1"));
        w.propose_column(0, "p", Some("T2"));
        w.set_cell(2, 0, "z".to_string());
        w.set_cell(2, 0, "w".to_string());
        w.set_title("t1");
        w.set_title("t2");
        assert_eq!(w.undo.newest().count(), 4, "one name, type, cell and title");
        w.set_cell(1, 0, "b2".to_string());
        // Removing row 1 moves the row that `c` was in up to 1, so an
        // edit of cell (1, 0) afterwards records again.
        w.reject_row(1);
        w.set_cell(1, 0, "v".to_string());
        assert_eq!(w.undo.newest().count(), 7);
        w.undo();
        assert_eq!(seen(&w), before);
    }
}
