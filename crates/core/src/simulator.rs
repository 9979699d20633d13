//! The scripted user and the action/keystroke cost model behind
//! experiment E1.
//!
//! §5 quotes the Karma result the SCP interface builds on: "query
//! auto-completions … saved approximately 75% of keystrokes compared to
//! manual integration of data by copy and paste." To regenerate that
//! number we need an explicit model of what each user interaction costs;
//! the constants here are deliberately simple and conservative (a copy is
//! a selection plus a chord; a paste is a focus plus a chord), and the
//! same model prices both the manual strategy and the SCP strategy.

/// Cost (in keystroke-equivalents) of each primitive user action.
#[derive(Debug, Clone, Copy)]
pub struct CostModel {
    /// Typing one character.
    pub keystroke: f64,
    /// One mouse click (cell focus, button press).
    pub click: f64,
    /// Copy: select the source region + the copy chord.
    pub copy: f64,
    /// Paste: focus the target + the paste chord.
    pub paste: f64,
    /// Switching between applications.
    pub app_switch: f64,
}

impl Default for CostModel {
    fn default() -> Self {
        Self { keystroke: 1.0, click: 1.0, copy: 2.0, paste: 2.0, app_switch: 1.0 }
    }
}

/// A running tally of user actions.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ActionLog {
    /// Characters typed.
    pub keystrokes: u64,
    /// Clicks.
    pub clicks: u64,
    /// Copies.
    pub copies: u64,
    /// Pastes.
    pub pastes: u64,
    /// Application switches.
    pub app_switches: u64,
}

impl ActionLog {
    /// Total cost under a model.
    pub fn cost(&self, m: &CostModel) -> f64 {
        self.keystrokes as f64 * m.keystroke
            + self.clicks as f64 * m.click
            + self.copies as f64 * m.copy
            + self.pastes as f64 * m.paste
            + self.app_switches as f64 * m.app_switch
    }

    /// Record copying one value from a source document and pasting it
    /// into the workspace (switch to source, copy, switch back, paste).
    pub fn copy_paste_cell(&mut self) {
        self.app_switches += 2;
        self.copies += 1;
        self.pastes += 1;
    }

    /// Record a service lookup done by hand: switch to the service, type
    /// the query, submit, copy the answer, switch back, paste.
    pub fn manual_service_lookup(&mut self, query_chars: usize) {
        self.app_switches += 2;
        self.keystrokes += query_chars as u64 + 1; // +1 for Enter
        self.copies += 1;
        self.pastes += 1;
    }

    /// Record one click (accepting a suggestion, a feedback action, a
    /// button press).
    pub fn click(&mut self) {
        self.clicks += 1;
    }
}

/// How one column of the target table is obtained in the *manual*
/// baseline.
#[derive(Debug, Clone)]
pub enum ColumnOrigin {
    /// Copyable from a source document (per-cell copy & paste).
    Document,
    /// Requires a per-row lookup in an external service; the usize is the
    /// typed query length for that row.
    ServiceLookup(Vec<usize>),
}

/// A task: assemble `rows × columns` with the given origins.
#[derive(Debug, Clone)]
pub struct TaskShape {
    /// Number of data rows.
    pub rows: usize,
    /// Per-column origin.
    pub columns: Vec<ColumnOrigin>,
}

/// The fully-manual baseline: every cell is copied (or looked up) by
/// hand, exactly as "manual integration of data by copy and paste".
pub fn manual_log(task: &TaskShape) -> ActionLog {
    let mut log = ActionLog::default();
    for col in &task.columns {
        match col {
            ColumnOrigin::Document => {
                for _ in 0..task.rows {
                    log.copy_paste_cell();
                }
            }
            ColumnOrigin::ServiceLookup(lens) => {
                for r in 0..task.rows {
                    log.manual_service_lookup(lens.get(r).copied().unwrap_or(16));
                }
            }
        }
    }
    log
}

/// Percentage of cost saved by `scp` relative to `manual`.
pub fn savings_pct(manual: f64, scp: f64) -> f64 {
    if manual <= 0.0 {
        return 0.0;
    }
    (1.0 - scp / manual) * 100.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn manual_cost_scales_with_cells() {
        let small = TaskShape { rows: 5, columns: vec![ColumnOrigin::Document; 2] };
        let large = TaskShape { rows: 50, columns: vec![ColumnOrigin::Document; 2] };
        let m = CostModel::default();
        assert!(manual_log(&large).cost(&m) > manual_log(&small).cost(&m) * 9.0);
    }

    #[test]
    fn service_lookups_cost_typing() {
        let task = TaskShape {
            rows: 3,
            columns: vec![ColumnOrigin::ServiceLookup(vec![10, 20, 30])],
        };
        let log = manual_log(&task);
        assert_eq!(log.keystrokes, 10 + 20 + 30 + 3);
        assert_eq!(log.copies, 3);
    }

    #[test]
    fn savings_formula() {
        assert_eq!(savings_pct(100.0, 25.0), 75.0);
        assert_eq!(savings_pct(0.0, 10.0), 0.0);
    }

    #[test]
    fn scp_like_log_is_cheaper() {
        // 20 rows x 3 cols manual vs "paste one row + 2 clicks".
        let task = TaskShape { rows: 20, columns: vec![ColumnOrigin::Document; 3] };
        let m = CostModel::default();
        let manual = manual_log(&task).cost(&m);
        let mut scp = ActionLog::default();
        for _ in 0..3 {
            scp.copy_paste_cell();
        }
        scp.click(); // accept row suggestions
        let s = scp.cost(&m);
        assert!(savings_pct(manual, s) > 80.0);
    }
}
