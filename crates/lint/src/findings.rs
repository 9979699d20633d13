//! Findings: what a rule reports, plus stable ordering and JSON.

use copycat_util::json::Json;

/// One rule violation at one source location.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// The rule that fired (kebab-case, e.g. `lock-order`).
    pub rule: &'static str,
    /// Repo-relative path, `/`-separated on every platform.
    pub file: String,
    /// 1-based source line.
    pub line: u32,
    /// Human-readable description of the violation.
    pub message: String,
    /// Rule provenance: the files/symbols that contributed to this
    /// finding beyond the site itself. Per-file rules leave it empty;
    /// the lock-order pass records the chain (the call path that
    /// carries a lock acquisition or a blocking call into a guarded
    /// region).
    pub provenance: Vec<String>,
}

impl Finding {
    /// A finding with no cross-file provenance (the per-file case).
    pub fn new(rule: &'static str, file: impl Into<String>, line: u32, message: String) -> Finding {
        Finding { rule, file: file.into(), line, message, provenance: Vec::new() }
    }

    /// The canonical sort key: findings are reported in `(file, line,
    /// rule, message)` order regardless of the order files were walked
    /// or rules ran — the stability the property test pins.
    pub fn sort_key(&self) -> (String, u32, &'static str, String) {
        (self.file.clone(), self.line, self.rule, self.message.clone())
    }

    /// JSON for one finding.
    pub fn to_json(&self) -> Json {
        let mut fields = vec![
            ("rule".into(), Json::str(self.rule)),
            ("file".into(), Json::str(&self.file)),
            ("line".into(), Json::Num(self.line as f64)),
            ("message".into(), Json::str(&self.message)),
        ];
        if !self.provenance.is_empty() {
            fields.push((
                "provenance".into(),
                Json::Arr(self.provenance.iter().map(Json::str).collect()),
            ));
        }
        Json::obj(fields)
    }
}

/// Sort findings into canonical order.
pub fn sort(findings: &mut [Finding]) {
    findings.sort_by(|a, b| a.sort_key().cmp(&b.sort_key()));
}

/// The `copycat-lint json` payload: every finding plus per-rule totals
/// and, when measured, the wall-time the two-phase analysis took.
pub fn report_json(findings: &[Finding], runtime_ms: Option<u64>) -> Json {
    let mut by_rule: Vec<(String, u64)> = Vec::new();
    for f in findings {
        match by_rule.iter_mut().find(|(r, _)| r == f.rule) {
            Some((_, n)) => *n += 1,
            None => by_rule.push((f.rule.to_string(), 1)),
        }
    }
    by_rule.sort();
    let mut fields = vec![
        ("total".into(), Json::Num(findings.len() as f64)),
        (
            "by_rule".into(),
            Json::obj(by_rule.into_iter().map(|(r, n)| (r, Json::Num(n as f64))).collect()),
        ),
        ("findings".into(), Json::Arr(findings.iter().map(Finding::to_json).collect())),
    ];
    if let Some(ms) = runtime_ms {
        fields.push(("runtime_ms".into(), Json::Num(ms as f64)));
    }
    Json::obj(fields)
}
