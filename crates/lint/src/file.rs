//! Per-file analysis context: the lexed token stream plus everything
//! rules share — brace depths, `#[cfg(test)]`/`#[test]` regions, inline
//! suppressions, and justification-comment lookup.

use crate::lex::{lex, Comment, Lexed, Tok, TokKind};
use crate::findings::Finding;

/// How many lines above a site a justification comment may sit and
/// still attach to it (same line always counts).
pub const JUSTIFY_WINDOW: u32 = 2;

/// One parsed `// lint:allow(<rule>) reason` suppression.
#[derive(Debug, Clone)]
pub struct Suppression {
    /// The rule being allowed.
    pub rule: String,
    /// The mandatory reason text after the closing paren.
    pub reason: String,
    /// Lines this suppression covers: its own line and the next line
    /// that carries a code token.
    pub lines: Vec<u32>,
    /// The line the comment itself is on (for misuse reports).
    pub at: u32,
}

/// Everything a rule gets to look at for one file.
pub struct FileCtx {
    /// Repo-relative path, `/`-separated.
    pub path: String,
    /// Code tokens.
    pub toks: Vec<Tok>,
    /// Comments in source order.
    pub comments: Vec<Comment>,
    /// Brace depth *before* each token (`{` raises the depth of the
    /// tokens after it).
    pub depth: Vec<u32>,
    /// Parsed `lint:allow` suppressions, in source order. The analysis
    /// pipeline applies them centrally *after* all rules ran, so it can
    /// tell which ones actually silenced something (stale detection).
    pub suppressions: Vec<Suppression>,
    /// Token-index ranges inside `#[cfg(test)] mod … { }` or `#[test] fn
    /// … { }` bodies (half-open).
    test_tok_ranges: Vec<(usize, usize)>,
    /// Suppression comments that failed to parse (missing reason or
    /// unknown rule) — surfaced as findings so they cannot rot silently.
    pub bad_suppressions: Vec<Finding>,
}

impl FileCtx {
    /// Lex and index one file.
    pub fn new(path: &str, src: &str, known_rules: &[&'static str]) -> FileCtx {
        let Lexed { toks, comments } = lex(src);
        let depth = brace_depths(&toks);
        let test_tok_ranges = test_regions(&toks);
        let mut ctx = FileCtx {
            path: path.to_string(),
            toks,
            comments,
            depth,
            suppressions: Vec::new(),
            test_tok_ranges,
            bad_suppressions: Vec::new(),
        };
        ctx.parse_suppressions(known_rules);
        ctx
    }

    /// Whether token `i` sits inside a test region.
    pub fn in_test(&self, i: usize) -> bool {
        self.test_tok_ranges.iter().any(|&(s, e)| i >= s && i < e)
    }

    /// Whether the token texts starting at `i` equal `needle`.
    pub fn seq(&self, i: usize, needle: &[&str]) -> bool {
        needle.len() <= self.toks.len() - i.min(self.toks.len())
            && needle
                .iter()
                .enumerate()
                .all(|(j, w)| self.toks.get(i + j).is_some_and(|t| t.text == *w))
    }

    /// Indices where `needle` matches, in order.
    pub fn find_all(&self, needle: &[&str]) -> Vec<usize> {
        (0..self.toks.len()).filter(|&i| self.seq(i, needle)).collect()
    }

    /// Whether a comment containing `marker` sits on `line` or within
    /// [`JUSTIFY_WINDOW`] lines above it.
    pub fn justified(&self, line: u32, marker: &str) -> bool {
        let lo = line.saturating_sub(JUSTIFY_WINDOW);
        self.comments
            .iter()
            .any(|c| c.end_line >= lo && c.line <= line && c.text.contains(marker))
    }

    /// Whether a finding of `rule` on `line` is suppressed.
    pub fn suppressed(&self, rule: &str, line: u32) -> bool {
        self.suppressions
            .iter()
            .any(|s| s.rule == rule && s.lines.contains(&line))
    }

    /// Emit a raw finding. Suppressions are applied centrally by the
    /// analysis pipeline (which also tracks which ones were used), not
    /// at emission time.
    pub fn report(&self, out: &mut Vec<Finding>, rule: &'static str, line: u32, message: String) {
        out.push(Finding::new(rule, self.path.clone(), line, message));
    }

    fn parse_suppressions(&mut self, known_rules: &[&'static str]) {
        for c in &self.comments {
            // Doc comments (`///`, `//!` — text starts with `/` or `!`)
            // never suppress: they *document* the syntax, including in
            // this very crate.
            if c.text.starts_with('/') || c.text.starts_with('!') {
                continue;
            }
            let Some(idx) = c.text.find("lint:allow(") else { continue };
            let rest = &c.text[idx + "lint:allow(".len()..];
            let Some(close) = rest.find(')') else {
                self.bad_suppressions.push(Finding::new(
                    "bad-suppression",
                    self.path.clone(),
                    c.line,
                    "malformed lint:allow — missing `)`".to_string(),
                ));
                continue;
            };
            let rule = rest[..close].trim().to_string();
            let reason = rest[close + 1..].trim().to_string();
            if !known_rules.contains(&rule.as_str()) {
                self.bad_suppressions.push(Finding::new(
                    "bad-suppression",
                    self.path.clone(),
                    c.line,
                    format!("lint:allow names unknown rule {rule:?}"),
                ));
                continue;
            }
            if reason.is_empty() {
                self.bad_suppressions.push(Finding::new(
                    "bad-suppression",
                    self.path.clone(),
                    c.line,
                    format!("lint:allow({rule}) needs a reason: `// lint:allow({rule}) <why>`"),
                ));
                continue;
            }
            // A trailing suppression (code on its own line) covers that
            // line only; a standalone one covers the next code line.
            let mut lines = vec![c.line];
            let trailing = self.toks.iter().any(|t| t.line == c.line);
            if !trailing {
                if let Some(next) = self.toks.iter().map(|t| t.line).find(|&l| l > c.end_line) {
                    lines.push(next);
                }
            }
            self.suppressions.push(Suppression { rule, reason, lines, at: c.line });
        }
    }
}

/// Brace depth before each token.
fn brace_depths(toks: &[Tok]) -> Vec<u32> {
    let mut depth = 0u32;
    let mut out = Vec::with_capacity(toks.len());
    for t in toks {
        out.push(depth);
        if t.kind == TokKind::Punct {
            match t.text.as_str() {
                "{" => depth += 1,
                "}" => depth = depth.saturating_sub(1),
                _ => {}
            }
        }
    }
    out
}

/// Token ranges covered by `#[cfg(test)]`-gated modules and `#[test]`
/// functions. Only the two exact attribute spellings are recognized —
/// `#[cfg(not(test))]` and friends stay in scope, by design.
fn test_regions(toks: &[Tok]) -> Vec<(usize, usize)> {
    let text = |i: usize| toks.get(i).map(|t| t.text.as_str());
    let mut ranges: Vec<(usize, usize)> = Vec::new();
    let mut i = 0;
    while i < toks.len() {
        let is_cfg_test = text(i) == Some("#")
            && text(i + 1) == Some("[")
            && text(i + 2) == Some("cfg")
            && text(i + 3) == Some("(")
            && text(i + 4) == Some("test")
            && text(i + 5) == Some(")")
            && text(i + 6) == Some("]");
        let is_test_attr = text(i) == Some("#")
            && text(i + 1) == Some("[")
            && text(i + 2) == Some("test")
            && text(i + 3) == Some("]");
        if !(is_cfg_test || is_test_attr) {
            i += 1;
            continue;
        }
        let after_attr = i + if is_cfg_test { 7 } else { 4 };
        // Find the `{` that opens the gated item and match it.
        let mut j = after_attr;
        while j < toks.len() && text(j) != Some("{") {
            // Another item boundary before any brace: a gated `mod m;`
            // or `use`, nothing to exclude.
            if text(j) == Some(";") {
                break;
            }
            j += 1;
        }
        if text(j) == Some("{") {
            let mut depth = 0i64;
            let mut k = j;
            while k < toks.len() {
                match text(k) {
                    Some("{") => depth += 1,
                    Some("}") => {
                        depth -= 1;
                        if depth == 0 {
                            break;
                        }
                    }
                    _ => {}
                }
                k += 1;
            }
            ranges.push((i, (k + 1).min(toks.len())));
            i = k + 1;
        } else {
            i = j + 1;
        }
    }
    ranges
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx(src: &str) -> FileCtx {
        FileCtx::new("crates/x/src/lib.rs", src, &["relaxed-atomics", "panic-path"])
    }

    #[test]
    fn test_regions_cover_gated_modules_and_fns() {
        let src = "fn live() { a(); }\n\
                   #[cfg(test)]\nmod tests {\n    fn helper() { b(); }\n}\n\
                   #[test]\nfn standalone() { c(); }\nfn live2() { d(); }";
        let c = ctx(src);
        let idx_of = |name: &str| c.toks.iter().position(|t| t.text == name).unwrap();
        assert!(!c.in_test(idx_of("a")));
        assert!(c.in_test(idx_of("b")));
        assert!(c.in_test(idx_of("c")));
        assert!(!c.in_test(idx_of("d")));
    }

    #[test]
    fn cfg_not_test_stays_in_scope() {
        let c = ctx("#[cfg(not(test))]\nmod prod { fn f() { a(); } }");
        let a = c.toks.iter().position(|t| t.text == "a").unwrap();
        assert!(!c.in_test(a));
    }

    #[test]
    fn suppression_covers_trailing_and_next_line() {
        let src = "f(); // lint:allow(relaxed-atomics) bench-only counter\n\
                   // lint:allow(panic-path) startup, no request in flight\n\
                   g();";
        let c = ctx(src);
        assert!(c.suppressed("relaxed-atomics", 1));
        assert!(c.suppressed("panic-path", 3));
        assert!(!c.suppressed("panic-path", 1));
        assert!(!c.suppressed("relaxed-atomics", 3));
        assert!(c.bad_suppressions.is_empty());
    }

    #[test]
    fn reasonless_or_unknown_suppressions_are_findings() {
        let c = ctx("// lint:allow(relaxed-atomics)\nf();\n// lint:allow(no-such-rule) why\ng();");
        assert_eq!(c.bad_suppressions.len(), 2);
        assert!(!c.suppressed("relaxed-atomics", 2));
        // The rules that moved to clippy (`clippy.toml`) are unknown to
        // the real rule set, so a leftover `lint:allow` naming one fails
        // loudly instead of silencing nothing.
        let names = crate::rules::names();
        for rule in ["wallclock", "fs-discipline", "randomstate", "unsafe-safety"] {
            let src = format!("// lint:allow({rule}) why\nf();");
            let c = FileCtx::new("crates/x/src/lib.rs", &src, &names);
            assert_eq!(c.bad_suppressions.len(), 1, "{rule}");
            assert!(c.bad_suppressions[0].message.contains("unknown rule"), "{rule}");
        }
    }

    #[test]
    fn justification_window() {
        let src = "// relaxed: pure counter\nx.fetch_add(1);\n\n\n\ny.fetch_add(1);";
        let c = ctx(src);
        assert!(c.justified(2, "relaxed:"));
        assert!(!c.justified(6, "relaxed:"));
    }
}
