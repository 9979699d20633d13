//! Example-driven transform synthesis: the one by-example learner
//! behind derived columns (§5 "complex functions / transforms") and the
//! graph's join-with-transformation edges (WebRelate).
//!
//! A [`Program`] maps a [`Row`] of input cells (a single string is a
//! one-column row) to one output string. It is a concatenation of
//! [`Piece`]s — literal constants and token extractions from one input
//! column (split / substring selection with optional case folding over
//! the trimmed cell) — or one numeric piece spanning the whole output:
//! `col ⊕ col`, `col ⊕ k` or the sum of the numeric cells. The [`learn`]
//! entry point induces the lowest-cost program consistent with a set of
//! `(row, output)` example pairs by a version-space-style joint dynamic
//! program: it walks all examples' output positions in lockstep, so any
//! piece it admits reproduces its span in *every* example, and the
//! returned program reproduces 100% of the training pairs by
//! construction.
//!
//! Enumeration is deterministic (fixed atom order, strict-improvement
//! tie-breaking) and bounded (a memo over position tuples with a hard
//! state cap), so learning is replayable under the serve journal: the
//! same examples always yield byte-identical programs, on any thread
//! count. Sub-programs are shared, not copied: each memoized state keeps
//! only its best first piece and the state it leads to, and the program
//! is rebuilt once from those back-pointers.

use copycat_util::hash::FxHashMap;
use copycat_util::json::{FromJson, JsonError, JsonWriter, ToJson};
use copycat_util::zjson::ZRef;
use std::fmt;

/// A row of input cells; a single string is a one-column row.
pub trait Row {
    /// Cell `col`, `None` past the end.
    fn cell(&self, col: usize) -> Option<&str>;
}

impl Row for str {
    fn cell(&self, col: usize) -> Option<&str> {
        (col == 0).then_some(self)
    }
}

impl Row for String {
    fn cell(&self, col: usize) -> Option<&str> {
        self.as_str().cell(col)
    }
}

impl<S: AsRef<str>> Row for [S] {
    fn cell(&self, col: usize) -> Option<&str> {
        self.get(col).map(AsRef::as_ref)
    }
}

impl<S: AsRef<str>> Row for Vec<S> {
    fn cell(&self, col: usize) -> Option<&str> {
        self.as_slice().cell(col)
    }
}

/// The cells of `row`, in column order.
fn cells<R: Row + ?Sized>(row: &R) -> impl Iterator<Item = &str> {
    (0..).map_while(|c| row.cell(c))
}

/// Cell `col` as a number, when it parses as one.
fn number<R: Row + ?Sized>(row: &R, col: usize) -> Option<f64> {
    row.cell(col)?.trim().parse().ok()
}

/// A number as a cell: integral values print without a fraction
/// (`108`, not `108.0`), others with at most 6 trimmed decimals.
fn fmt_num(n: f64) -> String {
    if n.fract().abs() < 1e-9 && n.abs() < 1e15 {
        format!("{}", n.round() as i64)
    } else {
        let s = format!("{:.6}", n);
        s.trim_end_matches('0').trim_end_matches('.').to_string()
    }
}

/// How an input string is tokenized before a piece selects one token.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Tok {
    /// The whole trimmed input as a single token.
    Whole,
    /// Maximal runs of ASCII digits.
    Digits,
    /// Maximal runs of alphabetic characters.
    Alpha,
    /// Maximal runs of alphanumeric characters.
    Alnum,
    /// Split on whitespace (trimmed, empties dropped).
    Space,
    /// Split on `-`.
    Dash,
    /// Split on `.`.
    Dot,
    /// Split on `,`.
    Comma,
    /// Split on `/`.
    Slash,
}

/// Every tokenizer, in canonical enumeration order (learning order);
/// `ALL_TOKS[t as usize] == t`.
const ALL_TOKS: [Tok; 9] = [
    Tok::Whole,
    Tok::Digits,
    Tok::Alpha,
    Tok::Alnum,
    Tok::Space,
    Tok::Dash,
    Tok::Dot,
    Tok::Comma,
    Tok::Slash,
];

impl Tok {
    fn name(self) -> &'static str {
        match self {
            Tok::Whole => "input",
            Tok::Digits => "digits",
            Tok::Alpha => "alpha",
            Tok::Alnum => "alnum",
            Tok::Space => "word",
            Tok::Dash => "dash",
            Tok::Dot => "dot",
            Tok::Comma => "comma",
            Tok::Slash => "slash",
        }
    }

    fn parse(name: &str) -> Option<Tok> {
        ALL_TOKS.iter().copied().find(|t| t.name() == name)
    }

    /// Tokenize `input` (always over the trimmed string, so leading
    /// and trailing whitespace never leaks into any piece).
    fn tokenize(self, input: &str) -> Vec<&str> {
        let input = input.trim();
        match self {
            Tok::Whole => (!input.is_empty()).then_some(input).into_iter().collect(),
            Tok::Digits => runs_of(input, |c| c.is_ascii_digit()),
            Tok::Alpha => runs_of(input, char::is_alphabetic),
            Tok::Alnum => runs_of(input, char::is_alphanumeric),
            Tok::Space => split_on(input, char::is_whitespace),
            Tok::Dash => split_on(input, |c| c == '-'),
            Tok::Dot => split_on(input, |c| c == '.'),
            Tok::Comma => split_on(input, |c| c == ','),
            Tok::Slash => split_on(input, |c| c == '/'),
        }
    }
}

/// Maximal runs of characters matching `pred`.
fn runs_of(input: &str, pred: impl Fn(char) -> bool) -> Vec<&str> {
    input.split(|c| !pred(c)).filter(|r| !r.is_empty()).collect()
}

/// Split on separator characters, trimming pieces and dropping empties.
fn split_on(input: &str, sep: impl Fn(char) -> bool) -> Vec<&str> {
    input.split(sep).map(str::trim).filter(|p| !p.is_empty()).collect()
}

/// Optional case folding applied to an extracted token.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Case {
    /// Leave the token as extracted.
    Keep,
    /// Uppercase.
    Upper,
    /// Lowercase.
    Lower,
    /// First letter of each word uppercased, the rest lowercased.
    Title,
}

const ALL_CASES: [Case; 4] = [Case::Keep, Case::Upper, Case::Lower, Case::Title];

impl Case {
    fn name(self) -> &'static str {
        match self {
            Case::Keep => "keep",
            Case::Upper => "upper",
            Case::Lower => "lower",
            Case::Title => "title",
        }
    }

    fn parse(name: &str) -> Option<Case> {
        ALL_CASES.iter().copied().find(|c| c.name() == name)
    }

    fn apply(self, s: &str) -> String {
        match self {
            Case::Keep => s.to_string(),
            Case::Upper => s.to_uppercase(),
            Case::Lower => s.to_lowercase(),
            Case::Title => s
                .split(' ')
                .map(|w| {
                    let mut cs = w.chars();
                    match cs.next() {
                        Some(f) => {
                            f.to_uppercase().collect::<String>() + &cs.as_str().to_lowercase()
                        }
                        None => String::new(),
                    }
                })
                .collect::<Vec<_>>()
                .join(" "),
        }
    }

    /// The byte length of `token` folded by this case when `text` starts
    /// with the fold, else `None`. An ASCII token is compared byte by
    /// byte in place; any other goes through [`Case::apply`], whose
    /// `str::to_lowercase` keeps context rules such as a final sigma.
    fn prefix_len(self, token: &str, text: &str) -> Option<usize> {
        if !token.is_ascii() {
            let folded = self.apply(token);
            return (!folded.is_empty() && text.starts_with(&folded)).then_some(folded.len());
        }
        let (token, text) = (token.as_bytes(), text.as_bytes());
        let fold = |i: usize, b: u8| match self {
            Case::Keep => b,
            Case::Upper => b.to_ascii_uppercase(),
            Case::Lower => b.to_ascii_lowercase(),
            // A word starts the token or follows a space, as in `apply`.
            Case::Title if i == 0 || token[i - 1] == b' ' => b.to_ascii_uppercase(),
            Case::Title => b.to_ascii_lowercase(),
        };
        let fits = !token.is_empty()
            && text.len() >= token.len()
            && token.iter().zip(text).enumerate().all(|(i, (&t, &x))| fold(i, t) == x);
        fits.then_some(token.len())
    }
}

/// `a op b` for the operators `+ - * /`; division by zero has no value.
fn eval(op: char, a: f64, b: f64) -> Option<f64> {
    match op {
        '+' => Some(a + b),
        '-' => Some(a - b),
        '*' => Some(a * b),
        '/' => (b != 0.0).then(|| a / b),
        _ => None,
    }
}

/// The right operand of an arithmetic [`Piece`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Operand {
    /// Another input column.
    Col(usize),
    /// A constant, inferred from the first example.
    Num(f64),
}

/// How a program names input column `col`.
fn column_name(col: usize) -> String {
    if col == 0 { "input".to_string() } else { format!("col{col}") }
}

/// One concatenated piece of a [`Program`].
#[derive(Debug, Clone, PartialEq)]
pub enum Piece {
    /// A literal string.
    Const(String),
    /// The `index`-th token of input column `col` (from the end when
    /// `rev`), with `case` folding applied.
    Extract { col: usize, tok: Tok, index: usize, rev: bool, case: Case },
    /// `col op rhs` over numeric cells (`op` one of `+ - * /`), spanning
    /// the whole output.
    Arith { op: char, col: usize, rhs: Operand },
    /// The sum of every numeric cell, spanning the whole output.
    Sum,
}

/// The `index`-th token (from the end when `rev`); checked, so a
/// decoded `usize::MAX` selects nothing instead of overflowing.
fn pick<'t>(tokens: &[&'t str], index: usize, rev: bool) -> Option<&'t str> {
    let i = if rev { tokens.len().checked_sub(index.checked_add(1)?)? } else { index };
    tokens.get(i).copied()
}

impl Piece {
    /// The piece's output on `row`, or `None` when the selected token
    /// or number does not exist.
    pub fn apply<R: Row + ?Sized>(&self, row: &R) -> Option<String> {
        match self {
            Piece::Const(s) => Some(s.clone()),
            Piece::Extract { col, tok, index, rev, case } => {
                pick(&tok.tokenize(row.cell(*col)?), *index, *rev).map(|t| case.apply(t))
            }
            Piece::Arith { .. } | Piece::Sum => self.value(row).map(fmt_num),
        }
    }

    /// A numeric piece's unformatted value on `row`.
    fn value<R: Row + ?Sized>(&self, row: &R) -> Option<f64> {
        match self {
            Piece::Arith { op, col, rhs: Operand::Col(c) } => eval(*op, number(row, *col)?, number(row, *c)?),
            Piece::Arith { op, col, rhs: Operand::Num(k) } => eval(*op, number(row, *col)?, *k),
            Piece::Sum => Some(cells(row).filter_map(|c| c.trim().parse::<f64>().ok()).sum()),
            Piece::Const(_) | Piece::Extract { .. } => None,
        }
    }

    /// Ranking cost over one-column rows: extractions are preferred
    /// over constants for long spans; deep token indices and case folds
    /// pay a small premium. Numeric pieces cost what they do over wider
    /// rows; over one column they are only learned when no string
    /// program exists.
    pub fn cost(&self) -> f64 {
        match self {
            Piece::Const(s) => 0.5 + 0.1 * s.chars().count() as f64,
            Piece::Extract { index, case, .. } => {
                1.0 + 0.05 * *index as f64 + if *case == Case::Keep { 0.0 } else { 0.1 }
            }
            Piece::Arith { .. } | Piece::Sum => self.row_cost(),
        }
    }

    /// Ranking cost over rows of two or more columns (derived columns):
    /// a whole cell costs 1, a token or a case fold 1 more, a constant
    /// 2 plus its length, the sum 2 and the other numeric pieces 3, so
    /// a program copies cells instead of memorizing their digits.
    fn row_cost(&self) -> f64 {
        match self {
            Piece::Const(s) => 2.0 + s.len() as f64,
            Piece::Extract { tok, case, .. } => {
                (1 + usize::from(*tok != Tok::Whole) + usize::from(*case != Case::Keep)) as f64
            }
            Piece::Sum => 2.0,
            Piece::Arith { .. } => 3.0,
        }
    }
}

impl fmt::Display for Piece {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Piece::Const(s) => write!(f, "{:?}", s),
            Piece::Extract { col, tok, index, rev, case } => {
                // Widened: a decoded `usize::MAX` renders, not overflows.
                let idx = if *rev {
                    format!("-{}", *index as u128 + 1)
                } else {
                    index.to_string()
                };
                let sel = match (*tok, *col) {
                    (Tok::Whole, col) => column_name(col),
                    (tok, 0) => format!("{}[{idx}]", tok.name()),
                    (tok, col) => format!("{}.{}[{idx}]", column_name(col), tok.name()),
                };
                match case {
                    Case::Keep => write!(f, "{sel}"),
                    other => write!(f, "{}({sel})", other.name()),
                }
            }
            Piece::Arith { op, col, rhs: Operand::Col(c) } => write!(f, "{} {op} {}", column_name(*col), column_name(*c)),
            Piece::Arith { op, col, rhs: Operand::Num(k) } => write!(f, "{} {op} {}", column_name(*col), fmt_num(*k)),
            Piece::Sum => write!(f, "sum(numbers)"),
        }
    }
}

/// A learned transform: the concatenation of its pieces.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Program {
    /// Concatenated left to right.
    pub pieces: Vec<Piece>,
}

impl Program {
    /// Run the program on a row, `None` when any piece fails.
    pub fn apply<R: Row + ?Sized>(&self, row: &R) -> Option<String> {
        let mut out = String::new();
        for p in &self.pieces {
            out.push_str(&p.apply(row)?);
        }
        Some(out)
    }

    /// Piece count (the "size" term of edge costs).
    pub fn size(&self) -> usize {
        self.pieces.len()
    }

    /// Total one-column ranking cost (lower learns first).
    pub fn cost(&self) -> f64 {
        self.pieces.iter().map(Piece::cost).sum()
    }

    /// Whether the program reproduces every `(row, output)` pair.
    pub fn consistent<R: Row>(&self, examples: &[(R, String)]) -> bool {
        examples
            .iter()
            .all(|(i, o)| self.apply(i).as_deref() == Some(o.as_str()))
    }
}

impl fmt::Display for Program {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.pieces.len() == 1 {
            return write!(f, "{}", self.pieces[0]);
        }
        write!(f, "concat(")?;
        for (i, p) in self.pieces.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{p}")?;
        }
        write!(f, ")")
    }
}

impl ToJson for Piece {
    fn write_json(&self, w: &mut JsonWriter<'_>) {
        w.begin_obj();
        let col = match self {
            Piece::Const(s) => {
                w.field("const", s);
                0
            }
            Piece::Extract { col, tok, index, rev, case } => {
                w.field("tok", tok.name());
                w.field("index", index);
                w.field("rev", rev);
                w.field("case", case.name());
                *col
            }
            Piece::Arith { op, col, rhs } => {
                w.field("op", op.encode_utf8(&mut [0; 4]));
                match rhs {
                    Operand::Col(c) => w.field("rhs_col", c),
                    Operand::Num(k) => w.field("k", k),
                }
                *col
            }
            Piece::Sum => {
                w.field("op", "sum");
                0
            }
        };
        // Column 0 stays implicit, so one-column programs keep their shape.
        if col != 0 {
            w.field("col", &col);
        }
        w.end_obj();
    }
}

/// A column or token index: an integer in `0..=u32::MAX`. Hostile JSON
/// (`-3`, `0.5`, `1e20`) is an error, never a saturating cast.
fn index_field(j: ZRef<'_>, key: &str) -> Result<usize, JsonError> {
    let v = j.require(key)?;
    v.as_f64()
        .filter(|n| *n >= 0.0 && n.fract() == 0.0 && *n <= f64::from(u32::MAX))
        .map(|n| n as usize)
        .ok_or_else(|| JsonError::expected(&format!("{key:?} in 0..=4294967295"), v))
}

impl FromJson for Piece {
    fn from_json(j: ZRef<'_>) -> Result<Self, JsonError> {
        if let Some(s) = j.get("const").and_then(|c| c.as_str()) {
            return Ok(Piece::Const(s.to_string()));
        }
        let col = if j.get("col").is_some() { index_field(j, "col")? } else { 0 };
        if let Some(op) = j.get("op") {
            if op.as_str() == Some("sum") {
                return Ok(Piece::Sum);
            }
            let op = op
                .as_str()
                .and_then(|s| s.parse::<char>().ok())
                .filter(|c| "+-*/".contains(*c))
                .ok_or_else(|| JsonError::expected("\"op\" of + - * / sum", op))?;
            let rhs = match j.get("k") {
                Some(k) => Operand::Num(
                    k.as_f64()
                        .filter(|k| k.is_finite())
                        .ok_or_else(|| JsonError::expected("finite \"k\"", k))?,
                ),
                None => Operand::Col(index_field(j, "rhs_col")?),
            };
            return Ok(Piece::Arith { op, col, rhs });
        }
        let tok = j
            .require("tok")?
            .as_str()
            .and_then(Tok::parse)
            .ok_or_else(|| JsonError::expected("tokenizer name", j))?;
        let index = index_field(j, "index")?;
        let rev = j.require("rev")?;
        let rev = rev.as_bool().ok_or_else(|| JsonError::expected("bool \"rev\"", rev))?;
        let case = j
            .require("case")?
            .as_str()
            .and_then(Case::parse)
            .ok_or_else(|| JsonError::expected("case name", j))?;
        Ok(Piece::Extract { col, tok, index, rev, case })
    }
}

impl ToJson for Program {
    fn write_json(&self, w: &mut JsonWriter<'_>) {
        w.obj(|w| w.field("pieces", &self.pieces));
    }
}

impl FromJson for Program {
    fn from_json(j: ZRef<'_>) -> Result<Self, JsonError> {
        let pieces = j.require("pieces")?;
        if !pieces.is_arr() {
            return Err(JsonError::expected("pieces array", j));
        }
        let pieces = pieces.items().map(Piece::from_json).collect::<Result<Vec<_>, _>>()?;
        Ok(Program { pieces })
    }
}

/// The edge cost a learned transform contributes to the source graph:
/// small programs trained with high example coverage price well under
/// the suggestion threshold; low coverage pushes an edge toward it.
/// `coverage` is the fraction of source values the program maps into
/// the target column's value set, in `[0, 1]`.
pub fn edge_cost(program: &Program, coverage: f64) -> f64 {
    let coverage = coverage.clamp(0.0, 1.0);
    (0.3 + 0.08 * program.size() as f64 + 1.5 * (1.0 - coverage)).max(0.05)
}

/// Learner bounds. The defaults keep joint-DP state far below the cap
/// on realistic clipboard examples while guaranteeing termination on
/// adversarial ones.
#[derive(Debug, Clone, Copy)]
pub struct Learner {
    /// Highest token index enumerated (from either end).
    pub max_token_index: usize,
    /// Longest literal constant enumerated per step.
    pub max_const_len: usize,
    /// Hard cap on memoized joint states; exceeded → learning fails.
    pub max_states: usize,
}

impl Default for Learner {
    fn default() -> Self {
        Learner { max_token_index: 4, max_const_len: 16, max_states: 20_000 }
    }
}

/// Every tokenization of every readable cell, indexed
/// `[example][column][tok as usize]`, borrowed from the trimmed cells.
type Tokens<'a> = Vec<Vec<[Vec<&'a str>; ALL_TOKS.len()]>>;

impl Learner {
    /// Induce the lowest-cost program consistent with every example,
    /// or `None` when no bounded program exists. Duplicate pairs are
    /// tolerated; contradictory pairs (same row, different output)
    /// always fail.
    pub fn learn<R: Row>(&self, examples: &[(R, String)]) -> Option<Program> {
        if examples.is_empty() {
            return None;
        }
        // Dedup while preserving order: joint-DP cost is exponential in
        // the example count, not the pair multiset.
        let mut pairs: Vec<(&R, &str)> = Vec::new();
        for (i, o) in examples {
            if !pairs.iter().any(|(r, p)| *p == o && cells(*r).eq(cells(i))) {
                pairs.push((i, o));
            }
        }
        // Pre-tokenize every cell once per tokenizer; only columns
        // every example has can be read.
        let width = pairs.iter().map(|(r, _)| cells(*r).count()).min().unwrap_or(0);
        let tokens: Tokens = pairs
            .iter()
            .map(|(r, _)| {
                cells(*r)
                    .take(width)
                    .map(|cell| std::array::from_fn(|t| ALL_TOKS[t].tokenize(cell)))
                    .collect()
            })
            .collect();
        let mut search = Search {
            learner: self,
            outputs: pairs.iter().map(|(_, o)| *o).collect(),
            tokens,
            cost: if width >= 2 { Piece::row_cost } else { Piece::cost },
            memo: FxHashMap::default(),
            links: Vec::new(),
        };
        let strings =
            search.solve(&vec![0; pairs.len()]).map(|(cost, start)| (cost, search.into_program(start)));
        // A numeric piece spans the whole output. Over one column it
        // explains only what strings cannot; over wider rows it wins
        // unless a string program ranks strictly cheaper.
        let numeric = numeric_pieces(&pairs, width).into_iter().next();
        let pieces = match (strings, numeric) {
            (Some((cost, _)), Some(n)) if width >= 2 && n.row_cost() <= cost => vec![n],
            (Some((_, s)), _) => s,
            (None, n) => vec![n?],
        };
        Some(Program { pieces })
    }
}

/// A memoized joint state's best completion: its cost, its first piece
/// and the state that piece leads to (an index into `Search::links`,
/// `None` once every output is complete). `None` while the state is in
/// progress and when nothing completes it.
type Link = Option<(f64, Piece, Option<usize>)>;

/// One learning run's joint DP: the examples' outputs and cell tokens,
/// the ranking cost in force and the memoized back-pointers.
struct Search<'a> {
    learner: &'a Learner,
    outputs: Vec<&'a str>,
    tokens: Tokens<'a>,
    cost: fn(&Piece) -> f64,
    /// Each joint state seen, to its index in `links`.
    memo: FxHashMap<Vec<usize>, usize>,
    links: Vec<Link>,
}

impl Search<'_> {
    /// Memoized min-cost completion from a joint output-position state:
    /// its cost and the state's index in `links` (`None`: the final
    /// state).
    fn solve(&mut self, state: &[usize]) -> Option<(f64, Option<usize>)> {
        if state.iter().zip(&self.outputs).all(|(&p, o)| p == o.len()) {
            return Some((0.0, None));
        }
        if let Some(&id) = self.memo.get(state) {
            return self.links[id].as_ref().map(|(cost, ..)| (*cost, Some(id)));
        }
        if self.memo.len() >= self.learner.max_states {
            return None;
        }
        // Mark in-progress to cut (impossible) cycles and over-budget
        // recursion; overwritten with the real answer below.
        let id = self.links.len();
        self.memo.insert(state.to_vec(), id);
        self.links.push(None);
        let (pieces, nexts) = self.steps(state);
        let mut best: Link = None;
        for (piece, next) in pieces.into_iter().zip(nexts.chunks(state.len())) {
            let Some((tail_cost, tail)) = self.solve(next) else {
                continue;
            };
            let cost = (self.cost)(&piece) + tail_cost;
            // Strict improvement keeps the first atom in enumeration
            // order on ties — the determinism contract.
            if best.as_ref().is_none_or(|(c, ..)| cost < *c - 1e-12) {
                best = Some((cost, piece, tail));
            }
        }
        let found = best.as_ref().map(|(cost, ..)| (*cost, Some(id)));
        self.links[id] = best;
        found
    }

    /// The program from state `at` on, following the back-pointers.
    /// Every piece advances every example, so no state repeats.
    fn into_program(mut self, mut at: Option<usize>) -> Vec<Piece> {
        let mut pieces = Vec::new();
        while let Some((_, piece, next)) = at.and_then(|id| self.links[id].take()) {
            pieces.push(piece);
            at = next;
        }
        pieces
    }

    /// Every string atom admissible at `state` and the joint state it
    /// leads to (`state.len()` positions per atom, back to back),
    /// canonical order: extractions by (column, tokenizer, direction,
    /// index, case), then literal constants by length.
    fn steps(&self, state: &[usize]) -> (Vec<Piece>, Vec<usize>) {
        let remaining = |ex: usize| &self.outputs[ex][state[ex]..];
        let (mut pieces, mut nexts) = (Vec::new(), Vec::new());
        for col in 0..self.tokens[0].len() {
            for &tok in &ALL_TOKS {
                for rev in [false, true] {
                    if tok == Tok::Whole && rev {
                        continue;
                    }
                    for index in 0..=self.learner.max_token_index {
                        for &case in &ALL_CASES {
                            let start = nexts.len();
                            let fits = (0..state.len()).all(|ex| {
                                let Some(len) = pick(&self.tokens[ex][col][tok as usize], index, rev)
                                    .and_then(|t| case.prefix_len(t, remaining(ex)))
                                else {
                                    return false;
                                };
                                nexts.push(state[ex] + len);
                                true
                            });
                            if fits {
                                pieces.push(Piece::Extract { col, tok, index, rev, case });
                            } else {
                                nexts.truncate(start);
                            }
                        }
                    }
                }
            }
        }
        // Literal constants: prefixes of the longest common prefix of
        // all remaining outputs, taken at char boundaries.
        let mut common = remaining(0);
        for ex in 1..state.len() {
            let shared = common
                .char_indices()
                .zip(remaining(ex).chars())
                .take_while(|((_, a), b)| a == b)
                .last()
                .map(|((i, a), _)| i + a.len_utf8())
                .unwrap_or(0);
            common = &common[..shared];
        }
        for (n, (i, c)) in common.char_indices().enumerate() {
            if n >= self.learner.max_const_len {
                break;
            }
            let len = i + c.len_utf8();
            pieces.push(Piece::Const(common[..len].to_string()));
            nexts.extend(state.iter().map(|p| p + len));
        }
        (pieces, nexts)
    }
}

/// The numeric pieces that reproduce every example, tried only when the
/// first output is a number and in ranking order: the sum of the
/// numeric cells, `col ⊕ col`, then `col ⊕ k` with `k` inferred from
/// the first example (whose value must match within 1e-9).
fn numeric_pieces<R: Row + ?Sized>(pairs: &[(&R, &str)], width: usize) -> Vec<Piece> {
    let (first, out) = pairs[0];
    let Ok(out) = out.trim().parse::<f64>() else {
        return Vec::new();
    };
    let nums: Vec<(usize, f64)> = (0..width).filter_map(|c| Some((c, number(first, c)?))).collect();
    let mut candidates = if nums.len() >= 2 { vec![Piece::Sum] } else { Vec::new() };
    for &(col, _) in &nums {
        for &(b, _) in nums.iter().filter(|(b, _)| *b != col) {
            candidates.extend("+-*/".chars().map(|op| Piece::Arith { op, col, rhs: Operand::Col(b) }));
        }
    }
    for &(col, v) in &nums {
        let ks = [out - v, v - out, out / v, v / out];
        for (op, k) in "+-*/".chars().zip(ks).filter(|(_, k)| k.is_finite()) {
            candidates.push(Piece::Arith { op, col, rhs: Operand::Num(k) });
        }
    }
    candidates.retain(|p| {
        p.value(first).is_some_and(|v| (v - out).abs() < 1e-9)
            && pairs.iter().all(|(r, o)| p.apply(*r).as_deref() == Some(*o))
    });
    candidates
}

/// [`Learner::learn`] with default bounds.
pub fn learn<R: Row>(examples: &[(R, String)]) -> Option<Program> {
    Learner::default().learn(examples)
}

#[cfg(test)]
mod tests {
    use super::*;
    use copycat_util::json;

    /// Example sets with their held-out assertions, single-string and
    /// multi-column (the retired multi-column learner's unit tests):
    /// `(examples, held-out row, expected output)`.
    #[test]
    fn examples_generalize_to_held_out_rows() {
        type Example<'a> = (&'a [(&'a [&'a str], &'a str)], &'a [&'a str], &'a str);
        let cases: [Example; 15] = [
            (&[(&["(954) 555-1234"], "954-555-1234"), (&["(305) 555-9876"], "305-555-9876")], &["(212) 555-0000"], "212-555-0000"),
            (&[(&["954.555.1234"], "(954) 555-1234"), (&["305.555.9876"], "(305) 555-9876")], &["212.555.0000"], "(212) 555-0000"),
            (&[(&["ACME SHELTER"], "Acme Shelter"), (&["OAK HOUSE"], "Oak House")], &["RED BARN"], "Red Barn"),
            (&[(&["2009/01/05"], "05-01-2009"), (&["2010/11/30"], "30-11-2010")], &["1999/12/31"], "31-12-1999"),
            // A shared token learns as an extraction, not a memorized constant.
            (&[(&["alpha"], "alpha"), (&["beta"], "beta")], &["gamma"], "gamma"),
            (&[(&["Ann", "Lopez"], "Lopez, Ann"), (&["Bob", "Chen"], "Chen, Bob")], &["Maria", "Diaz"], "Diaz, Maria"),
            (&[(&["Coconut Creek High School"], "School"), (&["Margate Civic Center"], "Center")], &["Pompano Rec Hall"], "Hall"),
            // Token 0 == token -2 on the first example; the second
            // settles it as from-start.
            (&[(&["Coconut Creek"], "Coconut"), (&["Fort Lauderdale Beach"], "Fort")], &["Boca Raton West"], "Boca"),
            (&[(&["fl"], "FL"), (&["ga"], "GA")], &["tx"], "TX"),
            (&[(&["Creek HS", "Margate"], "Creek HS (Margate)"), (&["Rec Ctr", "Tamarac"], "Rec Ctr (Tamarac)")], &["Civic", "Sunrise"], "Civic (Sunrise)"),
            (&[(&["100", "250"], "350"), (&["40", "2"], "42")], &["7", "8"], "15"),
            // Over two columns, arithmetic outranks a memorized output
            // and digits that happen to line up.
            (&[(&["100", "250"], "350")], &["7", "8"], "15"),
            (&[(&["10", "5"], "15"), (&["10", "6"], "16")], &["20", "7"], "27"),
            // An 8% tax: input * 1.08, printed without a fraction.
            (&[(&["100"], "108"), (&["200"], "216")], &["50"], "54"),
            // References generalize where constants would memorize.
            (&[(&["Margate"], "Margate!"), (&["Tamarac"], "Tamarac!")], &["Sunrise"], "Sunrise!"),
        ];
        for (examples, held_out, expected) in cases {
            let examples: Vec<(Vec<&str>, String)> =
                examples.iter().map(|(i, o)| (i.to_vec(), o.to_string())).collect();
            let p = learn(&examples).expect("learnable");
            assert!(p.consistent(&examples), "{p}");
            assert_eq!(p.apply(held_out).as_deref(), Some(expected), "{p}");
            assert_eq!(json::from_str::<Program>(&json::to_string(&p)), Ok(p));
        }
    }

    #[test]
    fn contradictory_unlearnable_and_empty_sets_learn_nothing() {
        assert_eq!(learn(&[(vec!["same input"], "out a".into()), (vec!["same input"], "out b".into())]), None);
        // Output characters that appear nowhere in the input must be
        // memorized; differing consts across examples are inconsistent.
        assert_eq!(learn(&[(vec!["aaa"], "xyz".into()), (vec!["bbb"], "qrs".into())]), None);
        assert_eq!(learn::<String>(&[]), None);
    }

    #[test]
    fn edge_cost_orders_by_coverage_and_size() {
        let small = learn(&[("a-b".to_string(), "a".to_string())]).expect("learnable");
        assert!(edge_cost(&small, 1.0) < edge_cost(&small, 0.5));
        let bigger = Program {
            pieces: vec![
                small.pieces[0].clone(),
                Piece::Const("-".into()),
                small.pieces[0].clone(),
            ],
        };
        assert!(edge_cost(&small, 1.0) < edge_cost(&bigger, 1.0));
    }

    #[test]
    fn columns_and_numbers_render_apply_and_round_trip() {
        let col3 = Piece::Extract { col: 3, tok: Tok::Whole, index: 0, rev: false, case: Case::Keep };
        assert_eq!((col3.to_string(), col3.apply(["only"].as_slice())), ("col3".to_string(), None));
        let ratio = Piece::Arith { op: '/', col: 1, rhs: Operand::Col(0) };
        assert_eq!(ratio.to_string(), "col1 / input");
        assert_eq!(ratio.apply(["0", "3"].as_slice()), None, "division by zero has no value");
        assert_eq!(ratio.apply(["3", "1"].as_slice()).as_deref(), Some("0.333333"));
        assert_eq!(Piece::Sum.apply(["1.5", "x", "2"].as_slice()).as_deref(), Some("3.5"));
        for p in [col3, ratio, Piece::Sum, Piece::Arith { op: '-', col: 2, rhs: Operand::Num(0.25) }] {
            assert_eq!(json::from_str::<Piece>(&json::to_string(&p)), Ok(p));
        }
    }

    #[test]
    fn hostile_pieces_are_typed_errors() {
        let piece = |body: &str| json::from_str::<Piece>(body);
        let extract = |index: &str, rev: &str| {
            piece(&format!(r#"{{"tok":"word","index":{index},"rev":{rev},"case":"keep"}}"#))
        };
        for index in ["-3", "0.5", "1e20", "4294967296", "\"2\"", "null"] {
            let err = extract(index, "true").expect_err(index).to_string();
            assert!(err.contains("\"index\""), "{index}: {err}");
        }
        for rev in ["0", "\"true\"", "null"] {
            let err = extract("0", rev).expect_err(rev).to_string();
            assert!(err.contains("\"rev\""), "{rev}: {err}");
        }
        for body in [
            r#"{"tok":"word","index":0,"case":"keep"}"#,
            r#"{"tok":"word","index":0,"rev":false,"case":"keep","col":-1}"#,
            r#"{"op":"+","rhs_col":1e20}"#,
            r#"{"op":"%","k":2}"#,
        ] {
            assert!(piece(body).is_err(), "{body}");
        }
        // The deepest decodable index, and `usize::MAX` itself, select
        // nothing and render without overflow.
        let deep = extract("4294967295", "true").expect("in range");
        assert_eq!((deep.apply("a b"), deep.to_string()), (None, "word[-4294967296]".to_string()));
        let max = Piece::Extract { col: 0, tok: Tok::Space, index: usize::MAX, rev: true, case: Case::Keep };
        assert_eq!(max.apply("a b"), None);
        assert_eq!(max.to_string(), format!("word[-{}]", usize::MAX as u128 + 1));
    }
}
