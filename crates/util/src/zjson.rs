//! Zero-copy JSON parsing into a reusable flat DOM — the workspace's
//! one JSON parser.
//!
//! An owned [`Json`] tree re-owns every string — fine for documents
//! that outlive their input, wasteful for a serving hot path that
//! parses one request line, reads a handful of fields, and throws the
//! tree away. [`ZDoc`] parses into a flat `Vec` of span-indexed nodes
//! instead, and [`Json::parse`](crate::json::Json::parse) is
//! [`ZRef::to_json`] over it:
//!
//! - **Strings without escapes** — the overwhelmingly common case on
//!   the wire — become `(start, end)` spans into the input line. No
//!   copy, no allocation.
//! - **Strings with escapes** are unescaped once into a single arena
//!   `String` owned by the doc and spanned from there.
//! - **Containers** are nodes with first-child/next-sibling links, so
//!   the whole tree lives in one `Vec` whose capacity survives
//!   [`ZDoc::parse`] calls.
//!
//! Steady state, a warm `ZDoc` parses an escape-free request with
//! **zero** heap allocations (pinned by a counting-allocator test in
//! the serve crate). Spans are byte offsets, not pointers, so a doc
//! holds no borrow of its line between parses and can be pooled.
//!
//! Reads go through [`ZRef`], a `Copy` cursor pairing the doc with the
//! line. `ZRef::write` re-serializes canonically — byte-identical to
//! what [`json::to_string`](crate::json::to_string) would emit
//! for the same value, numbers included — and [`ZRef::raw`] returns
//! the verbatim input slice (how the server echoes request ids without
//! re-owning them).

use crate::json::{Json, JsonError, JsonWriter, ToJson};

/// Nesting depth limit.
const MAX_DEPTH: usize = 128;

/// Largest document whose byte offsets fit the `u32` spans.
const MAX_DOC_BYTES: usize = u32::MAX as usize;

/// "No node" sentinel for child/sibling links.
const NONE: u32 = u32::MAX;

/// Where a string span points.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Loc {
    /// Span indexes the input line (escape-free fast path).
    Line,
    /// Span indexes the doc's unescape arena.
    Arena,
}

#[derive(Debug, Clone, Copy)]
enum Kind {
    Null,
    Bool(bool),
    Num(f64),
    Str(Loc),
    Arr,
    Obj,
}

/// One parsed value in the flat DOM.
#[derive(Debug, Clone, Copy)]
struct Node {
    kind: Kind,
    /// String content span (`Str`), or first child and child count
    /// (`Arr`/`Obj`: `a` is `NONE` when empty).
    a: u32,
    b: u32,
    /// Key span + location, when this node is an object member.
    key: Option<(u32, u32, Loc)>,
    /// Verbatim input span of the whole value (for [`ZRef::raw`]).
    raw: (u32, u32),
    /// Next sibling, `NONE` at the end of a container.
    next: u32,
}

/// What a cursor past the end of an array reads as: `null`, like
/// `Json`'s total indexing.
static ABSENT: Node =
    Node { kind: Kind::Null, a: NONE, b: 0, key: None, raw: (0, 0), next: NONE };

/// A reusable flat-DOM JSON parser. See the module docs.
#[derive(Debug, Default)]
pub struct ZDoc {
    nodes: Vec<Node>,
    arena: String,
}

/// A cursor over one parsed value: the doc, the line it was parsed
/// from, and a node index.
#[derive(Debug, Clone, Copy)]
pub struct ZRef<'d> {
    doc: &'d ZDoc,
    line: &'d str,
    idx: u32,
}

impl ZDoc {
    /// An empty doc. Capacity grows on first parse and is reused after.
    pub fn new() -> ZDoc {
        ZDoc::default()
    }

    /// Parse a JSON document (RFC 8259); trailing non-whitespace is an
    /// error. The returned cursor borrows both the doc and the line.
    pub fn parse<'d>(&'d mut self, line: &'d str) -> Result<ZRef<'d>, JsonError> {
        self.nodes.clear();
        self.arena.clear();
        check_len(line.len())?;
        let mut p = P { bytes: line.as_bytes(), pos: 0, nodes: &mut self.nodes, arena: &mut self.arena };
        p.skip_ws();
        let root = p.value(0)?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.err("trailing characters after document"));
        }
        Ok(ZRef { doc: self, line, idx: root })
    }
}

impl<'d> ZRef<'d> {
    fn node(&self) -> &'d Node {
        self.doc.nodes.get(self.idx as usize).unwrap_or(&ABSENT)
    }

    /// Short kind name for error messages.
    pub fn kind(&self) -> &'static str {
        match self.node().kind {
            Kind::Null => "null",
            Kind::Bool(_) => "bool",
            Kind::Num(_) => "number",
            Kind::Str(_) => "string",
            Kind::Arr => "array",
            Kind::Obj => "object",
        }
    }

    /// Number of elements (array) or members (object); 0 otherwise.
    pub fn len(&self) -> usize {
        match self.node().kind {
            Kind::Arr | Kind::Obj => self.node().b as usize,
            _ => 0,
        }
    }

    /// Whether [`ZRef::len`] is 0.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The `i`th array element; `null` when out of range or not an
    /// array (mirrors `Json`'s total indexing).
    pub fn at(&self, i: usize) -> ZRef<'d> {
        let idx = self.items().nth(i).map_or(NONE, |v| v.idx);
        ZRef { doc: self.doc, line: self.line, idx }
    }

    /// Object member lookup that errors when the key is absent (for
    /// `FromJson` impls; mirrors `Json::field`).
    pub fn require(&self, key: &str) -> Result<ZRef<'d>, JsonError> {
        self.get(key)
            .ok_or_else(|| JsonError::new(format!("missing field {key:?}")))
    }

    fn span_str(&self, a: u32, b: u32, loc: Loc) -> Option<&'d str> {
        match loc {
            Loc::Line => self.line.get(a as usize..b as usize),
            Loc::Arena => self.doc.arena.get(a as usize..b as usize),
        }
    }

    /// The verbatim input slice this value was parsed from.
    pub fn raw(&self) -> &'d str {
        let (a, b) = self.node().raw;
        self.line.get(a as usize..b as usize).unwrap_or("")
    }

    /// The byte span of [`ZRef::raw`] in the source line, for callers
    /// that keep a location rather than a borrow and re-slice the line
    /// later.
    pub fn raw_span(&self) -> (u32, u32) {
        self.node().raw
    }

    /// Whether this value is `null`.
    pub fn is_null(&self) -> bool {
        matches!(self.node().kind, Kind::Null)
    }

    /// The string content, if this is a string. Borrows the input line
    /// (escape-free) or the doc's arena (unescaped once at parse).
    pub fn as_str(&self) -> Option<&'d str> {
        match self.node().kind {
            Kind::Str(loc) => self.span_str(self.node().a, self.node().b, loc),
            _ => None,
        }
    }

    /// The number, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self.node().kind {
            Kind::Num(n) => Some(n),
            _ => None,
        }
    }

    /// The number as a `u64`, if integral and in range.
    pub fn as_u64(&self) -> Option<u64> {
        let n = self.as_f64()?;
        if n >= 0.0 && n <= u64::MAX as f64 && n.fract() == 0.0 {
            Some(n as u64)
        } else {
            None
        }
    }

    /// The boolean, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self.node().kind {
            Kind::Bool(b) => Some(b),
            _ => None,
        }
    }

    /// Whether this value is an array.
    pub fn is_arr(&self) -> bool {
        matches!(self.node().kind, Kind::Arr)
    }

    /// Whether this value is an object.
    pub fn is_obj(&self) -> bool {
        matches!(self.node().kind, Kind::Obj)
    }

    /// Iterate an array's items (empty for non-arrays).
    pub fn items(&self) -> Children<'d> {
        match self.node().kind {
            Kind::Arr => Children { doc: self.doc, line: self.line, idx: self.node().a },
            _ => Children { doc: self.doc, line: self.line, idx: NONE },
        }
    }

    /// Iterate an object's `(key, value)` members (empty for
    /// non-objects).
    pub fn entries(&self) -> Entries<'d> {
        match self.node().kind {
            Kind::Obj => Entries(Children { doc: self.doc, line: self.line, idx: self.node().a }),
            _ => Entries(Children { doc: self.doc, line: self.line, idx: NONE }),
        }
    }

    /// First member with this key, if this is an object (mirrors
    /// `Json::get`).
    pub fn get(&self, key: &str) -> Option<ZRef<'d>> {
        self.entries().find(|(k, _)| *k == key).map(|(_, v)| v)
    }

    /// Member lookup returning `null` for missing keys / non-objects —
    /// the total-indexing convenience `Json`'s `Index` impl provides.
    pub fn field(&self, key: &str) -> FieldRef<'d> {
        match self.get(key) {
            Some(v) => FieldRef(Some(v)),
            None => FieldRef(None),
        }
    }

    /// Append the canonical compact serialization of this value —
    /// byte-for-byte what `json::to_string` emits for the same value
    /// (strings are re-escaped canonically, numbers use the
    /// shortest-round-trip fixpoint format).
    pub fn write(&self, out: &mut String) {
        self.write_json(&mut JsonWriter::compact(out));
    }

    /// An owned [`Json`] copy of this value (for values that must
    /// outlive the request line, e.g. pasted rows entering the engine).
    pub fn to_json(&self) -> Json {
        match self.node().kind {
            Kind::Null => Json::Null,
            Kind::Bool(b) => Json::Bool(b),
            Kind::Num(n) => Json::Num(n),
            Kind::Str(_) => Json::Str(self.as_str().unwrap_or("").to_string()),
            Kind::Arr => Json::Arr(self.items().map(|v| v.to_json()).collect()),
            Kind::Obj => Json::Obj(
                self.entries().map(|(k, v)| (k.to_string(), v.to_json())).collect(),
            ),
        }
    }
}

impl ToJson for ZRef<'_> {
    fn write_json(&self, w: &mut JsonWriter<'_>) {
        match self.node().kind {
            Kind::Null => w.null(),
            Kind::Bool(b) => w.bool(b),
            Kind::Num(n) => w.num(n),
            Kind::Str(_) => w.str(self.as_str().unwrap_or("")),
            Kind::Arr => w.arr(|w| self.items().for_each(|v| v.write_json(w))),
            Kind::Obj => w.obj(|w| self.entries().for_each(|(k, v)| w.field(k, &v))),
        }
    }
}

/// Wrapper making missing-field reads total: every accessor answers
/// `None`/`false` when the field was absent.
#[derive(Clone, Copy)]
pub struct FieldRef<'d>(Option<ZRef<'d>>);

impl<'d> FieldRef<'d> {
    /// The underlying value, if the field was present.
    pub fn value(&self) -> Option<ZRef<'d>> {
        self.0
    }

    /// String content, if present and a string.
    pub fn as_str(&self) -> Option<&'d str> {
        self.0.and_then(|v| v.as_str())
    }

    /// Number, if present and a number.
    pub fn as_f64(&self) -> Option<f64> {
        self.0.and_then(|v| v.as_f64())
    }

    /// Integral number, if present, integral, and in `u64` range.
    pub fn as_u64(&self) -> Option<u64> {
        self.0.and_then(|v| v.as_u64())
    }

    /// Boolean, if present and a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        self.0.and_then(|v| v.as_bool())
    }

    /// Whether the field was absent or explicitly `null`.
    pub fn is_missing_or_null(&self) -> bool {
        match self.0 {
            None => true,
            Some(v) => v.is_null(),
        }
    }
}

/// Sibling-chain iterator over a container's children.
pub struct Children<'d> {
    doc: &'d ZDoc,
    line: &'d str,
    idx: u32,
}

impl<'d> Iterator for Children<'d> {
    type Item = ZRef<'d>;

    fn next(&mut self) -> Option<ZRef<'d>> {
        if self.idx == NONE {
            return None;
        }
        let r = ZRef { doc: self.doc, line: self.line, idx: self.idx };
        self.idx = r.node().next;
        Some(r)
    }
}

/// Key/value iterator over an object's members.
pub struct Entries<'d>(Children<'d>);

impl<'d> Iterator for Entries<'d> {
    type Item = (&'d str, ZRef<'d>);

    fn next(&mut self) -> Option<(&'d str, ZRef<'d>)> {
        let v = self.0.next()?;
        let (a, b, loc) = v.node().key?;
        Some((v.span_str(a, b, loc)?, v))
    }
}

/// Spans are `u32` byte offsets, so a longer document would wrap them
/// (and its strings would silently read back as `""`).
fn check_len(len: usize) -> Result<(), JsonError> {
    if len > MAX_DOC_BYTES {
        return Err(JsonError::new(format!(
            "document too large ({len} bytes, limit {MAX_DOC_BYTES})"
        )));
    }
    Ok(())
}

/// RFC 8259 §6: `-? (0 | [1-9][0-9]*) (\.[0-9]+)? ([eE][+-]?[0-9]+)?`.
fn is_json_number(s: &[u8]) -> bool {
    let digits = |i: usize| s[i..].iter().take_while(|b| b.is_ascii_digit()).count();
    let mut i = usize::from(s.first() == Some(&b'-'));
    match digits(i) {
        0 => return false,
        n if n > 1 && s[i] == b'0' => return false,
        n => i += n,
    }
    if s.get(i) == Some(&b'.') {
        match digits(i + 1) {
            0 => return false,
            n => i += 1 + n,
        }
    }
    if matches!(s.get(i), Some(b'e' | b'E')) {
        i += 1;
        if matches!(s.get(i), Some(b'+' | b'-')) {
            i += 1;
        }
        match digits(i) {
            0 => return false,
            n => i += n,
        }
    }
    i == s.len()
}

/// The parser: emits flat nodes, with error wording and byte offsets
/// pinned by the golden corpus (`tests/golden/json_corpus.txt`).
struct P<'a> {
    bytes: &'a [u8],
    pos: usize,
    nodes: &'a mut Vec<Node>,
    arena: &'a mut String,
}

impl P<'_> {
    fn err(&self, msg: &str) -> JsonError {
        JsonError::new(format!("{msg} at byte {}", self.pos))
    }

    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if matches!(b, b' ' | b'\t' | b'\n' | b'\r') {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn eat(&mut self, b: u8) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected {:?}", b as char)))
        }
    }

    fn push(&mut self, kind: Kind, raw_start: u32) -> u32 {
        let idx = self.nodes.len() as u32;
        self.nodes.push(Node {
            kind,
            a: NONE,
            b: NONE,
            key: None,
            raw: (raw_start, raw_start),
            next: NONE,
        });
        idx
    }

    fn finish(&mut self, idx: u32) {
        self.nodes[idx as usize].raw.1 = self.pos as u32;
    }

    fn literal(&mut self, word: &str, kind: Kind) -> Result<u32, JsonError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            let idx = self.push(kind, self.pos as u32);
            self.pos += word.len();
            self.finish(idx);
            Ok(idx)
        } else {
            Err(self.err(&format!("invalid literal (expected {word})")))
        }
    }

    fn value(&mut self, depth: usize) -> Result<u32, JsonError> {
        if depth > MAX_DEPTH {
            return Err(self.err("nesting too deep"));
        }
        match self.peek() {
            None => Err(self.err("unexpected end of input")),
            Some(b'n') => self.literal("null", Kind::Null),
            Some(b't') => self.literal("true", Kind::Bool(true)),
            Some(b'f') => self.literal("false", Kind::Bool(false)),
            Some(b'"') => {
                let start = self.pos as u32;
                let idx = self.push(Kind::Str(Loc::Line), start);
                let (a, b, loc) = self.string()?;
                let node = &mut self.nodes[idx as usize];
                node.kind = Kind::Str(loc);
                node.a = a;
                node.b = b;
                node.raw.1 = self.pos as u32;
                Ok(idx)
            }
            Some(b'[') => {
                let idx = self.push(Kind::Arr, self.pos as u32);
                self.nodes[idx as usize].b = 0;
                self.pos += 1;
                self.skip_ws();
                if self.peek() == Some(b']') {
                    self.pos += 1;
                    self.finish(idx);
                    return Ok(idx);
                }
                let mut prev = NONE;
                loop {
                    self.skip_ws();
                    let child = self.value(depth + 1)?;
                    if prev == NONE {
                        self.nodes[idx as usize].a = child;
                    } else {
                        self.nodes[prev as usize].next = child;
                    }
                    self.nodes[idx as usize].b += 1;
                    prev = child;
                    self.skip_ws();
                    match self.peek() {
                        Some(b',') => self.pos += 1,
                        Some(b']') => {
                            self.pos += 1;
                            self.finish(idx);
                            return Ok(idx);
                        }
                        _ => return Err(self.err("expected ',' or ']'")),
                    }
                }
            }
            Some(b'{') => {
                let idx = self.push(Kind::Obj, self.pos as u32);
                self.nodes[idx as usize].b = 0;
                self.pos += 1;
                self.skip_ws();
                if self.peek() == Some(b'}') {
                    self.pos += 1;
                    self.finish(idx);
                    return Ok(idx);
                }
                let mut prev = NONE;
                loop {
                    self.skip_ws();
                    let key = self.string()?;
                    self.skip_ws();
                    self.eat(b':')?;
                    self.skip_ws();
                    let child = self.value(depth + 1)?;
                    self.nodes[child as usize].key = Some(key);
                    if prev == NONE {
                        self.nodes[idx as usize].a = child;
                    } else {
                        self.nodes[prev as usize].next = child;
                    }
                    self.nodes[idx as usize].b += 1;
                    prev = child;
                    self.skip_ws();
                    match self.peek() {
                        Some(b',') => self.pos += 1,
                        Some(b'}') => {
                            self.pos += 1;
                            self.finish(idx);
                            return Ok(idx);
                        }
                        _ => return Err(self.err("expected ',' or '}'")),
                    }
                }
            }
            Some(_) => self.number(),
        }
    }

    /// Parse a string, returning its content span. Escape-free strings
    /// span the input (zero-copy); strings with escapes are unescaped
    /// into the arena once.
    fn string(&mut self) -> Result<(u32, u32, Loc), JsonError> {
        self.eat(b'"')?;
        let content_start = self.pos;
        // Fast path: scan the whole string for an escape or terminator.
        while let Some(&b) = self.bytes.get(self.pos) {
            if b == b'"' || b == b'\\' || b < 0x20 {
                break;
            }
            self.pos += 1;
        }
        match self.peek() {
            Some(b'"') => {
                let span = (content_start as u32, self.pos as u32, Loc::Line);
                self.pos += 1;
                return Ok(span);
            }
            Some(b'\\') => { /* fall through to the unescaping slow path */ }
            Some(_) => return Err(self.err("control character in string")),
            None => return Err(self.err("unterminated string")),
        }
        // Slow path: at least one escape. Copy the prefix scanned so
        // far into the arena, then continue run-by-run, pushing into
        // the arena.
        let arena_start = self.arena.len();
        // The input is `&str`, so any slice between ASCII delimiters is
        // valid UTF-8; go through from_utf8 anyway to avoid unsafe.
        self.arena.push_str(
            std::str::from_utf8(&self.bytes[content_start..self.pos])
                .map_err(|_| self.err("invalid utf-8"))?,
        );
        loop {
            let start = self.pos;
            while let Some(&b) = self.bytes.get(self.pos) {
                if b == b'"' || b == b'\\' || b < 0x20 {
                    break;
                }
                self.pos += 1;
            }
            if self.pos > start {
                let run = std::str::from_utf8(&self.bytes[start..self.pos])
                    .map_err(|_| self.err("invalid utf-8"))?;
                self.arena.push_str(run);
            }
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok((arena_start as u32, self.arena.len() as u32, Loc::Arena));
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self.peek().ok_or_else(|| self.err("truncated escape"))?;
                    self.pos += 1;
                    match esc {
                        b'"' => self.arena.push('"'),
                        b'\\' => self.arena.push('\\'),
                        b'/' => self.arena.push('/'),
                        b'n' => self.arena.push('\n'),
                        b'r' => self.arena.push('\r'),
                        b't' => self.arena.push('\t'),
                        b'b' => self.arena.push('\u{08}'),
                        b'f' => self.arena.push('\u{0C}'),
                        b'u' => {
                            let hi = self.hex4()?;
                            let code = if (0xD800..0xDC00).contains(&hi) {
                                // Surrogate pair.
                                self.eat(b'\\')?;
                                self.eat(b'u')?;
                                let lo = self.hex4()?;
                                if !(0xDC00..0xE000).contains(&lo) {
                                    return Err(self.err("invalid low surrogate"));
                                }
                                0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00)
                            } else {
                                hi
                            };
                            let c = char::from_u32(code)
                                .ok_or_else(|| self.err("invalid unicode escape"))?;
                            self.arena.push(c);
                        }
                        _ => return Err(self.err("unknown escape")),
                    }
                }
                Some(_) => return Err(self.err("control character in string")),
                None => return Err(self.err("unterminated string")),
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, JsonError> {
        let s = self
            .bytes
            .get(self.pos..self.pos + 4)
            .ok_or_else(|| self.err("truncated \\u escape"))?;
        let s = std::str::from_utf8(s).map_err(|_| self.err("invalid \\u escape"))?;
        let v = u32::from_str_radix(s, 16).map_err(|_| self.err("invalid \\u escape"))?;
        self.pos += 4;
        Ok(v)
    }

    fn number(&mut self) -> Result<u32, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while let Some(&b) = self.bytes.get(self.pos) {
            if b.is_ascii_digit() || matches!(b, b'.' | b'e' | b'E' | b'+' | b'-') {
                self.pos += 1;
            } else {
                break;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| self.err("invalid number"))?;
        let invalid = || self.err(&format!("invalid number {text:?}"));
        // `f64::parse` also takes `+1`, `.5`, `01` and `1.`; JSON does not.
        if !is_json_number(text.as_bytes()) {
            return Err(invalid());
        }
        let v: f64 = text.parse().map_err(|_| invalid())?;
        // `f64::parse` reports overflow as ±inf, not an error. A
        // non-finite `Num` would serialize as `null` and change shape
        // on the next round trip, so reject it here.
        if !v.is_finite() {
            return Err(self.err(&format!("number {text:?} out of f64 range")));
        }
        let idx = self.push(Kind::Num(v), start as u32);
        self.finish(idx);
        Ok(idx)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escape_free_strings_borrow_the_line() {
        let line = r#"{"op":"autocomplete","session":"alice","k":3}"#;
        let mut doc = ZDoc::new();
        let root = doc.parse(line).unwrap();
        let op = root.get("op").unwrap().as_str().unwrap();
        // Same address range as the input line — a true borrow.
        let line_range = line.as_ptr() as usize..line.as_ptr() as usize + line.len();
        assert!(line_range.contains(&(op.as_ptr() as usize)));
        assert_eq!(op, "autocomplete");
        assert_eq!(root.field("k").as_u64(), Some(3));
        assert_eq!(root.field("missing").as_str(), None);
        assert!(root.field("missing").is_missing_or_null());
    }

    #[test]
    fn escaped_strings_come_from_the_arena() {
        let line = r#"{"a":"x\ny","b":"plain"}"#;
        let mut doc = ZDoc::new();
        let root = doc.parse(line).unwrap();
        assert_eq!(root.get("a").unwrap().as_str(), Some("x\ny"));
        assert_eq!(root.get("b").unwrap().as_str(), Some("plain"));
        let mut out = String::new();
        root.write(&mut out);
        assert_eq!(out, r#"{"a":"x\ny","b":"plain"}"#);
    }

    #[test]
    fn raw_returns_verbatim_slices() {
        let line = r#"{ "id" : 1.50 , "arr" : [1, 2] }"#;
        let mut doc = ZDoc::new();
        let root = doc.parse(line).unwrap();
        assert_eq!(root.get("id").unwrap().raw(), "1.50");
        assert_eq!(root.get("arr").unwrap().raw(), "[1, 2]");
        assert_eq!(root.raw(), line.trim());
    }

    #[test]
    fn warm_doc_capacity_is_reused() {
        let mut doc = ZDoc::new();
        doc.parse(r#"{"a":[1,2,3,4,5,6,7,8],"b":"with\nescape"}"#).unwrap();
        let nodes_cap = doc.nodes.capacity();
        let arena_cap = doc.arena.capacity();
        for _ in 0..100 {
            doc.parse(r#"{"a":[8,7,6,5,4,3,2,1],"b":"also\nescaped"}"#).unwrap();
        }
        assert_eq!(doc.nodes.capacity(), nodes_cap);
        assert_eq!(doc.arena.capacity(), arena_cap);
    }

    #[test]
    fn documents_past_u32_offsets_are_rejected() {
        assert!(check_len(MAX_DOC_BYTES).is_ok());
        let err = check_len(MAX_DOC_BYTES + 1).unwrap_err().to_string();
        assert!(err.contains("document too large"), "{err}");
    }
}
