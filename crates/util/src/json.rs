//! JSON values, the one serializer ([`JsonWriter`]), and the
//! derive-free [`ToJson`]/[`FromJson`] trait pair.
//!
//! This replaces the workspace's `serde`/`serde_json` usage. Types that
//! persist (session state, source graphs, wrappers, pattern models)
//! implement the two traits by hand; the representation each type
//! chooses is part of its session-file format. Both traits stream:
//! `ToJson` writes through a [`JsonWriter`] and `FromJson` reads a
//! borrowed [`ZRef`], so persistence builds no owned [`Json`] tree.
//!
//! Objects preserve insertion order, so serialization is deterministic:
//! the same state always produces byte-identical session files.

use crate::zjson::{ZDoc, ZRef};
use std::fmt;

/// A JSON document value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any number (stored as `f64`, like JavaScript).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; insertion-ordered key/value pairs.
    Obj(Vec<(String, Json)>),
}

/// Parse or conversion failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    msg: String,
}

impl JsonError {
    /// An error with this message.
    pub fn new(msg: impl Into<String>) -> Self {
        Self { msg: msg.into() }
    }

    /// "expected X, got Y" against an actual value.
    pub fn expected(what: &str, got: ZRef<'_>) -> Self {
        Self::new(format!("expected {what}, got {}", got.kind()))
    }
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "json error: {}", self.msg)
    }
}

impl std::error::Error for JsonError {}

impl Json {
    /// A string value.
    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    /// An object from ordered pairs.
    pub fn obj(pairs: Vec<(String, Json)>) -> Json {
        Json::Obj(pairs)
    }

    /// Object field lookup.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Object field lookup that errors (for `FromJson` impls).
    pub fn field(&self, key: &str) -> Result<&Json, JsonError> {
        self.get(key)
            .ok_or_else(|| JsonError::new(format!("missing field {key:?}")))
    }

    /// The string slice, when a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The number, when numeric.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The boolean, when a bool.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The elements, when an array.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(v) => Some(v),
            _ => None,
        }
    }

    /// The pairs, when an object.
    pub fn as_object(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Obj(v) => Some(v),
            _ => None,
        }
    }

    /// Append the compact serialization to an existing buffer — the
    /// allocation-free form of [`to_string`] for callers that assemble
    /// responses in a reused scratch buffer.
    pub fn write_compact(&self, out: &mut String) {
        self.write_json(&mut JsonWriter::compact(out));
    }

    /// Human-readable serialization (2-space indent).
    pub fn to_string_pretty(&self) -> String {
        to_string_pretty(self)
    }

    /// Parse a JSON document. Trailing non-whitespace is an error.
    /// The grammar lives in [`ZDoc`]; this is an owning walk over its
    /// flat tree.
    pub fn parse(text: &str) -> Result<Json, JsonError> {
        Ok(ZDoc::new().parse(text)?.to_json())
    }
}

/// A streaming JSON serializer: values go straight into a `String`,
/// compact or indented by two spaces per level. Every serialization in
/// the workspace — [`to_string`], `Json`'s `Display`, [`ToJson`] impls, re-emitted
/// [`ZRef`] values — runs through this one writer, so the pretty and
/// compact formats have exactly one definition.
///
/// The writer tracks only its depth, whether the innermost open
/// container is still empty, and whether a key awaits its value;
/// commas, newlines and indentation follow from the call sequence. Inside an object every value is preceded by
/// [`JsonWriter::key`] (or written with [`JsonWriter::field`]).
#[derive(Debug)]
pub struct JsonWriter<'a> {
    out: &'a mut String,
    pretty: bool,
    depth: usize,
    /// The innermost open container has no element yet.
    first: bool,
    /// A key was just written: the next value is its member value.
    after_key: bool,
}

/// Indentation source: pretty output pushes slices of this, not one
/// space at a time.
const SPACES: &str = "                                                                ";

// The writer's primitives run once per token of every snapshot and
// response, so they must not allocate.
// lint:hotpath(begin)
impl<'a> JsonWriter<'a> {
    /// A writer appending compact JSON (no whitespace) to `out`.
    pub fn compact(out: &'a mut String) -> Self {
        JsonWriter { out, pretty: false, depth: 0, first: true, after_key: false }
    }

    /// A writer appending JSON indented by two spaces per level to
    /// `out` (`"key": value`, one member or element per line).
    pub fn pretty(out: &'a mut String) -> Self {
        JsonWriter { out, pretty: true, depth: 0, first: true, after_key: false }
    }

    fn newline(&mut self) {
        if self.pretty {
            self.out.push('\n');
            let mut n = 2 * self.depth;
            while n > 0 {
                let run = n.min(SPACES.len());
                self.out.push_str(&SPACES[..run]);
                n -= run;
            }
        }
    }

    /// Separator and indentation owed before the next key or value.
    fn element(&mut self) {
        if self.after_key {
            self.after_key = false;
        } else if self.depth > 0 {
            if !self.first {
                self.out.push(',');
            }
            self.first = false;
            self.newline();
        }
    }

    fn open(&mut self, bracket: char) {
        self.element();
        self.out.push(bracket);
        self.depth += 1;
        self.first = true;
    }

    fn close(&mut self, bracket: char) {
        self.depth -= 1;
        if !self.first {
            self.newline();
        }
        self.out.push(bracket);
        self.first = false;
    }

    /// `null`.
    pub fn null(&mut self) {
        self.element();
        self.out.push_str("null");
    }

    /// `true` / `false`.
    pub fn bool(&mut self, b: bool) {
        self.element();
        self.out.push_str(if b { "true" } else { "false" });
    }

    /// A number (non-finite values write `null`; see [`write_number`]).
    pub fn num(&mut self, n: f64) {
        self.element();
        write_number(self.out, n);
    }

    /// A string literal, escaped canonically.
    pub fn str(&mut self, s: &str) {
        self.element();
        write_escaped(self.out, s);
    }

    /// An object member's key; the next value written is its value.
    pub fn key(&mut self, k: &str) {
        self.element();
        write_escaped(self.out, k);
        self.out.push(':');
        if self.pretty {
            self.out.push(' ');
        }
        self.after_key = true;
    }

    /// Open an object; close it with [`JsonWriter::end_obj`].
    pub fn begin_obj(&mut self) {
        self.open('{');
    }

    /// Close the innermost object.
    pub fn end_obj(&mut self) {
        self.close('}');
    }

    /// One object member: `key` then `v`.
    pub fn field<T: ToJson + ?Sized>(&mut self, key: &str, v: &T) {
        self.key(key);
        v.write_json(self);
    }

    /// An object whose members `body` writes.
    pub fn obj(&mut self, body: impl FnOnce(&mut Self)) {
        self.begin_obj();
        body(self);
        self.end_obj();
    }

    /// An array whose elements `body` writes.
    pub fn arr(&mut self, body: impl FnOnce(&mut Self)) {
        self.open('[');
        body(self);
        self.close(']');
    }

    /// An externally tagged enum variant: `{"tag": <body>}`, where
    /// `body` writes the one value.
    pub fn tagged(&mut self, tag: &str, body: impl FnOnce(&mut Self)) {
        self.begin_obj();
        self.key(tag);
        body(self);
        self.end_obj();
    }
}

/// Non-finite values (unrepresentable in JSON) serialize as `null`
/// like serde_json's lossy float handling; everything else uses Rust's
/// shortest-round-trip formatting, which prints integral values
/// without a fraction (`3`, not `3.0`) and — unlike the old
/// cast-to-`i64` fast path — keeps the sign of `-0.0` (`-0`), so
/// serialize→parse→serialize is byte-identical for every finite
/// number. WAL replay and snapshot diffing rely on that fixpoint.
/// Formats straight into `out`: no intermediate heap string. Integers
/// below 2^53 (counts, ids, hashes' halves) take a digit loop that
/// prints exactly what `{n}` would.
pub fn write_number(out: &mut String, n: f64) {
    const EXACT: f64 = 9_007_199_254_740_992.0; // 2^53
    if n.fract() == 0.0 && n.abs() < EXACT && !(n == 0.0 && n.is_sign_negative()) {
        let mut digits = [0u8; 20];
        let mut at = digits.len();
        let mut v = n.abs() as u64;
        loop {
            at -= 1;
            digits[at] = b'0' + (v % 10) as u8;
            v /= 10;
            if v == 0 {
                break;
            }
        }
        if n < 0.0 {
            out.push('-');
        }
        for &d in &digits[at..] {
            out.push(char::from(d));
        }
    } else if n.is_finite() {
        // Writing into a `String` cannot fail.
        let _ = fmt::Write::write_fmt(out, format_args!("{n}"));
    } else {
        out.push_str("null");
    }
}

/// Append the canonical JSON string literal for `s` (quotes included).
/// Runs that need no escaping are copied in bulk; `"`, `\` and control
/// characters get their short escape or `\u00XX`.
pub fn write_escaped(out: &mut String, s: &str) {
    const HEX: &[u8; 16] = b"0123456789abcdef";
    out.push('"');
    let bytes = s.as_bytes();
    let mut run = 0;
    for (i, &b) in bytes.iter().enumerate() {
        let short = match b {
            b'"' => "\\\"",
            b'\\' => "\\\\",
            b'\n' => "\\n",
            b'\r' => "\\r",
            b'\t' => "\\t",
            0x08 => "\\b",
            0x0C => "\\f",
            0x00..=0x1F => "",
            _ => continue,
        };
        // Every byte matched above is ASCII, so `run..i` and `i + 1..`
        // fall on char boundaries.
        out.push_str(&s[run..i]);
        if short.is_empty() {
            out.push_str("\\u00");
            out.push(char::from(HEX[usize::from(b >> 4)]));
            out.push(char::from(HEX[usize::from(b & 0xF)]));
        } else {
            out.push_str(short);
        }
        run = i + 1;
    }
    out.push_str(&s[run..]);
    out.push('"');
}
// lint:hotpath(end)

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&to_string(self))
    }
}

impl std::ops::Index<usize> for Json {
    type Output = Json;

    /// Array indexing; out-of-range or non-array yields `Null` (like
    /// `serde_json::Value`).
    fn index(&self, i: usize) -> &Json {
        static NULL: Json = Json::Null;
        match self {
            Json::Arr(v) => v.get(i).unwrap_or(&NULL),
            _ => &NULL,
        }
    }
}

impl std::ops::Index<&str> for Json {
    type Output = Json;

    /// Object field indexing; missing key or non-object yields `Null`.
    fn index(&self, key: &str) -> &Json {
        static NULL: Json = Json::Null;
        self.get(key).unwrap_or(&NULL)
    }
}

impl PartialEq<&str> for Json {
    fn eq(&self, other: &&str) -> bool {
        self.as_str() == Some(*other)
    }
}

impl PartialEq<Json> for &str {
    fn eq(&self, other: &Json) -> bool {
        other.as_str() == Some(*self)
    }
}

// --- ToJson / FromJson --------------------------------------------------

/// Hand-written serialization through a [`JsonWriter`] (the derive-free
/// counterpart of `serde::Serialize`). Implementations stream: they
/// write their fields straight into the output, building no [`Json`]
/// value on the way.
pub trait ToJson {
    /// Write the JSON representation of `self`.
    fn write_json(&self, w: &mut JsonWriter<'_>);
}

/// Hand-written reconstruction from a parsed value (the derive-free
/// counterpart of `serde::Deserialize`). Implementations read a
/// borrowed [`ZRef`] cursor, so strings are copied once, into the
/// value being built.
pub trait FromJson: Sized {
    /// Rebuild from a JSON value.
    fn from_json(j: ZRef<'_>) -> Result<Self, JsonError>;
}

impl ToJson for Json {
    fn write_json(&self, w: &mut JsonWriter<'_>) {
        match self {
            Json::Null => w.null(),
            Json::Bool(b) => w.bool(*b),
            Json::Num(n) => w.num(*n),
            Json::Str(s) => w.str(s),
            Json::Arr(items) => w.arr(|w| items.iter().for_each(|v| v.write_json(w))),
            Json::Obj(pairs) => w.obj(|w| pairs.iter().for_each(|(k, v)| w.field(k, v))),
        }
    }
}

impl FromJson for Json {
    fn from_json(j: ZRef<'_>) -> Result<Self, JsonError> {
        Ok(j.to_json())
    }
}

impl ToJson for String {
    fn write_json(&self, w: &mut JsonWriter<'_>) {
        w.str(self);
    }
}

impl FromJson for String {
    fn from_json(j: ZRef<'_>) -> Result<Self, JsonError> {
        j.as_str()
            .map(str::to_string)
            .ok_or_else(|| JsonError::expected("string", j))
    }
}

impl ToJson for str {
    fn write_json(&self, w: &mut JsonWriter<'_>) {
        w.str(self);
    }
}

impl ToJson for bool {
    fn write_json(&self, w: &mut JsonWriter<'_>) {
        w.bool(*self);
    }
}

impl FromJson for bool {
    fn from_json(j: ZRef<'_>) -> Result<Self, JsonError> {
        j.as_bool().ok_or_else(|| JsonError::expected("bool", j))
    }
}

impl ToJson for f64 {
    fn write_json(&self, w: &mut JsonWriter<'_>) {
        w.num(*self);
    }
}

impl FromJson for f64 {
    fn from_json(j: ZRef<'_>) -> Result<Self, JsonError> {
        j.as_f64().ok_or_else(|| JsonError::expected("number", j))
    }
}

macro_rules! impl_json_int {
    ($($t:ty),+ $(,)?) => {$(
        impl ToJson for $t {
            fn write_json(&self, w: &mut JsonWriter<'_>) {
                w.num(*self as f64);
            }
        }

        impl FromJson for $t {
            fn from_json(j: ZRef<'_>) -> Result<Self, JsonError> {
                let n = j.as_f64().ok_or_else(|| JsonError::expected("number", j))?;
                if n.fract() != 0.0 {
                    return Err(JsonError::new(format!("expected integer, got {n}")));
                }
                // Range-check in f64 before casting. `MIN as f64` is
                // exact for every integer type, and `(MAX as f64) + 1.0`
                // lands exactly one past the type (for the 64-bit types
                // MAX itself rounds *up* to that power of two, so the
                // old cast-then-compare check accepted 2^63/2^64 as a
                // saturated MAX — the wrong value, silently).
                if !(n >= <$t>::MIN as f64 && n < (<$t>::MAX as f64) + 1.0) {
                    return Err(JsonError::new(format!(
                        "integer {n} out of range for {}", stringify!($t)
                    )));
                }
                Ok(n as $t)
            }
        }
    )+};
}

impl_json_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl<T: ToJson> ToJson for Option<T> {
    fn write_json(&self, w: &mut JsonWriter<'_>) {
        match self {
            None => w.null(),
            Some(v) => v.write_json(w),
        }
    }
}

impl<T: FromJson> FromJson for Option<T> {
    fn from_json(j: ZRef<'_>) -> Result<Self, JsonError> {
        if j.is_null() {
            Ok(None)
        } else {
            Ok(Some(T::from_json(j)?))
        }
    }
}

impl<T: ToJson> ToJson for Vec<T> {
    fn write_json(&self, w: &mut JsonWriter<'_>) {
        self.as_slice().write_json(w);
    }
}

impl<T: FromJson> FromJson for Vec<T> {
    fn from_json(j: ZRef<'_>) -> Result<Self, JsonError> {
        if !j.is_arr() {
            return Err(JsonError::expected("array", j));
        }
        let mut out = Vec::with_capacity(j.len());
        for item in j.items() {
            out.push(T::from_json(item)?);
        }
        Ok(out)
    }
}

impl<T: ToJson> ToJson for [T] {
    fn write_json(&self, w: &mut JsonWriter<'_>) {
        w.arr(|w| self.iter().for_each(|v| v.write_json(w)));
    }
}

impl<A: ToJson, B: ToJson> ToJson for (A, B) {
    fn write_json(&self, w: &mut JsonWriter<'_>) {
        w.arr(|w| {
            self.0.write_json(w);
            self.1.write_json(w);
        });
    }
}

impl<A: FromJson, B: FromJson> FromJson for (A, B) {
    fn from_json(j: ZRef<'_>) -> Result<Self, JsonError> {
        match (j.is_arr(), j.len()) {
            (true, 2) => Ok((A::from_json(j.at(0))?, B::from_json(j.at(1))?)),
            _ => Err(JsonError::expected("2-element array", j)),
        }
    }
}

impl<T: ToJson + ?Sized> ToJson for &T {
    fn write_json(&self, w: &mut JsonWriter<'_>) {
        (**self).write_json(w);
    }
}

/// Serialize any [`ToJson`] value compactly.
pub fn to_string<T: ToJson + ?Sized>(v: &T) -> String {
    let mut out = String::new();
    v.write_json(&mut JsonWriter::compact(&mut out));
    out
}

/// Serialize any [`ToJson`] value with indentation.
pub fn to_string_pretty<T: ToJson + ?Sized>(v: &T) -> String {
    let mut out = String::new();
    v.write_json(&mut JsonWriter::pretty(&mut out));
    out
}

/// Parse and convert in one step: one [`ZDoc`] walk, no owned tree.
pub fn from_str<T: FromJson>(text: &str) -> Result<T, JsonError> {
    T::from_json(ZDoc::new().parse(text)?)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_scalars() {
        assert_eq!(Json::parse("null").unwrap(), Json::Null);
        assert_eq!(Json::parse("true").unwrap(), Json::Bool(true));
        assert_eq!(Json::parse(" -1.5e2 ").unwrap(), Json::Num(-150.0));
        assert_eq!(Json::parse("\"a\\nb\"").unwrap(), Json::str("a\nb"));
    }

    #[test]
    fn parse_rejects_garbage() {
        for bad in ["", "{", "[1,]", "{\"a\":}", "nulL", "1 2", "\"unterminated"] {
            assert!(Json::parse(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn unicode_escapes_roundtrip() {
        let v = Json::parse("\"caf\\u00e9 \\ud83d\\ude00\"").unwrap();
        assert_eq!(v, Json::str("café 😀"));
    }

    #[test]
    fn escaping_roundtrips() {
        let original = Json::str("quote \" slash \\ newline \n tab \t ctrl \u{01} ok");
        let parsed = Json::parse(&original.to_string()).unwrap();
        assert_eq!(parsed, original);
    }

    #[test]
    fn object_order_is_preserved() {
        let j = Json::parse(r#"{"z": 1, "a": 2, "m": 3}"#).unwrap();
        let keys: Vec<&str> = j
            .as_object()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, vec!["z", "a", "m"]);
    }

    #[test]
    fn pretty_form_reparses() {
        let j = Json::parse(r#"{"rows": [["a", 1], ["b", 2]], "n": 2, "empty": [], "eo": {}}"#)
            .unwrap();
        assert_eq!(Json::parse(&j.to_string_pretty()).unwrap(), j);
        assert_eq!(Json::parse(&j.to_string()).unwrap(), j);
    }

    #[test]
    fn numbers_format_like_serde_json() {
        assert_eq!(Json::Num(3.0).to_string(), "3");
        assert_eq!(Json::Num(3.25).to_string(), "3.25");
        assert_eq!(Json::Num(-0.5).to_string(), "-0.5");
        assert_eq!(Json::Num(f64::NAN).to_string(), "null");
    }

    #[test]
    fn negative_zero_keeps_its_sign() {
        let s = Json::Num(-0.0).to_string();
        assert_eq!(s, "-0");
        let back = Json::parse(&s).unwrap().as_f64().unwrap();
        assert!(back == 0.0 && back.is_sign_negative(), "sign lost: {back}");
        // The serialization fixpoint the WAL relies on.
        assert_eq!(Json::Num(back).to_string(), s);
    }

    #[test]
    fn sixty_four_bit_saturation_edges_are_rejected() {
        // 2^63 *is* `i64::MAX as f64`: the cast saturates to MAX, which
        // round-trips back to 2^63 — so the old cast-then-compare check
        // accepted the wrong value. Same story for u64 at 2^64.
        assert!(from_str::<i64>("9223372036854775808").is_err());
        assert!(from_str::<u64>("18446744073709551616").is_err());
        assert!(from_str::<u64>("1e300").is_err());
        // The exact boundaries that ARE representable still convert.
        assert_eq!(from_str::<i64>("-9223372036854775808").unwrap(), i64::MIN);
        // Largest f64 below 2^63 / 2^64 (2^63 - 1024, 2^64 - 2048).
        assert_eq!(
            from_str::<i64>("9223372036854774784").unwrap(),
            9_223_372_036_854_774_784
        );
        assert_eq!(
            from_str::<u64>("18446744073709549568").unwrap(),
            18_446_744_073_709_549_568
        );
        // -0.0 is integral zero, not out of range, for every width.
        assert_eq!(from_str::<u64>("-0").unwrap(), 0);
        assert_eq!(from_str::<u8>("255").unwrap(), 255);
        assert!(from_str::<u8>("256").is_err());
    }

    #[test]
    fn huge_exponents_are_rejected_at_parse() {
        // `f64::parse` turns these into ±inf; accepting them would
        // produce a Num that serializes as `null` and changes shape.
        for bad in ["1e999", "-1e999", "1e309", "[1e400]"] {
            assert!(Json::parse(bad).is_err(), "accepted {bad:?}");
        }
        // Underflow collapses to zero, which is finite and fine.
        assert_eq!(Json::parse("1e-999").unwrap(), Json::Num(0.0));
    }

    #[test]
    fn prop_number_serialization_is_a_fixpoint() {
        use crate::check::{check, Gen};
        use crate::{prop_ensure, prop_ensure_eq};
        check("json_number_fixpoint", 400, &[], |g: &mut Gen| {
            // Span the grammar: small ints, 2^53-adjacent ints, large
            // exactly-representable ints, fractions, extreme magnitudes.
            let n: f64 = match g.usize_in(0..6) {
                0 => g.i64_in(-1_000_000..1_000_000) as f64,
                1 => {
                    let sign = if g.bool_p(0.5) { -1.0 } else { 1.0 };
                    g.u64_in(0..(1u64 << 53)) as f64 * sign
                }
                2 => {
                    // Beyond 2^53 but exact: a 53-bit mantissa shifted.
                    let shift = g.usize_in(1..11) as u32;
                    (g.u64_in(0..(1u64 << 53)) << shift) as f64
                }
                3 => g.f64_in(-1.0e9..1.0e9),
                4 => g.f64_in(-1.0..1.0) * 1.0e-12,
                _ => g.f64_in(-1.0..1.0) * 1.0e18,
            };
            let s = Json::Num(n).to_string();
            let back = Json::parse(&s)
                .map_err(|e| e.to_string())?
                .as_f64()
                .ok_or("reparse was not a number")?;
            prop_ensure!(
                back == n && back.is_sign_negative() == n.is_sign_negative(),
                "{n} -> {s} -> {back}"
            );
            // Fixpoint: the second serialization is byte-identical.
            prop_ensure_eq!(Json::Num(back).to_string(), s);
            Ok(())
        });
    }

    #[test]
    fn prop_exact_integers_roundtrip_through_int_conversions() {
        use crate::check::{check, Gen};
        use crate::prop_ensure_eq;
        check("json_int_roundtrip", 300, &[], |g: &mut Gen| {
            // Every |v| <= 2^53 is exactly representable as f64.
            let v = g.i64_in(-(1i64 << 53)..(1i64 << 53) + 1);
            let s = to_string(&v);
            prop_ensure_eq!(from_str::<i64>(&s).map_err(|e| e.to_string())?, v);
            if v >= 0 {
                prop_ensure_eq!(from_str::<u64>(&s).map_err(|e| e.to_string())?, v as u64);
            }
            Ok(())
        });
    }

    #[test]
    fn indexing_is_total() {
        let j = Json::parse(r#"{"a": [10, 20]}"#).unwrap();
        assert_eq!(j["a"][1], Json::Num(20.0));
        assert_eq!(j["missing"], Json::Null);
        assert_eq!(j["a"][99], Json::Null);
        assert_eq!(j["a"]["not-an-object"], Json::Null);
    }

    #[test]
    fn primitive_conversions_roundtrip() {
        let cases = [
            (to_string(&42usize), "42"),
            (to_string(&-7i64), "-7"),
            (to_string(&1.5f64), "1.5"),
            (to_string("hello"), "\"hello\""),
            (to_string(&Some("x".to_string())), "\"x\""),
            (to_string(&Option::<String>::None), "null"),
        ];
        for (text, want) in cases {
            assert_eq!(text, want);
        }
        assert_eq!(from_str::<usize>("42").unwrap(), 42);
        assert!(from_str::<usize>("1.5").is_err());
        assert!(from_str::<usize>("-1").is_err());
        assert!(from_str::<u8>("300").is_err());
        assert_eq!(from_str::<Option<String>>("null").unwrap(), None);
        assert_eq!(
            from_str::<(String, u8)>("[\"a\"]").unwrap_err().to_string(),
            "json error: expected 2-element array, got array"
        );
        let pairs: Vec<(String, usize)> =
            from_str(r#"[["a", 1], ["b", 2]]"#).unwrap();
        assert_eq!(pairs, vec![("a".to_string(), 1), ("b".to_string(), 2)]);
    }

    #[test]
    fn writer_matches_the_tree_format() {
        let j = Json::parse(r#"{"a": [1, {"b": []}, {}], "c": "x\u0001\"y\\", "d": null}"#)
            .unwrap();
        let mut pretty = String::new();
        let mut w = JsonWriter::pretty(&mut pretty);
        w.obj(|w| {
            w.key("a");
            w.arr(|w| {
                w.num(1.0);
                w.tagged("b", |w| w.arr(|_| {}));
                w.obj(|_| {});
            });
            w.field("c", "x\u{1}\"y\\");
            w.key("d");
            w.null();
        });
        assert_eq!(pretty, j.to_string_pretty());
        assert_eq!(
            pretty,
            "{\n  \"a\": [\n    1,\n    {\n      \"b\": []\n    },\n    {}\n  ],\n  \
             \"c\": \"x\\u0001\\\"y\\\\\",\n  \"d\": null\n}"
        );
        assert_eq!(j.to_string(), r#"{"a":[1,{"b":[]},{}],"c":"x\u0001\"y\\","d":null}"#);
    }

    #[test]
    fn escaping_copies_runs_and_hex_escapes_controls() {
        let mut out = String::new();
        write_escaped(&mut out, "café\u{1f}\u{0}é\u{7f}\u{8}\u{c}\r\t\n😀");
        assert_eq!(out, "\"café\\u001f\\u0000é\u{7f}\\b\\f\\r\\t\\n😀\"");
    }

    #[test]
    fn integer_fast_path_prints_what_display_prints() {
        for n in [0.0, 1.0, -1.0, 10.0, 4_294_967_295.0, 9_007_199_254_740_991.0, -9_007_199_254_740_991.0,
                  9_007_199_254_740_992.0, 1e17, 123_456_789_012.0]
        {
            let mut out = String::new();
            write_number(&mut out, n);
            assert_eq!(out, format!("{n}"));
        }
    }

    #[test]
    fn deep_nesting_is_rejected_not_overflowed() {
        let deep = "[".repeat(500) + &"]".repeat(500);
        assert!(Json::parse(&deep).is_err());
    }
}
