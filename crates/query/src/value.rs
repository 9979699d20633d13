//! Cell values.
//!
//! Strings are shared: [`Value::Str`] holds an `Arc<str>`, so copying a
//! value — and with it a tuple, a join output row or a query result —
//! bumps a reference count instead of copying text.

use copycat_util::json::{FromJson, JsonError, JsonWriter, ToJson};
use copycat_util::zjson::ZRef;
use std::borrow::Cow;
use std::fmt::{self, Write};
use std::sync::Arc;

/// A cell value. CopyCat data is overwhelmingly textual (it arrives via
/// the clipboard), with numbers appearing in geocodes and conversions.
///
/// Equality is by meaning, not representation: `Num(5)` equals
/// `Str("5")` (join keys arriving as text must match numeric columns),
/// and `Hash` agrees with it. Null equals only null here; joins and
/// dependent joins skip null keys themselves.
#[derive(Debug, Clone)]
pub enum Value {
    /// Missing / padded (union homogenization pads with nulls, §4.2).
    Null,
    /// A string (shared; cloning does not copy the text).
    Str(Arc<str>),
    /// A number.
    Num(f64),
}

impl Value {
    /// Build a string value.
    pub fn str(s: impl Into<Arc<str>>) -> Self {
        Value::Str(s.into())
    }

    /// Is this the null value?
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// The string form used for display, joining, and export. Null renders
    /// as the empty string.
    pub fn as_text(&self) -> String {
        self.text().into_owned()
    }

    /// [`as_text`](Value::as_text), borrowed unless the value is a
    /// number: a string's text is the string itself.
    pub fn text(&self) -> Cow<'_, str> {
        match self {
            Value::Null => Cow::Borrowed(""),
            Value::Str(s) => Cow::Borrowed(s),
            Value::Num(_) => Cow::Owned(self.to_string()),
        }
    }

    /// Whether the text form ([`Value::as_text`]) equals `text`, decided
    /// without building that text: the comparison the suggestion path
    /// makes once per cell it scans.
    pub fn text_eq(&self, text: &str) -> bool {
        match self {
            Value::Null => text.is_empty(),
            Value::Str(s) => **s == *text,
            Value::Num(n) => {
                let mut rest = PrefixOf(text);
                write_num(&mut rest, *n).is_ok() && rest.0.is_empty()
            }
        }
    }

    /// Parse clipboard text into a value: empty → null; numeric → number;
    /// otherwise string.
    pub fn parse(text: &str) -> Value {
        let t = text.trim();
        if t.is_empty() {
            return Value::Null;
        }
        // Leading zeros (zip codes!) and +-prefixed strings stay textual.
        let keeps_leading_zero = t.starts_with("0") && t.len() > 1
            || t.starts_with("-0") && t.len() > 2;
        let looks_numeric =
            t.parse::<f64>().is_ok() && !t.starts_with('+') && !keeps_leading_zero;
        if looks_numeric {
            Value::Num(t.parse::<f64>().expect("checked"))
        } else {
            Value::Str(t.into())
        }
    }

    /// The number, when numeric.
    pub fn as_num(&self) -> Option<f64> {
        match self {
            Value::Num(n) => Some(*n),
            Value::Str(s) => s.trim().parse().ok(),
            Value::Null => None,
        }
    }
}

/// The text form of a number: integral values below 10^15 print without
/// a fraction, everything else as `f64`'s `Display` does.
fn write_num(w: &mut impl Write, n: f64) -> fmt::Result {
    if n.fract() == 0.0 && n.abs() < 1e15 {
        write!(w, "{}", n as i64)
    } else {
        write!(w, "{n}")
    }
}

/// A `fmt::Write` sink that consumes its string as long as what is
/// written matches its prefix, and fails at the first mismatch.
struct PrefixOf<'a>(&'a str);

impl Write for PrefixOf<'_> {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        self.0 = self.0.strip_prefix(s).ok_or(fmt::Error)?;
        Ok(())
    }
}

/// The bits a number hashes as: `0.0` and `-0.0` are equal, and so are
/// all NaNs, so each class hashes as one representative.
fn num_bits(n: f64) -> u64 {
    if n == 0.0 {
        0.0f64.to_bits()
    } else if n.is_nan() {
        f64::NAN.to_bits()
    } else {
        n.to_bits()
    }
}

impl PartialEq for Value {
    fn eq(&self, other: &Self) -> bool {
        match (self, other) {
            (Value::Null, Value::Null) => true,
            (Value::Str(a), Value::Str(b)) => a == b,
            (Value::Num(a), Value::Num(b)) => a == b || (a.is_nan() && b.is_nan()),
            // Join keys arriving as text must match numeric columns.
            (Value::Num(n), Value::Str(s)) | (Value::Str(s), Value::Num(n)) => {
                s.trim().parse::<f64>().map(|x| x == *n).unwrap_or(false)
            }
            _ => false,
        }
    }
}

impl Eq for Value {}

impl std::hash::Hash for Value {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        // Numeric-looking strings hash as their number so Num(5) and
        // Str("5") collide as equality demands; other strings hash their
        // text in place.
        match self {
            Value::Null => 0u8.hash(state),
            Value::Num(n) => {
                1u8.hash(state);
                num_bits(*n).hash(state);
            }
            Value::Str(s) => {
                1u8.hash(state);
                match s.trim().parse::<f64>() {
                    Ok(n) => num_bits(n).hash(state),
                    Err(_) => str::hash(s, state),
                }
            }
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => Ok(()),
            Value::Str(s) => f.write_str(s),
            Value::Num(n) => write_num(f, *n),
        }
    }
}

impl From<&str> for Value {
    fn from(s: &str) -> Self {
        Value::Str(s.into())
    }
}

impl From<String> for Value {
    fn from(s: String) -> Self {
        Value::Str(s.into())
    }
}

impl From<f64> for Value {
    fn from(n: f64) -> Self {
        Value::Num(n)
    }
}

impl ToJson for Value {
    /// Null ↔ `null`, strings ↔ JSON strings, numbers ↔ JSON numbers —
    /// the three variants map onto distinct JSON scalar kinds.
    fn write_json(&self, w: &mut JsonWriter<'_>) {
        match self {
            Value::Null => w.null(),
            Value::Str(s) => w.str(s),
            Value::Num(n) => w.num(*n),
        }
    }
}

impl FromJson for Value {
    fn from_json(j: ZRef<'_>) -> Result<Self, JsonError> {
        if j.is_null() {
            return Ok(Value::Null);
        }
        if let Some(s) = j.as_str() {
            return Ok(Value::Str(s.into()));
        }
        j.as_f64()
            .map(Value::Num)
            .ok_or_else(|| JsonError::expected("null, string, or number", j))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_rules() {
        assert_eq!(Value::parse(""), Value::Null);
        assert_eq!(Value::parse("  42 "), Value::Num(42.0));
        assert_eq!(Value::parse("-1.5"), Value::Num(-1.5));
        // Zip codes keep their leading zero as text.
        assert_eq!(Value::parse("02134"), Value::str("02134"));
        assert_eq!(Value::parse("Margate"), Value::str("Margate"));
    }

    #[test]
    fn cross_type_equality() {
        assert_eq!(Value::Num(5.0), Value::str("5"));
        assert_ne!(Value::Num(5.0), Value::str("five"));
        assert_ne!(Value::Null, Value::str(""));
    }

    #[test]
    fn hash_consistent_with_eq() {
        use std::collections::hash_map::DefaultHasher;
        use std::hash::{Hash, Hasher};
        let h = |v: &Value| {
            let mut s = DefaultHasher::new();
            v.hash(&mut s);
            s.finish()
        };
        assert_eq!(h(&Value::Num(5.0)), h(&Value::str("5")));
        assert_eq!(h(&Value::Null), h(&Value::Null));
    }

    fn fx(v: &Value) -> u64 {
        use std::hash::{Hash, Hasher};
        let mut h = copycat_util::hash::FxHasher::default();
        v.hash(&mut h);
        h.finish()
    }

    /// Texts around every formatting and parsing edge: numeric-looking
    /// strings, leading zeros, signs, `-0`, NaN and infinities, and the
    /// 10^15 boundary where numbers stop printing as integers.
    const EDGE_TEXTS: &[&str] = &[
        "", " ", "0", "-0", "00", "-00", "007", "02134", "5", "5.0", " 5 ", "+5", "-5", "0.5",
        ".5", "5.", "1e3", "1E3", "1000", "999999999999999", "1000000000000000",
        "1000000000000001", "1e15", "-1e15", "1e16", "NaN", "nan", "-NaN", "inf", "-inf",
        "infinity", "0.0000001", "1e-7", "x", "Margate", "5 ", "٣",
    ];

    fn edge_values() -> Vec<Value> {
        let mut vs = vec![Value::Null];
        for n in [
            0.0,
            -0.0,
            5.0,
            -5.0,
            0.5,
            1e15 - 1.0,
            1e15,
            -1e15,
            1e15 + 1.0,
            1e16,
            1e-7,
            f64::NAN,
            -f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::MAX,
            f64::MIN_POSITIVE,
        ] {
            vs.push(Value::Num(n));
        }
        for t in EDGE_TEXTS {
            vs.push(Value::str(*t));
            vs.push(Value::parse(t));
        }
        vs
    }

    /// A random text: a number in one of several spellings, or noise.
    fn gen_text(g: &mut copycat_util::check::Gen) -> String {
        match g.usize_in(0..6) {
            0 => g.choose(EDGE_TEXTS).to_string(),
            1 => g.i64_in(-2_000_000..2_000_000).to_string(),
            2 => format!("{:0>8}", g.i64_in(0..99_999)),
            3 => format!("{}", 1e15 + g.i64_in(-3..4) as f64),
            4 => format!("{}", g.f64_in(-1e4..1e4)),
            _ => g.string_of("0123456789.-+eE xNa", 0..7),
        }
    }

    #[test]
    fn text_eq_and_hash_agree_with_as_text_and_eq() {
        copycat_util::check::check("value-text-eq-hash", 256, &[], |g| {
            let mut values = edge_values();
            let mut texts: Vec<String> = EDGE_TEXTS.iter().map(|t| t.to_string()).collect();
            for _ in 0..4 {
                let t = gen_text(g);
                values.push(Value::str(t.as_str()));
                values.push(Value::parse(&t));
                if let Ok(n) = t.trim().parse::<f64>() {
                    values.push(Value::Num(n));
                }
                texts.push(t);
            }
            texts.extend(values.iter().map(Value::as_text));
            for v in &values {
                for t in &texts {
                    copycat_util::prop_ensure!(
                        v.text_eq(t) == (v.as_text() == *t),
                        "{v:?}.text_eq({t:?}) disagrees with as_text {:?}",
                        v.as_text()
                    );
                }
            }
            for a in &values {
                for b in &values {
                    if a == b {
                        copycat_util::prop_ensure!(
                            fx(a) == fx(b),
                            "{a:?} == {b:?} but their hashes differ"
                        );
                    }
                }
            }
            Ok(())
        });
    }

    #[test]
    fn json_roundtrip() {
        for v in [Value::Null, Value::str("Margate"), Value::Num(-1.5)] {
            let back: Value = copycat_util::json::from_str(&copycat_util::json::to_string(&v)).unwrap();
            assert_eq!(back, v);
        }
    }

    #[test]
    fn display_forms() {
        assert_eq!(Value::Num(3.0).as_text(), "3");
        assert_eq!(Value::Num(3.25).as_text(), "3.25");
        assert_eq!(Value::Null.as_text(), "");
    }
}
