//! Value tokenization and the token-generalization lattice.
//!
//! A data value like `4213 Palmetto Ave` tokenizes into
//! `[Digits(4), CapWord, CapWord]`-classed tokens. Classes form a small
//! lattice ordered by generality; pattern learning walks *up* this lattice
//! only as far as the examples force it, mirroring the "rich hypothesis
//! language that includes both the constants in the data fields and
//! generalized tokens" of §3.2.

use std::fmt;

/// Generalized description of one token. Ordered roughly by generality;
/// [`TokenClass::generalize`] computes the least upper bound of two classes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TokenClass {
    /// Digits of a specific length, e.g. `Digits(3)` = "3-digit number".
    Digits(u8),
    /// Digits of any length.
    AnyDigits,
    /// Capitalized word (`Creek`).
    CapWord,
    /// All-uppercase word (`FEMA`, `FL`).
    UpperWord,
    /// All-lowercase word (`of`).
    LowerWord,
    /// Mixed-case or other alphabetic word (`McArthur`).
    MixedWord,
    /// Alphanumeric blend (`A1B2`).
    AlphaNum,
    /// A single punctuation/symbol character (the char is kept because
    /// separators like `-` vs `/` are highly discriminative for types).
    Punct(char),
    /// Anything.
    Any,
}

impl TokenClass {
    /// The most specific class describing `text`.
    pub fn of(text: &str) -> TokenClass {
        debug_assert!(!text.is_empty(), "tokens are non-empty by construction");
        let mut has_alpha = false;
        let mut has_digit = false;
        let mut has_other = false;
        for c in text.chars() {
            if c.is_alphabetic() {
                has_alpha = true;
            } else if c.is_ascii_digit() {
                has_digit = true;
            } else if c.is_alphanumeric() {
                // Numeric but not an ASCII digit (`²`, `١`): the run is
                // alphanumeric without being a word or a number.
                has_other = true;
            } else {
                // Punctuation tokens are single chars by tokenizer rule.
                return TokenClass::Punct(c);
            }
        }
        if has_other {
            return TokenClass::AlphaNum;
        }
        match (has_alpha, has_digit) {
            (true, true) => TokenClass::AlphaNum,
            (false, true) => {
                let n = text.len();
                if n <= u8::MAX as usize {
                    TokenClass::Digits(n as u8)
                } else {
                    TokenClass::AnyDigits
                }
            }
            (true, false) => {
                let mut chars = text.chars();
                let first_upper = chars.next().is_some_and(|c| c.is_uppercase());
                let rest_lower = chars.clone().all(|c| c.is_lowercase());
                let rest_upper = chars.all(|c| c.is_uppercase());
                let multi = text.chars().count() > 1;
                if first_upper && multi && rest_upper {
                    TokenClass::UpperWord
                } else if first_upper && rest_lower {
                    // Single capital letter or Capitalized-then-lowercase.
                    TokenClass::CapWord
                } else if !first_upper && rest_lower {
                    TokenClass::LowerWord
                } else {
                    TokenClass::MixedWord
                }
            }
            (false, false) => TokenClass::Any,
        }
    }

    /// Least upper bound in the generalization lattice: the most specific
    /// class matching everything either operand matches.
    pub fn generalize(self, other: TokenClass) -> TokenClass {
        use TokenClass::*;
        if self == other {
            return self;
        }
        match (self, other) {
            (Digits(_), Digits(_)) | (Digits(_), AnyDigits) | (AnyDigits, Digits(_)) => AnyDigits,
            (CapWord | UpperWord | LowerWord | MixedWord, CapWord | UpperWord | LowerWord | MixedWord) => {
                MixedWord
            }
            // AlphaNum matches any all-alphanumeric token, so it is the lub
            // of word shapes, digit shapes, and mixed blends.
            (
                AlphaNum | CapWord | UpperWord | LowerWord | MixedWord | Digits(_) | AnyDigits,
                AlphaNum | CapWord | UpperWord | LowerWord | MixedWord | Digits(_) | AnyDigits,
            ) => AlphaNum,
            _ => Any,
        }
    }

    /// Whether this class matches a concrete token text.
    pub fn matches(self, text: &str) -> bool {
        use TokenClass::*;
        match self {
            Any => true,
            Punct(c) => text.chars().eq(std::iter::once(c)),
            Digits(n) => {
                text.len() == n as usize && text.chars().all(|c| c.is_ascii_digit())
            }
            AnyDigits => !text.is_empty() && text.chars().all(|c| c.is_ascii_digit()),
            // Superclass of every word and digit shape: any non-empty
            // all-alphanumeric token.
            AlphaNum => !text.is_empty() && text.chars().all(|c| c.is_alphanumeric()),
            CapWord | UpperWord | LowerWord | MixedWord => {
                if !text.chars().all(|c| c.is_alphabetic()) || text.is_empty() {
                    return false;
                }
                TokenClass::of(text) == self
                    || matches!(self, MixedWord) // MixedWord subsumes all word shapes
            }
        }
    }
}

impl copycat_util::json::ToJson for TokenClass {
    /// Unit variants serialize as their name; `Digits(n)` and
    /// `Punct(c)` as single-field objects.
    fn write_json(&self, w: &mut copycat_util::json::JsonWriter<'_>) {
        match self {
            TokenClass::Digits(n) => w.tagged("Digits", |w| w.num(f64::from(*n))),
            TokenClass::Punct(c) => w.tagged("Punct", |w| w.str(c.encode_utf8(&mut [0; 4]))),
            TokenClass::AnyDigits => w.str("AnyDigits"),
            TokenClass::CapWord => w.str("CapWord"),
            TokenClass::UpperWord => w.str("UpperWord"),
            TokenClass::LowerWord => w.str("LowerWord"),
            TokenClass::MixedWord => w.str("MixedWord"),
            TokenClass::AlphaNum => w.str("AlphaNum"),
            TokenClass::Any => w.str("Any"),
        }
    }
}

impl copycat_util::json::FromJson for TokenClass {
    fn from_json(j: copycat_util::zjson::ZRef<'_>) -> Result<Self, copycat_util::JsonError> {
        use copycat_util::JsonError;
        if let Some(name) = j.as_str() {
            return match name {
                "AnyDigits" => Ok(TokenClass::AnyDigits),
                "CapWord" => Ok(TokenClass::CapWord),
                "UpperWord" => Ok(TokenClass::UpperWord),
                "LowerWord" => Ok(TokenClass::LowerWord),
                "MixedWord" => Ok(TokenClass::MixedWord),
                "AlphaNum" => Ok(TokenClass::AlphaNum),
                "Any" => Ok(TokenClass::Any),
                other => Err(JsonError::new(format!("unknown token class {other:?}"))),
            };
        }
        if let Some(n) = j.get("Digits") {
            return Ok(TokenClass::Digits(u8::from_json(n)?));
        }
        if let Some(c) = j.get("Punct") {
            let s = c
                .as_str()
                .ok_or_else(|| JsonError::expected("single-char string", c))?;
            let mut chars = s.chars();
            match (chars.next(), chars.next()) {
                (Some(ch), None) => return Ok(TokenClass::Punct(ch)),
                _ => return Err(JsonError::new(format!("Punct needs one char, got {s:?}"))),
            }
        }
        Err(JsonError::expected("token class", j))
    }
}

impl fmt::Display for TokenClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TokenClass::Digits(n) => write!(f, "{n}DIGIT"),
            TokenClass::AnyDigits => write!(f, "NUM"),
            TokenClass::CapWord => write!(f, "Capword"),
            TokenClass::UpperWord => write!(f, "UPPER"),
            TokenClass::LowerWord => write!(f, "lower"),
            TokenClass::MixedWord => write!(f, "Word"),
            TokenClass::AlphaNum => write!(f, "ALNUM"),
            TokenClass::Punct(c) => write!(f, "'{c}'"),
            TokenClass::Any => write!(f, "ANY"),
        }
    }
}

/// One token of a data value: its text and most-specific class.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct ValueToken {
    /// The token text as it appeared.
    pub text: String,
    /// Most specific [`TokenClass`] for `text`.
    pub class: TokenClass,
}

/// Split a value into tokens: maximal runs of alphanumerics, plus single
/// punctuation characters. Whitespace separates but is not kept.
pub fn tokenize_value(value: &str) -> Vec<ValueToken> {
    let mut texts = Vec::new();
    split_tokens(value, &mut texts);
    texts
        .into_iter()
        .map(|text| ValueToken { text: text.to_string(), class: TokenClass::of(text) })
        .collect()
}

/// The token texts of `value` (see [`tokenize_value`]), appended to `out`
/// as slices of `value`: tokenizing allocates nothing beyond `out`.
pub fn split_tokens<'a>(value: &'a str, out: &mut Vec<&'a str>) {
    let mut run: Option<usize> = None;
    for (i, c) in value.char_indices() {
        if c.is_alphanumeric() {
            run.get_or_insert(i);
            continue;
        }
        if let Some(start) = run.take() {
            out.push(&value[start..i]);
        }
        if !c.is_whitespace() {
            out.push(&value[i..i + c.len_utf8()]);
        }
    }
    if let Some(start) = run {
        out.push(&value[start..]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classes_of_common_shapes() {
        assert_eq!(TokenClass::of("Creek"), TokenClass::CapWord);
        assert_eq!(TokenClass::of("FEMA"), TokenClass::UpperWord);
        assert_eq!(TokenClass::of("of"), TokenClass::LowerWord);
        assert_eq!(TokenClass::of("McArthur"), TokenClass::MixedWord);
        assert_eq!(TokenClass::of("123"), TokenClass::Digits(3));
        assert_eq!(TokenClass::of("A1"), TokenClass::AlphaNum);
        assert_eq!(TokenClass::of("-"), TokenClass::Punct('-'));
        assert_eq!(TokenClass::of("A"), TokenClass::CapWord);
    }

    #[test]
    fn tokenize_address() {
        let toks = tokenize_value("4213 Palmetto Ave");
        let classes: Vec<_> = toks.iter().map(|t| t.class).collect();
        assert_eq!(
            classes,
            vec![TokenClass::Digits(4), TokenClass::CapWord, TokenClass::CapWord]
        );
    }

    #[test]
    fn tokenize_phone_keeps_punct() {
        let toks = tokenize_value("(954) 555-0142");
        let shapes: Vec<String> = toks.iter().map(|t| t.class.to_string()).collect();
        assert_eq!(shapes, vec!["'('", "3DIGIT", "')'", "3DIGIT", "'-'", "4DIGIT"]);
    }

    #[test]
    fn generalize_is_lub() {
        use TokenClass::*;
        assert_eq!(Digits(3).generalize(Digits(5)), AnyDigits);
        assert_eq!(CapWord.generalize(UpperWord), MixedWord);
        assert_eq!(CapWord.generalize(Digits(2)), AlphaNum);
        assert_eq!(CapWord.generalize(Punct('-')), Any);
        assert_eq!(Punct('-').generalize(Punct('-')), Punct('-'));
        assert_eq!(Punct('-').generalize(Punct('/')), Any);
    }

    #[test]
    fn generalize_commutative_and_idempotent() {
        use TokenClass::*;
        let all = [
            Digits(3),
            AnyDigits,
            CapWord,
            UpperWord,
            LowerWord,
            MixedWord,
            AlphaNum,
            Punct('-'),
            Any,
        ];
        for &a in &all {
            assert_eq!(a.generalize(a), a);
            for &b in &all {
                assert_eq!(a.generalize(b), b.generalize(a));
            }
        }
    }

    #[test]
    fn matches_respects_generalization() {
        // Whatever class a token gets, that class must match the token, and
        // so must any generalization of it.
        for text in ["Creek", "FL", "of", "123", "A1", "-", "McArthur", "m²", "١٢٣"] {
            let c = TokenClass::of(text);
            assert!(c.matches(text), "{c:?} should match {text:?}");
            assert!(c.generalize(TokenClass::Any).matches(text));
        }
    }

    #[test]
    fn mixedword_subsumes_word_shapes() {
        assert!(TokenClass::MixedWord.matches("Creek"));
        assert!(TokenClass::MixedWord.matches("FEMA"));
        assert!(TokenClass::MixedWord.matches("of"));
        assert!(!TokenClass::MixedWord.matches("123"));
    }
}
