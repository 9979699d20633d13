//! The JSON grammar pinned as a golden corpus.
//!
//! `tests/golden/json_corpus.txt` holds one row per input:
//!
//! ```text
//! <input as a JSON string>\t<ok <canonical serialization> | err <message>>
//! ```
//!
//! Every row is replayed through [`Json::parse`] and through the
//! zero-copy [`ZDoc`] it rides on: acceptance, canonical output, error
//! wording and byte offsets must all match. The inputs cover the fixed
//! edge cases below, the `>>`/`<<` lines of the serve crate's golden
//! wire transcript, and 64 seeded trees with one-byte mutations.
//!
//! To version a deliberate grammar change, regenerate and commit:
//!
//! ```sh
//! UPDATE_GOLDEN=1 cargo test -p copycat-util --test json_corpus
//! ```

use copycat_util::check::{check, Gen};
use copycat_util::json::{write_escaped, Json};
use copycat_util::prop_ensure_eq;
use copycat_util::zjson::ZDoc;
use std::cell::RefCell;
use std::path::PathBuf;

fn golden_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden")
}

/// The outcome column of a row.
fn outcome(input: &str) -> String {
    match Json::parse(input) {
        Ok(j) => format!("ok {}", j.to_string()),
        Err(e) => format!("err {e}"),
    }
}

fn row(input: &str) -> String {
    let mut out = String::new();
    write_escaped(&mut out, input);
    out.push('\t');
    out.push_str(&outcome(input));
    out
}

/// A random owned tree spanning every value kind, escapes included.
fn gen_value(g: &mut Gen, depth: usize) -> Json {
    match if depth >= 3 { g.usize_in(0..4) } else { g.usize_in(0..6) } {
        0 => Json::Null,
        1 => Json::Bool(g.bool_p(0.5)),
        2 => Json::Num((g.i64_in(-10_000..10_001) as f64) / 8.0),
        3 => {
            let n = g.usize_in(0..9);
            Json::Str(
                (0..n)
                    .map(|_| *g.choose(&['a', 'é', '"', '\\', '\n', '\t', '😀', ' ', 'z']))
                    .collect(),
            )
        }
        4 => {
            let n = g.usize_in(0..5);
            Json::Arr((0..n).map(|_| gen_value(g, depth + 1)).collect())
        }
        _ => {
            let n = g.usize_in(0..5);
            Json::Obj((0..n).map(|i| (format!("k{i}"), gen_value(g, depth + 1))).collect())
        }
    }
}

fn corpus_inputs() -> Vec<String> {
    let fixed = [
        // Literals, strings, containers and their malformed neighbours.
        "null", "true", "false", "\"\"", "\"plain\"", "\"esc\\n\\t\\\\\\\"\"",
        "\"unicode \\u00e9 and pair \\ud83d\\ude00\"", "\"bad pair \\ud83d\\u0041\"",
        "\"truncated \\u00", "\"unterminated", "\"tab\tliteral\"", "\"a\\nb\"", "\"a\\qb\"",
        "[]", "[1,2,3]", "[ 1 , [2, [3]] , \"x\" ]", "{}", "{\"a\":1}",
        "{ \"a\" : {\"b\": [true, null]}, \"c\" : \"d\" }", "{\"dup\":1,\"dup\":2}",
        "{\"z\": 1, \"a\": 2, \"m\": 3}", "{\"a\":1,}", "[1,]", "[1 2]", "{\"a\" 1}",
        "{\"a\":}", "{", "nully", "nulL", "tru", "  42  ", "42 trailing", "1 2", "",
        "\u{1f600}",
        // Numbers: valid forms and the float edges.
        "0", "-0", "3.25", " -1.5e2 ", "1e3", "1E+3", "-2.5e-2", "0.5e-3",
        "9007199254740991", "9007199254740992", "9007199254740993",
        "-9223372036854775808", "9223372036854774784", "9223372036854775808",
        "18446744073709549568", "18446744073709551616", "1e300",
        "1e999", "-1e999", "1e309", "[1e400]", "1e-999",
        // Numbers outside RFC 8259's grammar.
        "+1", ".5", "-.5", "01", "-01", "00", "1.", "1.e3", "-", "1e", "1e+", "--1",
        "1.5.2", "Infinity", "NaN", "{\"k\":+3}",
        "{\"op\":\"autocomplete\",\"session\":\"s\",\"k\":+3}",
    ];
    let mut inputs: Vec<String> = fixed.iter().map(|s| s.to_string()).collect();
    // Nesting around the depth limit, then far beyond it.
    for n in [128, 129, 130, 500] {
        inputs.push("[".repeat(n) + &"]".repeat(n));
    }
    let transcript_path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../serve/tests/golden/wire_transcript.txt");
    let transcript = std::fs::read_to_string(transcript_path).expect("serve golden wire transcript");
    inputs.extend(
        transcript
            .lines()
            .filter_map(|l| l.strip_prefix(">> ").or_else(|| l.strip_prefix("<< ")))
            .map(str::to_string),
    );
    let seeded = RefCell::new(Vec::new());
    check("zjson_matches_json", 64, &[], |g| {
        let text = gen_value(g, 0).to_string();
        let at = g.usize_in(0..text.len());
        let mut seeded = seeded.borrow_mut();
        if text.is_char_boundary(at) && text.is_char_boundary(at + 1) {
            let mut bad = text.clone();
            bad.replace_range(at..at + 1, "!");
            seeded.push(text);
            seeded.push(bad);
        } else {
            seeded.push(text);
        }
        Ok(())
    });
    inputs.extend(seeded.into_inner());
    inputs
}

#[test]
fn grammar_matches_the_golden_corpus() {
    let path = golden_dir().join("json_corpus.txt");
    if std::env::var("UPDATE_GOLDEN").is_ok() {
        let rows: String = corpus_inputs().iter().map(|i| row(i) + "\n").collect();
        std::fs::create_dir_all(golden_dir()).expect("golden dir");
        std::fs::write(&path, rows).expect("write corpus");
        return;
    }
    let corpus = std::fs::read_to_string(&path).expect("committed json corpus");
    let mut doc = ZDoc::new();
    for (n, line) in corpus.lines().enumerate() {
        let (quoted, expected) = line.split_once('\t').expect("row has a tab");
        let input = Json::parse(quoted).expect("input column parses");
        let input = input.as_str().expect("input column is a string");
        assert_eq!(outcome(input), expected, "corpus row {} diverged: {quoted}", n + 1);
        if let Some(canonical) = expected.strip_prefix("ok ") {
            let mut out = String::new();
            doc.parse(input).expect("ZDoc accepts what Json::parse accepts").write(&mut out);
            assert_eq!(out, canonical, "ZRef::write diverged on row {}", n + 1);
        }
    }
    assert!(corpus.lines().count() > 200, "corpus is populated");
}

#[test]
fn seeded_trees_roundtrip() {
    check("json_tree_roundtrip", 64, &[], |g| {
        let tree = gen_value(g, 0);
        let text = tree.to_string();
        prop_ensure_eq!(Json::parse(&text).map_err(|e| e.to_string())?, tree, "{text}");
        Ok(())
    });
}
