//! Exact learner output on the inputs its search treats specially.
//!
//! Case folds of non-ASCII tokens change length (`ß` → `SS`) or depend
//! on context (a final `Σ` lowers to `ς`), so the search must fold them
//! exactly as `str::to_uppercase` / `str::to_lowercase` do. Identity
//! triples with a long shared prefix are the benchmark's
//! `learn_transform` request and visit the most joint states per
//! example. Each row pins the learned program as `[display, json]`
//! (`none`: nothing learned), and the state cap is pinned at the exact
//! number of joint states each search needs.

use copycat_transform::{learn, Learner, Program};
use copycat_util::json;

type Examples<'a> = &'a [(&'a [&'a str], &'a str)];

/// `(id, examples, program)`.
const PINS: &[(&str, Examples, &str)] = &[
    ("fold/ecole_title", &[(&["ÉCOLE NORMALE"], "École Normale"), (&["ÉTÉ INDIEN"], "Été Indien")], r#"["title(input)",{"pieces":[{"tok":"input","index":0,"rev":false,"case":"title"}]}]"#),
    ("fold/ecole_one", &[(&["ÉCOLE"], "École")], r#"["\"École\"",{"pieces":[{"const":"École"}]}]"#),
    ("fold/strasse_upper", &[(&["straße"], "STRASSE"), (&["große"], "GROSSE")], r#"["upper(input)",{"pieces":[{"tok":"input","index":0,"rev":false,"case":"upper"}]}]"#),
    ("fold/strasse_word", &[(&["Hauptstraße 5"], "HAUPTSTRASSE"), (&["Gartenstraße 12"], "GARTENSTRASSE")], r#"["upper(alpha[0])",{"pieces":[{"tok":"alpha","index":0,"rev":false,"case":"upper"}]}]"#),
    ("fold/final_sigma_lower", &[(&["ΟΔΟΣ"], "οδος"), (&["ΝΟΜΟΣ"], "νομος")], r#"["lower(input)",{"pieces":[{"tok":"input","index":0,"rev":false,"case":"lower"}]}]"#),
    ("fold/medial_sigma_is_not_final", &[(&["ΟΔΟΣ"], "οδοσ"), (&["ΝΟΜΟΣ"], "νομοσ")], r#"none"#),
    ("fold/sigma_words", &[(&["ΟΔΟΣ ΑΘΗΝΑΣ"], "Οδος Αθηνας"), (&["ΝΟΜΟΣ ΚΡΗΤΗΣ"], "Νομος Κρητης")], r#"["title(input)",{"pieces":[{"tok":"input","index":0,"rev":false,"case":"title"}]}]"#),
    ("fold/mixed_concat", &[(&["Café Olé"], "CAFÉ / olé"), (&["Crème Brûlée"], "CRÈME / brûlée")], r#"["concat(upper(alpha[0]), \" / \", lower(alpha[-1]))",{"pieces":[{"tok":"alpha","index":0,"rev":false,"case":"upper"},{"const":" / "},{"tok":"alpha","index":0,"rev":true,"case":"lower"}]}]"#),
    ("fold/ascii_and_accent", &[(&["Zoë", "ÉCOLE"], "école (ZOË)"), (&["Ana", "LYCÉE"], "lycée (ANA)")], r#"["concat(lower(col1), \" (\", upper(input), \")\")",{"pieces":[{"tok":"input","index":0,"rev":false,"case":"lower","col":1},{"const":" ("},{"tok":"input","index":0,"rev":false,"case":"upper"},{"const":")"}]}]"#),
    ("fold/double_space_title", &[(&["NEW  YORK"], "New  York"), (&["SAN  JOSE"], "San  Jose")], r#"["title(input)",{"pieces":[{"tok":"input","index":0,"rev":false,"case":"title"}]}]"#),
    ("prefix/identity_pompano", &[(&["Pompano Beach High School"], "Pompano Beach High School"), (&["Pompano Beach Middle School"], "Pompano Beach Middle School"), (&["Pompano Beach Civic Center"], "Pompano Beach Civic Center")], r#"["input",{"pieces":[{"tok":"input","index":0,"rev":false,"case":"keep"}]}]"#),
    ("prefix/identity_mixed", &[(&["Pompano Beach High School"], "Pompano Beach High School"), (&["Pompano Beach Community Park"], "Pompano Beach Community Park"), (&["Pompano Creek Elementary"], "Pompano Creek Elementary")], r#"["input",{"pieces":[{"tok":"input","index":0,"rev":false,"case":"keep"}]}]"#),
    ("prefix/identity_seed3", &[(&["Coconut Creek Civic Center"], "Coconut Creek Civic Center"), (&["Tamarac Civic Center"], "Tamarac Civic Center"), (&["Coconut Creek Community Center"], "Coconut Creek Community Center")], r#"["input",{"pieces":[{"tok":"input","index":0,"rev":false,"case":"keep"}]}]"#),
    ("prefix/upper_pompano", &[(&["Pompano Beach High School"], "POMPANO BEACH HIGH SCHOOL"), (&["Pompano Beach Civic Center"], "POMPANO BEACH CIVIC CENTER"), (&["Pompano Beach Park"], "POMPANO BEACH PARK")], r#"["upper(input)",{"pieces":[{"tok":"input","index":0,"rev":false,"case":"upper"}]}]"#),
    ("prefix/suffix_pompano", &[(&["Pompano Beach High School", "Pompano Beach"], "Pompano Beach High School (Pompano Beach)"), (&["Pompano Beach Civic Center", "Pompano Beach"], "Pompano Beach Civic Center (Pompano Beach)"), (&["Margate Park", "Margate"], "Margate Park (Margate)")], r#"["concat(input, \" (\", col1, \")\")",{"pieces":[{"tok":"input","index":0,"rev":false,"case":"keep"},{"const":" ("},{"tok":"input","index":0,"rev":false,"case":"keep","col":1},{"const":")"}]}]"#),
    ("prefix/last_words", &[(&["Pompano Beach High School"], "High School"), (&["Pompano Beach Middle School"], "Middle School"), (&["Pompano Beach Civic Center"], "Civic Center")], r#"["concat(alpha[-2], \" \", alpha[-1])",{"pieces":[{"tok":"alpha","index":1,"rev":true,"case":"keep"},{"const":" "},{"tok":"alpha","index":0,"rev":true,"case":"keep"}]}]"#),
    ("phone/reformat", &[(&["(954) 555-1234"], "954-555-1234"), (&["(305) 555-9876"], "305-555-9876")], r#"["concat(digits[0], \"-\", word[-1])",{"pieces":[{"tok":"digits","index":0,"rev":false,"case":"keep"},{"const":"-"},{"tok":"word","index":0,"rev":true,"case":"keep"}]}]"#),
    ("phone/t1_one", &[(&["(954) 555-0101"], "954-555-0101")], r#"["\"954-555-0101\"",{"pieces":[{"const":"954-555-0101"}]}]"#),
];

fn examples(rows: Examples) -> Vec<(Vec<String>, String)> {
    rows.iter()
        .map(|(row, out)| (row.iter().map(|c| c.to_string()).collect(), out.to_string()))
        .collect()
}

fn program_column(p: Option<&Program>) -> String {
    p.map_or("none".to_string(), |p| json::to_string(&(p.to_string(), p)))
}

#[test]
fn case_folds_and_shared_prefixes_learn_exact_programs() {
    let mut failures = Vec::new();
    for (id, rows, expected) in PINS {
        let examples = examples(rows);
        let learned = learn(&examples);
        let now = program_column(learned.as_ref());
        if now != *expected {
            failures.push(format!("{id}: {now}\n    expected {expected}"));
        }
        if let Some(p) = &learned {
            assert!(p.consistent(&examples), "{id}: {p} is inconsistent");
        }
    }
    assert!(failures.is_empty(), "{} pin failures:\n{}", failures.len(), failures.join("\n"));
}

/// `(id, cap)`: the fewest memoized joint states with which the search
/// still reaches its uncapped program. Every example set here needs
/// more than one piece, so one state fewer learns nothing.
const CAPS: &[(&str, usize)] = &[
    ("fold/mixed_concat", 5),
    ("fold/ascii_and_accent", 5),
    ("prefix/suffix_pompano", 6),
    ("prefix/last_words", 3),
    ("phone/reformat", 3),
];

#[test]
fn state_cap_stops_the_search_at_the_pinned_count() {
    for (id, cap) in CAPS {
        let (_, rows, _) = PINS.iter().find(|(pin, _, _)| pin == id).expect("a pinned example set");
        let examples = examples(rows);
        let capped = |max_states| Learner { max_states, ..Learner::default() }.learn(&examples);
        let uncapped = learn(&examples);
        assert!(uncapped.is_some(), "{id}: the default learner learns");
        assert_eq!(capped(*cap), uncapped, "{id}: {cap} states reach the uncapped program");
        assert_eq!(capped(cap - 1), None, "{id}: {} states learn nothing", cap - 1);
    }
}
