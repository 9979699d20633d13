//! Type recognition pinned as a golden corpus.
//!
//! `tests/golden/recognition_corpus.txt` holds one row per column:
//!
//! ```text
//! <label>\t<values as a JSON array>\t<ranking>
//! ```
//!
//! The ranking is the full [`TypeRegistry::recognize_column`] result,
//! best first, one `name:coverage:similarity:score` entry per type
//! (space-separated), each score component written as the hex of
//! `f64::to_bits` — so any change to the arithmetic, not just to the
//! order, shows as a diff. Columns cover the registry's unit-test
//! columns, the shelter and contact columns of seeded synthetic worlds,
//! seeded mixed and garbage columns, empty and all-whitespace columns,
//! one column per built-in type, and types learned from non-ASCII
//! values.
//!
//! To version a deliberate recognition change, regenerate and commit:
//!
//! ```sh
//! UPDATE_GOLDEN=1 cargo test -p copycat-semantic --test recognition_corpus
//! ```

#![expect(clippy::disallowed_methods, reason = "reads and regenerates its golden file")]

use copycat_semantic::TypeRegistry;
use copycat_services::{World, WorldConfig};
use copycat_util::json::write_escaped;
use copycat_util::rng::{Rng, SeedableRng, StdRng};
use std::path::PathBuf;

fn golden_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/recognition_corpus.txt")
}

fn row(label: &str, reg: &TypeRegistry, values: &[String]) -> String {
    let mut out = format!("{label}\t[");
    for (i, v) in values.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        write_escaped(&mut out, v);
    }
    out.push_str("]\t");
    let ranking: Vec<String> = reg
        .recognize_column(values)
        .iter()
        .map(|(name, s)| {
            format!(
                "{name}:{:016x}:{:016x}:{:016x}",
                s.coverage.to_bits(),
                s.similarity.to_bits(),
                s.score.to_bits()
            )
        })
        .collect();
    out.push_str(&ranking.join(" "));
    out
}

fn strings(values: &[&str]) -> Vec<String> {
    values.iter().map(|v| v.to_string()).collect()
}

/// Values a learned type must recognize as its own (see the `bugfix/`
/// rows): alphanumeric runs holding chars that are neither alphabetic
/// nor ASCII digits.
const AREAS: [&str; 4] = ["12 m²", "40 km²", "7 cm²", "300 mm²"];
const EASTERN_DIGITS: [&str; 4] = ["١٢٣", "٤٥", "٦٧٨٩", "٠"];

fn corpus_rows() -> Vec<String> {
    let builtins = TypeRegistry::with_builtins();
    let mut rows = Vec::new();

    // The registry's unit-test columns.
    let unit: [(&str, &[&str]); 8] = [
        ("zip", &["33063", "33441", "33302"]),
        ("street", &["4213 Palmetto Ave", "88 Oak St", "910 Lyons Rd"]),
        ("phone", &["(954) 555-0142", "(305) 555-9871"]),
        ("cities", &["Coconut Creek", "Margate", "Tamarac"]),
        ("unknown_shape", &["@@@@", "####"]),
        ("shelter_codes", &["SHL-9999", "SHL-0001"]),
        ("two_cities", &["Coconut Creek", "Margate"]),
        ("code", &["A-1", "B-2", "C-3"]),
    ];
    for (label, values) in unit {
        rows.push(row(&format!("unit/{label}"), &builtins, &strings(values)));
    }
    let mut learned = TypeRegistry::with_builtins();
    let train: Vec<String> = (0..20).map(|i| format!("SHL-{:04}", 1000 + i)).collect();
    learned.learn_type("ShelterCode", &train);
    learned.learn_type("PR-Zip", &["99999-1234"]);
    for (label, values) in unit {
        rows.push(row(&format!("learned/{label}"), &learned, &strings(values)));
    }

    // The integrate workload's worlds: every shelter and contact column.
    for seed in 1..=8 {
        let world = World::generate(&WorldConfig { seed, venues: 10, ..WorldConfig::default() });
        for (sheet, table) in [("shelter", world.shelter_rows()), ("contact", world.contact_rows())] {
            let arity = table.iter().map(Vec::len).max().unwrap_or(0);
            for col in 0..arity {
                let values: Vec<String> = table.iter().filter_map(|r| r.get(col).cloned()).collect();
                rows.push(row(&format!("world{seed}/{sheet}/{col}"), &builtins, &values));
            }
        }
    }

    // One column per built-in type.
    let per_type: [(&str, &[&str]); 12] = [
        ("PR-Street", &["117 Oak St", "5021 Maple Ave", "88 Coral Way", "4213 Palmetto Blvd"]),
        ("PR-City", &["Pompano Beach", "Miami", "West Palm Beach", "Boca Raton"]),
        ("PR-State", &["FL", "GA", "TX", "NY"]),
        ("PR-Zip", &["33063", "90210", "10001", "60614"]),
        ("PR-Phone", &["(954) 555-0142", "305-555-9871", "(212) 555-1000", "404-555-7777"]),
        ("PR-Person", &["Ann Chen", "Bob Diaz", "Grace Huang", "Hector Evans"]),
        ("PR-Date", &["03/14/2009", "2009-01-07", "Feb 3, 2008", "12/01/2001"]),
        ("PR-LatLon", &["26.1224, -80.1373", "25.7617, -80.1918", "27.9506, -82.4572"]),
        ("PR-Currency", &["$5.00", "$1234.56", "$19.99", "$200.10"]),
        ("PR-Email", &["ann@example.org", "user7@site2.com", "bob@mail.net"]),
        ("PR-URL", &["http://www.site1.com/page3", "http://www.example.org/index", "http://a.com/b"]),
        ("PR-SSN", &["123-45-6789", "987-65-4321", "555-12-3456"]),
    ];
    for (ty, values) in per_type {
        rows.push(row(&format!("builtin/{ty}"), &builtins, &strings(values)));
    }

    // Seeded mixed columns (values drawn across types) and garbage.
    let pool: Vec<&str> = per_type.iter().flat_map(|(_, v)| v.iter().copied()).collect();
    let mut rng = StdRng::seed_from_u64(2009);
    for i in 0..16 {
        let n = rng.gen_range(1..9);
        let values: Vec<String> = (0..n).map(|_| pool[rng.gen_range(0..pool.len())].to_string()).collect();
        rows.push(row(&format!("mixed/{i}"), &builtins, &values));
    }
    let alphabet: Vec<char> = "aZ09 -/.,$@()é²١\t".chars().collect();
    for i in 0..16 {
        let n = rng.gen_range(1..7);
        let values: Vec<String> = (0..n)
            .map(|_| {
                let len = rng.gen_range(0..12);
                (0..len).map(|_| alphabet[rng.gen_range(0..alphabet.len())]).collect()
            })
            .collect();
        rows.push(row(&format!("garbage/{i}"), &builtins, &values));
    }

    // Empty and all-whitespace columns.
    let blank: [(&str, &[&str]); 4] = [
        ("none", &[]),
        ("empty_string", &[""]),
        ("whitespace", &["  ", "\t", " \n "]),
        ("mostly_blank", &["", "  ", "33063"]),
    ];
    for (label, values) in blank {
        rows.push(row(&format!("blank/{label}"), &builtins, &strings(values)));
    }

    // Types learned from values whose alphanumeric runs hold chars that
    // are neither alphabetic nor ASCII digits.
    let mut unicode = TypeRegistry::with_builtins();
    unicode.learn_type("Area", &AREAS);
    unicode.learn_type("EasternDigits", &EASTERN_DIGITS);
    let probes: [(&str, &[&str]); 4] = [
        ("area_training", &AREAS),
        ("area_unseen", &["9 m²", "1200 km²"]),
        ("eastern_training", &EASTERN_DIGITS),
        ("zip", &["33063", "33441", "33302"]),
    ];
    for (label, values) in probes {
        rows.push(row(&format!("bugfix/{label}"), &unicode, &strings(values)));
    }
    rows
}

#[test]
fn recognition_matches_the_golden_corpus() {
    let rows = corpus_rows();
    let path = golden_path();
    if std::env::var("UPDATE_GOLDEN").is_ok() {
        let text: String = rows.iter().map(|r| format!("{r}\n")).collect();
        std::fs::create_dir_all(path.parent().expect("golden dir")).expect("golden dir");
        std::fs::write(&path, text).expect("write corpus");
        return;
    }
    let corpus = std::fs::read_to_string(&path).expect("committed recognition corpus");
    let expected: Vec<&str> = corpus.lines().collect();
    assert_eq!(expected.len(), rows.len(), "corpus row count");
    for (n, (want, got)) in expected.iter().zip(&rows).enumerate() {
        assert_eq!(got, want, "corpus row {} diverged", n + 1);
    }
}
