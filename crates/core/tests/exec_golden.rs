//! Golden executor output: one fixed plan of every operator shape, run
//! through `execute_reported` and rendered with every value, every
//! provenance polynomial and the `ExecReport` in full. The expected
//! text in `golden/exec_shapes.txt` pins the executor's observable
//! behaviour — output order, null handling, cross-type key matching,
//! ⊗/⊕ provenance structure, query labels and degraded reports — so
//! internal rewrites of the executor must reproduce it exactly.

use copycat_query::{
    execute, execute_reported, Catalog, Field, FnService, Plan, Predicate, Relation, Schema,
    Service, Signature, Value,
};
use copycat_services::Flaky;
use std::fmt::Write;
use std::sync::Arc;

const GOLDEN: &str = include_str!("golden/exec_shapes.txt");

fn strings(rows: &[&[&str]]) -> Vec<Vec<String>> {
    rows.iter()
        .map(|r| r.iter().map(|s| s.to_string()).collect())
        .collect()
}

fn catalog() -> Catalog {
    let cat = Catalog::new();
    cat.add_relation(Relation::from_strings(
        "shelters",
        Schema::new(vec![
            Field::new("Name"),
            Field::new("Street"),
            Field::typed("City", "PR-City"),
        ]),
        &strings(&[
            &["Creek HS", "100 Oak St", "Margate"],
            &["Rec Ctr", "200 Elm Ave", "Tamarac"],
            &["Civic", "300 Pine Rd", "Margate"],
            &["Annex", "", "Tamarac"],
            &["", "400 Bay Dr", ""],
            &["Creek HS", "100 Oak St", "Margate"],
        ]),
    ));
    cat.add_relation(Relation::from_strings(
        "contacts",
        Schema::of(&["Venue", "Phone"]),
        &strings(&[
            &["Creek HS", "555-0101"],
            &["Civic", "555-0103"],
            &["", "555-0199"],
            &["Creek HS", "555-0111"],
        ]),
    ));
    cat.add_relation(Relation::from_strings(
        "sites",
        Schema::of(&["Street", "City", "Capacity"]),
        &strings(&[
            &["100 Oak St", "Margate", "250"],
            &["200 Elm Ave", "Margate", "90"],
            &["200 Elm Ave", "Tamarac", "120.5"],
            &["", "Tamarac", "10"],
        ]),
    ));
    // Numeric keys on one side, textual ones on the other: `Num(5)`
    // equals `Str("5")`, so these join across the two representations.
    // `-0` equals `"0"` too; it hashes as `0`, so that row joins as well.
    cat.add_relation(Relation::from_rows(
        "ranks",
        Schema::of(&["Rank", "Tier"]),
        vec![
            vec![Value::Num(1.0), Value::str("gold")],
            vec![Value::Num(2.0), Value::str("silver")],
            vec![Value::Num(3.0), Value::str("bronze")],
            vec![Value::Num(-0.0), Value::str("none")],
        ],
    ));
    cat.add_relation(Relation::from_rows(
        "codes",
        Schema::of(&["Code", "Label"]),
        vec![
            vec![Value::str("1"), Value::str("one")],
            vec![Value::str("02"), Value::str("two")],
            vec![Value::str("3.0"), Value::str("three")],
            vec![Value::str("0"), Value::str("zero")],
            vec![Value::str("x"), Value::str("ex")],
        ],
    ));
    let zips = FnService::new(
        "zip_resolver",
        Signature {
            inputs: Schema::of(&["street", "city"]),
            outputs: Schema::new(vec![Field::typed("Zip", "PR-Zip"), Field::new("Plus4")]),
        },
        |inp: &[Value]| match inp[1].as_text().as_str() {
            "Margate" => vec![
                vec![Value::str("33063")],
                vec![Value::str("33068"), Value::str("1234")],
            ],
            "Tamarac" => vec![vec![Value::str("33321"), Value::Null]],
            _ => vec![],
        },
    );
    let zips: Arc<dyn Service> = Arc::new(zips);
    cat.add_service(Arc::clone(&zips));
    // Half the calls fail, deterministically: down, too slow, or
    // truncated — the report must record each one in call order.
    cat.add_service(Arc::new(Flaky::new(
        Arc::new(copycat_query::Renamed::new("flaky_zip", zips)),
        0.5,
        40,
        7,
    )));
    cat
}

fn cases() -> Vec<(&'static str, Plan)> {
    let program = copycat_transform::learn(&[
        ("100 Oak St".to_string(), "Oak".to_string()),
        ("200 Elm Ave".to_string(), "Elm".to_string()),
    ])
    .expect("a consistent program");
    vec![
        ("scan", Plan::scan("shelters")),
        (
            "select_project",
            Plan::scan("shelters")
                .select(Predicate::Eq { column: "City".into(), value: Value::str("Margate") })
                .project(&["City", "Name"]),
        ),
        (
            "select_and_not_null",
            Plan::scan("sites").select(Predicate::And(vec![
                Predicate::NotNull { column: "Street".into() },
                Predicate::Eq { column: "Capacity".into(), value: Value::str("120.5") },
            ])),
        ),
        ("derive", Plan::scan("shelters").derive("Street", "Word", program)),
        (
            "join_null_keys",
            Plan::scan("shelters").join(Plan::scan("contacts"), &[("Name", "Venue")]),
        ),
        (
            "join_multi_column",
            Plan::scan("shelters")
                .join(Plan::scan("sites"), &[("Street", "Street"), ("City", "City")]),
        ),
        (
            "join_cross_type_keys",
            Plan::scan("ranks").join(Plan::scan("codes"), &[("Rank", "Code")]),
        ),
        (
            "join_name_clash",
            Plan::scan("sites").join(Plan::scan("sites"), &[("City", "City")]),
        ),
        (
            "dependent_join",
            Plan::scan("shelters").dependent_join("zip_resolver", &["Street", "City"]),
        ),
        (
            "dependent_join_flaky",
            Plan::scan("shelters")
                .join(Plan::scan("sites"), &[("City", "City")])
                .dependent_join("flaky_zip", &["Street", "City"]),
        ),
        (
            "union",
            Plan::Union {
                inputs: vec![
                    Plan::scan("shelters").project(&["Name", "City"]),
                    Plan::scan("contacts").project(&["Venue", "Phone"]),
                    Plan::scan("sites").project(&["City", "Street"]),
                ],
            },
        ),
        ("distinct", Plan::scan("shelters").project(&["City"]).distinct()),
        (
            "distinct_after_join",
            Plan::scan("shelters")
                .join(Plan::scan("contacts"), &[("Name", "Venue")])
                .project(&["Name", "City"])
                .distinct(),
        ),
        ("limit", Plan::scan("contacts").limit(2)),
        (
            "limit_over_join",
            Plan::scan("shelters").join(Plan::scan("contacts"), &[("Name", "Venue")]).limit(1),
        ),
        ("unknown_relation", Plan::scan("nope").join(Plan::scan("shelters"), &[("A", "Name")])),
        ("unknown_column", Plan::scan("shelters").project(&["Nope"])),
        (
            "binding_arity",
            Plan::scan("shelters").dependent_join("zip_resolver", &["City"]),
        ),
        ("empty_union", Plan::Union { inputs: vec![] }),
    ]
}

fn render() -> String {
    let cat = catalog();
    let mut out = String::new();
    for (name, plan) in cases() {
        writeln!(out, "== {name}: {plan}").unwrap();
        match execute_reported(&plan, &cat, "Q:golden") {
            Ok((rel, report)) => {
                writeln!(out, "schema {:?}", rel.schema().fields()).unwrap();
                for t in rel.tuples() {
                    writeln!(out, "{:?} {:?}", t.values, t.provenance).unwrap();
                }
                writeln!(out, "report {:?}", report.failures).unwrap();
            }
            Err(e) => writeln!(out, "error {e:?}").unwrap(),
        }
        // The unlabeled entry point yields the same rows, unwrapped.
        let plain = execute(&plan, &cat).map(|r| r.len());
        writeln!(out, "unlabeled {plain:?}").unwrap();
    }
    out
}

#[test]
fn every_plan_shape_matches_the_golden_output() {
    let actual = render();
    if actual != GOLDEN {
        for (i, (a, g)) in actual.lines().zip(GOLDEN.lines()).enumerate() {
            if a != g {
                panic!("first difference at line {}:\n  actual: {a}\n  golden: {g}", i + 1);
            }
        }
        panic!(
            "output has {} lines, golden has {}:\n{actual}",
            actual.lines().count(),
            GOLDEN.lines().count()
        );
    }
}
