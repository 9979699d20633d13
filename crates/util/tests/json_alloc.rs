//! Counting-allocator pin for JSON output: numbers and pretty-print
//! indentation are formatted straight into the output buffer, by both
//! `Json` and `ZRef`, with no heap string per number or per line. This
//! file holds exactly one test because the global allocator counts
//! every thread in the process.

use copycat_util::bench::CountingAlloc;
use copycat_util::json::Json;
use copycat_util::zjson::ZDoc;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc::new();

const NUMBERS: [f64; 12] = [
    0.0,
    -0.0,
    1.0,
    -2.5,
    3.25e-7,
    123_456_789.0,
    1e300,
    f64::MAX,
    f64::MIN_POSITIVE,
    f64::NAN,
    f64::INFINITY,
    f64::NEG_INFINITY,
];

/// Allocations `f` makes.
fn allocs(f: impl FnOnce()) -> u64 {
    let before = ALLOC.snapshot();
    f();
    ALLOC.snapshot().allocs_since(&before)
}

#[test]
fn numbers_and_indentation_write_without_heap_strings() {
    let doc = Json::Arr(NUMBERS.iter().map(|&n| Json::Num(n)).collect());
    // The output contract: `{n}` Display for finite values, `null` else.
    let texts: Vec<String> = NUMBERS
        .iter()
        .map(|n| if n.is_finite() { format!("{n}") } else { "null".to_string() })
        .collect();
    let expected = format!("[{}]", texts.join(","));

    let mut out = String::with_capacity(4 * expected.len());
    assert_eq!(allocs(|| doc.write_compact(&mut out)), 0, "Json::write_compact allocated");
    assert_eq!(out, expected);

    let mut zdoc = ZDoc::new();
    zdoc.parse(&expected).expect("parse");
    let root = zdoc.parse(&expected).expect("parse");
    let mut zout = String::with_capacity(4 * expected.len());
    assert_eq!(allocs(|| root.write(&mut zout)), 0, "ZRef::write allocated");
    assert_eq!(zout, expected);

    let nested = Json::obj(vec![(
        "a".to_string(),
        Json::Arr(vec![
            Json::Num(1.0),
            Json::Num(-0.0),
            Json::Arr(vec![Json::Num(2.5), Json::Num(f64::NAN)]),
        ]),
    )]);
    assert_eq!(
        nested.to_string_pretty(),
        "{\n  \"a\": [\n    1,\n    -0,\n    [\n      2.5,\n      null\n    ]\n  ]\n}"
    );

    // Pretty output allocates only as its one buffer grows: one
    // allocation per doubling, not one per number or per line.
    let deep = (0..6).fold(doc, |inner, _| Json::Arr(vec![inner.clone(), inner]));
    let mut len = 0;
    let made = allocs(|| len = deep.to_string_pretty().len());
    let doublings = u64::from(usize::BITS - len.leading_zeros());
    assert!(made <= doublings, "pretty output of {len} bytes made {made} allocations > {doublings}");
}
