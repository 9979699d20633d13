//! Counting-allocator pin for the learner's search: `learn` on the
//! `integrate` benchmark's request (three identity pairs of venue
//! names, world seed 3) and on T1's phone reformat each stays within a
//! fixed allocation budget. This file holds exactly one test because
//! the global allocator counts every thread in the process.

use copycat_transform::learn;
use copycat_util::bench::CountingAlloc;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc::new();

/// Allocations `learn` may make on the venue identity triple. It made
/// 2,818 while the search copied a token list per tokenizer, a folded
/// string per candidate and a whole sub-program per memo hit; 79 since
/// it borrows tokens, folds in place and keeps back-pointers.
const VENUE_BUDGET: u64 = 96;
/// Allocations `learn` may make on the phone reformat: 3,179 then, 170
/// since.
const PHONE_BUDGET: u64 = 204;

fn pairs(rows: &[(&str, &str)]) -> Vec<(String, String)> {
    rows.iter().map(|(i, o)| (i.to_string(), o.to_string())).collect()
}

/// The program `learn` finds on `examples`, rendered, and the
/// allocations the call made.
fn counted(examples: &[(String, String)]) -> (String, u64) {
    let before = ALLOC.snapshot();
    let program = learn(examples);
    let allocs = ALLOC.snapshot().allocs_since(&before);
    (program.expect("learnable").to_string(), allocs)
}

#[test]
fn learn_allocation_budget() {
    let venues = pairs(&[
        ("Coconut Creek Civic Center", "Coconut Creek Civic Center"),
        ("Tamarac Civic Center", "Tamarac Civic Center"),
        ("Coconut Creek Community Center", "Coconut Creek Community Center"),
    ]);
    let phone = pairs(&[("(954) 555-0101", "954-555-0101")]);
    let (venue_program, venue) = counted(&venues);
    let (phone_program, phone) = counted(&phone);
    assert_eq!((venue_program.as_str(), phone_program.as_str()), ("input", "\"954-555-0101\""));
    eprintln!("allocations: venue identity {venue}, phone reformat {phone}");
    assert!(venue <= VENUE_BUDGET, "venue identity: {venue} allocations > {VENUE_BUDGET}");
    assert!(phone <= PHONE_BUDGET, "phone reformat: {phone} allocations > {PHONE_BUDGET}");
}
