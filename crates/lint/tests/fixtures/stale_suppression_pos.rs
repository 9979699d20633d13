//! Positive fixture: a lint:allow that silences nothing is itself a
//! finding — suppressions cannot outlive the code they excused.

fn add(a: u32, b: u32) -> u32 {
    a + b // lint:allow(relaxed-atomics) this line touches no atomic at all
}
