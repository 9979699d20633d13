//! A small property-testing harness: seeded case generation,
//! tape-based shrink-on-failure, and regression-seed replay.
//!
//! A property is a closure over a [`Gen`]: it draws whatever random
//! structure it needs and returns `Err(message)` (or panics) on
//! failure. Under the hood every draw is recorded on a tape of `u64`s.
//! When a case fails, the harness shrinks the *tape* — truncating it,
//! deleting spans, and zeroing/halving entries — and re-runs the
//! property with draws replayed from the shrunk tape (exhausted tapes
//! draw zeros). Because every generator maps smaller tape words to
//! smaller/simpler values, tape minimization is value minimization,
//! without per-type shrinkers.
//!
//! Reproducibility: each case is fully determined by `(seed, case
//! index)`. A failure report names the failing case seed; putting that
//! seed in the `regressions` list of [`check`] replays it first on
//! every future run — the workflow that replaces
//! `proptest-regressions` files.

use crate::rng::{SeedableRng, StdRng};
use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Number of generated cases per property when not overridden.
pub const DEFAULT_CASES: u32 = 64;

/// Most property replays one shrink may spend. Every candidate tape
/// costs a full run of the property, and an expensive property (a whole
/// engine sequence) over a long tape would otherwise take minutes to
/// report; past the cap the report carries the smallest failing tape
/// found so far and says shrinking was cut short.
pub const MAX_SHRINK_REPLAYS: usize = 1_000;

/// The draw source handed to properties. Draws are recorded (or
/// replayed during shrinking) on a `u64` tape.
pub struct Gen {
    tape: Vec<u64>,
    pos: usize,
    rng: Option<StdRng>,
}

impl Gen {
    fn fresh(seed: u64) -> Gen {
        Gen { tape: Vec::new(), pos: 0, rng: Some(StdRng::seed_from_u64(seed)) }
    }

    fn replay(tape: Vec<u64>) -> Gen {
        Gen { tape, pos: 0, rng: None }
    }

    /// The raw next tape word.
    fn word(&mut self) -> u64 {
        if self.pos < self.tape.len() {
            let v = self.tape[self.pos];
            self.pos += 1;
            v
        } else if let Some(rng) = &mut self.rng {
            let v = rng.next_u64();
            self.tape.push(v);
            self.pos += 1;
            v
        } else {
            // Shrunk tape exhausted: the simplest draw.
            self.pos += 1;
            0
        }
    }

    /// A `usize` in `[lo, hi)`. Smaller tape words give smaller values,
    /// which is what makes tape shrinking shrink data.
    pub fn usize_in(&mut self, r: Range<usize>) -> usize {
        assert!(r.start < r.end, "empty range");
        let span = (r.end - r.start) as u64;
        r.start + (self.word() % span) as usize
    }

    /// An `i64` in `[lo, hi)`.
    pub fn i64_in(&mut self, r: Range<i64>) -> i64 {
        assert!(r.start < r.end, "empty range");
        let span = r.end.wrapping_sub(r.start) as u64;
        r.start.wrapping_add((self.word() % span) as i64)
    }

    /// A `u64` in `[lo, hi)`.
    pub fn u64_in(&mut self, r: Range<u64>) -> u64 {
        assert!(r.start < r.end, "empty range");
        r.start + self.word() % (r.end - r.start)
    }

    /// An `f64` in `[lo, hi)`.
    pub fn f64_in(&mut self, r: Range<f64>) -> f64 {
        let unit = (self.word() >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
        r.start + unit * (r.end - r.start)
    }

    /// `true` with probability `p`. Zero tape words give `false`.
    pub fn bool_p(&mut self, p: f64) -> bool {
        ((self.word() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)) < p
    }

    /// One element of a non-empty slice.
    pub fn choose<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        &items[self.usize_in(0..items.len())]
    }

    /// A string of `len` characters drawn from `alphabet`, with
    /// `len` in the given range. An all-zero tape yields a string of
    /// the minimum length repeating the first alphabet char.
    pub fn string_of(&mut self, alphabet: &str, len: Range<usize>) -> String {
        let chars: Vec<char> = alphabet.chars().collect();
        assert!(!chars.is_empty(), "empty alphabet");
        let n = self.usize_in(len);
        (0..n).map(|_| *self.choose(&chars)).collect()
    }

    /// A vector with length in `len`, elements built by `f`.
    pub fn vec_of<T>(&mut self, len: Range<usize>, mut f: impl FnMut(&mut Gen) -> T) -> Vec<T> {
        let n = self.usize_in(len);
        (0..n).map(|_| f(self)).collect()
    }
}

/// Outcome of one property execution.
fn run_once(
    prop: &dyn Fn(&mut Gen) -> Result<(), String>,
    gen: &mut Gen,
) -> Result<(), String> {
    match catch_unwind(AssertUnwindSafe(|| prop(gen))) {
        Ok(r) => r,
        Err(payload) => {
            let msg = payload
                .downcast_ref::<&str>()
                .map(|s| s.to_string())
                .or_else(|| payload.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "property panicked".to_string());
            Err(format!("panic: {msg}"))
        }
    }
}

/// A shrunk failure: the smallest failing tape found and its error.
struct Shrunk {
    tape: Vec<u64>,
    err: String,
    /// Whether [`MAX_SHRINK_REPLAYS`] ended shrinking early.
    capped: bool,
}

/// Shrink a failing tape: repeatedly try structural simplifications,
/// keeping any candidate that still fails the property, for at most
/// [`MAX_SHRINK_REPLAYS`] replays.
fn shrink(
    prop: &dyn Fn(&mut Gen) -> Result<(), String>,
    mut tape: Vec<u64>,
    mut last_err: String,
) -> Shrunk {
    let replays = std::cell::Cell::new(0);
    // Out of replays, every candidate counts as passing, so the passes
    // below run out without calling the property again.
    let fails = |candidate: &[u64]| -> Option<String> {
        if replays.get() == MAX_SHRINK_REPLAYS {
            return None;
        }
        replays.set(replays.get() + 1);
        let mut g = Gen::replay(candidate.to_vec());
        run_once(prop, &mut g).err()
    };
    // Bounded passes: each pass tries every simplification once.
    for _ in 0..8 {
        let mut improved = false;

        // 1. Truncate the tail (drop trailing halves first).
        let mut cut = tape.len() / 2;
        while cut > 0 {
            if tape.len() > cut {
                let candidate = tape[..tape.len() - cut].to_vec();
                if let Some(e) = fails(&candidate) {
                    tape = candidate;
                    last_err = e;
                    improved = true;
                    continue;
                }
            }
            cut /= 2;
        }

        // 2. Delete interior spans.
        let mut span = tape.len().max(1) / 2;
        while span > 0 {
            let mut i = 0;
            while i + span <= tape.len() {
                let mut candidate = tape.clone();
                candidate.drain(i..i + span);
                if let Some(e) = fails(&candidate) {
                    tape = candidate;
                    last_err = e;
                    improved = true;
                } else {
                    i += 1;
                }
            }
            span /= 2;
        }

        // 3. Minimize individual words: zero, then binary-search down.
        for i in 0..tape.len() {
            if tape[i] == 0 {
                continue;
            }
            let mut candidate = tape.clone();
            candidate[i] = 0;
            if let Some(e) = fails(&candidate) {
                tape = candidate;
                last_err = e;
                improved = true;
                continue;
            }
            let (mut lo, mut hi) = (0u64, tape[i]);
            while hi - lo > 1 {
                let mid = lo + (hi - lo) / 2;
                let mut candidate = tape.clone();
                candidate[i] = mid;
                match fails(&candidate) {
                    Some(e) => {
                        tape = candidate;
                        last_err = e;
                        hi = mid;
                        improved = true;
                    }
                    None => lo = mid,
                }
            }
        }

        if !improved || replays.get() == MAX_SHRINK_REPLAYS {
            break;
        }
    }
    Shrunk { tape, err: last_err, capped: replays.get() == MAX_SHRINK_REPLAYS }
}

/// Run a property over `cases` generated inputs, replaying every
/// `regressions` seed first. Panics with a replayable report on the
/// first (shrunk) failure.
///
/// The per-case seed is `hash(name) ^ case_index`, so adding cases to
/// one property never re-rolls another.
pub fn check(
    name: &str,
    cases: u32,
    regressions: &[u64],
    prop: impl Fn(&mut Gen) -> Result<(), String>,
) {
    let base = {
        // FxHash the name for a stable per-property seed base.
        use std::hash::{Hash, Hasher};
        let mut h = crate::hash::FxHasher::default();
        name.hash(&mut h);
        h.finish()
    };
    let replay_then_generated = regressions
        .iter()
        .copied()
        .map(|s| (s, true))
        .chain((0..cases as u64).map(|i| (base ^ i.wrapping_mul(0x9E37_79B9_7F4A_7C15), false)));
    for (seed, is_regression) in replay_then_generated {
        let mut gen = Gen::fresh(seed);
        if let Err(err) = run_once(&prop, &mut gen) {
            let shrunk = shrink(&prop, gen.tape.clone(), err.clone());
            panic!(
                "property {name:?} failed{}\n  seed: {seed:#x}{}\n  original failure: {err}\n  shrunk failure ({} draws{}): {}\n  \
                 replay: add {seed:#x} to this property's regression list",
                if is_regression { " (regression seed)" } else { "" },
                if is_regression { " (from regression list)" } else { "" },
                shrunk.tape.len(),
                if shrunk.capped {
                    format!("; shrinking stopped at the {MAX_SHRINK_REPLAYS}-replay cap")
                } else {
                    String::new()
                },
                shrunk.err,
            );
        }
    }
}

/// `prop_assert!`-style helper: returns `Err` from the enclosing
/// property instead of panicking (panics are also caught, but `Err`
/// carries a formatted message without unwinding).
#[macro_export]
macro_rules! prop_ensure {
    ($cond:expr) => {
        if !$cond {
            return Err(format!("assertion failed: {}", stringify!($cond)));
        }
    };
    ($cond:expr, $($arg:tt)+) => {
        if !$cond {
            return Err(format!("assertion failed: {}: {}", stringify!($cond), format!($($arg)+)));
        }
    };
}

/// `prop_assert_eq!` counterpart of [`prop_ensure!`].
#[macro_export]
macro_rules! prop_ensure_eq {
    ($a:expr, $b:expr) => {{
        let (a, b) = (&$a, &$b);
        if a != b {
            return Err(format!("assertion failed: {:?} != {:?}", a, b));
        }
    }};
    ($a:expr, $b:expr, $($arg:tt)+) => {{
        let (a, b) = (&$a, &$b);
        if a != b {
            return Err(format!("assertion failed: {:?} != {:?}: {}", a, b, format!($($arg)+)));
        }
    }};
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn passing_property_passes() {
        check("sum-commutes", 100, &[], |g| {
            let a = g.i64_in(-1000..1000);
            let b = g.i64_in(-1000..1000);
            prop_ensure_eq!(a + b, b + a);
            Ok(())
        });
    }

    #[test]
    fn failing_property_reports_and_shrinks() {
        let result = std::panic::catch_unwind(|| {
            check("all-below-100", 200, &[], |g| {
                let v = g.vec_of(0..20, |g| g.usize_in(0..1000));
                prop_ensure!(v.iter().all(|&x| x < 100), "saw {:?}", v);
                Ok(())
            });
        });
        let msg = *result.expect_err("must fail").downcast::<String>().unwrap();
        assert!(msg.contains("all-below-100"), "report names the property: {msg}");
        assert!(msg.contains("replay: add"), "report explains replay: {msg}");
    }

    #[test]
    fn shrinking_reaches_a_small_counterexample() {
        // The minimal failing vec for "no element >= 100" is one element
        // of value exactly 100; the shrunk tape should be tiny.
        let prop = |g: &mut Gen| -> Result<(), String> {
            let v = g.vec_of(0..20, |g| g.usize_in(0..1000));
            if v.iter().any(|&x| x >= 100) {
                Err(format!("saw {v:?}"))
            } else {
                Ok(())
            }
        };
        // Find a failing tape.
        let mut seed = 0;
        let (tape, err) = loop {
            let mut g = Gen::fresh(seed);
            match run_once(&prop, &mut g) {
                Err(e) => break (g.tape.clone(), e),
                Ok(()) => seed += 1,
            }
        };
        let shrunk = shrink(&prop, tape, err);
        assert!(!shrunk.capped);
        // Tape: one word for the length, one for the single element.
        assert!(shrunk.tape.len() <= 2, "tape not minimized: {:?}", shrunk.tape);
        assert!(shrunk.err.contains("[100]"), "value not minimized: {}", shrunk.err);
    }

    #[test]
    fn shrinking_stops_at_the_replay_cap() {
        // Fails while all 100 drawn words are nonzero: each word's
        // binary search down to 1 keeps failing, ~64 replays a word, so
        // a full shrink would need thousands of replays.
        let runs = std::cell::Cell::new(0);
        let prop = |g: &mut Gen| -> Result<(), String> {
            runs.set(runs.get() + 1);
            let words: Vec<u64> = (0..100).map(|_| g.u64_in(0..u64::MAX)).collect();
            if words.iter().all(|&w| w > 0) {
                Err(format!("first word {}", words[0]))
            } else {
                Ok(())
            }
        };
        let mut g = Gen::fresh(7);
        let err = run_once(&prop, &mut g).expect_err("a random draw is nonzero");
        runs.set(0);
        let shrunk = shrink(&prop, g.tape.clone(), err.clone());
        assert_eq!(runs.get(), MAX_SHRINK_REPLAYS);
        assert!(shrunk.capped);
        // Still a failing tape, shrunk as far as the cap allowed.
        let mut replay = Gen::replay(shrunk.tape.clone());
        assert_eq!(run_once(&prop, &mut replay), Err(shrunk.err));

        // The report keeps the seed and the original failure, and says
        // the cap ended shrinking.
        let report = catch_unwind(AssertUnwindSafe(|| check("capped-shrink", 1, &[7], prop)))
            .expect_err("must fail")
            .downcast::<String>()
            .expect("a formatted report");
        assert!(report.contains("seed: 0x7"), "{report}");
        assert!(report.contains(&format!("original failure: {err}")), "{report}");
        assert!(report.contains("shrinking stopped at the 1000-replay cap"), "{report}");
    }

    #[test]
    fn regression_seeds_run_first() {
        let hit = std::cell::Cell::new(false);
        check("regression-replay", 0, &[0xDEAD], |g| {
            hit.set(true);
            // Consume a draw so the tape is non-trivial.
            let _ = g.usize_in(0..10);
            Ok(())
        });
        assert!(hit.get(), "regression seed was not replayed");
    }

    #[test]
    fn cases_are_deterministic_per_name() {
        let collect = || {
            let seen = std::cell::RefCell::new(Vec::new());
            check("determinism-probe", 10, &[], |g| {
                seen.borrow_mut().push(g.u64_in(0..u64::MAX));
                Ok(())
            });
            seen.into_inner()
        };
        assert_eq!(collect(), collect());
    }
}
