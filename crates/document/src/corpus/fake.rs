//! Deterministic fake-data generation for the document-level corpora.
//!
//! The *semantic* world shared across services (streets that geocode, zips
//! that resolve) lives in `copycat-services`; this module only produces
//! plausible strings for document-structure experiments, plus controlled
//! string perturbation used by the record-linkage experiments (E7).

use copycat_util::rng::{Rng, SeedableRng, StdRng};

const FIRST_NAMES: &[&str] = &[
    "Ann", "Bob", "Carla", "David", "Elena", "Frank", "Grace", "Hector", "Irene", "James",
    "Keisha", "Luis", "Maria", "Nadia", "Omar", "Paula", "Quentin", "Rosa", "Sam", "Tina",
];
const LAST_NAMES: &[&str] = &[
    "Alvarez", "Brooks", "Chen", "Diaz", "Evans", "Foster", "Garcia", "Huang", "Ivanov",
    "Johnson", "Kim", "Lopez", "Miller", "Nguyen", "Ortiz", "Patel", "Quinn", "Rivera",
    "Smith", "Torres",
];
const STREET_NAMES: &[&str] = &[
    "Oak", "Maple", "Palmetto", "Cypress", "Hibiscus", "Atlantic", "Sunrise", "Coral",
    "Banyan", "Seagrape", "Pine Island", "Lyons", "Riverside", "Sample", "Wiles",
];
const STREET_SUFFIXES: &[&str] = &["St", "Ave", "Rd", "Blvd", "Dr", "Ln", "Way"];
const CITIES: &[&str] = &[
    "Coconut Creek", "Pompano Beach", "Fort Lauderdale", "Margate", "Coral Springs",
    "Deerfield Beach", "Tamarac", "Plantation", "Sunrise", "Hollywood",
];
const VENUE_KINDS: &[&str] = &[
    "High School", "Middle School", "Elementary", "Recreation Center", "Community Center",
    "Civic Center", "Church", "Park Pavilion",
];

/// A seeded generator of plausible emergency-response strings.
#[derive(Debug)]
pub struct Faker {
    rng: StdRng,
    counter: u32,
}

impl Faker {
    /// Create with a fixed seed; equal seeds yield equal output sequences.
    pub fn new(seed: u64) -> Self {
        Self { rng: StdRng::seed_from_u64(seed), counter: 0 }
    }

    fn pick<'a>(&mut self, items: &'a [&'a str]) -> &'a str {
        items[self.rng.gen_range(0..items.len())]
    }

    /// A person name like `Maria Lopez`.
    pub fn person(&mut self) -> String {
        format!("{} {}", self.pick(FIRST_NAMES), self.pick(LAST_NAMES))
    }

    /// A street address like `4213 Palmetto Ave`.
    pub fn street(&mut self) -> String {
        let num = self.rng.gen_range(100..9999);
        format!("{} {} {}", num, self.pick(STREET_NAMES), self.pick(STREET_SUFFIXES))
    }

    /// A city from the corpus region.
    pub fn city(&mut self) -> String {
        self.pick(CITIES).to_string()
    }

    /// A 5-digit zip in the corpus region (330xx/333xx).
    pub fn zip(&mut self) -> String {
        let block = if self.rng.gen_bool(0.5) { 330 } else { 333 };
        format!("{}{:02}", block, self.rng.gen_range(0..100))
    }

    /// A US-style phone number `(954) 555-0142`.
    pub fn phone(&mut self) -> String {
        format!("(954) 555-{:04}", self.rng.gen_range(100..10000))
    }

    /// A shelter/venue name like `Coconut Creek High School`. Guaranteed
    /// unique within one `Faker` (a numeric disambiguator is appended on
    /// collision-prone draws).
    pub fn shelter_name(&mut self) -> String {
        self.counter += 1;
        let city = self.pick(CITIES);
        let kind = self.pick(VENUE_KINDS);
        if self.rng.gen_bool(0.3) {
            format!("{} {} #{}", city, kind, self.counter)
        } else {
            format!("{} {}", city, kind)
        }
    }

    /// `n` shelter rows: `[name, street, city]`. Names are deduplicated.
    pub fn shelters(&mut self, n: usize) -> Vec<Vec<String>> {
        let mut seen = copycat_util::hash::FxHashSet::default();
        let mut rows = Vec::with_capacity(n);
        while rows.len() < n {
            let mut name = self.shelter_name();
            while !seen.insert(name.clone()) {
                self.counter += 1;
                name = format!("{} #{}", name, self.counter);
                // The loop re-inserts; collisions with the suffix are
                // impossible because the counter is fresh.
            }
            rows.push(vec![name, self.street(), self.city()]);
        }
        rows
    }

    /// Access the underlying RNG (for perturbation passes that should share
    /// the seed stream).
    pub fn rng(&mut self) -> &mut StdRng {
        &mut self.rng
    }
}

/// A kind of controlled string corruption for record-linkage workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PerturbKind {
    /// Swap two adjacent characters.
    Transpose,
    /// Delete one character.
    Delete,
    /// Replace one character with a neighbor in the alphabet.
    Substitute,
    /// Common abbreviation: `Street`→`St`, `High School`→`HS`, etc.
    Abbreviate,
    /// Change letter case of one word.
    Recase,
}

/// Apply `edits` random perturbations to `s`. Deterministic given the RNG
/// state. Used to make the "approximately matching" contact names of
/// Example 1.
pub fn perturb_string(rng: &mut StdRng, s: &str, edits: usize) -> String {
    const ABBREVS: &[(&str, &str)] = &[
        ("Street", "St"),
        ("Avenue", "Ave"),
        ("High School", "HS"),
        ("Middle School", "MS"),
        ("Recreation Center", "Rec Ctr"),
        ("Community Center", "Comm Ctr"),
        ("Boulevard", "Blvd"),
        ("Saint", "St."),
    ];
    let mut out = s.to_string();
    for _ in 0..edits {
        let kind = match rng.gen_range(0..5) {
            0 => PerturbKind::Transpose,
            1 => PerturbKind::Delete,
            2 => PerturbKind::Substitute,
            3 => PerturbKind::Abbreviate,
            _ => PerturbKind::Recase,
        };
        out = apply_one(rng, &out, kind, ABBREVS);
    }
    out
}

fn apply_one(rng: &mut StdRng, s: &str, kind: PerturbKind, abbrevs: &[(&str, &str)]) -> String {
    let chars: Vec<char> = s.chars().collect();
    if chars.len() < 2 {
        return s.to_string();
    }
    match kind {
        PerturbKind::Transpose => {
            let i = rng.gen_range(0..chars.len() - 1);
            let mut c = chars.clone();
            c.swap(i, i + 1);
            c.into_iter().collect()
        }
        PerturbKind::Delete => {
            let i = rng.gen_range(0..chars.len());
            let mut c = chars.clone();
            c.remove(i);
            c.into_iter().collect()
        }
        PerturbKind::Substitute => {
            let i = rng.gen_range(0..chars.len());
            let mut c = chars.clone();
            if c[i].is_ascii_alphabetic() {
                let base = if c[i].is_ascii_uppercase() { b'A' } else { b'a' };
                let off = (c[i] as u8 - base + 1) % 26;
                c[i] = (base + off) as char;
            }
            c.into_iter().collect()
        }
        PerturbKind::Abbreviate => {
            for (long, short) in abbrevs {
                if s.contains(long) {
                    return s.replacen(long, short, 1);
                }
            }
            s.to_string()
        }
        PerturbKind::Recase => {
            let words: Vec<&str> = s.split(' ').collect();
            if words.is_empty() {
                return s.to_string();
            }
            let i = rng.gen_range(0..words.len());
            let mut out: Vec<String> = words.iter().map(|w| w.to_string()).collect();
            out[i] = if out[i].chars().any(|c| c.is_lowercase()) {
                out[i].to_uppercase()
            } else {
                out[i].to_lowercase()
            };
            out.join(" ")
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use copycat_util::rng::SeedableRng;

    #[test]
    fn deterministic_given_seed() {
        let a: Vec<_> = {
            let mut f = Faker::new(7);
            f.shelters(5)
        };
        let b: Vec<_> = {
            let mut f = Faker::new(7);
            f.shelters(5)
        };
        assert_eq!(a, b);
    }

    #[test]
    fn shelter_names_unique() {
        let mut f = Faker::new(1);
        let rows = f.shelters(200);
        let names: copycat_util::hash::FxHashSet<_> = rows.iter().map(|r| &r[0]).collect();
        assert_eq!(names.len(), 200);
    }

    #[test]
    fn zip_and_phone_shapes() {
        let mut f = Faker::new(2);
        for _ in 0..50 {
            let z = f.zip();
            assert_eq!(z.len(), 5);
            assert!(z.chars().all(|c| c.is_ascii_digit()));
            let p = f.phone();
            assert!(p.starts_with("(954) 555-"));
        }
    }

    #[test]
    fn perturbation_changes_but_resembles() {
        let mut rng = StdRng::seed_from_u64(3);
        let orig = "Coconut Creek High School";
        let got = perturb_string(&mut rng, orig, 2);
        assert_ne!(got, orig);
        // Still shares a long common substring in most draws; at minimum
        // it must be non-empty and not wildly longer.
        assert!(!got.is_empty() && got.len() <= orig.len() + 4);
    }

    #[test]
    fn perturb_zero_edits_is_identity() {
        let mut rng = StdRng::seed_from_u64(4);
        assert_eq!(perturb_string(&mut rng, "abc", 0), "abc");
    }
}
