//! The session-scoped registry of semantic types.
//!
//! Mirrors CopyCat's model-learner UI contract (§3.2): the system proposes
//! a ranked list of type hypotheses for each column ("the most likely
//! hypothesis and the other hypotheses … in a drop down list"); the user
//! can accept, pick another, or *define a new type on the fly*, which is
//! then "immediately available in the same user session".
//!
//! Built-in types use the paper's `PR-` naming from Figure 1 (`PR-Street`,
//! `PR-City`, …) and are trained from deterministic synthetic samples,
//! once per process: every registry layers over the same trained list.

use crate::pattern::PatternSet;
use crate::recognize::{recognize_tokens, RecognitionScore, TokenizedColumn};
use std::sync::{Arc, OnceLock};

/// A named semantic type with its learned pattern model.
#[derive(Debug, Clone)]
pub struct SemanticType {
    /// Unique type name, e.g. `PR-Zip` or a user-chosen name.
    pub name: String,
    /// The learned pattern set.
    pub patterns: PatternSet,
    /// Whether this is one of the registry's built-ins.
    pub builtin: bool,
}

/// Registry of all semantic types known in this session.
///
/// A registry is either *flat* (it owns every type — [`TypeRegistry::empty`])
/// or *layered* over a shared immutable base ([`TypeRegistry::with_base`]):
/// the trained built-in models live once in an `Arc` shared by every
/// session, and a session stores only the types it defined plus
/// copy-on-write clones of any base type it refined. Iteration order is
/// identical either way — base types in base order (refined copies
/// substituted in place), then session-local types — so recognition
/// ranking and session persistence cannot tell the representations
/// apart.
#[derive(Debug, Clone, Default)]
pub struct TypeRegistry {
    /// The shared immutable prefix, if layered.
    base: Option<Arc<Vec<SemanticType>>>,
    /// Copy-on-write clones of refined base types, keyed by base index.
    /// Sparse — a session rarely touches a built-in — so a Vec beats a
    /// map.
    overrides: Vec<(usize, SemanticType)>,
    /// Session-local types (and, for flat registries, every type).
    types: Vec<SemanticType>,
}

/// Default score threshold below which no type is proposed.
pub const DEFAULT_RECOGNITION_THRESHOLD: f64 = 0.35;

impl TypeRegistry {
    /// An empty registry (no built-ins).
    pub fn empty() -> Self {
        Self::default()
    }

    /// A registry layered over a shared frozen type list (see
    /// [`TypeRegistry::freeze`]). Reads see the base until this session
    /// refines a type; writes copy the touched entry locally.
    pub fn with_base(base: Arc<Vec<SemanticType>>) -> Self {
        Self { base: Some(base), ..Self::default() }
    }

    /// Freeze the current (merged) type list into a shareable base for
    /// [`TypeRegistry::with_base`].
    pub fn freeze(&self) -> Arc<Vec<SemanticType>> {
        Arc::new(self.iter().cloned().collect())
    }

    /// Whether this registry layers over a shared base.
    pub fn has_base(&self) -> bool {
        self.base.is_some()
    }

    /// The base entry at `i`, with this session's refinement substituted
    /// if one exists.
    fn base_at(&self, i: usize) -> &SemanticType {
        if let Some(t) = self.overrides.iter().find(|(j, _)| *j == i).map(|(_, t)| t) {
            return t;
        }
        // Callers only pass indices below the base length.
        &self.base.as_ref().expect("base_at on flat registry")[i]
    }

    /// All types in canonical order: base (with refinements substituted)
    /// then session-local.
    pub fn iter(&self) -> impl Iterator<Item = &SemanticType> {
        let n = self.base.as_ref().map_or(0, |b| b.len());
        (0..n).map(move |i| self.base_at(i)).chain(self.types.iter())
    }

    /// Find the merged entry for `name`, materializing a copy-on-write
    /// override when it lives in the base.
    fn entry_mut(&mut self, name: &str) -> Option<&mut SemanticType> {
        if let Some(base) = &self.base {
            if let Some(i) = base.iter().position(|t| t.name == name) {
                if !self.overrides.iter().any(|(j, _)| *j == i) {
                    self.overrides.push((i, base[i].clone()));
                }
                return self.overrides.iter_mut().find(|(j, _)| *j == i).map(|(_, t)| t);
            }
        }
        self.types.iter_mut().find(|t| t.name == name)
    }

    /// A registry with the built-in `PR-*` types, layered over the
    /// process-wide trained list (see [`builtin_types`]): refinements
    /// stay session-local, exactly as on a shared world.
    pub fn with_builtins() -> Self {
        Self::with_base(Arc::clone(builtin_types()))
    }

    /// Install a curated pattern model under a type name (replacing any
    /// existing model).
    pub fn set_curated(&mut self, name: &str, patterns: PatternSet) {
        match self.entry_mut(name) {
            Some(t) => t.patterns = patterns,
            None => self.types.push(SemanticType {
                name: name.to_string(),
                patterns,
                builtin: true,
            }),
        }
    }

    /// All type names, registry order (built-ins first).
    pub fn names(&self) -> Vec<&str> {
        self.iter().map(|t| t.name.as_str()).collect()
    }

    /// Look up a type by name.
    pub fn get(&self, name: &str) -> Option<&SemanticType> {
        self.iter().find(|t| t.name == name)
    }

    /// Define (or refine) a type from example values. Defining an existing
    /// name refines that type's pattern set — this is the on-the-fly user
    /// type definition path. Refining a shared built-in copies it into
    /// this session first; siblings never see the refinement.
    pub fn learn_type<S: AsRef<str>>(&mut self, name: &str, values: &[S]) {
        match self.entry_mut(name) {
            Some(t) => {
                for v in values {
                    t.patterns.add(v.as_ref());
                }
            }
            None => self.types.push(SemanticType {
                name: name.to_string(),
                patterns: PatternSet::learn(values),
                builtin: false,
            }),
        }
    }

    /// Rank every known type against a column of values, best first. Ties
    /// break on type name for determinism. Types scoring `0` are omitted.
    pub fn recognize_column<S: AsRef<str>>(&self, values: &[S]) -> Vec<(String, RecognitionScore)> {
        let column = TokenizedColumn::new(values);
        let mut counts = Vec::new();
        let mut scored: Vec<(String, RecognitionScore)> = self
            .iter()
            .filter_map(|t| {
                let s = recognize_tokens(&t.patterns, &column, &mut counts);
                (s.score > 0.0).then(|| (t.name.clone(), s))
            })
            .collect();
        scored.sort_by(|(an, a), (bn, b)| {
            b.score
                .partial_cmp(&a.score)
                .expect("scores are finite")
                .then_with(|| an.cmp(bn))
        });
        scored
    }

    /// The single best hypothesis at or above `threshold`, if any.
    pub fn best<S: AsRef<str>>(&self, values: &[S], threshold: f64) -> Option<(String, RecognitionScore)> {
        self.recognize_column(values)
            .into_iter()
            .next()
            .filter(|(_, s)| s.score >= threshold)
    }

    /// The user-defined (non-builtin) types, for session persistence.
    pub fn user_types(&self) -> Vec<&SemanticType> {
        self.iter().filter(|t| !t.builtin).collect()
    }

    /// Install a user-defined type with an explicit pattern model
    /// (session restore). Replaces any same-named type.
    pub fn install_user_type(&mut self, name: &str, patterns: PatternSet) {
        match self.entry_mut(name) {
            Some(t) => {
                t.patterns = patterns;
                t.builtin = false;
            }
            None => self.types.push(SemanticType {
                name: name.to_string(),
                patterns,
                builtin: false,
            }),
        }
    }

    /// Number of registered types.
    pub fn len(&self) -> usize {
        self.base.as_ref().map_or(0, |b| b.len()) + self.types.len()
    }

    /// True when no types are registered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// The built-in `PR-*` types, trained on first use and shared by every
/// registry in the process.
///
/// Most built-ins are learned from deterministic samples; `PR-City`
/// and `PR-Person` use curated pattern models instead, because both
/// are capitalized-word sequences and only their *distributions*
/// (persons are always two tokens; city names are one to three)
/// separate them — exactly the distribution-similarity test of §3.2.
fn builtin_types() -> &'static Arc<Vec<SemanticType>> {
    static BUILTINS: OnceLock<Arc<Vec<SemanticType>>> = OnceLock::new();
    BUILTINS.get_or_init(|| {
        use crate::pattern::{Pattern, PatternToken};
        use crate::token::TokenClass;
        let mut reg = TypeRegistry::empty();
        for (name, samples) in builtin_samples() {
            reg.types.push(SemanticType {
                name: name.to_string(),
                patterns: PatternSet::learn(&samples),
                builtin: true,
            });
        }
        let cap = || PatternToken::Class(TokenClass::CapWord);
        let caps = |n: usize| Pattern::new((0..n).map(|_| cap()).collect());
        reg.set_curated(
            "PR-City",
            PatternSet::from_weighted(vec![(caps(2), 65), (caps(1), 20), (caps(3), 15)]),
        );
        reg.set_curated("PR-Person", PatternSet::from_weighted(vec![(caps(2), 100)]));
        Arc::new(reg.types)
    })
}

/// Deterministic training samples for each built-in type.
fn builtin_samples() -> Vec<(&'static str, Vec<String>)> {
    let street_names = [
        "Oak", "Maple", "Palmetto", "Cypress", "Atlantic", "Sunrise", "Coral", "Banyan",
        "Riverside", "Lyons",
    ];
    let suffixes = ["St", "Ave", "Rd", "Blvd", "Dr", "Ln", "Way"];
    let streets: Vec<String> = (0..70)
        .map(|i| {
            format!(
                "{} {} {}",
                117 + i * 97 % 9000,
                street_names[i % street_names.len()],
                suffixes[i % suffixes.len()]
            )
        })
        .collect();

    let cities: Vec<String> = [
        "Coconut Creek", "Pompano Beach", "Fort Lauderdale", "Margate", "Coral Springs",
        "Deerfield Beach", "Tamarac", "Plantation", "Sunrise", "Hollywood", "Miami",
        "Orlando", "Boca Raton", "Delray Beach", "Lake Worth", "West Palm Beach",
    ]
    .iter()
    .map(|s| s.to_string())
    .collect();

    let states: Vec<String> = [
        "FL", "GA", "AL", "SC", "NC", "TX", "LA", "MS", "TN", "VA", "NY", "CA", "PA", "OH",
    ]
    .iter()
    .map(|s| s.to_string())
    .collect();

    let zips: Vec<String> = (0..60).map(|i| format!("{:05}", 33000 + i * 137 % 67000)).collect();

    let phones: Vec<String> = (0..40)
        .map(|i| {
            if i % 2 == 0 {
                format!("({}) 555-{:04}", 200 + i * 17 % 800, 1000 + i * 83 % 9000)
            } else {
                format!("{}-555-{:04}", 200 + i * 19 % 800, 1000 + i * 89 % 9000)
            }
        })
        .collect();

    let first = ["Ann", "Bob", "Carla", "David", "Elena", "Frank", "Grace", "Hector"];
    let last = ["Alvarez", "Brooks", "Chen", "Diaz", "Evans", "Foster", "Garcia", "Huang"];
    let people: Vec<String> = (0..40)
        .map(|i| format!("{} {}", first[i % first.len()], last[(i * 3 + 1) % last.len()]))
        .collect();

    let dates: Vec<String> = (0..36)
        .map(|i| match i % 3 {
            0 => format!("{:02}/{:02}/{}", 1 + i % 12, 1 + i * 2 % 28, 2000 + i % 10),
            1 => format!("{}-{:02}-{:02}", 2000 + i % 10, 1 + i % 12, 1 + i * 2 % 28),
            _ => {
                let months = ["Jan", "Feb", "Mar", "Apr", "May", "Jun"];
                format!("{} {}, {}", months[i % 6], 1 + i * 2 % 28, 2000 + i % 10)
            }
        })
        .collect();

    let latlons: Vec<String> = (0..30)
        .map(|i| format!("{}.{:04}, -{}.{:04}", 25 + i % 5, i * 313 % 10000, 80 + i % 3, i * 677 % 10000))
        .collect();

    let currency: Vec<String> = (0..30)
        .map(|i| format!("${}.{:02}", 5 + i * 37 % 2000, i * 7 % 100))
        .collect();

    let emails: Vec<String> = (0..24)
        .map(|i| format!("user{}@example{}.org", i, i % 3))
        .collect();

    let urls: Vec<String> = (0..24)
        .map(|i| format!("http://www.site{}.com/page{}", i % 5, i))
        .collect();

    let ssns: Vec<String> = (0..30)
        .map(|i| format!("{:03}-{:02}-{:04}", 100 + i * 13 % 900, 10 + i * 7 % 90, 1000 + i * 311 % 9000))
        .collect();

    vec![
        ("PR-Street", streets),
        ("PR-City", cities),
        ("PR-State", states),
        ("PR-Zip", zips),
        ("PR-Phone", phones),
        ("PR-Person", people),
        ("PR-Date", dates),
        ("PR-LatLon", latlons),
        ("PR-Currency", currency),
        ("PR-Email", emails),
        ("PR-URL", urls),
        ("PR-SSN", ssns),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn reg() -> TypeRegistry {
        TypeRegistry::with_builtins()
    }

    #[test]
    fn builtins_present() {
        let r = reg();
        assert!(r.len() >= 12);
        assert!(r.get("PR-Zip").is_some());
        assert!(r.get("PR-Street").is_some());
    }

    #[test]
    fn builtins_are_trained_once_and_shared() {
        let (a, b) = (reg(), reg());
        assert!(a.has_base() && b.has_base());
        assert!(Arc::ptr_eq(a.base.as_ref().unwrap(), b.base.as_ref().unwrap()));
        assert!(a.iter().all(|t| t.builtin));
        assert!(a.user_types().is_empty());
    }

    #[test]
    fn learned_type_recognizes_non_ascii_training_data() {
        let mut r = reg();
        let train = ["12 m²", "40 km²", "7 cm²", "300 mm²"];
        r.learn_type("Area", &train);
        let (name, score) = r.best(&train, DEFAULT_RECOGNITION_THRESHOLD).expect("recognized");
        assert_eq!(name, "Area");
        assert_eq!(score.coverage, 1.0);
    }

    #[test]
    fn recognizes_zip_column() {
        let r = reg();
        let (name, score) = r.best(&["33063", "33441", "33302"], 0.3).expect("recognized");
        assert_eq!(name, "PR-Zip");
        assert!(score.score > 0.5);
    }

    #[test]
    fn recognizes_street_column() {
        let r = reg();
        let col = ["4213 Palmetto Ave", "88 Oak St", "910 Lyons Rd"];
        let ranked = r.recognize_column(&col);
        assert_eq!(ranked[0].0, "PR-Street", "got {ranked:?}");
    }

    #[test]
    fn recognizes_phone_column() {
        let r = reg();
        let col = ["(954) 555-0142", "(305) 555-9871"];
        assert_eq!(r.recognize_column(&col)[0].0, "PR-Phone");
    }

    #[test]
    fn city_vs_person_are_distinguishable_types() {
        let r = reg();
        let cities = ["Coconut Creek", "Margate", "Tamarac"];
        let ranked = r.recognize_column(&cities);
        // City must rank above Street/Zip/Phone; Person is an acceptable
        // confusion (both are capitalized word sequences).
        let city_pos = ranked.iter().position(|(n, _)| n == "PR-City");
        let street_pos = ranked.iter().position(|(n, _)| n == "PR-Street");
        assert!(city_pos.is_some());
        assert!(street_pos.is_none() || city_pos < street_pos);
    }

    #[test]
    fn unknown_shape_yields_nothing_above_threshold() {
        let r = reg();
        assert!(r.best(&["@@@@", "####"], 0.3).is_none());
    }

    #[test]
    fn user_defined_type_is_immediately_available() {
        let mut r = reg();
        // A FEMA shelter code the built-ins don't know.
        let train: Vec<String> = (0..20).map(|i| format!("SHL-{:04}", 1000 + i)).collect();
        r.learn_type("ShelterCode", &train);
        let (name, _) = r.best(&["SHL-9999", "SHL-0001"], 0.3).expect("recognized");
        assert_eq!(name, "ShelterCode");
        assert!(!r.get("ShelterCode").unwrap().builtin);
    }

    #[test]
    fn refining_existing_type_extends_it() {
        let mut r = TypeRegistry::empty();
        r.learn_type("Code", &["A-1", "B-2"]);
        let before = r.get("Code").unwrap().patterns.total();
        r.learn_type("Code", &["C-3"]);
        assert_eq!(r.get("Code").unwrap().patterns.total(), before + 1);
        assert_eq!(r.len(), 1);
    }

    #[test]
    fn ranking_is_deterministic() {
        let r = reg();
        let col = ["Coconut Creek", "Margate"];
        assert_eq!(r.recognize_column(&col), r.recognize_column(&col));
    }

    #[test]
    fn layered_registry_is_indistinguishable_from_flat() {
        let flat = TypeRegistry { types: reg().iter().cloned().collect(), ..TypeRegistry::empty() };
        assert!(!flat.has_base());
        let layered = TypeRegistry::with_base(flat.freeze());
        assert!(layered.has_base());
        assert_eq!(layered.len(), flat.len());
        assert_eq!(layered.names(), flat.names());
        let col = ["33063", "33441", "33302"];
        assert_eq!(layered.recognize_column(&col), flat.recognize_column(&col));
        assert!(layered.get("PR-Zip").is_some_and(|t| t.builtin));
        assert!(layered.user_types().is_empty());
    }

    #[test]
    fn layered_refinements_stay_session_local() {
        let base = reg().freeze();
        let mut a = TypeRegistry::with_base(Arc::clone(&base));
        let b = TypeRegistry::with_base(Arc::clone(&base));
        // Session A refines a built-in and defines its own type.
        let before = a.get("PR-Zip").unwrap().patterns.total();
        a.learn_type("PR-Zip", &["99999-1234"]);
        assert_eq!(a.get("PR-Zip").unwrap().patterns.total(), before + 1);
        let train: Vec<String> = (0..20).map(|i| format!("SHL-{:04}", 1000 + i)).collect();
        a.learn_type("ShelterCode", &train);
        assert_eq!(a.len(), base.len() + 1);
        // A's order: base order with the refinement in place, then local.
        assert_eq!(a.names().last().copied(), Some("ShelterCode"));
        // Sibling B and the base are untouched.
        assert_eq!(b.get("PR-Zip").unwrap().patterns.total(), before);
        assert_eq!(b.len(), base.len());
        assert!(b.get("ShelterCode").is_none());
        // Refined built-ins stay builtin (not persisted); replaced ones
        // become user types (persisted).
        assert!(a.get("PR-Zip").unwrap().builtin);
        assert!(a.user_types().iter().all(|t| t.name != "PR-Zip"));
        a.install_user_type("PR-Zip", crate::pattern::PatternSet::learn(&["00000"]));
        assert!(a.user_types().iter().any(|t| t.name == "PR-Zip"));
    }
}
