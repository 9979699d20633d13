//! The CopyCat *model learner* (§3.2 of the CIDR 2009 paper).
//!
//! Two responsibilities:
//!
//! 1. **Semantic types** — learn and recognize the semantic types of data
//!    columns (street, city, zip, phone, …). The approach follows the
//!    paper's description of [Lerman et al. 2007]: build *patterns* for
//!    each field from "both the constants in the data fields and
//!    generalized tokens that describe the data, such as capitalized word,
//!    3-digit number", and recognize new columns by testing whether "the
//!    distribution of matched patterns is statistically similar to the
//!    matches on the training data". See [`pattern`] and [`recognize`].
//!
//! 2. **Source functions** — learn what a source *does* "by relating it to
//!    a set of known sources" and "comparing the similarity of the
//!    results" (the Carman & Knoblock line of work the paper builds on).
//!    See [`function`].
//!
//! The [`registry::TypeRegistry`] is the session-scoped catalog: a type
//! learned from the first source "will be immediately available in the
//! same user session" for recognizing later sources. Value transforms
//! learned from examples (§5) belong to `copycat-transform`.

pub mod function;
pub mod pattern;
pub mod recognize;
pub mod registry;
pub mod token;

pub use function::{FunctionLearner, IoExample, KnownFunction, SourceDescription};
pub use pattern::{Pattern, PatternSet, PatternToken};
pub use recognize::{recognize, RecognitionScore};
pub use registry::{SemanticType, TypeRegistry};
pub use token::{tokenize_value, TokenClass, ValueToken};
