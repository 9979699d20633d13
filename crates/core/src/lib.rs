//! CopyCat: the Smart Copy & Paste engine (CIDR 2009).
//!
//! This crate assembles the substrates — document model, structure
//! learner, model learner, record linkage, provenance-annotated query
//! engine, simulated services, and the source-graph integration learner —
//! into the system the paper describes: a tabbed, spreadsheet-like
//! [`workspace`] that *watches* paste operations, *generalizes* them into
//! wrappers and queries, proposes row and column [`autocomplete`]
//! suggestions with provenance-backed [`explain`]ations, and learns from
//! feedback ([`engine`]).
//!
//! ```
//! use copycat_core::scenario::{Scenario, ScenarioConfig};
//!
//! // Build the hurricane-relief scenario of Example 1 and import the
//! // shelter Web site from a single pasted example row.
//! let mut s = Scenario::build(&ScenarioConfig::default());
//! let imported = s.import_shelters(1);
//! assert_eq!(imported, s.shelter_rows.len());
//!
//! // The engine now suggests a Zip column via the zip-resolver service.
//! let suggestions = s.engine.column_suggestions();
//! assert!(suggestions
//!     .iter()
//!     .any(|c| c.new_fields.iter().any(|f| f.name == "Zip")));
//! ```

pub mod autocomplete;
pub mod cache;
pub mod engine;
pub mod explain;
pub mod export;
pub mod formsvc;
pub mod scenario;
pub mod session;
pub mod simulator;
pub mod workspace;
pub mod world_base;

pub use autocomplete::{ColumnSuggestion, ScoredQuery};
pub use cache::{CacheStats, QueryCache};
pub use engine::{CopyCat, EditEffect, LearnedTransform, Mode, TransformSuggestion, TupleRejection};
pub use explain::{explain, explain_row, Explanation};
pub use formsvc::FormService;
pub use scenario::{Scenario, ScenarioConfig};
pub use simulator::{ActionLog, ColumnOrigin, CostModel, TaskShape};
pub use workspace::{Row, RowState, Tab, Workspace};
pub use world_base::WorldBase;
