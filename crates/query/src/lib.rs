//! The CopyCat query engine.
//!
//! Plays the role ORCHESTRA plays in the paper (§2.3): an in-memory
//! relational engine whose executor annotates every answer tuple with a
//! provenance polynomial, so that "feedback on auto-complete data [can be
//! converted] into feedback over the queries that created the data".
//!
//! * [`value`], [`schema`], [`tuple`], [`relation`] — the data model;
//! * [`service`] — callable sources with input binding restrictions
//!   ("services can be modeled as relations that take input parameters",
//!   §4);
//! * [`catalog`] — the system catalog of source relations and services;
//! * [`plan`] — logical plans: scan, select, project, hash join,
//!   *dependent join* (the bind-join of Figure 2's Zipcode Resolver),
//!   union with null-padding, distinct, limit;
//! * [`exec`] — the provenance-annotating executor.

pub mod catalog;
pub mod exec;
pub mod plan;
pub mod relation;
pub mod schema;
pub mod service;
pub mod tuple;
pub mod value;

pub use catalog::Catalog;
pub use exec::{
    execute, execute_counted, execute_reported, output_schema, ExecError, ExecReport,
    ServiceFailure,
};
pub use plan::{Plan, Predicate};
pub use relation::Relation;
pub use schema::{Field, Schema};
pub use service::{CallOutcome, FnService, Renamed, Service, ServiceError, Signature};
pub use tuple::Tuple;
pub use value::Value;
