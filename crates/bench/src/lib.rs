//! Experiment implementations for every quantitative claim and figure of
//! the paper (see `DESIGN.md`'s experiment index and `EXPERIMENTS.md` for
//! the paper-vs-measured record).
//!
//! Each experiment module exposes a `run(...)` returning structured
//! rows; the `harness` binary renders them as [`table`]s, and `harness
//! check` pins every seeded value against the golden reproduction
//! record, `tests/golden/reproduction.txt`, with wall-clock cells masked.

#![expect(
    clippy::disallowed_methods,
    reason = "experiment drivers measure wall time on purpose and manage their scratch dirs"
)]

pub mod ablations;
pub mod chaos_sweep;
pub mod e1_keystrokes;
pub mod e2_feedback;
pub mod e3_steiner;
pub mod e4_structure;
pub mod e5_column;
pub mod e6_semantic;
pub mod e7_linkage;
pub mod e8_figure4;
pub mod fault_recovery;
pub mod gen;
pub mod table;
pub mod transform_sweep;
