//! Session durability for the serving layer.
//!
//! The line-delimited request protocol is already a replayable command
//! stream, and the engine is deterministic: `clippy.toml` bans
//! wall-clock reads and randomly seeded std hash maps outside their
//! sanctioned owners, and copycat-serve's replay tests
//! (`tests/durability.rs`, the `-- crash` scenario transcripts) require
//! a replayed session to answer byte for byte like the original. So
//! crash recovery can be *replay*: persist the acknowledged requests,
//! and rebuilding a session is re-running them. This crate owns the disk
//! half of that story:
//!
//! - [`wal`] — a per-session append-only log of request payloads.
//!   Records are LEB128 length-prefixed and CRC-32 checksummed
//!   ([`copycat_util::varint`], [`copycat_util::checksum`]), appended
//!   through a group-commit buffer so one `fsync` can cover a batch.
//!   Reading tolerates a torn tail: the machine dying mid-write costs
//!   at most the unacknowledged suffix.
//! - [`snapshot`] — an atomically-replaced (`tmp` + rename) checkpoint
//!   of the session, written so the WAL can be truncated instead of
//!   growing without bound.
//! - [`store`] — [`store::SessionStore`], the pairing of the two: an
//!   append/sync/snapshot API on the write side and a
//!   snapshot-plus-WAL-tail [`store::Recovery`] on the read side, with
//!   the sequence-number bookkeeping that makes a crash *between*
//!   snapshot and WAL truncation harmless (replay skips records the
//!   snapshot already covers).
//!
//! The crate is payload-agnostic: callers log UTF-8 lines (protocol
//! requests) and snapshot opaque strings. What those strings mean —
//! and the proof that replaying them reproduces the pre-crash session
//! byte-for-byte — lives in copycat-serve's durable layer and its
//! kill-and-recover property test.

pub mod io;
pub mod snapshot;
pub mod store;
pub mod wal;

pub use io::{FaultKind, FaultPlan, Fs, RealFs, SimFs, StoreFile, StoreFs};
pub use snapshot::Snapshot;
pub use store::{Recovery, RecoveryReport, SessionStore, StoreStats};
pub use wal::{SyncStats, Wal, WalReadOutcome};
