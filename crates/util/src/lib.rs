//! Hermetic in-tree runtime for the CopyCat workspace.
//!
//! The reproduction must build and test on any machine, offline, first
//! try — so nothing in this workspace may depend on the crates.io
//! registry. This crate provides dependency-free replacements for the
//! small slices of external-crate API the system actually uses:
//!
//! - [`rng`] — a seedable, deterministic PRNG (SplitMix64-seeded
//!   xoshiro256++) with a `rand`-style `StdRng`/`SeedableRng`/`Rng`
//!   surface (`gen_range`, `gen_bool`, `shuffle`).
//! - [`hash`] — the FxHash function with `FxHashMap`/`FxHashSet`
//!   aliases (replaces `rustc-hash`).
//! - [`json`] — a JSON value type and serializer, plus the
//!   derive-free [`json::ToJson`]/[`json::FromJson`] trait pair
//!   (replaces `serde`/`serde_json`).
//! - [`check`] — a small property-testing harness with seeded case
//!   generation, tape-based shrinking, and regression-seed replay
//!   (replaces `proptest`).
//! - [`bench`] — a micro-benchmark harness with warmup and
//!   median/p95 reporting (replaces `criterion`).
//! - [`sync`] — non-poisoning `Mutex`/`RwLock` wrappers over `std`
//!   (replaces `parking_lot`).
//! - [`hist`] — lock-free fixed-bucket latency histograms with
//!   p50/p99 estimates (the metrics registry's primitive).
//! - [`checksum`] — CRC-32 (IEEE) for WAL records and snapshots
//!   (replaces `crc32fast`).
//! - [`varint`] — LEB128 length prefixes for the WAL's record framing
//!   (replaces `integer-encoding`).
//! - [`zjson`] — the JSON parser: a zero-copy flat DOM in which
//!   escape-free strings become spans into the input line, and a warm
//!   doc parses with zero heap allocations. [`Json::parse`] is an
//!   owning walk over it.
//!
//! Every generator in this crate is deterministic per seed, so bench
//! tables and property tests are bit-reproducible across runs on the
//! same machine.

pub mod bench;
pub mod check;
pub mod checksum;
pub mod hash;
pub mod hist;
pub mod json;
pub mod rng;
pub mod sync;
pub mod varint;
pub mod zjson;

pub use hash::{FxBuildHasher, FxHashMap, FxHashSet, FxHasher};
pub use json::{FromJson, Json, JsonError, ToJson};
pub use rng::{Rng, SeedableRng, StdRng};
