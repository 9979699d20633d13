//! copycat-serve — a multi-tenant session server for the CopyCat
//! engine.
//!
//! The paper's CopyCat is a single-user desktop tool; this crate is the
//! headless serving layer that hosts *many* interactive sessions at
//! once, one engine per tenant, behind a line-delimited JSON protocol:
//!
//! - [`registry`] — FxHash-sharded session registry; per-session mutex,
//!   per-shard `RwLock`, cross-tenant concurrency.
//! - [`deadline`] — per-request budgets spanning wall time *and* the
//!   virtual latency of fault-injected services.
//! - [`metrics`] — per-class counters + fixed-bucket latency
//!   histograms (p50/p99), readable via the `stats` request.
//! - [`protocol`] — the request/response grammar (see `DESIGN.md`,
//!   "Serving layer"); parsing borrows the request line (zero-copy).
//! - [`server`] — the admission gate (bounded permits and waiters,
//!   explicit `overloaded` rejection), dispatch on the caller's thread,
//!   graceful drain; its [`Server::handle_line`] is the in-process
//!   transport.
//! - [`router`] — consistent-hash placement across N in-process
//!   shards, per-session WAL + snapshot durability (via
//!   `copycat-store`), kill-and-recover by deterministic replay, and
//!   live session migration by checkpoint handoff.
//! - [`tcp`] — the socket transport (`copycat-serve` binary).
//! - [`smoke`] — the scenario runner: replays `>>`/`<<` transcripts
//!   (with `-- crash` killing and recovering a durable router against a
//!   never-crashed control) and requires them byte for byte; plus the
//!   crash-storm sweep (the reproduction's F2 table) and the herd smoke.
//!   `copycat-serve replay` and the golden test drive it.
//!
//! Responses carry no timing, so a request script is byte-deterministic
//! whether sessions are driven sequentially or concurrently; latency is
//! observable only through the metrics registry.

pub mod deadline;
pub mod metrics;
pub mod protocol;
pub mod registry;
pub mod router;
pub mod server;
pub mod smoke;
pub mod tcp;

pub use deadline::Deadline;
pub use metrics::{ClassMetrics, Metrics};
pub use protocol::{err_response, ok_response, ErrorKind, Op, Request};
pub use registry::{RegistryError, Session, SessionRegistry, SessionState};
pub use router::{MigrationReport, Router, RouterConfig};
pub use server::{Server, ServerConfig};
