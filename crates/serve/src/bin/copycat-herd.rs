//! The copycat-herd binary: the sessions-per-GiB smoke.
//!
//! ```text
//! copycat-herd [sessions]
//! ```
//!
//! Creates 10k (or `sessions`) copy-on-write sessions over one shared
//! world on one in-process server, probes a sample end to end, and
//! exits non-zero if a probe fails or the marginal memory cost falls
//! below the sessions-per-GiB floor. It is its own binary because
//! measuring live bytes needs a counting global allocator, which would
//! tax every allocation `copycat-serve` makes.

// Failures end in an exit code naming them, never a panic (the serve
// library's rule, see its crate root).
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented
)]

use copycat_serve::server::{Server, ServerConfig};
use copycat_serve::smoke;
use copycat_util::bench::CountingAlloc;
use std::process::ExitCode;

/// Counting allocator so the herd can measure live-byte growth.
#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc::new();

/// Minimum copy-on-write sessions that must fit in one GiB. Measured
/// marginal cost is ~1.6 KiB/session (~650k sessions/GiB); the floor
/// asserts the title claim — 100k sessions in well under a gigabyte —
/// with generous headroom against allocator and platform variance.
const HERD_SESSIONS_PER_GB_FLOOR: f64 = 100_000.0;

fn main() -> ExitCode {
    let sessions = std::env::args().nth(1).and_then(|v| v.parse().ok()).unwrap_or(10_000);
    let server = Server::new(ServerConfig { workers: 4, queue_depth: 128, shards: 256 });
    let report =
        smoke::run_herd(&server, sessions, HERD_SESSIONS_PER_GB_FLOOR, &|| ALLOC.snapshot());
    server.shutdown();
    match report {
        Ok(r) => {
            println!(
                "herd: {} shared-world sessions, {:.0} B/session marginal, \
                 {:.0} sessions/GiB (floor {:.0}), {} probes ok",
                r.sessions,
                r.marginal_bytes_per_session,
                r.sessions_per_gb,
                HERD_SESSIONS_PER_GB_FLOOR,
                r.probes_ok
            );
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("herd FAILED: {e}");
            ExitCode::from(1)
        }
    }
}
