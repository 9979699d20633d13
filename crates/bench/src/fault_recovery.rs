//! F2 — recovery under storage fault injection, plus the zero-cost
//! guard for the `StoreFs` abstraction.
//!
//! Two measurements back the storage-fault work:
//!
//! * **Sweep** — the serve-level crash storm ([`run_crash_storm`]) at
//!   several injection strides on the simulated filesystem: every fault
//!   kind (short writes, torn appends, failed/lying fsyncs, bit flips,
//!   partial reads, ENOSPC) armed at strided I/O operations of a seeded
//!   workload, each run followed by kill, recovery, and the
//!   no-silent-loss property check. Rows report the loss accounting
//!   (`acked == recovered + quarantined + tail_lost`) and the mean wall
//!   time of one kill-and-recover cycle. The storm runs entirely on
//!   `SimFs`, so the loss numbers are machine-independent; only the
//!   timing column is wall clock.
//!
//! * **Overhead guard** — the production path runs the *real*
//!   filesystem through the same `StoreFs` trait (`Fs::real()`, one
//!   `Arc` deref + vtable call per I/O). [`run_overhead`] times an
//!   identical WAL-shaped append+fsync loop through `Fs::real()` and
//!   through `std::fs` directly; the fsyncs dominate both sides, so the
//!   ratio must stay ~1. The `fs_trait_overhead_is_negligible` test
//!   pins this with generous slack, guarding against the abstraction
//!   ever growing a measurable cost on the S2 kill-and-recover path.

use copycat_serve::smoke::run_crash_storm;
use copycat_store::Fs;
use std::io::Write;
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// One stride of the fault-injection recovery sweep.
#[derive(Debug, Clone)]
pub struct FaultRecoveryRow {
    /// Injection stride: a fault is armed at every `stride`-th I/O op.
    pub stride: u64,
    /// I/O operations in the fault-free workload (injection points).
    pub workload_ops: u64,
    /// Kill-and-recover runs (fault kinds × strided injection points).
    pub runs: u64,
    /// Runs where the armed fault actually fired.
    pub faults_fired: u64,
    /// Acked effects across all runs.
    pub acked: u64,
    /// Acked effects byte-identically present after recovery.
    pub recovered: u64,
    /// Acked effects explicitly quarantined by recovery.
    pub quarantined: u64,
    /// Acked effects explicitly reported as lost unsynced tail.
    pub tail_lost: u64,
    /// Acked effects unaccounted for (must be zero).
    pub silent_losses: u64,
    /// Probe responses checked across all recoveries.
    pub probes: u64,
    /// Mean wall time of one workload + kill + recover + probe cycle.
    pub mean_run_us: u64,
}

/// Run the crash-storm sweep at each stride. Panics if any run
/// silently loses an acked effect — that is a correctness bug, not a
/// data point.
pub fn run(seed: u64, strides: &[u64]) -> Vec<FaultRecoveryRow> {
    strides
        .iter()
        .map(|&stride| {
            let started = Instant::now();
            let r = run_crash_storm(seed, stride)
                .unwrap_or_else(|e| panic!("crash storm (stride {stride}): {e}"));
            let mean_run_us = started.elapsed().as_micros() as u64 / r.runs.max(1);
            FaultRecoveryRow {
                stride,
                workload_ops: r.workload_ops,
                runs: r.runs,
                faults_fired: r.faults_fired,
                acked: r.acked,
                recovered: r.recovered,
                quarantined: r.quarantined,
                tail_lost: r.tail_lost,
                silent_losses: r.silent_losses,
                probes: r.probes,
                mean_run_us,
            }
        })
        .collect()
}

/// The `StoreFs`-trait overhead measurement: one WAL-shaped
/// append+fsync loop through `Fs::real()` and one through `std::fs`.
#[derive(Debug, Clone)]
pub struct OverheadRow {
    /// Records appended per side.
    pub records: u64,
    /// `fsync`s issued per side (one per `sync_every` records).
    pub syncs: u64,
    /// Wall time through the `StoreFs` trait (`Fs::real()`).
    pub via_trait: Duration,
    /// Wall time through `std::fs` directly.
    pub via_std: Duration,
    /// `via_trait / via_std`; ~1.0 when the trait is a free passthrough.
    pub ratio: f64,
}

fn overhead_root() -> PathBuf {
    std::env::temp_dir().join(format!("copycat-fs-overhead-{}", std::process::id()))
}

/// A WAL-record-sized payload: varint-framed header plus ~100 bytes of
/// JSON, matching what one journaled request writes.
fn payload(i: u64) -> Vec<u8> {
    format!(
        "{:02x}{:02x}CRC!{{\"id\":{i},\"op\":\"paste\",\"session\":\"bench\",\
         \"doc\":0,\"values\":[\"row-{i}\",\"{i} Oak St\",\"CityA\"]}}\n",
        i & 0x7f,
        (i >> 7) & 0x7f
    )
    .into_bytes()
}

/// Time the same append+fsync loop both ways. The loop is the S2
/// kill-and-recover journal hot path in miniature: open append, write a
/// record, fsync every `sync_every` records.
#[expect(
    clippy::disallowed_types,
    reason = "the StoreFs overhead guard times a raw std::fs loop as its baseline"
)]
pub fn run_overhead(records: u64, sync_every: u64) -> OverheadRow {
    let root = overhead_root();
    let _ = std::fs::remove_dir_all(&root);
    std::fs::create_dir_all(&root).expect("overhead root");

    let fs = Fs::real();
    let started = Instant::now();
    let mut file = fs.open_append(&root.join("trait.wal")).expect("open via trait");
    for i in 0..records {
        file.write_all(&payload(i)).expect("append via trait");
        if (i + 1) % sync_every == 0 {
            file.sync_data().expect("sync via trait");
        }
    }
    let via_trait = started.elapsed();

    let started = Instant::now();
    let mut file = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(root.join("std.wal"))
        .expect("open via std");
    for i in 0..records {
        file.write_all(&payload(i)).expect("append via std");
        if (i + 1) % sync_every == 0 {
            file.sync_data().expect("sync via std");
        }
    }
    let via_std = started.elapsed();

    let _ = std::fs::remove_dir_all(&root);
    let ratio = via_trait.as_secs_f64() / via_std.as_secs_f64().max(1e-9);
    OverheadRow { records, syncs: records / sync_every, via_trait, via_std, ratio }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_rows_account_for_every_acked_effect() {
        let rows = run(0xBE7C, &[23]);
        assert_eq!(rows.len(), 1);
        let r = &rows[0];
        assert!(r.runs > 0 && r.faults_fired > 0, "{r:?}");
        assert_eq!(r.silent_losses, 0, "{r:?}");
        assert_eq!(r.acked, r.recovered + r.quarantined + r.tail_lost, "{r:?}");
    }

    /// Satellite guard: the `StoreFs` trait must not make the real
    /// durable path measurably slower than raw `std::fs`. Both sides
    /// issue the same fsyncs, which dominate; the bound is deliberately
    /// generous (4x + 50ms absolute slack) so only a real regression —
    /// an added copy, lock, or allocation per record — can trip it.
    #[test]
    fn fs_trait_overhead_is_negligible() {
        let o = run_overhead(512, 64);
        assert!(
            o.via_trait <= o.via_std * 4 + Duration::from_millis(50),
            "StoreFs trait path regressed vs raw std::fs: {o:?}"
        );
    }
}
