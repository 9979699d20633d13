//! [`SessionStore`]: one session's durable state — generational
//! snapshots plus the WAL tail behind them — with the sequencing that
//! ties the files together.
//!
//! Write path: [`append`](SessionStore::append) assigns the next
//! sequence number and buffers the record,
//! [`sync`](SessionStore::sync) group-commits the batch, and
//! [`snapshot`](SessionStore::snapshot) installs the next snapshot
//! generation and *compacts* the log: every record at or before the
//! **previous** generation's seq is dropped (write-temp-rename, so a
//! crash at any cut point leaves a complete log). Keeping one
//! generation's worth of extra records is what makes snapshot fallback
//! sound — if the newest generation is corrupt, the previous one plus
//! the longer retained tail still reconstructs the full session.
//!
//! Read path: [`SessionStore::recover`] walks snapshot generations
//! newest-first (skipping corrupt ones), replays the log with
//! corruption quarantine, skips records the chosen snapshot already
//! covers, and reports everything it discarded in a typed
//! [`RecoveryReport`] — lost interior sequence numbers are *listed*,
//! never silently absent. Corrupt snapshot files and WAL garbage are
//! cleaned out of the directory so the next crash starts from a
//! verified-good state.

use crate::io::Fs;
use crate::snapshot::{self, Snapshot};
use crate::wal::{SyncStats, Wal, WAL_FILE};
use std::path::{Path, PathBuf};

/// Observable accounting for one store.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StoreStats {
    /// Records appended over this store's lifetime (not the on-disk
    /// count — snapshots compact the log).
    pub appends: u64,
    /// Snapshots installed.
    pub snapshots: u64,
    /// WAL fsync accounting.
    pub sync: SyncStats,
}

/// Typed loss accounting for one recovery. Every byte the recovery
/// discarded is attributed here; "recovered cleanly" and "recovered
/// with explicit, enumerated loss" are the only two outcomes — silent
/// truncation is not one.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// WAL records replayed on top of the snapshot.
    pub records_replayed: u64,
    /// Bytes of torn WAL tail discarded (0 on a clean shutdown).
    pub torn_tail_bytes: u64,
    /// Sequence numbers lost to interior WAL corruption: they fall
    /// between the snapshot and the newest surviving record but no
    /// intact copy exists. Empty on a healthy log.
    pub quarantined: Vec<u64>,
    /// Interior WAL bytes skipped to resynchronize past corruption.
    pub quarantined_bytes: u64,
    /// WAL records skipped because the snapshot already covered them
    /// (the crash-between-snapshot-and-compaction window, plus the
    /// fallback cushion generational retention keeps on purpose).
    pub already_snapshotted: u64,
    /// Generation number of the snapshot recovered from (0 = none).
    pub snapshot_generation: u64,
    /// Newer snapshot generations skipped as corrupt.
    pub generations_skipped: u64,
    /// Highest sequence number the recovered state covers. Acked
    /// records beyond this were lost with the tail (and are countable
    /// by the caller, who knows what it acked).
    pub last_seq: u64,
}

impl RecoveryReport {
    /// Whether recovery had to discard anything at all.
    pub fn lossless(&self) -> bool {
        self.torn_tail_bytes == 0
            && self.quarantined.is_empty()
            && self.quarantined_bytes == 0
            && self.generations_skipped == 0
    }
}

/// What [`SessionStore::recover`] reconstructed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Recovery {
    /// The snapshot payload, when one was recovered.
    pub snapshot: Option<String>,
    /// WAL records after the snapshot, in append order.
    pub tail: Vec<String>,
    /// Loss accounting for this recovery.
    pub report: RecoveryReport,
}

/// One session's durable snapshot + WAL pair.
#[derive(Debug)]
pub struct SessionStore {
    fs: Fs,
    dir: PathBuf,
    wal: Wal,
    /// Sequence number of the last appended record (0 = none yet).
    seq: u64,
    /// Sequence number the current snapshot covers (0 = no snapshot).
    snapshot_seq: u64,
    /// Newest installed snapshot generation (0 = none).
    generation: u64,
    /// `wal.stats().bytes_synced` as of the last snapshot — the zero
    /// point for [`wal_bytes_since_snapshot`](Self::wal_bytes_since_snapshot).
    synced_at_snapshot: u64,
    appends: u64,
    snapshots: u64,
}

impl SessionStore {
    /// Open a fresh store in `dir` (created if needed). Fails if the
    /// directory already holds session state — use
    /// [`recover`](SessionStore::recover) for that.
    pub fn create(fs: &Fs, dir: &Path) -> std::io::Result<SessionStore> {
        fs.create_dir_all(dir)?;
        let has_snapshot = !snapshot::list_generations(fs, dir)?.is_empty();
        let has_wal = fs.file_len(&dir.join(WAL_FILE)).map(|l| l > 0).unwrap_or(false);
        if has_snapshot || has_wal {
            return Err(std::io::Error::other(format!(
                "session store at {} already has state; recover it instead",
                dir.display()
            )));
        }
        let wal = Wal::open(fs, &dir.join(WAL_FILE))?;
        Ok(SessionStore {
            fs: fs.clone(),
            dir: dir.to_path_buf(),
            wal,
            seq: 0,
            snapshot_seq: 0,
            generation: 0,
            synced_at_snapshot: 0,
            appends: 0,
            snapshots: 0,
        })
    }

    /// Buffer one record, returning its assigned sequence number. Not
    /// durable until [`sync`](SessionStore::sync) returns.
    pub fn append(&mut self, payload: &str) -> u64 {
        self.seq += 1;
        self.appends += 1;
        self.wal.append(self.seq, payload);
        self.seq
    }

    /// Group-commit everything appended so far.
    pub fn sync(&mut self) -> std::io::Result<()> {
        self.wal.sync()
    }

    /// Records appended since the last snapshot (one compaction
    /// trigger the durable layer polls).
    pub fn records_since_snapshot(&self) -> u64 {
        self.seq - self.snapshot_seq
    }

    /// Bytes group-committed to the WAL since the last snapshot — the
    /// compaction trigger that bounds log growth even when individual
    /// records are huge. Pure arithmetic on sync accounting: no
    /// syscall on the journaling hot path.
    pub fn wal_bytes_since_snapshot(&self) -> u64 {
        self.wal.stats().bytes_synced - self.synced_at_snapshot
    }

    /// Install `payload` as the next snapshot generation covering every
    /// record appended so far, then compact the log down to the records
    /// the *previous* generation doesn't cover (its fallback cushion).
    /// Unsynced appends are flushed first so a crash mid-snapshot still
    /// recovers them from the old log; every subsequent cut point is a
    /// complete-old-or-complete-new rename.
    pub fn snapshot(&mut self, payload: &str) -> std::io::Result<()> {
        self.wal.sync()?;
        // The outgoing snapshot becomes the fallback generation; its
        // seq is the new compaction floor.
        let fallback_floor = self.snapshot_seq;
        let generation = self.generation + 1;
        snapshot::write(
            &self.fs,
            &self.dir,
            &Snapshot { seq: self.seq, payload: payload.to_string() },
            generation,
        )?;
        self.generation = generation;
        self.snapshot_seq = self.seq;
        self.snapshots += 1;
        self.synced_at_snapshot = self.wal.stats().bytes_synced;
        // Compact: drop records the fallback generation already covers.
        // A crash before (or during) the rewrite leaves extra records
        // that recovery skips as `already_snapshotted`.
        let on_disk = Wal::read(&self.fs, self.wal.path())?;
        let retained: Vec<(u64, String)> = on_disk
            .records
            .into_iter()
            .filter(|(seq, _)| *seq > fallback_floor)
            .collect();
        // Rewrite only from a read proven whole: every record the
        // fallback generation doesn't cover must be present. A short
        // or corrupted read here must not launder acked records out of
        // the log — skipping compaction just defers it; the on-disk
        // bytes stay authoritative for recovery's quarantine
        // accounting.
        let contiguous = retained.len() as u64 == self.seq - fallback_floor
            && retained.iter().zip(fallback_floor + 1..).all(|((s, _), want)| *s == want);
        if contiguous {
            self.wal.rewrite(&retained)?;
        }
        Ok(())
    }

    /// Rebuild from whatever `dir` holds. Returns the store (ready to
    /// append) and what was found — including a typed report of
    /// anything that had to be discarded. Corrupt snapshot generations
    /// and WAL garbage are removed from the directory on the way out.
    pub fn recover(fs: &Fs, dir: &Path) -> std::io::Result<(SessionStore, Recovery)> {
        fs.create_dir_all(dir)?;
        let snaps = snapshot::read_best(fs, dir)?;
        let snapshot_seq = snaps.snapshot.as_ref().map_or(0, |s| s.seq);
        let read = Wal::read(fs, &dir.join(WAL_FILE))?;

        // Interior losses are enumerable because seqs are assigned
        // contiguously: any seq between the snapshot and the newest
        // surviving record that has no intact copy was quarantined.
        // Surviving seqs are strictly increasing, so one linear walk
        // lists every gap.
        let last_seq = read.records.last().map_or(0, |(s, _)| *s).max(snapshot_seq);
        let mut quarantined: Vec<u64> = Vec::new();
        let mut expect = snapshot_seq + 1;
        for &(s, _) in read.records.iter().filter(|(s, _)| *s > snapshot_seq) {
            quarantined.extend(expect..s);
            expect = s + 1;
        }

        let mut wal = Wal::open(fs, &dir.join(WAL_FILE))?;
        if read.dirty() {
            // Rewrite the log clean (every intact record, garbage
            // excised) so future appends never follow junk. Keep even
            // already-covered records: they are the next fallback
            // cushion.
            wal.rewrite(&read.records)?;
        }
        // Quarantine corrupt snapshot generations off the retention
        // ladder; read_best already chose the newest good one.
        for path in &snaps.corrupt {
            let _ = fs.remove_file(path);
        }

        let total = read.records.len() as u64;
        let tail: Vec<String> = read
            .records
            .into_iter()
            .filter(|(seq, _)| *seq > snapshot_seq)
            .map(|(_, payload)| payload)
            .collect();
        let already_snapshotted = total - tail.len() as u64;
        let report = RecoveryReport {
            records_replayed: tail.len() as u64,
            torn_tail_bytes: read.torn_bytes,
            quarantined,
            quarantined_bytes: read.quarantined_bytes,
            already_snapshotted,
            snapshot_generation: snaps.generation,
            generations_skipped: snaps.skipped,
            last_seq,
        };
        let recovery = Recovery {
            snapshot: snaps.snapshot.map(|s| s.payload),
            tail,
            report,
        };
        Ok((
            SessionStore {
                fs: fs.clone(),
                dir: dir.to_path_buf(),
                wal,
                seq: last_seq,
                snapshot_seq,
                generation: snaps.generation,
                synced_at_snapshot: 0,
                appends: 0,
                snapshots: 0,
            },
            recovery,
        ))
    }

    /// Remove the session's directory and everything in it (a durably
    /// *closed* session, as opposed to a crashed one).
    pub fn destroy(fs: &Fs, dir: &Path) -> std::io::Result<()> {
        match fs.remove_dir_all(dir) {
            Ok(()) => Ok(()),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(()),
            Err(e) => Err(e),
        }
    }

    /// The session directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Lifetime accounting.
    pub fn stats(&self) -> StoreStats {
        StoreStats { appends: self.appends, snapshots: self.snapshots, sync: self.wal.stats() }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::io::SimFs;
    use copycat_util::check::{check, Gen};
    use copycat_util::{prop_ensure, prop_ensure_eq};
    use std::sync::Arc;

    fn sim() -> (Arc<SimFs>, Fs, PathBuf) {
        sim_seeded(0xD1CE)
    }

    fn sim_seeded(seed: u64) -> (Arc<SimFs>, Fs, PathBuf) {
        let sim = Arc::new(SimFs::new(seed));
        let fs = Fs::sim(Arc::clone(&sim));
        (sim, fs, PathBuf::from("/store-test"))
    }

    #[test]
    fn recover_replays_snapshot_plus_tail() {
        let (_sim, fs, dir) = sim();
        let mut s = SessionStore::create(&fs, &dir).unwrap();
        s.append("a");
        s.append("b");
        s.snapshot("SNAP[a,b]").unwrap();
        s.append("c");
        s.append("d");
        s.sync().unwrap();
        drop(s);
        let (recovered, r) = SessionStore::recover(&fs, &dir).unwrap();
        assert_eq!(r.snapshot.as_deref(), Some("SNAP[a,b]"));
        assert_eq!(r.tail, vec!["c".to_string(), "d".to_string()]);
        assert!(r.report.lossless());
        assert_eq!(r.report.records_replayed, 2);
        assert_eq!(r.report.snapshot_generation, 1);
        assert_eq!(r.report.last_seq, 4);
        // The first snapshot has no fallback generation below it, so
        // compaction dropped nothing: both covered records remain.
        assert_eq!(r.report.already_snapshotted, 2);
        // Appending continues past the crash point.
        assert_eq!(recovered.records_since_snapshot(), 2);
    }

    #[test]
    fn compaction_drops_only_what_the_fallback_generation_covers() {
        let (_sim, fs, dir) = sim();
        let mut s = SessionStore::create(&fs, &dir).unwrap();
        s.append("a");
        s.append("b");
        s.snapshot("SNAP1[a,b]").unwrap(); // gen 1, floor 0: keeps 1,2
        s.append("c");
        s.snapshot("SNAP2[a,b,c]").unwrap(); // gen 2, floor 2: keeps 3
        s.append("d");
        s.sync().unwrap();
        drop(s);
        let out = Wal::read(&fs, &dir.join(WAL_FILE)).unwrap();
        let seqs: Vec<u64> = out.records.iter().map(|(q, _)| *q).collect();
        assert_eq!(seqs, vec![3, 4], "records ≤ gen-1 seq compacted away");
        let (_, r) = SessionStore::recover(&fs, &dir).unwrap();
        assert_eq!(r.snapshot.as_deref(), Some("SNAP2[a,b,c]"));
        assert_eq!(r.tail, vec!["d".to_string()]);
        assert_eq!(r.report.already_snapshotted, 1); // seq 3, gen-2 cushion
    }

    #[test]
    fn corrupt_newest_snapshot_falls_back_a_generation() {
        let (sim, fs, dir) = sim();
        let mut s = SessionStore::create(&fs, &dir).unwrap();
        s.append("a");
        s.append("b");
        s.snapshot("SNAP1[a,b]").unwrap();
        s.append("c");
        s.snapshot("SNAP2[a,b,c]").unwrap();
        s.append("d");
        s.sync().unwrap();
        drop(s);
        assert!(sim.corrupt_file(&dir.join(snapshot::generation_file(2))));
        let (_, r) = SessionStore::recover(&fs, &dir).unwrap();
        // Fallback: gen 1 + the longer retained tail reconstructs all.
        assert_eq!(r.snapshot.as_deref(), Some("SNAP1[a,b]"));
        assert_eq!(r.tail, vec!["c".to_string(), "d".to_string()]);
        assert_eq!(r.report.generations_skipped, 1);
        assert_eq!(r.report.snapshot_generation, 1);
        assert!(r.report.quarantined.is_empty(), "no data loss on fallback");
        assert_eq!(r.report.last_seq, 4);
        // The corrupt file was quarantined off the retention ladder.
        assert!(!fs.exists(&dir.join(snapshot::generation_file(2))));
    }

    #[test]
    fn interior_wal_rot_is_reported_as_quarantined_seqs() {
        let (_sim, fs, dir) = sim();
        let mut s = SessionStore::create(&fs, &dir).unwrap();
        for i in 1..=5 {
            s.append(&format!("payload-number-{i}"));
        }
        s.sync().unwrap();
        drop(s);
        // Zero a span inside record 2.
        let wal_path = dir.join(WAL_FILE);
        let mut bytes = fs.read(&wal_path).unwrap();
        let start = bytes.len() / 4;
        for b in &mut bytes[start..start + 6] {
            *b = 0xFF;
        }
        fs.write(&wal_path, &bytes).unwrap();
        let (_, r) = SessionStore::recover(&fs, &dir).unwrap();
        assert!(!r.report.lossless());
        assert!(!r.report.quarantined.is_empty(), "lost seqs are listed");
        assert!(r.report.quarantined_bytes > 0);
        // Records after the rot were resynced and replayed.
        assert!(r.tail.iter().any(|p| p == "payload-number-5"));
        // The rewritten log is clean: a second recovery is lossless
        // (the quarantined seqs are gone for good, and say so once).
        let (_, r2) = SessionStore::recover(&fs, &dir).unwrap();
        assert_eq!(r2.report.quarantined_bytes, 0);
        assert_eq!(r2.report.torn_tail_bytes, 0);
        assert_eq!(r2.tail, r.tail);
    }

    #[test]
    fn create_refuses_a_dirty_directory() {
        let (_sim, fs, dir) = sim();
        let mut s = SessionStore::create(&fs, &dir).unwrap();
        s.append("a");
        s.sync().unwrap();
        drop(s);
        assert!(SessionStore::create(&fs, &dir).is_err());
        SessionStore::destroy(&fs, &dir).unwrap();
        // Destroyed = clean slate.
        assert!(SessionStore::create(&fs, &dir).is_ok());
    }

    #[test]
    fn destroy_is_idempotent() {
        let (_sim, fs, dir) = sim();
        SessionStore::destroy(&fs, &dir).unwrap();
        let _ = SessionStore::create(&fs, &dir).unwrap();
        SessionStore::destroy(&fs, &dir).unwrap();
        SessionStore::destroy(&fs, &dir).unwrap();
        assert!(!fs.exists(&dir));
    }

    /// The seeded kill-and-recover property at the store level: a
    /// random interleaving of appends, syncs, snapshots and a crash at
    /// an arbitrary point recovers exactly the synced history — the
    /// snapshot payload plus tail always reconstructs a prefix of the
    /// appended sequence no shorter than the last synced point, with
    /// nothing reordered, altered, or invented.
    #[test]
    fn prop_kill_and_recover_preserves_synced_history() {
        check("store_kill_recover", 80, &[], |g: &mut Gen| {
            let (sim, fs, dir) = sim_seeded(g.u64_in(0..u64::MAX));
            let mut s = SessionStore::create(&fs, &dir).map_err(|e| e.to_string())?;
            let mut appended: Vec<String> = Vec::new();
            // What a snapshot covers, by count, at snapshot time.
            let mut snapshot_upto = 0usize;
            let mut synced_upto = 0usize;
            let steps = g.usize_in(1..25);
            for i in 0..steps {
                match g.usize_in(0..10) {
                    0..=5 => {
                        let line = format!("req-{i}-{}", g.string_of("xyz01", 0..12));
                        s.append(&line);
                        appended.push(line);
                    }
                    6 | 7 => {
                        s.sync().map_err(|e| e.to_string())?;
                        synced_upto = appended.len();
                    }
                    _ => {
                        // Snapshot payload encodes the full history so
                        // the test can reconstruct it on recovery.
                        let payload = appended.join("\n");
                        s.snapshot(&payload).map_err(|e| e.to_string())?;
                        snapshot_upto = appended.len();
                        synced_upto = appended.len();
                    }
                }
            }
            drop(s); // crash: unsynced group-commit buffer is lost
            sim.crash();
            let (_, r) = SessionStore::recover(&fs, &dir).map_err(|e| e.to_string())?;
            let mut rebuilt: Vec<String> = match &r.snapshot {
                None => Vec::new(),
                Some(p) if p.is_empty() => Vec::new(),
                Some(p) => p.split('\n').map(str::to_string).collect(),
            };
            if r.snapshot.is_some() {
                prop_ensure_eq!(rebuilt.len(), snapshot_upto);
            }
            rebuilt.extend(r.tail.iter().cloned());
            // Everything acknowledged (synced) survives; nothing past
            // the append history appears; order and bytes are exact.
            prop_ensure!(
                rebuilt.len() >= synced_upto,
                "lost synced records: {} < {synced_upto}",
                rebuilt.len()
            );
            prop_ensure!(rebuilt.len() <= appended.len());
            prop_ensure_eq!(rebuilt[..], appended[..rebuilt.len()]);
            prop_ensure!(r.report.quarantined.is_empty(), "no faults, no quarantine");
            prop_ensure_eq!(r.report.generations_skipped, 0);
            Ok(())
        });
    }
}
