//! The append-only write-ahead log.
//!
//! On-disk format, per record:
//!
//! ```text
//! [seq: varint u64] [len: varint u64] [crc: 4 bytes LE] [payload: len bytes]
//! ```
//!
//! The CRC-32 covers the seq prefix *and* the payload, so a corrupted
//! header is as detectable as a corrupted body. Records carry their own
//! sequence number (assigned by the caller, monotonically) because the
//! log's lifetime is decoupled from the snapshot's: a crash after a
//! snapshot lands but before the log is compacted leaves records the
//! snapshot already covers, and recovery must be able to skip them.
//!
//! Appends go through a **group-commit buffer**: [`Wal::append`] only
//! encodes into memory, and [`Wal::sync`] writes the whole batch with
//! one `write` + one `fsync`. A caller that acknowledges after `sync`
//! gets classic WAL durability; a caller that batches N appends per
//! sync trades a bounded tail of acknowledged-but-volatile records for
//! an N-fold cut in fsyncs (the bench sweep measures exactly this).
//! When `sync` fails the batch stays buffered: a retry re-writes the
//! *whole* batch, and the duplicate-after-partial garbage that leaves
//! on disk is exactly what the resynchronizing reader below absorbs.
//!
//! Reading quarantines corruption instead of stopping at it. The
//! decoder walks records; when bytes fail to decode it scans forward
//! for the next record whose CRC verifies *and* whose sequence number
//! extends the monotonic run (random garbage passing a CRC-32 and
//! landing on the right seq is a ~2⁻³² event per offset). Interior
//! garbage — a bit-rotted record, a short write's stub, a retried
//! batch's partial duplicate — is skipped and counted as
//! `quarantined_bytes`; garbage with no decodable successor is the torn
//! tail. Either way the reader reports exactly what it discarded; it
//! never panics, never silently truncates, and never yields an invented
//! or altered record.
//!
//! All I/O goes through [`crate::io::Fs`], so the same code path runs
//! against the real filesystem and the fault-injecting simulation.

use crate::io::{Fs, StoreFile};
use copycat_util::checksum::Crc32;
use copycat_util::varint;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// File name of the log inside a session directory.
pub const WAL_FILE: &str = "wal.log";
/// Scratch name used when rewriting the log (compaction, quarantine
/// cleanup); installed over [`WAL_FILE`] by rename.
pub const WAL_TMP_FILE: &str = "wal.tmp";

/// Cumulative fsync accounting for one log.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SyncStats {
    /// `fsync` calls issued (empty-buffer syncs are skipped).
    pub syncs: u64,
    /// Records made durable across all syncs.
    pub records_synced: u64,
    /// Bytes made durable across all syncs.
    pub bytes_synced: u64,
    /// Total wall time spent in write+fsync, microseconds.
    pub sync_micros: u64,
}

/// What a full read of a log file found.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WalReadOutcome {
    /// Every intact record, in append order (seq strictly increasing —
    /// duplicate seqs from retried batches are dropped).
    pub records: Vec<(u64, String)>,
    /// Bytes of torn/corrupt tail discarded (0 on a clean log).
    pub torn_bytes: u64,
    /// Interior bytes skipped to resynchronize past corruption
    /// (bit rot, short-write stubs, retried-batch duplicates).
    pub quarantined_bytes: u64,
    /// File offset where decodable content ends (`file len -
    /// torn_bytes`).
    pub valid_len: u64,
}

impl WalReadOutcome {
    /// Whether the log needs a cleanup rewrite before further appends
    /// (garbage anywhere means new records would follow it).
    pub fn dirty(&self) -> bool {
        self.torn_bytes > 0 || self.quarantined_bytes > 0
    }
}

/// An open, appendable log.
#[derive(Debug)]
pub struct Wal {
    fs: Fs,
    file: Box<dyn StoreFile>,
    path: PathBuf,
    /// Encoded-but-unwritten records: the group-commit buffer.
    buf: Vec<u8>,
    /// Records currently in `buf`.
    buffered: u64,
    stats: SyncStats,
}

fn encode_record(seq: u64, payload: &[u8], out: &mut Vec<u8>) {
    let mut seq_bytes = Vec::with_capacity(varint::MAX_LEN);
    varint::encode_u64(seq, &mut seq_bytes);
    let mut crc = Crc32::new();
    crc.update(&seq_bytes);
    crc.update(payload);
    out.extend_from_slice(&seq_bytes);
    varint::encode_u64(payload.len() as u64, out);
    out.extend_from_slice(&crc.finish().to_le_bytes());
    out.extend_from_slice(payload);
}

/// Decode one record from `buf`, returning `(seq, payload, consumed)`,
/// or `None` when the bytes at the front are torn/corrupt/truncated.
fn decode_record(buf: &[u8]) -> Option<(u64, String, usize)> {
    let (seq, seq_len) = varint::decode_u64(buf).ok()?;
    let (len, len_len) = varint::decode_u64(&buf[seq_len..]).ok()?;
    let len = usize::try_from(len).ok()?;
    let header = seq_len + len_len + 4;
    let total = header.checked_add(len)?;
    if buf.len() < total {
        return None;
    }
    let crc_stored = u32::from_le_bytes(buf[seq_len + len_len..header].try_into().ok()?);
    let payload = &buf[header..total];
    let mut crc = Crc32::new();
    crc.update(&buf[..seq_len]);
    crc.update(payload);
    if crc.finish() != crc_stored {
        return None;
    }
    let text = String::from_utf8(payload.to_vec()).ok()?;
    Some((seq, text, total))
}

impl Wal {
    /// Open (creating if absent) the log at `path` for appending.
    pub fn open(fs: &Fs, path: &Path) -> std::io::Result<Wal> {
        let file = fs.open_append(path)?;
        Ok(Wal {
            fs: fs.clone(),
            file,
            path: path.to_path_buf(),
            buf: Vec::new(),
            buffered: 0,
            stats: SyncStats::default(),
        })
    }

    /// Buffer one record. Nothing touches the disk until [`sync`].
    ///
    /// [`sync`]: Wal::sync
    pub fn append(&mut self, seq: u64, payload: &str) {
        encode_record(seq, payload.as_bytes(), &mut self.buf);
        self.buffered += 1;
    }

    /// Records sitting in the group-commit buffer.
    pub fn buffered(&self) -> u64 {
        self.buffered
    }

    /// Write the buffered batch and `fsync`. A no-op (no fsync) when
    /// the buffer is empty — the group-commit fast path for a follower
    /// whose records the leader already flushed.
    ///
    /// On error the batch stays buffered so the caller can retry; a
    /// retry re-writes the whole batch, and the resynchronizing reader
    /// tolerates the partial-then-duplicate bytes that can leave
    /// behind.
    pub fn sync(&mut self) -> std::io::Result<()> {
        if self.buf.is_empty() {
            return Ok(());
        }
        let start = Instant::now();
        self.file.write_all(&self.buf)?;
        self.file.sync_data()?;
        self.stats.syncs += 1;
        self.stats.records_synced += self.buffered;
        self.stats.bytes_synced += self.buf.len() as u64;
        self.stats.sync_micros += start.elapsed().as_micros() as u64;
        self.buf.clear();
        self.buffered = 0;
        Ok(())
    }

    /// Atomically replace the log's contents with `records`, re-encoded
    /// clean, and reopen for appending. This is both the compaction
    /// primitive (drop records a fallback snapshot generation no longer
    /// needs) and the quarantine cleanup (rewrite a log whose interior
    /// held garbage). Crash-safe: the new image is written to
    /// [`WAL_TMP_FILE`], fsynced, renamed over [`WAL_FILE`], and the
    /// directory fsynced — at every instant the directory holds either
    /// the complete old log or the complete new one.
    ///
    /// The group-commit buffer must be empty (sync first); rewriting
    /// under unflushed appends would reorder durability.
    pub fn rewrite(&mut self, records: &[(u64, String)]) -> std::io::Result<()> {
        assert_eq!(self.buffered, 0, "rewrite with a non-empty group-commit buffer");
        let mut image = Vec::new();
        for (seq, payload) in records {
            encode_record(*seq, payload.as_bytes(), &mut image);
        }
        let dir = self
            .path
            .parent()
            .ok_or_else(|| std::io::Error::other("wal path has no parent directory"))?
            .to_path_buf();
        let tmp = dir.join(WAL_TMP_FILE);
        self.fs.write_sync(&tmp, &image)?;
        self.fs.rename(&tmp, &self.path)?;
        self.fs.sync_dir(&dir)?;
        // The old handle points at the replaced file; reopen on the
        // installed one so future appends land after the new image.
        self.file = self.fs.open_append(&self.path)?;
        Ok(())
    }

    /// Cumulative sync accounting.
    pub fn stats(&self) -> SyncStats {
        self.stats
    }

    /// The log's path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Read every intact record from the log at `path`, quarantining
    /// corruption (see module docs). A missing file reads as an empty,
    /// untorn log.
    pub fn read(fs: &Fs, path: &Path) -> std::io::Result<WalReadOutcome> {
        let bytes = match fs.read(path) {
            Ok(b) => b,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Vec::new(),
            Err(e) => return Err(e),
        };
        let mut records: Vec<(u64, String)> = Vec::new();
        let mut quarantined_bytes = 0u64;
        let mut torn_bytes = 0u64;
        let mut pos = 0usize;
        let mut last_seq: Option<u64> = None;
        while pos < bytes.len() {
            // A record decodes *and* extends the monotonic seq run:
            // accept it. A decodable record with a stale seq is a
            // retried batch's duplicate: quarantine its bytes, keep
            // walking.
            if let Some((seq, payload, consumed)) = decode_record(&bytes[pos..]) {
                if last_seq.is_none_or(|l| seq > l) {
                    records.push((seq, payload));
                    last_seq = Some(seq);
                } else {
                    quarantined_bytes += consumed as u64;
                }
                pos += consumed;
                continue;
            }
            // Garbage at `pos`: resynchronize by scanning for the next
            // offset that decodes to a monotonic record.
            let mut next = None;
            for q in pos + 1..bytes.len() {
                if let Some((seq, _, _)) = decode_record(&bytes[q..]) {
                    if last_seq.is_none_or(|l| seq > l) {
                        next = Some(q);
                        break;
                    }
                }
            }
            match next {
                Some(q) => {
                    quarantined_bytes += (q - pos) as u64;
                    pos = q;
                }
                None => {
                    torn_bytes = (bytes.len() - pos) as u64;
                    break;
                }
            }
        }
        Ok(WalReadOutcome {
            records,
            torn_bytes,
            quarantined_bytes,
            valid_len: (bytes.len() as u64) - torn_bytes,
        })
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
        sim_seeded(0xA11CE)
    }

    fn sim_seeded(seed: u64) -> (Arc<SimFs>, Fs, PathBuf) {
        let sim = Arc::new(SimFs::new(seed));
        let fs = Fs::sim(Arc::clone(&sim));
        let dir = PathBuf::from("/wal-test");
        fs.create_dir_all(&dir).unwrap();
        (sim, fs, dir.join(WAL_FILE))
    }

    #[test]
    fn append_sync_read_round_trips() {
        let (_sim, fs, path) = sim();
        let mut wal = Wal::open(&fs, &path).unwrap();
        wal.append(1, r#"{"op":"ping"}"#);
        wal.append(2, "second record with unicode: café 😀");
        wal.sync().unwrap();
        wal.append(3, "");
        wal.sync().unwrap();
        let out = Wal::read(&fs, &path).unwrap();
        assert_eq!(out.torn_bytes, 0);
        assert_eq!(out.quarantined_bytes, 0);
        assert_eq!(
            out.records,
            vec![
                (1, r#"{"op":"ping"}"#.to_string()),
                (2, "second record with unicode: café 😀".to_string()),
                (3, String::new()),
            ]
        );
        assert_eq!(wal.stats().syncs, 2);
        assert_eq!(wal.stats().records_synced, 3);
    }

    #[test]
    fn unsynced_appends_are_not_durable() {
        let (sim, fs, path) = sim();
        let mut wal = Wal::open(&fs, &path).unwrap();
        wal.append(1, "durable");
        wal.sync().unwrap();
        wal.append(2, "lost with the process");
        drop(wal); // crash: buffered batch never written
        sim.crash();
        let out = Wal::read(&fs, &path).unwrap();
        assert_eq!(out.records, vec![(1, "durable".to_string())]);
    }

    #[test]
    fn empty_sync_skips_the_fsync() {
        let (_sim, fs, path) = sim();
        let mut wal = Wal::open(&fs, &path).unwrap();
        wal.sync().unwrap();
        wal.sync().unwrap();
        assert_eq!(wal.stats().syncs, 0);
    }

    #[test]
    fn missing_file_reads_as_empty() {
        let (_sim, fs, _path) = sim();
        let out = Wal::read(&fs, Path::new("/wal-test/nonexistent.log")).unwrap();
        assert_eq!(out.records, vec![]);
        assert_eq!(out.torn_bytes, 0);
    }

    #[test]
    fn failed_sync_retains_the_batch_and_a_retry_lands_it() {
        use crate::io::{FaultKind, FaultPlan};
        let sim = Arc::new(SimFs::with_faults(
            21,
            vec![FaultPlan { at_op: 1, kind: FaultKind::FailedFsync }],
        ));
        let fs = Fs::sim(Arc::clone(&sim));
        fs.create_dir_all(Path::new("/d")).unwrap();
        let path = Path::new("/d").join(WAL_FILE);
        let mut wal = Wal::open(&fs, &path).unwrap();
        wal.append(1, "first");
        wal.append(2, "second");
        assert!(wal.sync().is_err());
        assert_eq!(wal.buffered(), 2, "failed batch stays buffered");
        wal.sync().unwrap(); // retry: whole batch re-written + fsynced
        sim.crash();
        let out = Wal::read(&fs, &path).unwrap();
        // The retry duplicated the batch bytes; the reader quarantines
        // the duplicates and yields each record exactly once.
        assert_eq!(out.records, vec![(1, "first".into()), (2, "second".into())]);
        assert!(out.quarantined_bytes > 0 || out.torn_bytes > 0);
    }

    #[test]
    fn rewrite_compacts_and_appending_continues() {
        let (sim, fs, path) = sim();
        let mut wal = Wal::open(&fs, &path).unwrap();
        for i in 1..=6u64 {
            wal.append(i, &format!("rec-{i}"));
        }
        wal.sync().unwrap();
        let keep: Vec<(u64, String)> =
            (4..=6).map(|i| (i, format!("rec-{i}"))).collect();
        wal.rewrite(&keep).unwrap();
        wal.append(7, "rec-7");
        wal.sync().unwrap();
        sim.crash();
        let out = Wal::read(&fs, &path).unwrap();
        assert_eq!(
            out.records,
            (4..=7).map(|i| (i, format!("rec-{i}"))).collect::<Vec<_>>()
        );
        assert_eq!(out.torn_bytes, 0);
        assert!(!fs.exists(&path.with_file_name(WAL_TMP_FILE)));
    }

    #[test]
    fn prop_torn_tail_loses_only_the_tail() {
        check("wal_torn_tail", 60, &[], |g: &mut Gen| {
            let (_sim, fs, path) = sim_seeded(g.u64_in(0..u64::MAX));
            let mut wal = Wal::open(&fs, &path).unwrap();
            let payloads = g.vec_of(1..8, |g| {
                g.string_of("abcdefghij{}:\",", 0..40)
            });
            for (i, p) in payloads.iter().enumerate() {
                wal.append(i as u64 + 1, p);
            }
            wal.sync().map_err(|e| e.to_string())?;
            drop(wal);
            let full = fs.read(&path).map_err(|e| e.to_string())?;
            // Cut the file at an arbitrary byte: a torn final write.
            let cut = g.usize_in(0..full.len() + 1);
            fs.write(&path, &full[..cut]).map_err(|e| e.to_string())?;
            let out = Wal::read(&fs, &path).map_err(|e| e.to_string())?;
            prop_ensure!(out.records.len() <= payloads.len());
            // Whatever survives is an exact prefix.
            for (i, (seq, p)) in out.records.iter().enumerate() {
                prop_ensure_eq!(*seq, i as u64 + 1);
                prop_ensure_eq!(p, &payloads[i]);
            }
            prop_ensure_eq!(out.valid_len + out.torn_bytes, cut as u64);
            // A full, uncut file loses nothing.
            if cut == full.len() {
                prop_ensure_eq!(out.records.len(), payloads.len());
                prop_ensure_eq!(out.torn_bytes, 0);
            }
            Ok(())
        });
    }

    #[test]
    fn prop_corrupt_byte_quarantines_exactly_the_hit_record() {
        check("wal_corrupt_byte", 40, &[], |g: &mut Gen| {
            let (_sim, fs, path) = sim_seeded(g.u64_in(0..u64::MAX));
            let mut wal = Wal::open(&fs, &path).unwrap();
            let payloads: Vec<String> =
                (0..4).map(|i| format!("record-number-{i}-payload")).collect();
            for (i, p) in payloads.iter().enumerate() {
                wal.append(i as u64 + 1, p);
            }
            wal.sync().map_err(|e| e.to_string())?;
            drop(wal);
            let mut bytes = fs.read(&path).map_err(|e| e.to_string())?;
            let victim = g.usize_in(0..bytes.len());
            let flip = 1u8 << g.usize_in(0..8);
            bytes[victim] ^= flip;
            fs.write(&path, &bytes).map_err(|e| e.to_string())?;
            let out = Wal::read(&fs, &path).map_err(|e| e.to_string())?;
            // The CRC covers seq + payload and the length varint shifts
            // the checksum window, so the record holding the flipped
            // byte is always detected and quarantined — and resync
            // recovers every record after it. Never invent or alter.
            for (seq, p) in &out.records {
                prop_ensure!(*seq >= 1 && *seq <= 4);
                prop_ensure_eq!(p, &payloads[*seq as usize - 1]);
            }
            prop_ensure_eq!(out.records.len(), payloads.len() - 1, "exactly one record lost");
            let seqs: Vec<u64> = out.records.iter().map(|(s, _)| *s).collect();
            prop_ensure!(seqs.windows(2).all(|w| w[0] < w[1]), "seqs monotonic");
            prop_ensure!(out.quarantined_bytes > 0 || out.torn_bytes > 0);
            Ok(())
        });
    }

    #[test]
    fn interior_corruption_resyncs_to_later_records() {
        let (_sim, fs, path) = sim();
        let mut wal = Wal::open(&fs, &path).unwrap();
        for i in 1..=5u64 {
            wal.append(i, &format!("payload-for-record-{i}"));
        }
        wal.sync().unwrap();
        drop(wal);
        // Zero out a span inside record 2 — bit rot wider than a flip.
        let mut bytes = fs.read(&path).unwrap();
        let start = bytes.len() / 4;
        for b in &mut bytes[start..start + 8] {
            *b = 0;
        }
        fs.write(&path, &bytes).unwrap();
        let out = Wal::read(&fs, &path).unwrap();
        let seqs: Vec<u64> = out.records.iter().map(|(s, _)| *s).collect();
        assert!(seqs.contains(&5), "records after the rot are recovered: {seqs:?}");
        assert!(out.quarantined_bytes > 0);
        for (seq, p) in &out.records {
            assert_eq!(p, &format!("payload-for-record-{seq}"));
        }
    }
}
