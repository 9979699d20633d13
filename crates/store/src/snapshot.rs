//! Generational session snapshots.
//!
//! A snapshot is one JSON file inside the session directory, named by
//! its generation — `snapshot-00000007.json` — holding:
//!
//! ```json
//! {"version": 1, "seq": 42, "crc": 123456789, "payload": "…"}
//! ```
//!
//! `seq` is the last WAL sequence number the payload covers — recovery
//! replays only WAL records *after* it, which is what makes a crash
//! between "snapshot renamed into place" and "WAL compacted" harmless.
//! `crc` is the CRC-32 of the payload bytes, so a half-written or
//! bit-rotted snapshot is detected rather than replayed.
//!
//! Each install is atomic: write `snapshot.tmp`, fsync it, then
//! `rename` into the generation's name (POSIX rename atomicity), then
//! fsync the directory so the rename survives a power cut. At every
//! instant the directory holds only complete snapshot files.
//!
//! **Why generations instead of one file:** a checksummed single
//! snapshot detects its own corruption but has nowhere to fall back
//! to — a lying fsync on the tmp file, followed by a crash, or plain
//! bit rot at rest, would strand the session. So the newest
//! [`KEEP_GENERATIONS`] files are retained, and [`read_best`] walks
//! them newest-first, skipping (and reporting) corrupt ones. The WAL
//! compaction in [`crate::store`] keeps every record *after the
//! previous generation's seq*, so falling back one generation just
//! means a longer — but complete — replay.

use crate::io::Fs;
use copycat_util::checksum::crc32;
use copycat_util::json::{self, FromJson, JsonError, JsonWriter, ToJson};
use copycat_util::zjson::ZRef;
use std::path::{Path, PathBuf};

/// Snapshot generations retained on disk (newest N).
pub const KEEP_GENERATIONS: usize = 2;
/// Scratch name every install writes before its rename.
pub const TMP_FILE: &str = "snapshot.tmp";
const PREFIX: &str = "snapshot-";
const SUFFIX: &str = ".json";
const VERSION: u64 = 1;

/// A checkpoint: an opaque payload plus the WAL position it covers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Snapshot {
    /// Last WAL sequence number folded into the payload (0 = none).
    pub seq: u64,
    /// The serialized session (opaque to this crate).
    pub payload: String,
}

/// What walking the generations found.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReadOutcome {
    /// The newest snapshot that verified, if any.
    pub snapshot: Option<Snapshot>,
    /// Generation number of the chosen snapshot (0 = none chosen).
    pub generation: u64,
    /// Newer generations skipped because they failed verification.
    pub skipped: u64,
    /// Files that failed verification (recovery quarantines these so
    /// they stop occupying retention slots).
    pub corrupt: Vec<PathBuf>,
}

/// File name for generation `g`.
pub fn generation_file(g: u64) -> String {
    format!("{PREFIX}{g:08}{SUFFIX}")
}

fn parse_generation(path: &Path) -> Option<u64> {
    let name = path.file_name()?.to_str()?;
    let digits = name.strip_prefix(PREFIX)?.strip_suffix(SUFFIX)?;
    digits.parse().ok()
}

/// A snapshot file is its envelope: version, covered seq, payload CRC
/// and the payload itself.
impl ToJson for Snapshot {
    fn write_json(&self, w: &mut JsonWriter<'_>) {
        w.obj(|w| {
            w.field("version", &VERSION);
            w.field("seq", &self.seq);
            w.field("crc", &crc32(self.payload.as_bytes()));
            w.field("payload", &self.payload);
        });
    }
}

impl FromJson for Snapshot {
    fn from_json(j: ZRef<'_>) -> Result<Self, JsonError> {
        let version = u64::from_json(j.require("version")?)?;
        if version != VERSION {
            return Err(JsonError::new(format!("unknown snapshot version {version}")));
        }
        let seq = u64::from_json(j.require("seq")?)?;
        let stored_crc = u32::from_json(j.require("crc")?)?;
        let payload = j
            .require("payload")?
            .as_str()
            .ok_or_else(|| JsonError::new("snapshot payload is not a string"))?;
        if crc32(payload.as_bytes()) != stored_crc {
            return Err(JsonError::new("snapshot payload checksum mismatch"));
        }
        Ok(Snapshot { seq, payload: payload.to_string() })
    }
}

/// Generation numbers present in `dir`, ascending.
pub fn list_generations(fs: &Fs, dir: &Path) -> std::io::Result<Vec<u64>> {
    let mut gens: Vec<u64> = fs
        .list_files(dir)?
        .iter()
        .filter_map(|p| parse_generation(p))
        .collect();
    gens.sort_unstable();
    Ok(gens)
}

/// Atomically install `snap` as generation `generation`, then prune
/// generations older than the newest [`KEEP_GENERATIONS`] (prune
/// failures are tolerated — an extra old file costs space, not
/// correctness).
pub fn write(fs: &Fs, dir: &Path, snap: &Snapshot, generation: u64) -> std::io::Result<()> {
    let tmp = dir.join(TMP_FILE);
    let dst = dir.join(generation_file(generation));
    fs.write_sync(&tmp, json::to_string(snap).as_bytes())?;
    fs.rename(&tmp, &dst)?;
    // Persist the rename: fsync the containing directory.
    fs.sync_dir(dir)?;
    if let Ok(gens) = list_generations(fs, dir) {
        for g in gens.iter().rev().skip(KEEP_GENERATIONS) {
            let _ = fs.remove_file(&dir.join(generation_file(*g)));
        }
    }
    Ok(())
}

/// Verify one generation file, distinguishing I/O errors from
/// corruption (corruption is fall-back-able; an I/O error is not).
fn try_read(fs: &Fs, path: &Path) -> std::io::Result<Result<Snapshot, String>> {
    let bytes = match fs.read(path) {
        Ok(b) => b,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
            return Ok(Err("missing".into()));
        }
        Err(e) => return Err(e),
    };
    let Ok(text) = String::from_utf8(bytes) else {
        return Ok(Err("not utf-8".into()));
    };
    Ok(json::from_str::<Snapshot>(&text).map_err(|e| e.to_string()))
}

/// Load the newest snapshot that verifies, walking generations
/// newest-first and skipping corrupt ones. No generations at all is a
/// clean `None`; generations present but all corrupt is also `None`
/// with `skipped` accounting — the caller's recovery report turns that
/// into explicit loss, never a silent one.
pub fn read_best(fs: &Fs, dir: &Path) -> std::io::Result<ReadOutcome> {
    let mut out = ReadOutcome { snapshot: None, generation: 0, skipped: 0, corrupt: Vec::new() };
    for g in list_generations(fs, dir)?.into_iter().rev() {
        let path = dir.join(generation_file(g));
        match try_read(fs, &path)? {
            Ok(snap) => {
                out.snapshot = Some(snap);
                out.generation = g;
                break;
            }
            Err(_) => {
                out.skipped += 1;
                out.corrupt.push(path);
            }
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::io::SimFs;
    use std::sync::Arc;

    fn sim() -> (Arc<SimFs>, Fs, PathBuf) {
        let sim = Arc::new(SimFs::new(0x5EED));
        let fs = Fs::sim(Arc::clone(&sim));
        let dir = PathBuf::from("/snap-test");
        fs.create_dir_all(&dir).unwrap();
        (sim, fs, dir)
    }

    #[test]
    fn write_read_round_trips_and_newest_wins() {
        let (_sim, fs, dir) = sim();
        assert_eq!(read_best(&fs, &dir).unwrap().snapshot, None);
        let first = Snapshot { seq: 7, payload: "[\"line one\"]".into() };
        write(&fs, &dir, &first, 1).unwrap();
        let out = read_best(&fs, &dir).unwrap();
        assert_eq!(out.snapshot, Some(first));
        assert_eq!(out.generation, 1);
        let second = Snapshot { seq: 19, payload: "[\"line one\",\"línea dos\"]".into() };
        write(&fs, &dir, &second, 2).unwrap();
        let out = read_best(&fs, &dir).unwrap();
        assert_eq!(out.snapshot, Some(second));
        assert_eq!(out.generation, 2);
        assert_eq!(out.skipped, 0);
        // No tmp residue after a clean install.
        assert!(!fs.exists(&dir.join(TMP_FILE)));
    }

    #[test]
    fn retention_keeps_the_newest_two_generations() {
        let (_sim, fs, dir) = sim();
        for g in 1..=5u64 {
            let snap = Snapshot { seq: g * 10, payload: format!("gen-{g}") };
            write(&fs, &dir, &snap, g).unwrap();
        }
        assert_eq!(list_generations(&fs, &dir).unwrap(), vec![4, 5]);
    }

    #[test]
    fn corrupt_newest_falls_back_to_previous_generation() {
        let (sim, fs, dir) = sim();
        write(&fs, &dir, &Snapshot { seq: 10, payload: "older-good".into() }, 1).unwrap();
        write(&fs, &dir, &Snapshot { seq: 20, payload: "newer-doomed".into() }, 2).unwrap();
        assert!(sim.corrupt_file(&dir.join(generation_file(2))));
        let out = read_best(&fs, &dir).unwrap();
        assert_eq!(out.snapshot, Some(Snapshot { seq: 10, payload: "older-good".into() }));
        assert_eq!(out.generation, 1);
        assert_eq!(out.skipped, 1);
        assert_eq!(out.corrupt, vec![dir.join(generation_file(2))]);
    }

    #[test]
    fn all_generations_corrupt_reports_rather_than_lies() {
        let (sim, fs, dir) = sim();
        write(&fs, &dir, &Snapshot { seq: 10, payload: "one".into() }, 1).unwrap();
        write(&fs, &dir, &Snapshot { seq: 20, payload: "two".into() }, 2).unwrap();
        assert!(sim.corrupt_file(&dir.join(generation_file(1))));
        assert!(sim.corrupt_file(&dir.join(generation_file(2))));
        let out = read_best(&fs, &dir).unwrap();
        assert_eq!(out.snapshot, None);
        assert_eq!(out.skipped, 2);
        assert_eq!(out.corrupt.len(), 2);
    }

    #[test]
    fn future_versions_are_refused_not_misread() {
        let (_sim, fs, dir) = sim();
        write(&fs, &dir, &Snapshot { seq: 1, payload: "p".into() }, 1).unwrap();
        let path = dir.join(generation_file(1));
        let bumped = String::from_utf8(fs.read(&path).unwrap())
            .unwrap()
            .replace("\"version\":1", "\"version\":2");
        fs.write(&path, bumped.as_bytes()).unwrap();
        let out = read_best(&fs, &dir).unwrap();
        assert_eq!(out.snapshot, None);
        assert_eq!(out.skipped, 1);
    }
}
