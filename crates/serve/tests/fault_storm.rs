//! Serve-level storage-fault tests: the crash-storm sweep property
//! (no acked effect is ever silently lost, across every fault kind at
//! strided injection points) and the generational snapshot fallback
//! (a rotted newest generation costs a longer replay, not data).
//!
//! The full stride-1 sweep runs in release as the `copycat-serve
//! crash-storm` verify smoke; these tests cover every fault kind at a
//! spread of injection points and across seeds.

use copycat_serve::router::Router;
use copycat_serve::smoke::{crash_config, run_crash_storm, STORM};
use copycat_store::{Fs, SimFs};
use copycat_util::check::{check, Gen};
use copycat_util::prop_ensure_eq;
use std::path::PathBuf;
use std::sync::Arc;

#[test]
fn crash_storm_sweep_has_no_silent_losses() {
    let report = run_crash_storm(0xC1D9, 7).expect("crash storm property");
    assert!(report.runs > 0, "{report:?}");
    assert!(report.faults_fired > 0, "{report:?}");
    assert_eq!(report.silent_losses, 0, "{report:?}");
    // Loss accounting is total: every acked effect is recovered or
    // attributed to an explicit loss class.
    assert_eq!(
        report.acked,
        report.recovered + report.quarantined + report.tail_lost,
        "{report:?}"
    );
}

#[test]
fn prop_crash_storm_across_seeds() {
    check("crash_storm_seeds", 3, &[], |g: &mut Gen| {
        let seed = g.u64_in(0..u64::MAX);
        let stride = g.u64_in(9..17);
        let report = run_crash_storm(seed, stride)?;
        prop_ensure_eq!(report.silent_losses, 0);
        prop_ensure_eq!(
            report.acked,
            report.recovered + report.quarantined + report.tail_lost
        );
        Ok(())
    });
}

/// `storm.txt`'s requests to `storm-a`, before and after its
/// `-- crash`: nine journaled records, which with `snapshot_every: 4`
/// cross two snapshot generations (seq 4 and seq 8), so the newest
/// generation has a fallback below it; then four read-only probes.
fn storm_a() -> (Vec<&'static str>, Vec<&'static str>) {
    let (workload, probes) = STORM.split_once("\n-- crash\n").expect("storm.txt crashes once");
    let requests = |part: &'static str| -> Vec<&'static str> {
        part.lines()
            .filter_map(|l| l.strip_prefix(">> "))
            .filter(|l| l.contains("\"session\":\"storm-a\""))
            .collect()
    };
    (requests(workload), requests(probes))
}

/// Flip a byte in the newest snapshot generation, recover, and the
/// router must fall back one generation — replaying a longer WAL tail —
/// and answer every probe byte-identically to a never-crashed control,
/// with the fallback explicitly reported.
#[test]
fn corrupt_newest_snapshot_generation_falls_back_byte_identically() {
    let sim = Arc::new(SimFs::new(0xFA11));
    let fs = Fs::sim(Arc::clone(&sim));
    let root = PathBuf::from("/fallback");
    let (workload, probes) = storm_a();
    assert_eq!((workload.len(), probes.len()), (9, 4));
    let router = Router::new(crash_config(&fs, Some(root.clone())));
    for line in &workload {
        let resp = router.handle_line(line);
        assert!(resp.contains("\"ok\":true"), "{line} -> {resp}");
    }
    router.shutdown(); // graceful: everything on disk is durable

    let dirs = fs.list_dirs(&root).unwrap();
    assert_eq!(dirs.len(), 1, "{dirs:?}");
    let generations: Vec<PathBuf> = fs
        .list_files(&dirs[0])
        .unwrap()
        .into_iter()
        .filter(|p| {
            p.file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.starts_with("snapshot-") && n.ends_with(".json"))
        })
        .collect();
    assert_eq!(generations.len(), 2, "two generations retained: {generations:?}");
    // Lexicographic order == generation order (zero-padded names).
    assert!(sim.corrupt_file(generations.last().unwrap()));

    let recovered = Router::recover(crash_config(&fs, Some(root))).unwrap();
    let reports = recovered.recovery_reports();
    let (_, rep) = reports.iter().find(|(n, _)| n == "storm-a").expect("session recovered");
    assert_eq!(rep.generations_skipped, 1, "{rep:?}");
    assert_eq!(rep.snapshot_generation, 1, "{rep:?}");
    assert!(rep.quarantined.is_empty(), "fallback loses nothing: {rep:?}");
    assert_eq!(rep.last_seq, 9, "{rep:?}");
    // The healthy path would replay only seq 9; the fallback replays
    // everything above generation 1's floor.
    assert_eq!(rep.records_replayed, 5, "{rep:?}");
    // The corrupt generation was quarantined off the retention ladder.
    let remaining = fs.list_files(&dirs[0]).unwrap();
    assert!(!remaining.contains(generations.last().unwrap()), "{remaining:?}");

    let control = Router::new(crash_config(&Fs::real(), None));
    for line in &workload {
        control.handle_line(line);
    }
    for probe in &probes {
        let got = recovered.handle_line(probe);
        let want = control.handle_line(probe);
        assert_eq!(got, want, "probe diverged after generational fallback: {probe}");
    }
    recovered.shutdown();
    control.shutdown();
}
