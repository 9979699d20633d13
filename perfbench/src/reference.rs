//! A fixed reference computation, timed in short bursts between the
//! requests of every timed pass, so a pass's latencies can also be read
//! in units of what the host's CPU could do at the time.
//!
//! On a shared 2-vCPU VM the host's speed drifted by a quarter within
//! fifteen minutes while the hypervisor reported no stolen time: the
//! server's CPU time per request moved in step with every latency
//! (their ratio spread 0.02 over ten runs where each spread 0.13–0.21).
//! A latency divided by the reference, timed on the same host in the
//! same seconds, is a property of the program.

use std::hint::black_box;
use std::time::{Duration, Instant};

/// Time between bursts.
const PERIOD: Duration = Duration::from_millis(500);
/// Timed repetitions per burst.
const REPS: usize = 4;
/// Keys the computation formats, indexes, parses and sorts.
const KEYS: u64 = 1000;

/// The computation: string formatting, an ordered map, parsing and a
/// sort — the allocation-heavy, branchy mix of the server's own work.
/// Returns a checksum so none of it is optimised away.
pub fn work() -> u64 {
    let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
    let mut index = std::collections::BTreeMap::new();
    let mut text = String::new();
    for i in 0..KEYS {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let key = format!("{x:x}");
        text.push_str(&key);
        text.push(',');
        index.insert(key, i);
    }
    let mut parsed: Vec<u64> = text
        .split(',')
        .filter_map(|k| u64::from_str_radix(k, 16).ok())
        .collect();
    parsed.sort_unstable();
    parsed
        .iter()
        .zip(index.values())
        .fold(0, |acc, (p, i)| acc ^ p.wrapping_add(*i))
}

/// Reference bursts of one client's timed pass.
pub struct Reference {
    next: Instant,
    /// Each repetition's time, µs.
    pub samples_us: Vec<f64>,
    /// Time spent in bursts, kept out of the pass's wall time.
    pub spent: Duration,
}

impl Reference {
    /// The first burst is due now.
    pub fn new() -> Reference {
        Reference {
            next: Instant::now(),
            samples_us: Vec::new(),
            spent: Duration::ZERO,
        }
    }

    /// Run a burst if one is due. Called between requests, so the
    /// server is idle while it runs.
    pub fn tick(&mut self) {
        let start = Instant::now();
        if start < self.next {
            return;
        }
        // On a fresh thread: the scheduler puts it on an idle CPU, which
        // is where the server runs while this busy-waiting client holds
        // its own. A shared VM's vCPUs can run at different speeds;
        // timed on the client's own thread, the reference tracked the
        // server's CPU time per request half as well.
        let burst = std::thread::spawn(|| {
            (0..REPS)
                .map(|_| {
                    let t = Instant::now();
                    black_box(work());
                    t.elapsed().as_secs_f64() * 1e6
                })
                .collect::<Vec<f64>>()
        });
        self.samples_us.extend(burst.join().unwrap_or_default());
        let end = Instant::now();
        self.spent += end - start;
        self.next = end + PERIOD;
    }
}
