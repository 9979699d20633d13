//! Spans recorded around the benchmark's calls into each layer.
//!
//! The program is not instrumented: every span brackets a call the
//! benchmark itself makes (a socket round trip, a `Router` or `Server`
//! call, an engine function on a replica session, a store operation).
//! Spans stay in memory and are written out once, at the end of a run.

use crate::ALLOC;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One bracketed call.
#[derive(Debug, Clone)]
pub struct Span {
    /// The layer call (`tcp.rtt`, `server.handle`, `graph.steiner`, …).
    pub name: &'static str,
    /// The request class it served.
    pub class: &'static str,
    /// The id of the request that caused it.
    pub cause: u64,
    /// Start, in ns since the run's epoch.
    pub start_ns: u64,
    /// End, in ns since the run's epoch.
    pub end_ns: u64,
    /// Heap allocations during the call (quiescent probes only; 0 in
    /// the concurrent timed pass, where counts would mix threads).
    pub allocs: u64,
}

impl Span {
    /// Duration in µs.
    pub fn us(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e3
    }
}

/// The span log of a run.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    /// Every span, in completion order.
    pub spans: Vec<Span>,
}

impl Tracer {
    /// A log whose timestamps count from `epoch`.
    pub fn new(epoch: Instant) -> Tracer {
        Tracer {
            epoch,
            spans: Vec::new(),
        }
    }

    /// The instant timestamps count from.
    pub fn epoch(&self) -> Instant {
        self.epoch
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Record a span for an already-timed call.
    pub fn push(
        &mut self,
        name: &'static str,
        class: &'static str,
        cause: u64,
        start: Instant,
        end: Instant,
    ) {
        let (start_ns, end_ns) = (self.ns(start), self.ns(end));
        self.spans.push(Span {
            name,
            class,
            cause,
            start_ns,
            end_ns,
            allocs: 0,
        });
    }

    /// Run `f` inside a span that also counts its heap allocations.
    /// Only meaningful while no other thread of this process allocates.
    pub fn call<R>(
        &mut self,
        name: &'static str,
        class: &'static str,
        cause: u64,
        f: impl FnOnce() -> R,
    ) -> R {
        let before = ALLOC.snapshot();
        let start = Instant::now();
        let out = f();
        let end = Instant::now();
        let allocs = ALLOC.snapshot().allocs_since(&before);
        let (start_ns, end_ns) = (self.ns(start), self.ns(end));
        self.spans.push(Span {
            name,
            class,
            cause,
            start_ns,
            end_ns,
            allocs,
        });
        out
    }

    /// Fold in spans recorded elsewhere (another client thread).
    pub fn extend(&mut self, spans: Vec<Span>) {
        self.spans.extend(spans);
    }

    /// Spans named `name`.
    pub fn named<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a Span> + 'a {
        self.spans.iter().filter(move |s| s.name == name)
    }

    /// Write every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            writeln!(
                out,
                "{{\"name\":\"{}\",\"class\":\"{}\",\"cause\":{},\"start_ns\":{},\"end_ns\":{},\"allocs\":{}}}",
                s.name, s.class, s.cause, s.start_ns, s.end_ns, s.allocs
            )?;
        }
        out.flush()
    }
}
