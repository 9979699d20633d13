//! The benchmark's metric vocabulary and how each value is derived.

use crate::stats::{is_mutation, median, percentile, Recorder};
use crate::trace::Tracer;
use crate::workloads::Outcome;
use copycat_serve::protocol::Op;
use std::collections::BTreeMap;

/// End-to-end metrics: what a user of the system sees, each gated by
/// its bound in `BENCHMARK.json`.
pub const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("latency_p50_gm_ref", "ref"),
    ("autocomplete_p50_ref", "ref"),
    ("rss_peak_mb", "MiB"),
];

/// Printed and kept in the results, but not gated (see the README): on
/// a shared 2-vCPU VM the latencies in µs and CPU time per request
/// follow the host's speed, which drifts over minutes; the tails and
/// the means behind throughput follow its stolen time too; a mixture's
/// median sits at the edge of a class cluster, where a small shift of
/// every class moves it across a gap; and `hot_read`'s only mutation is
/// an empty `column_suggestions`.
pub const UNGATED: [(&str, &str); 11] = [
    ("latency_p50_gm_us", "us"),
    ("autocomplete_p50_us", "us"),
    ("reference_us", "us"),
    ("throughput_rps", "req/s"),
    ("mutation_p50_gm_us", "us"),
    ("cpu_us_per_req", "us"),
    ("latency_p50_us", "us"),
    ("mutation_p50_us", "us"),
    ("latency_p99_us", "us"),
    ("autocomplete_p99_us", "us"),
    ("mutation_p99_us", "us"),
];

/// Request classes the workloads send, each with its own per-layer pair.
pub const OP_CLASSES: [Op; 20] = [
    Op::CreateSession,
    Op::RegisterWorld,
    Op::OpenDoc,
    Op::Paste,
    Op::AcceptRows,
    Op::NameColumn,
    Op::SetColumnType,
    Op::CommitSource,
    Op::ColumnSuggestions,
    Op::AcceptColumn,
    Op::Autocomplete,
    Op::Feedback,
    Op::Explain,
    Op::Export,
    Op::Render,
    Op::SessionStats,
    Op::LearnTransform,
    Op::SaveSession,
    Op::CloseSession,
    Op::LoadSession,
];

/// Per-layer metrics other than the per-class pairs.
const LAYERS: [(&str, &str); 32] = [
    ("tcp.overhead_p50_us", "us"),
    ("tcp.bytes_per_req", "bytes"),
    ("protocol.parse_p50_us", "us"),
    ("protocol.parse_allocs", "count"),
    ("server.handle_p50_us", "us"),
    ("server.dispatch_p50_us", "us"),
    ("server.allocs_per_req", "count"),
    ("core.cache_hit_ratio", "ratio"),
    ("core.discover_p50_us", "us"),
    ("overlay.allocs_per_autocomplete", "count"),
    ("overlay.alloc_ratio", "ratio"),
    ("overlay.bytes_per_session", "bytes"),
    ("graph.steiner_p50_us", "us"),
    ("graph.nodes", "count"),
    ("query.exec_p50_us", "us"),
    ("query.rows_out", "count"),
    ("semantic.hypotheses_p50_us", "us"),
    ("session.snapshot_bytes", "bytes"),
    ("router.durable_overhead_p50_us", "us"),
    ("router.replay_ratio", "ratio"),
    ("router.recover_p50_us", "us"),
    ("store.append_p50_us", "us"),
    ("store.sync_p50_us", "us"),
    ("store.sync_p99_us", "us"),
    ("store.syncs_per_mutation", "ratio"),
    ("store.snapshot_p50_us", "us"),
    ("store.snapshot_bytes", "bytes"),
    ("store.write_amp", "ratio"),
    ("store.recover_p50_us", "us"),
    ("trace.latency_p50_gm_overhead_us", "us"),
    ("trace.throughput_overhead_rps", "req/s"),
    ("overlay.flat_allocs_per_autocomplete", "count"),
];

/// Every per-layer metric, in report order.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut out: Vec<(String, &'static str)> =
        LAYERS.iter().map(|(n, u)| (n.to_string(), *u)).collect();
    for op in OP_CLASSES {
        out.push((format!("op.{}.p50_us", op.as_str()), "us"));
        out.push((format!("op.{}.allocs", op.as_str()), "count"));
    }
    out
}

/// End-to-end values (and tails) of one pass.
pub fn end_to_end(rec: &Recorder, out: &Outcome) -> BTreeMap<&'static str, f64> {
    let all = rec.latencies(|_| true);
    let ac = rec.latencies(|op| op == Op::Autocomplete);
    let mu = rec.latencies(is_mutation);
    let reference = median(&rec.reference_us);
    let in_reference = |us: f64| if reference > 0.0 { us / reference } else { 0.0 };
    BTreeMap::from([
        ("setup_s", median(&out.setup_s)),
        (
            "throughput_rps",
            rec.timed_requests() as f64 / rec.timed_wall.as_secs_f64().max(1e-9),
        ),
        ("latency_p50_gm_us", class_median_gm(rec, |_| true)),
        ("autocomplete_p50_us", percentile(&ac, 0.5)),
        ("reference_us", reference),
        (
            "latency_p50_gm_ref",
            in_reference(class_median_gm(rec, |_| true)),
        ),
        ("autocomplete_p50_ref", in_reference(percentile(&ac, 0.5))),
        ("mutation_p50_gm_us", class_median_gm(rec, is_mutation)),
        ("rss_peak_mb", out.rss_mb),
        (
            "cpu_us_per_req",
            rec.cpu_s * 1e6 / rec.timed_requests().max(1) as f64,
        ),
        ("latency_p50_us", percentile(&all, 0.5)),
        ("mutation_p50_us", percentile(&mu, 0.5)),
        ("latency_p99_us", percentile(&all, 0.99)),
        ("autocomplete_p99_us", percentile(&ac, 0.99)),
        ("mutation_p99_us", percentile(&mu, 0.99)),
    ])
}

/// The typical latency of a mixed request stream: each class's median,
/// averaged in log space with the class's share of the requests as its
/// weight. It moves in proportion when any class gets faster or slower,
/// where the mixture's own median jumps between class clusters.
fn class_median_gm(rec: &Recorder, keep: impl Fn(Op) -> bool) -> f64 {
    let (mut log_sum, mut n) = (0.0, 0.0);
    for (class, v) in &rec.latency_us {
        if Op::parse(class).is_some_and(&keep) && !v.is_empty() {
            log_sum += v.len() as f64 * median(v).max(1e-3).ln();
            n += v.len() as f64;
        }
    }
    if n > 0.0 {
        (log_sum / n).exp()
    } else {
        0.0
    }
}

fn durations(t: &Tracer, name: &str) -> Vec<f64> {
    let mut v: Vec<f64> = t.named(name).map(|s| s.us()).collect();
    v.sort_by(f64::total_cmp);
    v
}

fn p50(t: &Tracer, name: &str) -> f64 {
    percentile(&durations(t, name), 0.5)
}

/// Per cause, `outer − inner` over the spans `outer` and `inner` that
/// share it (inner summed), as a median.
fn difference_p50(t: &Tracer, outer: &str, inner: &str, keep: impl Fn(Op) -> bool) -> f64 {
    let mut inner_us: BTreeMap<u64, f64> = BTreeMap::new();
    for s in t.named(inner) {
        *inner_us.entry(s.cause).or_default() += s.us();
    }
    let diffs: Vec<f64> = t
        .named(outer)
        .filter(|s| Op::parse(s.class).is_some_and(&keep))
        .filter_map(|s| inner_us.get(&s.cause).map(|i| s.us() - i))
        .collect();
    median(&diffs)
}

fn allocs_median(t: &Tracer, name: &str, class: Option<&str>) -> f64 {
    let v: Vec<f64> = t
        .named(name)
        .filter(|s| class.is_none_or(|c| s.class == c))
        .map(|s| s.allocs as f64)
        .collect();
    median(&v)
}

/// Per-layer values of a traced run. A layer the workload's requests
/// never reach reports 0.
pub fn per_layer_values(out: &Outcome) -> BTreeMap<String, f64> {
    let t = &out.tracer;
    let mut m: BTreeMap<String, f64> = per_layer().into_iter().map(|(n, _)| (n, 0.0)).collect();
    let mut set = |name: &str, v: f64| {
        m.insert(name.to_string(), v);
    };
    set(
        "tcp.overhead_p50_us",
        difference_p50(t, "tcp.rtt", "server.handle", |_| true),
    );
    set("protocol.parse_p50_us", p50(t, "protocol.parse"));
    set(
        "protocol.parse_allocs",
        allocs_median(t, "protocol.parse", None),
    );
    set("server.handle_p50_us", p50(t, "server.handle"));
    set(
        "server.dispatch_p50_us",
        difference_p50(t, "server.handle", "server.engine", |_| true),
    );
    let handles: Vec<f64> = t.named("server.handle").map(|s| s.allocs as f64).collect();
    set(
        "server.allocs_per_req",
        if handles.is_empty() {
            0.0
        } else {
            handles.iter().sum::<f64>() / handles.len() as f64
        },
    );
    set("core.discover_p50_us", p50(t, "core.discover"));
    set("graph.steiner_p50_us", p50(t, "graph.steiner"));
    set("query.exec_p50_us", p50(t, "query.exec"));
    set("semantic.hypotheses_p50_us", p50(t, "semantic.hypotheses"));
    set(
        "router.durable_overhead_p50_us",
        difference_p50(t, "router.durable", "router.ephemeral", Op::mutates),
    );
    set("router.recover_p50_us", p50(t, "router.recover"));
    set("store.append_p50_us", p50(t, "store.append"));
    set("store.sync_p50_us", p50(t, "store.sync"));
    set(
        "store.sync_p99_us",
        percentile(&durations(t, "store.sync"), 0.99),
    );
    set("store.snapshot_p50_us", p50(t, "store.snapshot"));
    set("store.recover_p50_us", p50(t, "store.recover"));
    set(
        "overlay.flat_allocs_per_autocomplete",
        allocs_median(t, "overlay.flat", None),
    );
    for op in OP_CLASSES {
        let c = op.as_str();
        let mut v: Vec<f64> = t
            .named("server.handle")
            .filter(|s| s.class == c)
            .map(|s| s.us())
            .collect();
        v.sort_by(f64::total_cmp);
        set(&format!("op.{c}.p50_us"), percentile(&v, 0.5));
        set(
            &format!("op.{c}.allocs"),
            allocs_median(t, "server.handle", Some(c)),
        );
    }
    if let Some(traced) = &out.traced {
        let untraced = end_to_end(&out.rec, out);
        let with = end_to_end(traced, out);
        set(
            "trace.latency_p50_gm_overhead_us",
            with["latency_p50_gm_us"] - untraced["latency_p50_gm_us"],
        );
        set(
            "trace.throughput_overhead_rps",
            with["throughput_rps"] - untraced["throughput_rps"],
        );
    }
    for (k, v) in &out.layers {
        m.insert(k.clone(), *v);
    }
    m
}

/// The generator's own time per request line it produced.
pub fn generator_us(rec: &Recorder) -> f64 {
    if rec.generated == 0 {
        0.0
    } else {
        rec.gen_time.as_secs_f64() * 1e6 / rec.generated as f64
    }
}
