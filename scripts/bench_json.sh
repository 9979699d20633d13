#!/usr/bin/env bash
# Emit the experiment sweeps as machine-readable JSON at the repo root.
# These are in-process, single-trial trajectories: their seeded values
# (costs, ratios, loss accounting, completeness) are machine-independent,
# their timings are not. The serving tier (socket, router, WAL, memory)
# is measured by perfbench/ (see perfbench/README.md), not here.
#
#   BENCH_steiner.json — the E3 Steiner scale-up sweep. Rows are
#     {nodes, terminals, exact_us, spcsh_us, ratio}; exact_us/ratio are
#     null where the exact solve is out of the sweep's range.
#   BENCH_faults.json — {"f1": …, "recovery_under_fault": …}. "f1" is
#     the fault-tolerance sweep (failure rate x {no-retry, retry,
#     retry+failover}); rows are {rate, mode, completeness, degraded,
#     virtual_ms, retries, trips}, and virtual_ms is simulated time, so
#     those rows ARE machine-independent. "recovery_under_fault" is the
#     storage-fault crash storm: "sweep" rows are {stride, workload_ops,
#     runs, faults_fired, acked, recovered, quarantined, tail_lost,
#     silent_losses, elapsed_us, mean_run_us} (loss accounting on SimFs,
#     machine-independent; only the timings are wall clock), and
#     "real_fs_overhead" is the StoreFs-trait-vs-raw-std::fs guard
#     {records, syncs, via_trait_us, via_std_us, ratio}.
#   BENCH_transform.json — the T1 transform-synthesis sweep (messy-format
#     world, service-only vs learned transform). Rows are {venues, mode,
#     completeness, learn_ms, suggest_ms, amortized_ms, program,
#     coverage}; the *_ms fields are wall clock for the interactive
#     learn + suggest path.
set -euo pipefail
cd "$(dirname "$0")/.."

OUT="BENCH_steiner.json"
cargo run --release --offline -p copycat-bench --bin harness -- e3-json > "$OUT"
test -s "$OUT" || { echo "bench_json: $OUT is empty" >&2; exit 1; }
echo "bench_json: wrote $OUT ($(wc -c < "$OUT") bytes)"

OUT="BENCH_faults.json"
cargo run --release --offline -p copycat-bench --bin harness -- faults-json > "$OUT"
test -s "$OUT" || { echo "bench_json: $OUT is empty" >&2; exit 1; }
echo "bench_json: wrote $OUT ($(wc -c < "$OUT") bytes)"

OUT="BENCH_transform.json"
cargo run --release --offline -p copycat-bench --bin harness -- transforms-json > "$OUT"
test -s "$OUT" || { echo "bench_json: $OUT is empty" >&2; exit 1; }
echo "bench_json: wrote $OUT ($(wc -c < "$OUT") bytes)"
