#!/usr/bin/env bash
# The offline verification gate: proves the hermetic build holds.
# Builds everything, runs the full test suite, and regenerates the E1
# table — all with --offline, so any reintroduced registry dependency
# fails here before it reaches CI.
set -euo pipefail
cd "$(dirname "$0")/.."

# UPDATE_GOLDEN makes the golden tests rewrite their fixtures instead of
# checking them, so the gate would pass by construction. Refuse it.
if [[ -n "${UPDATE_GOLDEN+set}" ]]; then
    echo "verify.sh: UPDATE_GOLDEN is set; unset it to check the golden fixtures" >&2
    exit 1
fi

cargo build --release --offline --workspace
# Invariant lint: zero non-baselined findings (wall-clock reads, random
# hasher state, panics on request paths, lock-order cycles, protocol
# gaps, hot-path allocations, …). The ratchet lives in
# LINT_BASELINE.json; see DESIGN.md § Static analysis. The budget keeps
# whole-tree analysis (symbol index + call graph) from creeping into CI
# latency — it runs in well under a second today.
cargo run --release --offline -q -p copycat-lint -- check --budget-ms 20000
cargo test -q --offline --workspace
# Benchmark self-tests (perfbench/ is its own Cargo workspace): seeded
# request generation, every generated request succeeding on today's
# server, and the benchmark's correctness checks — hot reads
# byte-identical, integrate matching its in-process control — catching
# corrupted responses and recovery mismatches.
CARGO_TARGET_DIR=.bench_build cargo test --release --offline --manifest-path perfbench/Cargo.toml
# Examples: `cargo test` only compiles them. Each runs end to end and
# exits non-zero on a failed assert; power_user is the only end-to-end
# user of suggest_transform / accept_transform / edit_cell / undo.
for example in explain_provenance feedback_learning hurricane_mashup power_user quickstart wrapper_induction; do
    cargo run -q --release --offline --example "$example" >/dev/null
done
cargo run --release --offline -p copycat-bench --bin harness -- e1
# Scenario replay: every transcript (`>>` requests, `<<` answers) is
# replayed and must reproduce its file byte for byte — the full wire
# conversation (one request of every class), the chaos failover
# (hard-down primary, breaker trip, healthy replacement alias), and the
# crash scenarios (transform synthesis, the storm workload), whose
# durable router is killed at `-- crash`, recovered from snapshot + WAL,
# and must answer exactly like a never-crashed control.
cargo run --release --offline -p copycat-serve -- replay \
    crates/serve/tests/golden/wire_transcript.txt crates/serve/tests/scenarios/*.txt
# Crash-storm smoke: the storage-fault sweep on the simulated
# filesystem — every fault kind (short writes, torn appends,
# failed/lying fsyncs, bit flips, partial reads, ENOSPC) injected at
# every I/O operation of the storm scenario (tests/scenarios/storm.txt),
# each run killed, recovered,
# and checked for the no-silent-loss property: every acked effect is
# byte-identically present or explicitly reported lost.
cargo run --release --offline -p copycat-serve -- crash-storm
# Herd smoke: 10k copy-on-write sessions over one shared world on one
# server; probes a sample end to end and asserts the marginal memory
# cost keeps >=100k sessions per GiB.
cargo run --release --offline -p copycat-serve -- herd
# Smoke: the perf-trajectory emitter runs and produces non-empty JSON
# (no timing assertions — numbers vary by machine).
scripts/bench_json.sh
