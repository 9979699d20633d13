#!/usr/bin/env bash
# The offline verification gate: proves the hermetic build holds.
# Builds everything, runs the full test suite, and checks the paper
# reproduction against its golden record — all with --offline, so any
# reintroduced registry dependency fails here before it reaches CI.
set -euo pipefail
cd "$(dirname "$0")/.."

# UPDATE_GOLDEN makes the golden tests rewrite their fixtures instead of
# checking them, so the gate would pass by construction. Refuse it.
if [[ -n "${UPDATE_GOLDEN+set}" ]]; then
    echo "verify.sh: UPDATE_GOLDEN is set; unset it to check the golden fixtures" >&2
    exit 1
fi

cargo build --release --offline --workspace
# Clippy is a gate: every warning is an error. Beyond clippy's defaults
# it enforces the determinism and durability bans in clippy.toml — no
# wall-clock read outside the deadline/bench/WAL-fsync owners, no
# std::fs outside store::io, no random-seeded std HashMap/HashSet — plus
# `// SAFETY:` on every unsafe block and a reason on every suppression
# ([workspace.lints.clippy] in Cargo.toml). Suppressions are
# `#[expect(…, reason = "…")]`, so one that silences nothing fails too.
cargo clippy --offline --workspace --all-targets -- -D warnings
# Invariant lint: zero non-baselined findings (panics on request paths,
# lock-order cycles, guards held across blocking calls, protocol gaps,
# hot-path allocations, …). The ratchet lives in
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
# The reproduction record: every experiment table (E1–E8, F1, F2, T1,
# A1–A3) rendered with its wall-clock cells masked must equal
# crates/bench/tests/golden/reproduction.txt byte for byte, so a drifted
# seeded value fails here, naming its section and row. F2's stride-1
# row is the full crash storm: every storage fault kind (short writes,
# torn appends, failed/lying fsyncs, bit flips, partial reads, ENOSPC)
# at every I/O operation of tests/scenarios/storm.txt, each run killed,
# recovered and checked for zero silent losses.
cargo run --release --offline -q -p copycat-bench --bin harness -- check
# Scenario replay: every transcript (`>>` requests, `<<` answers) is
# replayed and must reproduce its file byte for byte — the full wire
# conversation (one request of every class), the chaos failover
# (hard-down primary, breaker trip, healthy replacement alias), and the
# crash scenarios (transform synthesis, the storm workload), whose
# durable router is killed at `-- crash`, recovered from snapshot + WAL,
# and must answer exactly like a never-crashed control.
cargo run --release --offline -p copycat-serve -- replay \
    crates/serve/tests/golden/wire_transcript.txt crates/serve/tests/scenarios/*.txt
# Herd smoke: 10k copy-on-write sessions over one shared world on one
# server; probes a sample end to end and asserts the marginal memory
# cost keeps >=100k sessions per GiB.
cargo run --release --offline -p copycat-serve -- herd
