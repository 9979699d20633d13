#!/usr/bin/env bash
# Audit view of copycat-lint. `check` (the default here, and the verify
# gate) prints every finding and the clean/runtime summary; `--json`
# emits every finding with its rule provenance and the analyzer's
# runtime_ms, so CI can archive reports and trend lint latency. See DESIGN.md § Static analysis for the rule
# catalogue and `// lint:allow(<rule>) <reason>` suppression syntax.
#
#   lint_report.sh                 human summary (exit 1 on violations)
#   lint_report.sh --json          full findings report as JSON on stdout
#   lint_report.sh --json out.json ...also written to out.json
set -euo pipefail
cd "$(dirname "$0")/.."

if [[ "${1:-}" == "--json" ]]; then
  if [[ $# -ge 2 ]]; then
    cargo run --release --offline -q -p copycat-lint -- json | tee "$2"
  else
    cargo run --release --offline -q -p copycat-lint -- json
  fi
else
  cargo run --release --offline -q -p copycat-lint -- check
fi
