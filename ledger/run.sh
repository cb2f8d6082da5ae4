#!/usr/bin/env bash
# Run every ledger workload untraced, each in its own process, and print
# its metrics with their units.  Exits non-zero if any workload reports
# a failure.
#
#   ledger/run.sh [SEED] [RUNS.jsonl]
#
# SEED defaults to 1.  With RUNS.jsonl, each result is also appended
# there, for `ledger.exe --compare A.jsonl B.jsonl`.
set -uo pipefail
cd "$(dirname "$0")/.."
seed=${1:-1}
record=()
if [ $# -ge 2 ]; then record=(--record "$2"); fi
status=0
for w in paper-sim compile-large fleet-cold fleet-warm; do
  bash ledger/ledger.sh --workload "$w" --seed "$seed" --trace 0 "${record[@]}" || status=1
done
exit $status
