#!/usr/bin/env bash
# Build the ledger from source, then run it with the given arguments:
#   bash ledger/ledger.sh --workload paper-sim --seed 1 --seconds 10 --trace 0
# Run from the repository root.  Build output goes to stderr, so the
# last line of stdout is the ledger's JSON result.
set -euo pipefail
cd "$(dirname "$0")/.."
# the dune cache lives outside the checkout; the benchmark stays inside it
export DUNE_CACHE=disabled
dune build --root . ledger/ledger.exe 1>&2
exec ./_build/default/ledger/ledger.exe "$@"
