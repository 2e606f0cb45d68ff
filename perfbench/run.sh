#!/usr/bin/env bash
# Build the end-to-end benchmark from source, then run it.  Run from the
# repository root:
#
#   bash perfbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
#
# Build output goes to _build/ under the root; the shared dune cache is
# disabled so nothing is written outside the checkout.
set -euo pipefail
if [ ! -f dune-project ] || [ ! -d lib ]; then
  echo "run.sh: run from the repository root (no dune-project or lib/ here)" >&2
  exit 2
fi
export DUNE_CACHE=disabled
dune build --root . --display quiet ./perfbench/e2e.exe >&2
exec ./_build/default/perfbench/e2e.exe "$@"
