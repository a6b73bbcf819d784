#!/usr/bin/env bash
# The command BENCHMARK.json names. Run from the root of a zodiac source
# checkout:
#
#   bash benchmark/run.sh --workload W --seed N --seconds T --trace 0|1
#
# Builds the zodiac CLI and zbench from this checkout's sources, then
# runs one measurement of workload W. Every line but the last is for
# people; the last line of stdout is the JSON result. Anything else
# zbench takes (see benchmark/README.md) may be passed as well.
set -euo pipefail

if [[ ! -f dune-project || ! -f bin/dune || ! -d lib ]]; then
  echo "benchmark/run.sh: run from the root of a zodiac source checkout" >&2
  exit 2
fi

# Build inside the checkout only: no shared dune cache in $HOME.
export DUNE_CACHE=disabled
dune build --root . --display quiet ./bin/zodiac_cli.exe ./benchmark/zbench.exe >&2

exec ./_build/default/benchmark/zbench.exe run --json "$@"
