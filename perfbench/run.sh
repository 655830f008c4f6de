#!/bin/sh
# Benchmark entry point.  Builds df_compile and the harness from source,
# then runs one workload:
#
#   sh perfbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
#
# Run it from the root of a source checkout; see BENCHMARK.json.
set -eu
cd "$(dirname "$0")/.."
if [ ! -f dune-project ] || [ ! -f bin/df_compile.ml ] || [ ! -d lib ]; then
  echo "perfbench: needs a full source checkout (dune-project, bin/, lib/)" >&2
  exit 2
fi
# the shared build cache lives outside the checkout; keep the build inside
DUNE_CACHE=disabled dune build bin/df_compile.exe perfbench/bench.exe \
  perfbench/hostprobe.exe 1>&2
exec ./_build/default/perfbench/bench.exe "$@"
