#!/usr/bin/env bash
# Build the benchmark and the server from source, then run one benchmark
# invocation from the root of a checkout:
#
#   bash bench/perf/run.sh --workload NAME --seed N --seconds S --trace 0|1
#
# Build output goes to stderr; the benchmark's last stdout line is its
# JSON result.
set -euo pipefail
export DUNE_CACHE=disabled
dune build --root . --display quiet bench/perf/perf.exe bin/perso_cli.exe 1>&2
exec ./_build/default/bench/perf/perf.exe --cli ./_build/default/bin/perso_cli.exe "$@"
