#!/usr/bin/env bash
# Build the repo's server and the benchmark from source, then run one
# workload:  bash perfbench/run.sh --workload W --seed N --seconds S --trace 0|1
set -euo pipefail
cd "$(dirname "$0")/.."
dune build --root . perfbench/bin/main.exe bin/jstar_serve_cli.exe 1>&2
exec ./_build/default/perfbench/bin/main.exe --server _build/default/bin/jstar_serve_cli.exe "$@"
