#!/usr/bin/env bash
# Build the benchmark and the losac CLI from source, then run one
# workload:  bash perfbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
# Run from the root of a source checkout.  Build output goes to stderr,
# so the last line of stdout is the result object.
set -u
dune build --root . ./perfbench/perfbench.exe ./bin/losac.exe 1>&2 || exit 2
exec ./_build/default/perfbench/perfbench.exe --losac ./_build/default/bin/losac.exe "$@"
