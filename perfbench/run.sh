#!/usr/bin/env bash
# Builds the benchmark, then runs it pinned to one CPU: the last one this
# process may use. Pinned, the hand-off between the `settle` caller and
# the verifier service's worker is a context switch on one CPU instead of
# a wake-up of an idle second CPU, whose latency on a shared virtual
# machine moves from run to run far more than the code being measured.
# Arguments go to the benchmark: --workload, --seed, --seconds, --trace.
set -euo pipefail

manifest=perfbench/Cargo.toml
# The commit the report names; "unknown" outside a git checkout.
PERFBENCH_COMMIT=unknown
if [ -e .git ] && commit=$(git rev-parse HEAD 2>/dev/null); then
    PERFBENCH_COMMIT=$commit
fi
export PERFBENCH_COMMIT
cargo build --release --quiet --offline --manifest-path "$manifest"

run=(cargo run --release --quiet --offline --manifest-path "$manifest" --)
if command -v taskset >/dev/null; then
    cpus=$(taskset -pc $$ | sed 's/.*: //')
    cpu=${cpus##*[,-]}
    exec taskset -c "$cpu" "${run[@]}" "$@"
fi
exec "${run[@]}" "$@"
