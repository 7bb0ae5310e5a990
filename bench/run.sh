#!/usr/bin/env bash
# The repo benchmark's one command (named by BENCHMARK.json).
#
#   bench/run.sh --workload W --seed N --seconds S --trace 0|1
#       one run of one workload; the last line of stdout is the result object
#   bench/run.sh [--seed N] [--smoke] [--sets K] [--seconds S]
#       every workload, untraced then traced, each in its own process;
#       writes bench/out/results.json and bench/out/trace_<workload>.json
#   bench/run.sh compare parent.json change.json
#   bench/run.sh manifest
#
# Builds the release binary first (a no-op when it is current). Run from the
# repository root or anywhere else: paths are taken from this script's place.
set -euo pipefail

here="$(dirname "${BASH_SOURCE[0]}")"
# The driver points CARGO_TARGET_DIR at its own build directory; cargo reads
# a relative one against the current directory, and so does this script.
target="${CARGO_TARGET_DIR:-$here/target}"

# Cargo's progress goes to stderr; stdout stays the benchmark's own.
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" --target-dir "$target"
bin="$target/release/oil-benchmark"

case "${1:-}" in
    compare | manifest)
        exec "$bin" "$@"
        ;;
esac
for arg in "$@"; do
    if [ "$arg" = "--workload" ]; then
        exec "$bin" run --out "$here/out" "$@"
    fi
done
exec "$bin" suite --out "$here/out" "$@"
