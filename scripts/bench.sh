#!/bin/sh
# Regenerate the committed throughput snapshots BENCH_1.json + BENCH_2.json.
#
#   scripts/bench.sh [builddir]      (default: build)
#
# Runs osm-bench with its default protocol (mixed suite, scale 2, untimed
# warmup per workload, steady-state Minst/s) and writes the stable-schema
# "osm-bench-1" JSON document to BENCH_1.json at the repo root.  The
# snapshot records, per engine, Minst/s and simulated cycles/sec plus the
# decode- and block-cache hit ratios, and the ISS block-/decode-cache
# ablation rows (block-cache target: >= 5x over the decode-cache baseline).
#
# A second pass runs `osm-bench --serve` (sharded fuzz-campaign throughput:
# serial vs. a 4-worker pool vs. cold/warm on-disk result cache) into
# BENCH_2.json ("osm-bench-serve-1" schema).  Note the jobs-N column only
# scales with real cores; on a single-core host the honest speedup story
# is the cache-warm replay.
#
# The snapshot is machine-specific: regenerate it (on an otherwise idle
# host, Release build) whenever benchmarking hardware changes or an
# intentional perf change lands.  scripts/bench_gate.py — registered with
# ctest as bench_regression_gate — re-measures against this file and fails
# on a >20% throughput loss (its default tolerance).
set -eu

cd "$(dirname "$0")/.."
BUILD="${1:-build}"
BENCH="$BUILD/tools/osm-bench"

if [ ! -x "$BENCH" ]; then
    echo "bench.sh: $BENCH not found; build first (cmake --build $BUILD --target osm-bench)" >&2
    exit 1
fi

"$BENCH" > BENCH_1.json
echo "bench.sh: wrote BENCH_1.json"

"$BENCH" --serve > BENCH_2.json
echo "bench.sh: wrote BENCH_2.json"
