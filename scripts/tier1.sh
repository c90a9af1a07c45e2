#!/usr/bin/env bash
# Tier-1 gate: the full Release build + test suite (ROADMAP.md), then the
# kernel- and bit-level tests again under ASan+UBSan (OSM_SANITIZE preset),
# plus a registry-driven differential smoke: one random program executed on
# every registered engine under the sanitizers, requiring zero architectural
# divergence.  The sanitizer pass builds only the targets it runs, so it
# stays cheap; the binaries are invoked directly rather than through ctest
# because test discovery would otherwise require building every gtest
# target twice.
set -euo pipefail
cd "$(dirname "$0")/.."

cmake -B build -S .
cmake --build build -j
ctest --test-dir build --output-on-failure -j

cmake -B build-asan -S . -DOSM_SANITIZE=ON
cmake --build build-asan -j --target de_test common_test sim_test adl_test adl_sarm_test \
    checkpoint_test serve_test litmus_test osm-run osm-fuzz
./build-asan/tests/de_test
./build-asan/tests/common_test

# Engine-adapter suite under the sanitizers: the shared timing-engine
# adapter rebuilds its model on reload and on restore, while director()
# and kernel() hand out raw pointers into that model.
./build-asan/tests/sim_test

# OSM-DL under the sanitizers: the parser reads outside text (range and
# slot checks), and the adl engine is sarm_model running a graph
# elaborated from that text onto its own managers and actions.
./build-asan/tests/adl_test
./build-asan/tests/adl_sarm_test

# Checkpoint suite under the sanitizers: round-trip property, golden
# byte-stability, lockstep bisection (ctest -L checkpoint discovers the
# already-built checkpoint_test binary only).
ctest --test-dir build-asan -L checkpoint --output-on-failure -j

# Litmus suite under the sanitizers: the multi-hart ISS against the
# exhaustive SC/TSO outcome enumerator (corpus pins, SB 0/0 reachability,
# determinism) with ASan+UBSan watching the shared-memory subsystem.
ctest --test-dir build-asan -L litmus --output-on-failure -j

# Serve suite under the sanitizers: sharded-merge byte-identity, the
# content-addressed result cache, watchdog preemption with checkpoint
# migration, and the speculative parallel minimizer.
ctest --test-dir build-asan -L serve --output-on-failure -j

# Differential smoke: every engine in the registry must agree on a random
# program while ASan+UBSan watch the models themselves.
./build-asan/tools/osm-run --rand 20260805 --diff all --max-cycles 50000000

# Block-cache differential smoke: the same all-engine agreement with the
# translated-block fast path explicitly on and explicitly off, so the
# sanitizers sweep both the threaded-dispatch loop (including superblock
# side exits and the SMC store screen) and the interpretive path on an
# identical program.
./build-asan/tools/osm-run --rand 20260807 --diff all --block-cache \
    --max-cycles 50000000
./build-asan/tools/osm-run --rand 20260807 --diff all --no-block-cache \
    --max-cycles 50000000

# PPC32 second front-end smoke under the sanitizers: the spec-generated
# decoder and assembler on a committed example, then a random-program
# differential between the functional ISS and the ppc32-750 timing model.
./build-asan/tools/osm-run examples/asm/ppc/sum100.s --engine ppc32
./build-asan/tools/osm-run --rand 20260807 --diff ppc32,ppc32-750 \
    --max-cycles 50000000

# Sanitized fuzz smoke: a bounded quick-matrix campaign over all engines,
# plus a replay of the committed regression corpus (exit 4 = divergence,
# exit 1 = setup error — both fail the gate).
./build-asan/tools/osm-fuzz campaign --seeds 1:16 --matrix quick \
    --max-cycles 20000000 --replay tests/corpus

# Sanitized multi-hart campaign: a seed range starting at 1 puts seeds
# 14:16 of the full matrix on the mh_contention/mh_fence_dense/mh_lrsc
# rows, so each hart's isa::iss runs over its shared-memory port (store
# buffers, fences, LR/SC reservations) with ASan+UBSan watching.  The other
# rows diff the 1-hart mh-iss against iss, keeping the pass cheap.
./build-asan/tools/osm-fuzz campaign --seeds 1:16 --matrix full \
    --engines iss,mh-iss --max-cycles 20000000

# Sanitized sharded-campaign smoke: the same campaign on 2 workers through
# the serve pool must produce a byte-identical JSON summary, and a second
# run against the freshly filled on-disk result cache must replay it
# byte-identically again without re-executing the engines.
sv=$(mktemp -d)
./build-asan/tools/osm-fuzz campaign --seeds 1:16 --matrix quick \
    --max-cycles 20000000 --replay tests/corpus --json \
    2>/dev/null >"$sv/serial.json"
./build-asan/tools/osm-fuzz campaign --seeds 1:16 --matrix quick \
    --max-cycles 20000000 --replay tests/corpus --json --jobs 2 \
    2>/dev/null >"$sv/jobs2.json"
./build-asan/tools/osm-fuzz campaign --seeds 1:16 --matrix quick \
    --max-cycles 20000000 --replay tests/corpus --json \
    --cache-dir "$sv/cache" 2>/dev/null >/dev/null
./build-asan/tools/osm-fuzz campaign --seeds 1:16 --matrix quick \
    --max-cycles 20000000 --replay tests/corpus --json \
    --cache-dir "$sv/cache" 2>/dev/null >"$sv/warm.json"
if ! cmp -s "$sv/serial.json" "$sv/jobs2.json"; then
    echo "tier1: FAIL sharded campaign summary differs from serial" >&2
    exit 1
fi
if ! cmp -s "$sv/serial.json" "$sv/warm.json"; then
    echo "tier1: FAIL cache-warm campaign summary differs from serial" >&2
    exit 1
fi
rm -rf "$sv"

# ThreadSanitizer smoke: the worker pool, job queue and result cache are
# the code where data races would live, so build the serve test and a
# bounded 4-worker campaign under TSan (mutually exclusive with ASan, so
# it gets its own build tree; serve_test itself covers the concurrent
# registry and cache traffic).
cmake -B build-tsan -S . -DOSM_TSAN=ON
cmake --build build-tsan -j --target serve_test litmus_test osm-fuzz
ctest --test-dir build-tsan -L serve --output-on-failure
./build-tsan/tools/osm-fuzz campaign --seeds 1:12 --matrix quick \
    --max-cycles 20000000 --jobs 4 --watchdog-ms 2000

# Litmus suite and a bounded multi-hart fuzz smoke under TSan: the
# multi-hart ISS is deterministic single-threaded code, but it runs inside
# the sharded campaign workers, so sweep the mh matrix rows (full matrix,
# seeds chosen to land on them) across 4 workers and the litmus
# differential harness with the race detector on.
ctest --test-dir build-tsan -L litmus --output-on-failure
./build-tsan/tools/osm-fuzz campaign --seeds 1:16 --matrix full \
    --max-cycles 20000000 --jobs 4
./build-tsan/tools/osm-fuzz litmus --seeds 1:4 --schedules 50

# Sanitized checkpoint round-trip smoke on a timing engine: a run that
# saves mid-flight and a run restored from that checkpoint must reach the
# same architectural end state as an uninterrupted run.  pc=/cycles= lines
# are dropped: an architectural-level restore refills the pipeline, so
# those two legitimately differ.
ck=$(mktemp -d)
trap 'rm -rf "$ck"' EXIT
./build-asan/tools/osm-run examples/asm/sum100.s --engine p750 \
    --save-at 150 --save "$ck/mid.ckpt" --dump-arch >"$ck/straight.txt"
./build-asan/tools/osm-run --restore "$ck/mid.ckpt" --engine p750 \
    --dump-arch >"$ck/resumed.txt"
if ! diff <(grep -v -e '^pc=' -e '^cycles=' -e '^\[' "$ck/straight.txt") \
          <(grep -v -e '^pc=' -e '^cycles=' -e '^\[' "$ck/resumed.txt"); then
    echo "tier1: FAIL checkpoint round-trip diverged" >&2
    exit 1
fi

echo "tier1: OK (ctest suite + sanitized de_test/common_test/sim_test/adl_test/adl_sarm_test/checkpoint/serve/litmus suites + all-engine diff incl. block-cache on/off + ppc32 smoke + fuzz smoke + multi-hart campaign + sharded/cache-warm byte-identity + TSan serve/litmus/multi-hart smoke + checkpoint round-trip)"
