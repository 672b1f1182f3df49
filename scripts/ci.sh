#!/usr/bin/env bash
# CI gate: tier-1 build + tests, a criterion smoke pass so the benches
# cannot bit-rot, a quick engine-throughput run exercising the
# `lgg-sim bench` path end-to-end, the cross-thread-count determinism
# suite under both pool configurations, and a `lgg-sim sweep --smoke`
# whose internal serial-vs-parallel digest check fails on any divergence.
# (Bench/sweep results go to temp files and are discarded; the checked-in
# BENCH_throughput.json is refreshed manually with full runs.)
set -euo pipefail
cd "$(dirname "$0")/.."

cargo build --release
cargo test -q

# Determinism across thread counts: the same suite must pass with the
# pool pinned to one worker and fanned across several. The test compares
# 1-thread and 4-thread output internally; running it under both env
# settings also exercises the LGG_THREADS resolution path end to end.
LGG_THREADS=1 cargo test -q --test determinism
LGG_THREADS=4 cargo test -q --test determinism

cargo bench -p lgg-bench -- --test
# Quick bench end-to-end, gated against the checked-in baseline: the
# observer section always runs full-length, and the run fails if the
# disabled-observer engine drops >2% below the recorded numbers.
cargo run --release -p lgg-cli -- bench --quick --out "$(mktemp)" \
    --baseline BENCH_throughput.json

# Sweep smoke: runs the 12-item scenario x seed x rate grid serially and
# in parallel and exits nonzero if the two result digests differ.
cargo run --release -p lgg-cli -- sweep --smoke --out "$(mktemp)"

# Trace smoke: captures the built-in scenario's JSONL event stream twice
# and fails unless the two captures are byte-identical; the golden-trace
# test additionally pins the stream against tests/golden/trace_small.jsonl.
cargo run --release -p lgg-cli -- trace --smoke
cargo test -q --test golden_trace

# Chaos smoke: a small guarded adversarial campaign, run at both pool
# widths; every trial is invariant-checked and the campaign digest must
# be identical regardless of thread count (the chaos analogue of the
# sweep determinism gate). A clean engine exits 0 with zero violations.
CHAOS_1="$(LGG_THREADS=1 cargo run --release -p lgg-cli -- chaos --smoke \
    --out "$(mktemp -d)" 2>/dev/null | head -1)"
CHAOS_4="$(LGG_THREADS=4 cargo run --release -p lgg-cli -- chaos --smoke \
    --out "$(mktemp -d)" 2>/dev/null | head -1)"
echo "$CHAOS_1"
[ "$CHAOS_1" = "$CHAOS_4" ] || {
    echo "ci: chaos campaign diverged across LGG_THREADS: '$CHAOS_1' vs '$CHAOS_4'" >&2
    exit 1
}

# Reproducer replay: the checked-in shrunk reproducer (a planted
# conservation fault) must still re-trigger its recorded violation at the
# recorded step — replay exits with the invariant-violation code 9.
cargo run --release -p lgg-cli -- chaos \
    --replay results/chaos/repro_conservation_fault.json && {
    echo "ci: chaos replay: expected exit 9 (violation reproduced)" >&2
    exit 1
} || [ $? -eq 9 ] || {
    echo "ci: chaos replay: expected exit 9, got $?" >&2
    exit 1
}

# Guard abort path end to end: a guarded run hitting an injected
# conservation bug must abort with exit code 9 and dump a replayable
# reproducer + checkpoint.
GUARD_DUMP="$(mktemp -d)"
cargo run --release -p lgg-cli -- run scenarios/saturated_dumbbell.json \
    --guard --guard-dump "$GUARD_DUMP" --inject-fault 120 --steps 500 && {
    echo "ci: guard: expected exit 9 on the injected fault" >&2
    exit 1
} || [ $? -eq 9 ] || {
    echo "ci: guard: expected exit 9, got $?" >&2
    exit 1
}
[ -f "$GUARD_DUMP/repro_conservation_t0.json" ] || {
    echo "ci: guard: missing dumped reproducer" >&2
    exit 1
}
rm -rf "$GUARD_DUMP"

# Kill-and-resume smoke: run the smoke scenario uninterrupted, then run it
# again but abort() the process hard mid-run (--kill-after skips all
# flushes and destructors), resume from the surviving snapshot, and
# require the two trace artifacts to be byte-identical. Repeated at both
# pool widths: a snapshot written under one LGG_THREADS must replay the
# same bytes under any other. The gauntlet's full-retention liars put
# declaration lies in the traces on both sides of the resume point.
SMOKE_SCENARIO="$(mktemp -d)/smoke.json"
cargo run --release -p lgg-cli -- --template | sed 's/"steps": 50000/"steps": 2000/' \
    > "$SMOKE_SCENARIO"
for scenario in "$SMOKE_SCENARIO" scenarios/bursty_rgen_gauntlet.json; do
    for threads in 1 4; do
        WORK="$(mktemp -d)"
        LGG_THREADS=$threads cargo run --release -p lgg-cli -- run "$scenario" \
            --steps 2000 --trace "$WORK/full.jsonl"
        # The killed leg exits via abort (SIGABRT, status 134) by design.
        LGG_THREADS=$threads cargo run --release -p lgg-cli -- run "$scenario" \
            --steps 2000 --checkpoint-every 300 --checkpoint-dir "$WORK/ckpts" \
            --trace "$WORK/resumed.jsonl" --kill-after 1000 && {
            echo "ci: kill-and-resume: expected the killed leg to abort" >&2
            exit 1
        } || true
        LGG_THREADS=$threads cargo run --release -p lgg-cli -- run "$scenario" \
            --steps 2000 --checkpoint-every 300 --checkpoint-dir "$WORK/ckpts" --resume \
            --trace "$WORK/resumed.jsonl"
        cmp "$WORK/full.jsonl" "$WORK/resumed.jsonl" || {
            echo "ci: kill-and-resume: $scenario trace diverged at LGG_THREADS=$threads" >&2
            exit 1
        }
        rm -rf "$WORK"
    done
done
rm -rf "$(dirname "$SMOKE_SCENARIO")"

echo "ci: OK"
