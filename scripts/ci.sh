#!/usr/bin/env bash
# CI gate: formatting, tier-1 build + tests, the cross-thread-count
# determinism suite under both pool configurations, and a quick
# `lgg-sim bench` run. The bench times every row once (step cases,
# observer and guard overhead, every layer kernel, so no kernel can
# bit-rot) and runs the sweep grid serially and in parallel, failing on
# any digest divergence. (Bench results go to a temp file and are
# discarded; the checked-in BENCH_throughput.json is refreshed manually
# with full runs.)
set -euo pipefail
cd "$(dirname "$0")/.."

# Formatting: the workspace (crates, tests, examples and the vendored
# stand-ins) is rustfmt-clean; lggbench/ is its own workspace and is
# not checked here.
cargo fmt --check

cargo build --release
cargo test -q

# Determinism across thread counts: the same suite must pass with the
# pool pinned to one worker and fanned across several. The test compares
# 1-thread and 4-thread output internally; running it under both env
# settings also exercises the LGG_THREADS resolution path end to end.
LGG_THREADS=1 cargo test -q --test determinism
LGG_THREADS=4 cargo test -q --test determinism

# Quick bench end-to-end, gated against the checked-in baseline: every
# layer kernel runs once, the observer and guard rows always run
# full-length, the 12-item sweep grid runs serially and in parallel and
# exits 70 if the two result digests differ, and the run fails if this
# run's observer/off row is more than 2% slower than the file's.
cargo run --release -p lgg-cli -- bench --quick --out "$(mktemp)" \
    --baseline BENCH_throughput.json

# Trace smoke: captures the built-in scenario's JSONL event stream twice
# and fails unless the two captures are byte-identical; the golden-trace
# test additionally pins the stream against tests/golden/trace_small.jsonl.
cargo run --release -p lgg-cli -- trace --smoke
cargo test -q --test golden_trace

# Chaos smoke: a small guarded adversarial campaign, run at both pool
# widths; every trial is invariant-checked and the campaign digest must
# be identical regardless of thread count (the chaos analogue of the
# sweep's determinism check). A clean engine exits 0 with zero violations.
CHAOS_1="$(LGG_THREADS=1 cargo run --release -p lgg-cli -- chaos --smoke \
    --out "$(mktemp -d)" 2>/dev/null | head -1)"
CHAOS_4="$(LGG_THREADS=4 cargo run --release -p lgg-cli -- chaos --smoke \
    --out "$(mktemp -d)" 2>/dev/null | head -1)"
echo "$CHAOS_1"
[ "$CHAOS_1" = "$CHAOS_4" ] || {
    echo "ci: chaos campaign diverged across LGG_THREADS: '$CHAOS_1' vs '$CHAOS_4'" >&2
    exit 1
}
# The same at the benchmark's campaign size (32 trials x 4000 steps),
# where the random fault models reach states the smoke campaign never
# does.
CHAOS_FULL_1="$(LGG_THREADS=1 cargo run --release -p lgg-cli -- chaos \
    --trials 32 --steps 4000 --seed 42 --out "$(mktemp -d)" 2>/dev/null | head -1)"
CHAOS_FULL_4="$(LGG_THREADS=4 cargo run --release -p lgg-cli -- chaos \
    --trials 32 --steps 4000 --seed 42 --out "$(mktemp -d)" 2>/dev/null | head -1)"
echo "$CHAOS_FULL_1"
[ "$CHAOS_FULL_1" = "$CHAOS_FULL_4" ] || {
    echo "ci: full-size chaos campaign diverged across LGG_THREADS: '$CHAOS_FULL_1' vs '$CHAOS_FULL_4'" >&2
    exit 1
}

# Reproducer replay: the checked-in shrunk reproducer (a planted
# conservation fault) must still re-trigger its recorded violation at the
# recorded step — replay exits with the invariant-violation code 9.
status=0
cargo run --release -p lgg-cli -- chaos \
    --replay results/chaos/repro_conservation_fault.json || status=$?
[ "$status" -eq 9 ] || {
    echo "ci: chaos replay: expected exit 9 (violation reproduced), got $status" >&2
    exit 1
}

# Usage path end to end: a word that is neither a command nor a file
# (here the `sweep` command that `bench` absorbed) is a usage error, exit
# 64, not an unreadable scenario (exit 4).
status=0
cargo run --release -p lgg-cli -- sweep 2>/dev/null || status=$?
[ "$status" -eq 64 ] || {
    echo "ci: usage: lgg-sim sweep: expected exit 64 (unknown command), got $status" >&2
    exit 1
}

# Guard abort path end to end: a guarded run hitting an injected
# conservation bug must abort with exit code 9 and dump a replayable
# reproducer + checkpoint. Run once without telemetry (saturated_dumbbell)
# and once with window telemetry inside the guard (flapping_fabric); both
# fold step records, and neither renders a trace.
for scenario in scenarios/saturated_dumbbell.json scenarios/flapping_fabric.json; do
    GUARD_DUMP="$(mktemp -d)"
    status=0
    cargo run --release -p lgg-cli -- run "$scenario" \
        --guard --guard-dump "$GUARD_DUMP" --inject-fault 120 --steps 500 || status=$?
    [ "$status" -eq 9 ] || {
        echo "ci: guard: $scenario: expected exit 9 on the injected fault, got $status" >&2
        exit 1
    }
    [ -f "$GUARD_DUMP/repro_conservation_t0.json" ] || {
        echo "ci: guard: $scenario: missing dumped reproducer" >&2
        exit 1
    }
    rm -rf "$GUARD_DUMP"
done

# Guard divergence path end to end: flapping_fabric overloaded (both
# sources at rate 9 against sinks draining 2 each, telemetry off) really
# diverges, so the online detector must latch, exit 9 and dump a
# divergence reproducer.
OVERLOAD="$(mktemp -d)"
sed -e 's/"rate": 1$/"rate": 9/' -e 's/"kind": "window"/"kind": "off"/' \
    scenarios/flapping_fabric.json > "$OVERLOAD/overloaded.json"
status=0
cargo run --release -p lgg-cli -- run "$OVERLOAD/overloaded.json" \
    --guard --guard-dump "$OVERLOAD/dump" --steps 20000 || status=$?
[ "$status" -eq 9 ] || {
    echo "ci: guard: overloaded fabric: expected exit 9 on divergence, got $status" >&2
    exit 1
}
[ -f "$OVERLOAD/dump/repro_divergence_t0.json" ] || {
    echo "ci: guard: overloaded fabric: missing divergence reproducer" >&2
    exit 1
}
rm -rf "$OVERLOAD"

# Kill-and-resume smoke: run the smoke scenario uninterrupted, then run it
# again but abort() the process hard mid-run (--kill-after skips all
# flushes and destructors), resume from the surviving snapshot, and
# require the two trace artifacts to be byte-identical. Repeated at both
# pool widths: a snapshot written under one LGG_THREADS must replay the
# same bytes under any other. The gauntlet's full-retention liars put
# declaration lies in the traces on both sides of the resume point, and
# flapping_fabric flips links every step, so its resumed trace depends on
# the link mask the trace sink saves in its snapshot. lossy_sensor_field
# is the one scenario with track_ages on: its snapshots carry the age
# FIFOs and latency statistics, under matching-lgg and Gilbert-Elliott
# loss.
SMOKE_SCENARIO="$(mktemp -d)/smoke.json"
cargo run --release -p lgg-cli -- --template | sed 's/"steps": 50000/"steps": 2000/' \
    > "$SMOKE_SCENARIO"
for scenario in "$SMOKE_SCENARIO" scenarios/bursty_rgen_gauntlet.json \
    scenarios/flapping_fabric.json scenarios/lossy_sensor_field.json; do
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

# Guarded kill-and-resume: --guard composes with --checkpoint-every,
# --kill-after and --resume. The killed leg steps under the guard until
# it aborts between snapshots (exit 134, not 9), and the resumed leg
# restores the guard's counters with the rest of the state. The guard
# only reads step records, so the resumed trace must equal both the
# uninterrupted guarded trace and the unguarded one.
for threads in 1 4; do
    WORK="$(mktemp -d)"
    fabric() {
        LGG_THREADS=$threads cargo run --release -p lgg-cli -- run \
            scenarios/flapping_fabric.json --steps 2000 "$@"
    }
    guarded() {
        fabric --guard --guard-dump "$WORK/dump" "$@"
    }
    fabric --trace "$WORK/plain.jsonl"
    guarded --trace "$WORK/guarded.jsonl"
    status=0
    guarded --checkpoint-every 300 --checkpoint-dir "$WORK/ckpts" \
        --trace "$WORK/resumed.jsonl" --kill-after 1000 || status=$?
    [ "$status" -eq 134 ] || {
        echo "ci: guarded kill-and-resume: expected the killed leg to abort (134), got $status" >&2
        exit 1
    }
    guarded --checkpoint-every 300 --checkpoint-dir "$WORK/ckpts" --resume \
        --trace "$WORK/resumed.jsonl"
    for want in guarded plain; do
        cmp "$WORK/$want.jsonl" "$WORK/resumed.jsonl" || {
            echo "ci: guarded kill-and-resume: trace differs from the $want run at LGG_THREADS=$threads" >&2
            exit 1
        }
    done
    rm -rf "$WORK"
done

echo "ci: OK"
