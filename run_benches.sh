#!/bin/sh
# Regenerate every paper table/figure (see README): bench_figures, the
# one paper-artifact binary.
# --quick:    only the experiment-ledger regression gate: a fresh
#             mini-sweep is written to build/BENCH_ledger.jsonl and
#             checked bit-exactly with `inpg_report regress` against
#             the committed sweeps/BASELINE_ledger.jsonl (see
#             EXPERIMENTS.md for the regeneration recipe when
#             simulated behavior changes intentionally). Simulator
#             speed is measured by perfbench/ (python3 perfbench/run.py).
# --ledger-out=PATH (any position): experiment ledger to append runs
#             to; default sweeps/ledger.jsonl. Exported as
#             INPG_LEDGER_PATH, which bench_figures (every run-based
#             figure) appends one RunRecord per run to.
# --sanitize: configure + build + ctest under ASan/UBSan in
#             build-asan/ (exercises the raw-storage containers and
#             callback small-buffer code under the sanitizers).
# --tsan:     configure + build under ThreadSanitizer in build-tsan/
#             and run the threaded suites (parallel simulation
#             kernel, sweep-runner pool, determinism harness).
# Absolute, so paths derived from it (the ledger) survive the `cd`
# into a build tree below.
repo_root=$(cd "$(dirname "$0")" && pwd)
# Provenance for ledger records: every RunRecord is stamped with this
# SHA (plus a dirty flag) so results stay attributable to a commit. A
# pre-set INPG_GIT_SHA that disagrees with the checkout is a
# stale-provenance bug -- refuse to stamp records with the wrong SHA.
head_sha=$(git -C "$repo_root" rev-parse --short HEAD 2>/dev/null \
           || echo unknown)
if [ -n "$INPG_GIT_SHA" ] && [ "$INPG_GIT_SHA" != "$head_sha" ]; then
    echo "run_benches.sh: INPG_GIT_SHA=$INPG_GIT_SHA does not match" \
         "git HEAD ($head_sha); refusing to stamp stale provenance" >&2
    exit 1
fi
INPG_GIT_SHA=$head_sha
export INPG_GIT_SHA
if [ "$head_sha" != "unknown" ] && \
   ! git -C "$repo_root" diff --quiet HEAD -- 2>/dev/null; then
    INPG_GIT_DIRTY=1
else
    INPG_GIT_DIRTY=0
fi
export INPG_GIT_DIRTY
# Experiment ledger (JSONL of RunRecords; tools/inpg_report consumes
# it). --ledger-out may appear at any argument position; it is consumed
# here (rotated out of $@) and not forwarded to the benches.
INPG_LEDGER_PATH="$repo_root/sweeps/ledger.jsonl"
for arg in "$@"; do
    shift
    case "$arg" in
        --ledger-out=*) INPG_LEDGER_PATH=${arg#--ledger-out=} ;;
        *) set -- "$@" "$arg" ;;
    esac
done
export INPG_LEDGER_PATH
mkdir -p "$(dirname "$INPG_LEDGER_PATH")"
if [ "$1" = "--sanitize" ]; then
    set -e
    cmake -B "$repo_root/build-asan" -S "$repo_root" \
        -DCMAKE_BUILD_TYPE=RelWithDebInfo -DINPG_SANITIZE=ON
    cmake --build "$repo_root/build-asan" -j "$(nproc)"
    cd "$repo_root/build-asan"
    exec ctest --output-on-failure -j "$(nproc)"
fi
if [ "$1" = "--tsan" ]; then
    set -e
    cmake -B "$repo_root/build-tsan" -S "$repo_root" \
        -DCMAKE_BUILD_TYPE=RelWithDebInfo -DINPG_SANITIZE=tsan
    cmake --build "$repo_root/build-tsan" -j "$(nproc)" \
        --target inpg_tests
    cd "$repo_root/build-tsan"
    # The race-prone surface: the parallel simulation kernel's barrier
    # discipline and the sweep runner's worker pool (plus the
    # determinism fingerprints, which would surface any cross-thread
    # state bleed as a mismatch).
    exec ctest --output-on-failure -R 'Parallel|Sweep|Determinism'
fi
if [ "$1" = "--quick" ]; then
    set -e
    # Experiment-ledger regression gate: re-run the baseline's
    # mini-sweep (freq under all four mechanisms on mesh:4x4; the exact
    # invocation EXPERIMENTS.md documents for regenerating
    # sweeps/BASELINE_ledger.jsonl) into a fresh ledger and require
    # every committed metric to reproduce bit-exactly. The kernel is
    # deterministic, so any delta is a real behavior change.
    fresh="$repo_root"/build/BENCH_ledger.jsonl
    rm -f "$fresh"
    "$repo_root"/build/tools/inpg_sim benchmark=freq all_mechanisms=1 \
        topology=mesh:4x4 cs_scale=0.05 \
        --ledger-out="$fresh" > /dev/null
    if [ -f "$repo_root"/sweeps/BASELINE_ledger.jsonl ]; then
        "$repo_root"/build/tools/inpg_report regress "$fresh" \
            "$repo_root"/sweeps/BASELINE_ledger.jsonl
    else
        echo "ledger gate: no committed baseline; skipping regress check"
    fi
    # The gated runs join the append-only history ledger.
    cat "$fresh" >> "$INPG_LEDGER_PATH"
    exit 0
fi
# Every paper table and figure; the arguments are bench_figures keys.
exec "$repo_root/build/bench/bench_figures" "$@"
