#!/bin/sh
# PR gate (tools/ci.sh): the checks every change must pass beyond the
# plain unit suite:
#   1. static analysis -- tools/protocol_check --self-test (declarative
#      transition tables: coverage, vnet acyclicity, LCO hook tiling,
#      reachability) and tools/lint_inpg.py --self-test (determinism
#      lint, DESIGN.md invariants 10-18);
#   2. ledger gate and benchmark self-check -- ./run_benches.sh
#      --quick re-runs the baseline mini-sweep and requires every
#      committed metric of sweeps/BASELINE_ledger.jsonl to reproduce
#      bit-exactly; python3 perfbench/selfcheck.py is the benchmark's
#      own test (BENCHMARK.json shape, a tiny run of every workload);
#   3. seeded-hang watchdog smoke -- inpg_sim with the test-only
#      drop_dir_response knob must exit 86 (HANG_EXIT_CODE) and write
#      a well-formed structured hang report;
#   4. torus/fabric smoke -- a torus:8x8 iNPG run must be
#      deterministic and bit-identical between the serial and parallel
#      kernels, the no-escape-VC torus must be rejected by the
#      channel-dependency verifier (exit 2), and a cmesh run must
#      complete;
#   5. experiment-ledger report smoke -- identical tiny configs must
#      diff clean under tools/inpg_report, an injected metric delta
#      must be caught by diff and regress, and `inpg_report figures`
#      over a fresh bench_figures fig=02 ledger must print that run's
#      stdout byte for byte;
#   6. model check -- tools/protocol_mc explores the composed
#      MOESI x iNPG protocol: exhaustive at N=2 (every scenario, big
#      router on and off) and N=3 without the big router, bounded at
#      N=3 with it, plus the seeded-mutation --self-test; hard time
#      budget via timeout(1);
#   7. ./run_benches.sh --tsan then --sanitize -- the threaded suites
#      (parallel kernel, sweep pool, determinism) under
#      ThreadSanitizer in build-tsan/, then configure + build + full
#      ctest under ASan/UBSan in build-asan/.
# Flags:
#   --tidy       additionally run clang-tidy over src/ (skipped with a
#                note when clang-tidy is not installed);
#   --tidy-only  run just the clang-tidy stage (the ci-clang-tidy
#                ctest entry);
#   --hang-only  run just the seeded-hang watchdog smoke (the
#                ci-hang-smoke ctest entry);
#   --torus-only run just the torus/fabric smoke (the ci-torus-smoke
#                ctest entry);
#   --mc-only    run just the model-check stage (the ci-model-check
#                ctest entry);
#   --report-only run just the experiment-ledger report smoke (the
#                ci-report-smoke ctest entry): identical configs must
#                diff clean, an injected metric delta must be caught,
#                and `inpg_report figures` over a fresh Fig. 2
#                ledger must equal bench_figures' stdout.
# Expects ./build to be configured (configures it if missing). Wired
# as the `ci-smoke` ctest when the tree is configured with
# -DINPG_CI_SMOKE=ON; off by default because it builds and tests a
# second tree.
set -e
repo_root=$(cd "$(dirname "$0")/.." && pwd)

want_tidy=0
tidy_only=0
hang_only=0
torus_only=0
mc_only=0
report_only=0
for arg in "$@"; do
    case "$arg" in
      --tidy) want_tidy=1 ;;
      --tidy-only) want_tidy=1; tidy_only=1 ;;
      --hang-only) hang_only=1 ;;
      --torus-only) torus_only=1 ;;
      --mc-only) mc_only=1 ;;
      --report-only) report_only=1 ;;
      *) echo "usage: tools/ci.sh [--tidy|--tidy-only|--hang-only|" \
              "--torus-only|--mc-only|--report-only]" >&2
         exit 2 ;;
    esac
done

if [ ! -f "$repo_root/build/CMakeCache.txt" ]; then
    cmake -B "$repo_root/build" -S "$repo_root"
fi

run_tidy() {
    if ! command -v clang-tidy >/dev/null 2>&1; then
        echo "ci.sh: clang-tidy not installed; skipping tidy stage" >&2
        return 0
    fi
    # The build exports compile_commands.json
    # (CMAKE_EXPORT_COMPILE_COMMANDS); .clang-tidy at the repo root
    # selects the bugprone/performance/narrowing checks.
    find "$repo_root/src" -name '*.cc' -print | sort | \
        xargs clang-tidy -p "$repo_root/build" --quiet
}

# Seeded-hang watchdog smoke: a dropped directory response deadlocks
# the run deterministically; the progress watchdog must detect it,
# exit with the dedicated code (86) and emit a parseable structured
# report naming the wedged components.
run_hang_smoke() {
    cmake --build "$repo_root/build" -j "$(nproc)" --target inpg_sim
    report="$repo_root/build/hang_smoke_report.json"
    rm -f "$report"
    set +e
    "$repo_root/build/tools/inpg_sim" benchmark=freq \
        mechanism=original lock=tas topology=mesh:4x4 \
        drop_dir_response=1 watchdog_window=50000 \
        telemetry=recorder,packets \
        hang_report_out="$report" >/dev/null 2>&1
    rc=$?
    set -e
    if [ "$rc" != 86 ]; then
        echo "FAIL: seeded hang exited $rc (expected HANG_EXIT_CODE 86)" >&2
        exit 1
    fi
    python3 - "$report" <<'EOF'
import json, sys
d = json.load(open(sys.argv[1]))
for key in ("report", "schema_version", "reason", "cycle", "watchdog",
            "event_queue", "routers", "directories", "l1s",
            "flight_recorder"):
    assert key in d, "hang report missing key: " + key
assert d["report"] == "inpg-hang-report", d["report"]
assert d["schema_version"] == 1, d["schema_version"]
assert d["flight_recorder"]["events"], "flight recorder dump is empty"
print("hang report OK: reason=%s cycle=%d, %d recorder events"
      % (d["reason"], d["cycle"], len(d["flight_recorder"]["events"])))
EOF
}

# Torus/fabric smoke: the wraparound fabric must run deterministically
# under both kernels, the deadlock-capable configuration (no escape
# VCs) must be refused at System construction with the cycle witness,
# and the concentrated mesh must complete a run.
run_torus_smoke() {
    cmake --build "$repo_root/build" -j "$(nproc)" --target inpg_sim
    sim="$repo_root/build/tools/inpg_sim"
    out_a=$("$sim" benchmark=freq mechanism=inpg topology=torus:8x8 \
        big_routers=8 csv=1)
    out_b=$("$sim" benchmark=freq mechanism=inpg topology=torus:8x8 \
        big_routers=8 csv=1)
    if [ "$out_a" != "$out_b" ]; then
        echo "FAIL: torus runs are not deterministic" >&2
        exit 1
    fi
    out_par=$("$sim" benchmark=freq mechanism=inpg topology=torus:8x8 \
        big_routers=8 threads=4 csv=1)
    if [ "$out_a" != "$out_par" ]; then
        echo "FAIL: torus threads=4 diverges from the serial kernel" >&2
        exit 1
    fi
    set +e
    "$sim" benchmark=freq topology=torus:8x8 escape_vcs=0 \
        >/dev/null 2>&1
    rc=$?
    set -e
    # 2 is the tools' config-rejection code; anything else is either
    # a verifier hole (0) or a crash.
    if [ "$rc" != 2 ]; then
        echo "FAIL: no-escape-VC torus exited $rc (expected the" \
             "config rejection, 2)" >&2
        exit 1
    fi
    "$sim" benchmark=freq mechanism=inpg topology=cmesh:4x4x4 \
        big_routers=4 csv=1 >/dev/null
    echo "torus smoke OK: deterministic, serial==threads=4," \
         "no-escape-VC rejected, cmesh completes"
}

# Experiment-ledger report smoke: two identical tiny configs must diff
# clean (exit 0); an injected single-metric delta must be caught by
# both diff and regress (exit 1); and `inpg_report figures` over the
# ledger of a `bench_figures fig=02` run must print that run's stdout
# byte for byte. All runs are deterministic, so the stage needs no
# committed fixture.
run_report_smoke() {
    cmake --build "$repo_root/build" -j "$(nproc)" \
        --target inpg_sim --target inpg_report --target bench_figures
    sim="$repo_root/build/tools/inpg_sim"
    rep="$repo_root/build/tools/inpg_report"
    led_a="$repo_root/build/report_smoke_a.jsonl"
    led_b="$repo_root/build/report_smoke_b.jsonl"
    led_c="$repo_root/build/report_smoke_c.jsonl"
    led_fig="$repo_root/build/report_smoke_fig02.jsonl"
    out_fig="$repo_root/build/report_smoke_fig02.out"
    rm -f "$led_a" "$led_b" "$led_c" "$led_fig"
    "$sim" benchmark=freq lock=qsl mechanism=inpg topology=mesh:4x4 \
        cs_scale=0.02 num_locks=1 telemetry=lco \
        --ledger-out="$led_a" >/dev/null
    "$sim" benchmark=freq lock=qsl mechanism=inpg topology=mesh:4x4 \
        cs_scale=0.02 num_locks=1 telemetry=lco \
        --ledger-out="$led_b" >/dev/null
    "$rep" diff "$led_a" "$led_b"
    echo "report smoke: identical configs diff clean"
    # Seed a one-metric delta into a copy of B; diff and regress must
    # both catch it and exit nonzero.
    python3 - "$led_b" "$led_c" <<'EOF'
import json, sys
rec = json.loads(open(sys.argv[1]).read().splitlines()[0])
rec["metrics"]["roi_cycles"] += 1
open(sys.argv[2], "w").write(json.dumps(rec) + "\n")
EOF
    if "$rep" diff "$led_a" "$led_c" > /dev/null; then
        echo "FAIL: injected roi_cycles delta not detected by diff" >&2
        exit 1
    fi
    if "$rep" regress "$led_c" "$led_a" > /dev/null; then
        echo "FAIL: injected roi_cycles delta not detected by regress" >&2
        exit 1
    fi
    echo "report smoke: injected delta caught by diff and regress"
    fig02="fig=02 quick=1 cs_scale=0.004"
    INPG_LEDGER_PATH="$led_fig" "$repo_root/build/bench/bench_figures" \
        $fig02 > "$out_fig"
    if ! "$rep" figures "$led_fig" $fig02 | cmp - "$out_fig"; then
        echo "FAIL: inpg_report figures differs from bench_figures" >&2
        exit 1
    fi
    echo "report smoke OK: diff/regress/figures behave"
}

# Model-check stage: exhaustive exploration of the composed protocol
# with a hard wall-clock budget per invocation. The N=2 sweep and the
# N=3 no-big-router sweep are exhaustive (zero violations required);
# the N=3 big-router configuration's state space is out of a CI
# budget, so it runs depth-bounded as a smoke. The seeded-mutation
# self-test proves the checker still catches real table bugs.
run_model_check() {
    cmake --build "$repo_root/build" -j "$(nproc)" --target protocol_mc
    mc="$repo_root/build/tools/protocol_mc"
    echo "--- protocol_mc: N=2 exhaustive sweep (budget 120s)"
    timeout 120 "$mc"
    echo "--- protocol_mc: N=3 exhaustive, big router off (budget 120s)"
    timeout 120 "$mc" --cores 3 --no-big-router
    echo "--- protocol_mc: N=3 depth-bounded, big router on (budget 180s)"
    timeout 180 "$mc" --cores 3 --big-router --scenario tas \
        --max-states 200000
    echo "--- protocol_mc: seeded-mutation self-test (budget 120s)"
    timeout 120 "$mc" --self-test
    echo "model check OK"
}

if [ "$tidy_only" = 1 ]; then
    run_tidy
    exit 0
fi
if [ "$hang_only" = 1 ]; then
    echo "=== ci.sh: seeded-hang watchdog smoke ==="
    run_hang_smoke
    exit 0
fi
if [ "$torus_only" = 1 ]; then
    echo "=== ci.sh: torus/fabric smoke ==="
    run_torus_smoke
    exit 0
fi
if [ "$mc_only" = 1 ]; then
    echo "=== ci.sh: protocol model check ==="
    run_model_check
    exit 0
fi
if [ "$report_only" = 1 ]; then
    echo "=== ci.sh: experiment-ledger report smoke ==="
    run_report_smoke
    exit 0
fi

echo "=== ci.sh stage 1: static analysis ==="
cmake --build "$repo_root/build" -j "$(nproc)" --target protocol_check
"$repo_root/build/tools/protocol_check" --self-test
python3 "$repo_root/tools/lint_inpg.py" --root "$repo_root" --self-test
if [ "$want_tidy" = 1 ]; then
    run_tidy
fi

echo "=== ci.sh stage 2: ledger gate and benchmark self-check ==="
cmake --build "$repo_root/build" -j "$(nproc)" \
    --target inpg_sim --target inpg_report
"$repo_root/run_benches.sh" --quick
python3 "$repo_root/perfbench/selfcheck.py"

echo "=== ci.sh stage 3: seeded-hang watchdog smoke ==="
run_hang_smoke

echo "=== ci.sh stage 4: torus/fabric smoke ==="
run_torus_smoke

echo "=== ci.sh stage 5: experiment-ledger report smoke ==="
run_report_smoke

echo "=== ci.sh stage 6: protocol model check ==="
run_model_check

echo "=== ci.sh stage 7: sanitizer suites ==="
# ThreadSanitizer over the threaded surfaces first (parallel kernel
# bit-identity suite, sweep pool, determinism), then the full ASan/
# UBSan tree. Both configure their own build dirs.
"$repo_root/run_benches.sh" --tsan
"$repo_root/run_benches.sh" --sanitize
