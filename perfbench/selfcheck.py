#!/usr/bin/env python3
"""Self-check of the benchmark (its own test; about two minutes).

    python3 perfbench/selfcheck.py

Checks, from the root of a source checkout:
  1. BENCHMARK.json has the expected keys, names, units and bounds,
     and its workloads and metrics are the ones perfbench/run.py
     defines;
  2. a tiny-input run of every workload, untraced and traced, prints
     every metric BENCHMARK.json names, each with its unit, all checks
     passing, end-to-end values above 0;
  3. in a directory holding only BENCHMARK.json and perfbench/, the
     benchmark exits non-zero without printing a result.
Exits non-zero on the first failed check.
"""

import json
import math
import re
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))
sys.dont_write_bytecode = True
import run  # noqa: E402  (the benchmark's own tables)

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def fail(msg):
    print(f"selfcheck: FAIL: {msg}")
    sys.exit(1)


def check_spec(spec):
    keys = {"command", "paths", "run_seconds", "workloads", "end_to_end",
            "per_layer"}
    if set(spec) != keys:
        fail(f"BENCHMARK.json keys {sorted(spec)}")
    if not 2 <= len(spec["workloads"]) <= 8:
        fail("2 to 8 workloads")
    if not 1 <= spec["run_seconds"] <= 60:
        fail("run_seconds out of range")
    names = set()
    for w in spec["workloads"]:
        if set(w) != {"name", "why"} or len(w["why"]) > 200:
            fail(f"workload entry {w}")
        names.add(w["name"])
    if names != set(run.WORKLOADS):
        fail(f"workloads {sorted(names)} != run.py {sorted(run.WORKLOADS)}")
    for section, table in (("end_to_end", run.END_TO_END),
                           ("per_layer", run.PER_LAYER)):
        want = {"name", "unit", "better"} | (
            {"bound"} if section == "end_to_end" else set())
        for m in spec[section]:
            if set(m) != want:
                fail(f"{section} entry {m}")
            if not NAME.match(m["name"]) or not UNIT.match(m["unit"]):
                fail(f"bad name or unit in {m}")
            if m["better"] not in ("lower", "higher"):
                fail(f"bad direction in {m}")
            if section == "end_to_end" and not 0 < m["bound"] <= 0.25:
                fail(f"bound out of range in {m}")
        got = {m["name"]: m["unit"] for m in spec[section]}
        if got != table:
            fail(f"{section} differs from run.py: "
                 f"{sorted(set(got.items()) ^ set(table.items()))}")
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
    if not setup or setup[0]["unit"] != "s" or setup[0]["better"] != "lower":
        fail("setup_s missing or malformed")
    if setup[0]["bound"] != max(m["bound"] for m in spec["end_to_end"]):
        fail("setup_s must have the largest bound")


def tiny_run(workload, trace, spec):
    cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"),
           "--workload", workload, "--seed", "1", "--seconds", "1",
           "--trace", str(trace), "--tiny"]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=600)
    if done.returncode != 0:
        fail(f"{workload} trace={trace} exited {done.returncode}:\n"
             f"{done.stderr[-2000:]}")
    result = json.loads(done.stdout.splitlines()[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"result keys {sorted(result)}")
    if not result["correct"] or result["failed"] or result["attempted"] < 1:
        fail(f"{workload} trace={trace} checks failed: {result}")
    section = spec["per_layer" if trace else "end_to_end"]
    want = {m["name"]: m["unit"] for m in section}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if got != want:
        fail(f"{workload} trace={trace} metrics differ: "
             f"{sorted(set(got.items()) ^ set(want.items()))}")
    for name, m in result["metrics"].items():
        value = m["value"]
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            fail(f"{workload} {name} = {value!r}")
        if not trace and value <= 0:
            fail(f"{workload} end-to-end {name} = {value}")
    print(f"selfcheck: {workload} trace={trace}: "
          f"{len(got)} metrics, {result['attempted']} checks, ok")


def bare_run():
    bare = run.OUT_DIR / "selfcheck-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(ROOT / "perfbench", bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        done = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload",
             next(iter(run.WORKLOADS)), "--seed", "1", "--seconds", "1",
             "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=170)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if done.returncode == 0 or '"correct"' in done.stdout:
        fail("the benchmark ran without the simulator sources")
    print("selfcheck: without sources: exits "
          f"{done.returncode}, no result, ok")


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    check_spec(spec)
    print("selfcheck: BENCHMARK.json matches run.py")
    for workload in run.WORKLOADS:
        for trace in (0, 1):
            tiny_run(workload, trace, spec)
    bare_run()
    print("selfcheck: all checks passed")


if __name__ == "__main__":
    main()
