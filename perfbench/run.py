#!/usr/bin/env python3
"""Benchmark of the iNPG many-core simulator.

Builds the simulator and its closed-loop driver from source (CMake,
into .bench_build/), runs one workload for --seconds and prints every
metric by name with its unit. The last line of standard output is one
JSON object: {"correct", "attempted", "failed", "metrics"}. With
--trace 0 the metrics are the end-to-end ones; with --trace 1 they are
the per-layer ones, from a separate traced part of the run, and the
span file of that part is written under .bench_out/.

    python3 perfbench/run.py --workload lock_storm_8x8 --seed 1 \\
        --seconds 30 --trace 0

Run it from the root of a source checkout. See perfbench/README.md for
the workloads, the metrics and which layer should move which metric.
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = ROOT / "perfbench"
BUILD_DIR = ROOT / ".bench_build"
OUT_DIR = ROOT / ".bench_out"
DRIVER = BUILD_DIR / "perfbench_driver"

DEFAULT_SEED = 1
# Later claims must also hold on this seed; it is not used for tuning.
HELD_OUT_SEED = 7919

# A run may take 180 s (900 s when it builds); the driver gets 175 s.
RUN_LIMIT_S = 175
# The first run in a checkout builds, and may take 900 s in all.
BUILD_LIMIT_S = 700

# name -> driver configuration. `batch` simulations with seeds derived
# from --seed make one pass; their statistics are pooled, so a run's
# simulated metrics rest on thousands of CS entries.
WORKLOADS = {
    "lock_storm_8x8": {
        "args": ["benchmark=nab", "lock=tas", "mechanism=inpg",
                 "topology=mesh:8x8", "threads=1", "cs_scale=0.02"],
        "batch": 110,
        "model_check_states": 200000,
    },
    "sparse_1024c": {
        "args": ["benchmark=md", "lock=qsl", "mechanism=original",
                 "topology=mesh:32x32", "threads=1", "workload_threads=512",
                 "cs_scale=0.01"],
        "batch": 9,
    },
    "fabric_16x16_t4": {
        "args": ["benchmark=freq", "lock=tas", "mechanism=inpg",
                 "topology=mesh:16x16", "threads=4", "cs_scale=0.09"],
        "batch": 9,
    },
}

# Self-check sizing: one short simulation per pass, a tiny model check.
TINY = {"batch": 1, "cs_scale": "0.005", "model_check_states": 2000}

END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "ns_per_router_cycle": "ns",
    "peak_rss_mb": "MB",
    "roi_cycles": "cycles",
    "lco_share": "share",
    "rtt_mean_cycles": "cycles",
    "cs_access_p50_cycles": "cycles",
    "cs_access_p99_cycles": "cycles",
}

# Per-layer metrics; a layer a workload does not exercise reads 0.
PER_LAYER = {
    "sim.events_executed": "count",
    "sim.cycles_stepped": "cycles",
    "sim.ff_cycles": "cycles",
    "sim.ff_jumps": "count",
    "sim.events_host_s": "s",
    "sim.host_ns_per_event": "ns",
    "sim.unattributed_host_s": "s",
    "noc.routers_host_s": "s",
    "noc.nis_host_s": "s",
    "noc.flits_routed": "count",
    "noc.packets_delivered": "count",
    "noc.router_host_ns_per_flit": "ns",
    "noc.packet_latency_mean_cycles": "cycles",
    "coh.dirs_host_s": "s",
    "coh.dir_requests": "count",
    "coh.dir_queue_depth_mean": "count",
    "coh.l1_misses": "count",
    "coh.invalidations": "count",
    "coh.lock_rmw_latency_mean_cycles": "cycles",
    "inpg.getx_stopped": "count",
    "inpg.early_invs": "count",
    "inpg.acks_relayed": "count",
    "inpg.barrier_refreshed": "count",
    "inpg.relay_ratio": "ratio",
    "sync.acquisitions": "count",
    "sync.swap_failures": "count",
    "sync.acquire_success_ratio": "ratio",
    "sync.retries_per_acquire": "count",
    "sync.sleeps": "count",
    "sync.wakeups": "count",
    "workload.cs_completed": "count",
    "workload.parallel_share": "share",
    "workload.coh_share": "share",
    "workload.cse_share": "share",
    "harness.system_build_s": "s",
    "harness.workload_build_s": "s",
    "parallel.barriers": "count",
    "parallel.barriers_elided": "count",
    "parallel.barrier_wait_s": "s",
    "parallel.merge_s": "s",
    "parallel.worker_busy_s": "s",
    "parallel.worker_wait_s": "s",
    "parallel.load_imbalance": "ratio",
    "parallel.speedup_vs_serial": "ratio",
    "lco.leg.l1_access": "cycles",
    "lco.leg.req_network": "cycles",
    "lco.leg.dir_service": "cycles",
    "lco.leg.resp_network": "cycles",
    "lco.leg.inv_ack_wait": "cycles",
    "lco.leg.spin_wait": "cycles",
    "lco.leg.sleep_wait": "cycles",
    "lco.leg.other": "cycles",
    "telemetry.lco_overhead": "ratio",
    "trace.overhead": "ratio",
    "verify.states": "count",
    "verify.transitions": "count",
    "verify.max_depth": "count",
    "verify.states_per_s": "1/s",
}

SIMULATED = ["roi_cycles", "lco_share", "rtt_mean_cycles",
             "cs_access_p50_cycles", "cs_access_p99_cycles"]


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configure once, then build the driver; False on failure."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (BUILD_DIR / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD_DIR), "-j", jobs,
                  "--target", "perfbench_driver"])
    for cmd in steps:
        try:
            done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=BUILD_LIMIT_S, check=False)
        except (OSError, subprocess.TimeoutExpired) as err:
            log(f"build step failed: {err}")
            return False
        if done.returncode != 0:
            log(f"build step failed ({done.returncode}): {' '.join(cmd)}")
            return False
    return DRIVER.exists()


def run_driver(args, limit_s):
    """Run the driver; returns (parsed lines, crashed?)."""
    proc = subprocess.Popen([str(DRIVER)] + args, stdout=subprocess.PIPE,
                            stderr=sys.stderr, text=True)
    try:
        out, _ = proc.communicate(timeout=limit_s)
        crashed = proc.returncode != 0
    except subprocess.TimeoutExpired:
        proc.kill()
        out, _ = proc.communicate()
        crashed = True
    lines = []
    for text in out.splitlines():
        try:
            lines.append(json.loads(text))
        except json.JSONDecodeError:
            crashed = True
    return lines, crashed


def quartiles(values):
    """(q1, median, q3) as statistics.quantiles gives them."""
    if len(values) < 2:
        v = values[0] if values else 0.0
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def check(lines, crashed):
    """Count attempted and failed checks over the driver's output."""
    attempted = failed = 0
    reference = {}  # sub-seed -> fingerprint of its first clean run
    for line in lines:
        kind = line.get("kind")
        if kind == "sim":
            attempted += 1
            if not line["ok"]:
                failed += 1
                log(f"simulation failed ({line['role']}, sub-seed "
                    f"{line['sub']}): {line.get('error')}")
                continue
            # Telemetry adds a section to the snapshot, so an lco run
            # matches on the simulated cycles and event count only.
            key = [line["roi_cycles"], line["events_executed"]]
            if not line["telemetry_lco"]:
                key.append(line["snapshot_hash"])
            ref = reference.setdefault(line["sub"], key)
            if key != ref[:len(key)]:
                failed += 1
                log(f"fingerprint of sub-seed {line['sub']} "
                    f"({line['role']}) differs: {key} != {ref}")
        elif kind == "setup" and "error" in line:
            attempted += 1
            failed += 1
            log(f"set-up failed: {line['error']}")
        elif kind == "setup":
            attempted += 1
        elif kind == "verify":
            attempted += 1
            if not line["ok"]:
                failed += 1
                log(f"model check failed: {line.get('error')}")
    passes = [l for l in lines if l.get("kind") == "pass"]
    if len({p.get("fingerprint") for p in passes}) > 1:
        failed += 1
        log("passes over the same batch disagree")
    if crashed:
        attempted += 1
        failed += 1
        log("driver crashed or timed out")
    return attempted, failed


def source_digest():
    """Digest of the simulator and benchmark sources (provenance)."""
    h = hashlib.sha256()
    for top in ("src", "include", "perfbench"):
        for path in sorted((ROOT / top).rglob("*")):
            if path.is_file():
                h.update(str(path.relative_to(ROOT)).encode())
                h.update(path.read_bytes())
    return h.hexdigest()[:16]


def git_state():
    if not (ROOT / ".git").exists():
        return "unknown", None
    try:
        sha = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30)
        dirty = subprocess.run(["git", "-C", str(ROOT), "status",
                                "--porcelain", "--", "src", "include",
                                "perfbench"],
                               capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown", None
    return sha.stdout.strip() or "unknown", bool(dirty.stdout.strip())


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="self-check sizing: tiny inputs, same metrics")
    opts = ap.parse_args()

    if not build():
        log("perfbench: build failed")
        return 1

    wl = WORKLOADS[opts.workload]
    args = list(wl["args"])
    batch = wl["batch"]
    mc_states = wl.get("model_check_states", 0)
    if opts.tiny:
        args = [a for a in args if not a.startswith("cs_scale=")]
        args.append(f"cs_scale={TINY['cs_scale']}")
        batch = TINY["batch"]
        mc_states = min(mc_states, TINY["model_check_states"])
    # Host threads never exceed the host's hardware threads.
    hw = os.cpu_count() or 1
    args = [f"threads={min(int(a.split('=')[1]), hw)}"
            if a.startswith("threads=") else a for a in args]
    args += [f"seed={opts.seed}", f"batch={batch}",
             f"seconds={opts.seconds}", f"trace={opts.trace}"]
    spans = None
    if opts.trace:
        OUT_DIR.mkdir(exist_ok=True)
        spans = OUT_DIR / f"spans-{opts.workload}-seed{opts.seed}.json"
        args += [f"model_check_states={mc_states}", f"spans_out={spans}"]

    lines, crashed = run_driver(args, RUN_LIMIT_S)
    attempted, failed = check(lines, crashed)
    passes = [l for l in lines if l.get("kind") == "pass" and l["ok"]]
    end = next((l for l in lines if l.get("kind") == "end"), None)
    layers = next((l["metrics"] for l in lines if l.get("kind") == "layers"),
                  None)
    if not passes or end is None or (opts.trace and layers is None):
        log("perfbench: the run produced no measurement")
        return 1

    sims = [l for l in lines if l.get("kind") == "sim" and l["ok"]
            and l["role"] == "measured"]
    setup = [l["setup_s"] for l in sims] + \
        [l["setup_s"] for l in lines
         if l.get("kind") == "setup" and "setup_s" in l]
    samples = {
        "wall_s": [l["wall_s"] for l in sims],
        "ns_per_router_cycle": [l["ns_per_router_cycle"] for l in sims],
        "setup_s": setup,
        "system_build_s": [l["system_build_s"] for l in sims],
        "workload_build_s": [l["workload_build_s"] for l in sims],
    }
    med = {k: quartiles(v)[1] for k, v in samples.items()}

    if opts.trace:
        values = {name: layers.get(name, 0) for name in PER_LAYER}
        values["harness.system_build_s"] = med["system_build_s"]
        values["harness.workload_build_s"] = med["workload_build_s"]
        units = PER_LAYER
    else:
        values = {
            "wall_s": med["wall_s"],
            "setup_s": med["setup_s"],
            "ns_per_router_cycle": med["ns_per_router_cycle"],
            "peak_rss_mb": end["peak_rss_mb"],
        }
        values.update({k: passes[0][k] for k in SIMULATED})
        units = END_TO_END

    sha, dirty = git_state()
    provenance = {
        "workload": opts.workload,
        "seed": opts.seed,
        "default_seed": DEFAULT_SEED,
        "held_out_seed": HELD_OUT_SEED,
        "git_sha": sha,
        "git_dirty": dirty,
        "source_digest": source_digest(),
        "compiler": end["compiler"],
        "build_type": end["build_type"],
        "hw_threads": hw,
        "loop": "closed: one simulation at a time, back to back",
        "batch": batch,
        "passes": len(passes),
        "simulations": len(sims),
        "cs_entries_per_pass": passes[0]["cs_entries"],
        "spread": {k: dict(zip(("q1", "median", "q3"), quartiles(v)),
                           n=len(v)) for k, v in samples.items()},
        "model": "unvalidated against hardware: the workload profiles "
                 "are synthetic, so no error figure exists",
    }
    if spans:
        provenance["span_file"] = str(spans.relative_to(ROOT))
    print(json.dumps({"provenance": provenance}))
    for name, unit in units.items():
        print(f"{name:34s} {values[name]:>16.6g} {unit}")
    print(f"fail_rate {failed}/{attempted}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
