#!/usr/bin/env python3
"""Repository benchmark for the SMIless simulator.

Usage (from the root of a checkout):

    python3 perfbench/run.py [--workload NAME] --seed N --seconds S --trace 0|1

Without --workload every workload of BENCHMARK.json runs in turn.

Builds perfbench/ (the simulator libraries from src/ plus perfbench_cell)
into .bench_build/, then runs the workload with perfbench_cell, one fresh
process per run, for S seconds (at least one run) after an untimed
set-up-only warm-up run. Extra set-up-only runs make the set-up time a
median of several. Every run must pass the correctness gate: the
request-accounting invariants hold, every run of the seed yields the same
outcome fingerprint, and for a seed pinned in perfbench/pins.json the
fingerprint matches the pin. A failed gate exits 1 without a result.

--trace 0 reports the end-to-end metrics of BENCHMARK.json (medians over the
runs). --trace 1 also makes one traced run (policy decorators, audit log, bus
counting sink, self-profiler, spans written to .bench_build/spans/) and
reports the per-layer metrics, including trace.overhead_ratio: traced run
wall time over the untraced median.

Each workload's report ends with one JSON line: correct, attempted (runs
of perfbench_cell started), failed (runs that did not finish) and metrics.
The command exits 1 if any workload fails its gate.
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build"
CELL = BUILD / "perfbench_cell"
MEASURE_S = 150.0  # per workload, after the build: a run must end within 180 s
MIN_SETUPS = 5


class GateError(Exception):
    pass


def log(msg):
    print("perfbench: " + msg, file=sys.stderr, flush=True)


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        log("no simulator sources: %s/src/CMakeLists.txt is missing" % ROOT)
        sys.exit(2)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [["cmake", "-S", str(HERE), "-B", str(BUILD), "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", str(BUILD), "-j", jobs, "--target", "perfbench_cell"]]
    for cmd in steps:
        # Build chatter goes to stderr: stdout carries only results.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            log("build failed: " + " ".join(cmd))
            sys.exit(2)


def cell(args, deadline):
    left = deadline - time.monotonic()
    if left <= 0:
        raise GateError("out of time before " + " ".join(args))
    try:
        p = subprocess.run([str(CELL)] + args, stdout=subprocess.PIPE, stderr=sys.stderr,
                           text=True, timeout=left)
    except subprocess.TimeoutExpired:
        raise GateError("perfbench_cell timed out: " + " ".join(args))
    lines = p.stdout.strip().splitlines()
    if p.returncode != 0 or not lines:
        raise GateError("perfbench_cell failed (exit %d): %s" % (p.returncode, " ".join(args)))
    return json.loads(lines[-1])


def source_digest():
    """git sha when the checkout is a repository, else a digest of the sources."""
    try:
        if not (ROOT / ".git").exists():
            raise OSError("not a git checkout")
        p = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True,
                           text=True, timeout=10)
        if p.returncode == 0 and p.stdout.strip():
            return "git:" + p.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for path in sorted((ROOT / top).rglob("*")):
            if path.is_file():
                h.update(str(path.relative_to(ROOT)).encode())
                h.update(path.read_bytes())
    return "sha256:" + h.hexdigest()[:16]


def check_run(r, workload, seed):
    """Request-accounting invariants of one run, rechecked from its report."""
    req = r["requests"]
    parts = (r["requests_completed"], r["requests_failed"], r["requests_unfinished"])
    if req <= 0 or min(parts) < 0 or sum(parts) != req:
        raise GateError("%s seed %d: submitted %d != completed + failed + unfinished %s"
                        % (workload, seed, req, parts))
    for key in ("slo_violation_pct", "failure_pct"):
        if not 0.0 <= r[key] <= 100.0:
            raise GateError("%s seed %d: %s = %r outside [0, 100]" % (workload, seed, key, r[key]))


def check_same(runs, workload, seed, pins):
    first = runs[0]
    for r in runs[1:]:
        for key in ("fingerprint", "requests", "slo_violation_pct", "cost_usd"):
            if r[key] != first[key]:
                raise GateError("%s seed %d: %s differs between runs: %r vs %r"
                                % (workload, seed, key, first[key], r[key]))
    pin = pins.get(workload, {}).get(str(seed))
    if pin is not None and pin != first["fingerprint"]:
        raise GateError("%s seed %d: fingerprint %s does not match the pin %s"
                        % (workload, seed, first["fingerprint"], pin))
    return pin is not None


def measure(workload, a, spec, pins, info):
    """Measure one workload at a.seed: print its report and result line.

    Returns False, after printing no result, when the correctness gate fails.
    """
    deadline = time.monotonic() + MEASURE_S
    attempted = 0
    runs = []
    traced = None
    try:
        base = ["run", "--workload", workload, "--seed", str(a.seed)]
        # Warm-up: a set-up-only run brings the binary and the libraries into
        # the page cache before anything is timed.
        attempted += 1
        cell(base + ["--setup-only"], deadline)
        # Start another run only while it is expected to end within S seconds,
        # so that a run measures S seconds whatever one workload run costs.
        start = time.monotonic()
        walls = []
        while not runs or time.monotonic() - start + statistics.median(walls) <= a.seconds:
            attempted += 1
            t0 = time.monotonic()
            r = cell(base, deadline)
            walls.append(time.monotonic() - t0)
            check_run(r, workload, a.seed)
            runs.append(r)
        setups = [r["setup_s"] for r in runs]
        while len(setups) < MIN_SETUPS:
            attempted += 1
            setups.append(cell(base + ["--setup-only"], deadline)["setup_s"])
        if a.trace:
            spans = BUILD / "spans"
            spans.mkdir(exist_ok=True)
            attempted += 1
            path = spans / ("%s-seed%d.json" % (workload, a.seed))
            traced = cell(base + ["--traced", "--spans", str(path)], deadline)
            check_run(traced, workload, a.seed)
        pinned = check_same(runs + ([traced] if traced else []), workload, a.seed, pins)
    except GateError as e:
        log("CORRECTNESS GATE FAILED: %s" % e)
        return False

    first = runs[0]
    threads = first["threads"]
    host = {
        "nproc": info["nproc"],
        "cpu_model": info["cpu_model"],
        "compiler": info["compiler"],
        "build_type": info["build_type"],
        "source": source_digest(),
        "threads": threads,
    }
    busy = threads.get("replica_threads", threads["lane_threads"])
    note = "%d simulation thread(s) on %d CPU(s)" % (busy, info["nproc"])
    if busy > info["nproc"]:
        note += ": threads outnumber CPUs, so multi-thread timings include time-slicing"
    elif busy > 1:
        note += ": multi-thread timings are parallel measurements"
    host["note"] = note
    print("host " + json.dumps(host, sort_keys=True))

    values = {
        "req_per_s": statistics.median([r["req_per_s"] for r in runs]),
        "cpu_s": statistics.median([r["cpu_s"] for r in runs]),
        "peak_rss_mb": statistics.median([r["peak_rss_mb"] for r in runs]),
        "setup_s": statistics.median(setups),
        "slo_violation_pct": first["slo_violation_pct"],
        "cost_usd": first["cost_usd"],
    }
    print("workload %s seed %d: %d timed run(s), %d set-up(s), fingerprint %s%s"
          % (workload, a.seed, len(runs), len(setups), first["fingerprint"],
             " (pinned)" if pinned else ""))
    print("requests %d requests_failed %d (per run)"
          % (first["requests"], first["requests_failed"]))
    print("runs run_s %s" % " ".join("%.4f" % r["run_s"] for r in runs))
    mem = first["memory"]
    print("memory peak_rss_mb %.1f = arrivals %.1f + results %.1f + obs retained %.1f + other"
          % (values["peak_rss_mb"], mem["arrival_mb"], mem["result_mb"], mem["obs_retained_mb"]))
    metrics = {}
    for m in spec["end_to_end"]:
        v = values[m["name"]]
        print("metric %s %r %s" % (m["name"], v, m["unit"]))
        metrics[m["name"]] = {"value": v, "unit": m["unit"]}

    if a.trace:
        layers = dict(traced["layers"])
        untraced_s = statistics.median([r["run_s"] for r in runs])
        layers["trace.overhead_ratio"] = traced["run_s"] / untraced_s
        metrics = {}
        for m in spec["per_layer"]:
            if m["name"] not in layers:
                log("traced run reported no %s" % m["name"])
                return False
            v = layers[m["name"]]
            print("layer %s %r %s" % (m["name"], v, m["unit"]))
            metrics[m["name"]] = {"value": v, "unit": m["unit"]}
        for name, ops in sorted(traced.get("micro_ops", {}).items()):
            print("micro %s ops %d" % (name, ops))

    print(json.dumps({"correct": True, "attempted": attempted, "failed": 0, "metrics": metrics}))
    return True


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", help="one workload of BENCHMARK.json; omit to run them all")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = ap.parse_args()
    if a.seed < 0:
        ap.error("--seed must be >= 0")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    if a.workload is not None and a.workload not in names:
        ap.error("unknown workload %r" % a.workload)
    pins = json.loads((HERE / "pins.json").read_text())
    build()
    try:
        info = cell(["info"], time.monotonic() + 30.0)
    except GateError as e:
        log(str(e))
        sys.exit(1)
    ok = True
    for workload in names if a.workload is None else [a.workload]:
        ok = measure(workload, a, spec, pins, info) and ok
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
