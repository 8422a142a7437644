#!/usr/bin/env python3
"""Repository benchmark entry point.

One run of one workload, from the root of a source checkout:

    python3 perfbench/run.py --workload join|query|ingest|exact \
        --seed N --seconds S --trace 0|1

builds the program and the load generator with dune, runs
``perfbench/tsjbench.ml`` and passes its output through: the last line
of stdout is the result object.  The run is confined to the checkout;
every process it starts is stopped and its scratch directory removed on
every exit path.

Steadiness self-check (many runs; prints per-metric spread):

    python3 perfbench/run.py selfcheck [--runs 10] [--seconds S]
        [--workloads join,query,ingest,exact] [--first-seed 1]
"""

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

EXE = os.path.join("_build", "default", "perfbench", "tsjbench.exe")
TSJ = os.path.join("_build", "default", "bin", "tsj.exe")
RUN_TIMEOUT_S = 150
BUILD_TIMEOUT_S = 700

# Per-layer counts that are pure functions of the seed: two traced runs
# of one seed must report them identically.
DETERMINISTIC = {
    "join": ["core.candidates", "ted.kernel_calls", "ted.cascade_decided_ratio"],
    "query": ["core.hits_per_query"],
    "ingest": ["core.add_candidates", "server.journal_bytes_per_user_byte"],
    "exact": ["core.hits_per_query"],
}


def die(msg, code=2):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def dune_cmd():
    if shutil.which("dune"):
        return ["dune"]
    if shutil.which("opam"):
        return ["opam", "exec", "--", "dune"]
    die("dune not found on PATH")


def build():
    for needed in ("dune-project", "lib", os.path.join("bin", "tsj.ml")):
        if not os.path.exists(needed):
            die("not a source checkout (missing %s); run from the repository root" % needed)
    cmd = dune_cmd() + ["build", "--root", ".", "perfbench/tsjbench.exe", "bin/tsj.exe"]
    # No shared build cache: the build writes only inside the checkout.
    env = dict(os.environ, DUNE_CACHE="disabled")
    try:
        r = subprocess.run(cmd, stdout=sys.stderr, env=env, timeout=BUILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        die("build timed out")
    if r.returncode != 0 or not os.path.exists(EXE) or not os.path.exists(TSJ):
        die("build failed")


def kill_group(pgid):
    """SIGKILL every process left in the group and wait until none is."""
    deadline = time.time() + 5
    while time.time() < deadline:
        try:
            os.killpg(pgid, signal.SIGKILL)
        except (ProcessLookupError, PermissionError):
            return
        time.sleep(0.01)


def run_one(args):
    build()
    run_dir = os.path.join(".perfbench_run", "run-%d" % os.getpid())
    cmd = [EXE, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--tsj", TSJ, "--run-dir", run_dir]
    # Served workloads: the load generator and the server it spawns share
    # one vCPU, so the host-speed calibration samples the core the server
    # runs on (see README.md).  The join measures in-process already.
    cpus = sorted(os.sched_getaffinity(0))
    pin = None if args.workload == "join" else {cpus[-1]}
    # Own process group: the load generator, its reference children and
    # the servers it spawns can all be killed together.
    proc = subprocess.Popen(
        cmd, start_new_session=True,
        preexec_fn=(lambda: os.sched_setaffinity(0, pin)) if pin else None)

    def halt():
        # SIGTERM first: the load generator then drains and stops its
        # servers itself; SIGKILL the group if that takes too long.
        proc.terminate()
        try:
            proc.wait(timeout=20)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()

    def stop(*_):
        halt()
        kill_group(proc.pid)
        shutil.rmtree(run_dir, ignore_errors=True)
        sys.exit(1)

    signal.signal(signal.SIGTERM, stop)
    signal.signal(signal.SIGINT, stop)
    try:
        code = proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        halt()
        code = 3
    kill_group(proc.pid)
    shutil.rmtree(run_dir, ignore_errors=True)
    sys.exit(code)


def invoke(workload, seed, seconds, trace):
    """One benchmark run as a subprocess; returns the parsed result line."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    t0 = time.time()
    r = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    lines = r.stdout.strip().splitlines()
    if r.returncode != 0 or not lines:
        die("%s seed %d trace %d failed (exit %d)" % (workload, seed, trace, r.returncode), 1)
    meta = json.loads(lines[-2])["meta"] if len(lines) > 1 else {}
    res = json.loads(lines[-1])
    res["meta"] = meta
    res["wall_s"] = time.time() - t0
    return res


def selfcheck(args):
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    seconds = args.seconds or bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    workloads = args.workloads.split(",") if args.workloads else [w["name"] for w in bench["workloads"]]
    bad = []
    warn = []
    for w in workloads:
        runs = []
        for k in range(args.runs):
            res = invoke(w, args.first_seed + k, seconds, 0)
            runs.append(res)
            print("%s seed %d: %.1f s, ok %d/%d, tail %s" % (
                w, args.first_seed + k, res["wall_s"], res["attempted"] - res["failed"],
                res["attempted"], res["meta"].get("tail_percentile")), file=sys.stderr)
            if not res["correct"]:
                bad.append("%s seed %d: incorrect" % (w, args.first_seed + k))
        print("\n%s: %d runs, %s s each, ops/run %s" % (w, len(runs), seconds, runs[0]["meta"].get("ops")))
        print("  %-16s %12s %12s %12s %12s %12s %8s %8s %6s" % (
            "metric", "median", "q1", "q3", "min", "max", "spread", "halves", "bound"))
        stats = {}
        for name in list(bounds) + ["raw_" + n for n in bounds]:
            if name in bounds:
                vals = [r["metrics"][name]["value"] for r in runs]
            elif name in runs[0]["meta"]:
                vals = [r["meta"][name] for r in runs]
            else:
                continue
            q1, med, q3 = statistics.quantiles(vals, n=4)
            med = statistics.median(vals)
            spread = (q3 - q1) / med if med else 0.0
            half = len(vals) // 2
            halves = statistics.median(vals[half:]) / statistics.median(vals[:half])
            stats[name] = (spread, halves)
            print("  %-16s %12.5g %12.5g %12.5g %12.5g %12.5g %8.3f %8.3f %6s" % (
                name, med, q1, q3, min(vals), max(vals), spread, halves, bounds.get(name, "")))
        for name, bound in bounds.items():
            spread, halves = stats[name]
            if spread > bound:
                bad.append("%s %s: spread %.3f > bound %.2f" % (w, name, spread, bound))
            if abs(halves - 1) > bound:
                bad.append("%s %s: half-set ratio %.3f off by more than %.2f" % (w, name, halves, bound))
            # Normalization should not add noise of its own.  This only
            # warns: two spreads of ten runs each are too noisy to compare
            # as a gate (see README.md).
            raw_spread = stats.get("raw_" + name, (None,))[0]
            if raw_spread is not None and spread > max(1.25 * raw_spread, bound / 3):
                warn.append("%s %s: normalized spread %.3f > raw %.3f" % (w, name, spread, raw_spread))
        traced = [invoke(w, args.first_seed, seconds, 1) for _ in range(2)]
        for name in DETERMINISTIC[w]:
            a, b = (t["metrics"][name]["value"] for t in traced)
            print("  count %-36s %s %s %s" % (name, a, b, "same" if a == b else "DIFFERENT"))
            if a != b:
                bad.append("%s %s: %s vs %s across runs of seed %d" % (w, name, a, b, args.first_seed))
        m = traced[0]["meta"]
        if "tracing_overhead_pct" in m:
            print("  tracing overhead %.2f%%" % m["tracing_overhead_pct"])
        sys.stdout.flush()
    if warn:
        print("\nWARNING, normalization widened a spread:\n  " + "\n  ".join(warn))
    if bad:
        print("\nFAILED:\n  " + "\n  ".join(bad))
        sys.exit(1)
    print("\nsteady")


def main():
    if len(sys.argv) > 1 and sys.argv[1] == "selfcheck":
        p = argparse.ArgumentParser(prog="run.py selfcheck")
        p.add_argument("--runs", type=int, default=10)
        p.add_argument("--seconds", type=int, default=0)
        p.add_argument("--workloads", default="")
        p.add_argument("--first-seed", type=int, default=1)
        selfcheck(p.parse_args(sys.argv[2:]))
        return
    p = argparse.ArgumentParser(prog="run.py")
    p.add_argument("--workload", required=True, choices=["join", "query", "ingest", "exact"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    run_one(p.parse_args())


if __name__ == "__main__":
    main()
