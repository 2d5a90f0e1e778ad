#!/usr/bin/env python3
"""Build and run one benchmark workload; print one JSON result line.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds perfbench/sbbench.exe with dune from the source tree it sits in,
runs the workload, checks that the result names exactly the metrics
BENCHMARK.json declares (end-to-end ones with --trace 0, per-layer ones
with --trace 1) with their units, and prints the result as the last line
of standard output.  A traced run reports only the layers its workload
touches; every other per-layer metric reads 0.  Exits 0 only for a correct run; everything else goes
to standard error.
"""

import argparse
import glob
import json
import math
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
EXE = os.path.join(ROOT, "_build", "default", "perfbench", "sbbench.exe")
TMP = os.path.join(ROOT, ".perfbench_tmp")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def dune_env():
    """dune on PATH, else the one of the active or only opam switch."""
    env = dict(os.environ, DUNE_CACHE="disabled")
    if shutil.which("dune"):
        return env
    prefixes = [os.environ.get("OPAM_SWITCH_PREFIX", "")]
    prefixes += sorted(glob.glob(os.path.expanduser("~/.opam/*")))
    for prefix in prefixes:
        bindir = os.path.join(prefix, "bin")
        if prefix and os.path.isfile(os.path.join(bindir, "dune")):
            env["PATH"] = bindir + os.pathsep + env.get("PATH", "")
            return env
    fail("dune not found")


def build():
    if not (os.path.isfile(os.path.join(ROOT, "dune-project"))
            and os.path.isdir(os.path.join(ROOT, "lib"))):
        fail("no safebarrier source tree around perfbench/ "
             "(expected dune-project and lib/ at " + ROOT + ")")
    try:
        done = subprocess.run(
            ["dune", "build", "--root", ".", "./perfbench/sbbench.exe"],
            cwd=ROOT, env=dune_env(), stdout=sys.stderr, stderr=sys.stderr,
            timeout=BUILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("build timed out")
    if done.returncode != 0:
        fail("build failed")


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def check(result, trace):
    """Problems with the shape of a result line ([] when it is sound)."""
    problems = []
    if not isinstance(result, dict) or set(result) != {
            "correct", "attempted", "failed", "metrics"}:
        problems.append("result keys %s" % sorted(result))
        return problems
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        problems.append("attempted %r" % result["attempted"])
    want = expected_metrics(trace)
    got = {k: v.get("unit") for k, v in result["metrics"].items()}
    if got != want:
        problems.append("metrics %s, expected %s" % (got, want))
    for name, m in result["metrics"].items():
        v = m.get("value")
        if not isinstance(v, (int, float)) or not math.isfinite(v):
            problems.append("%s = %r" % (name, v))
    return problems


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True,
                    choices=["dubins-cold", "scenario-suite", "serve-recheck"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()

    build()
    cmd = [EXE, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    try:
        done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=sys.stderr, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("run timed out")
    finally:
        shutil.rmtree(TMP, ignore_errors=True)
    lines = done.stdout.strip().splitlines()
    if not lines:
        fail("no result (exit code %d)" % done.returncode)
    try:
        result = json.loads(lines[-1])
    except ValueError:
        fail("unparseable result line %r" % lines[-1])
    if args.trace == 1 and isinstance(result.get("metrics"), dict):
        for name, unit in expected_metrics(True).items():
            result["metrics"].setdefault(name, {"value": 0, "unit": unit})
    problems = check(result, args.trace == 1)
    for p in problems:
        print("perfbench: bad result: " + p, file=sys.stderr)
    if problems:
        result["correct"] = False
    print(json.dumps(result))
    sys.exit(0 if result.get("correct") is True and done.returncode == 0 else 1)


if __name__ == "__main__":
    main()
