#!/usr/bin/env python3
"""Smoke-sized self-test of the benchmark.

Usage (from the repository root):

    python3 perfbench/selftest.py

For each workload, runs a short untraced and a short traced run through
run.py and asserts that each is correct and emits every metric
BENCHMARK.json names, with its unit (run.py refuses a result otherwise).
On scenario-suite it also asserts that the traced run compared at least
two units and that lp.pivots, solver.branches, tape.compile and
cegis.cex_cuts were identical across them, and for every workload that a
seed always generates the same op list and another seed another one.
The runs are short through --seconds alone and take the same set-up path
as the benchmark's: five set-ups, one per round.  Takes under 2 minutes.
"""

import os
import re
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.dont_write_bytecode = True
import run  # noqa: E402  (the benchmark's own build step and paths)

WORKLOADS = ["dubins-cold", "scenario-suite", "serve-recheck"]


def bench(workload, trace, seconds):
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", str(seconds), "--trace", str(trace)],
        cwd=run.ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True)
    assert done.returncode == 0, "%s trace %d failed:\n%s%s" % (
        workload, trace, done.stdout, done.stderr)
    return done.stderr


def ops(workload, seed):
    return subprocess.run(
        [run.EXE, "--workload", workload, "--seed", str(seed), "--seconds",
         "1", "--trace", "0", "--dump-ops"],
        cwd=run.ROOT, stdout=subprocess.PIPE, text=True, check=True).stdout


def main():
    run.build()
    for w in WORKLOADS:
        a, b = ops(w, 5), ops(w, 5)
        assert a and a == b, "%s: seed 5 gave two op lists" % w
        assert ops(w, 6) != a, "%s: seeds 5 and 6 gave one op list" % w
        print("ok  %s: op list is a function of the seed" % w)
    for w in WORKLOADS:
        bench(w, 0, 2)
        print("ok  %s: untraced run correct, end-to-end metrics complete" % w)
        log = bench(w, 1, 4 if w == "scenario-suite" else 2)
        print("ok  %s: traced run correct, per-layer metrics complete" % w)
        if w == "scenario-suite":
            line = re.search(r"unit counts: (.*)", log).group(1)
            units = line.split(" | ")
            assert len(units) >= 2, "only %d unit traced" % len(units)
            assert len(set(units)) == 1, "counts differ: " + line
            print("ok  scenario-suite: %d units, identical counts %s"
                  % (len(units), units[0]))
    print("selftest passed")


if __name__ == "__main__":
    main()
