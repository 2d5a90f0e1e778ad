#!/usr/bin/env python3
"""Run one workload under several seeds and report each end-to-end
metric's median and run-to-run spread (interquartile range over median,
quartiles as statistics.quantiles(values, n=4) gives them) against the
bound BENCHMARK.json sets for it.

Usage (from the repository root):

    python3 perfbench/spread.py --workload NAME [--seeds 1-10] [--seconds S]

A spread above a third of its bound is flagged.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def seed_range(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", type=seed_range, default=seed_range("1-10"))
    ap.add_argument("--seconds", type=float, default=None)
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    seconds = args.seconds or spec["run_seconds"]
    values = {}
    for seed in args.seeds:
        out = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload",
             args.workload, "--seed", str(seed), "--seconds", str(seconds),
             "--trace", "0"],
            cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True)
        result = json.loads(out.stdout.strip().splitlines()[-1])
        print("seed %d: %s" % (seed, {k: v["value"] for k, v in
                                      result["metrics"].items()}))
        for k, v in result["metrics"].items():
            values.setdefault(k, []).append(v["value"])
    flagged = False
    for m in spec["end_to_end"]:
        vs = values[m["name"]]
        med = statistics.median(vs)
        q1, _, q3 = statistics.quantiles(vs, n=4)
        spread = (q3 - q1) / med if med else float("inf")
        bad = spread > m["bound"] / 3
        flagged |= bad
        print("%-22s median %-12.6g spread %6.3f  bound %.3f%s"
              % (m["name"], med, spread, m["bound"], "  TOO WIDE" if bad else ""))
    sys.exit(1 if flagged else 0)


if __name__ == "__main__":
    main()
