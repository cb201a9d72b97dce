#!/usr/bin/env python3
"""Run one workload on several seeds and report each end-to-end metric's
spread: the distance between its first and third quartile (as
statistics.quantiles(values, n=4) gives them) as a share of its median,
next to a third of the metric's bound from BENCHMARK.json.

Usage (from the root of a source tree):

    python3 perfbench/spread.py --workload NAME [--seeds 1-10] [--seconds S]
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def seeds_of(text):
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", type=int)
    args = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    seconds = args.seconds or bench["run_seconds"]
    values = {}
    for seed in seeds_of(args.seeds):
        cmd = bench["command"] + ["--workload", args.workload, "--seed", str(seed),
                                  "--seconds", str(seconds), "--trace", "0"]
        t0 = time.time()
        out = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True)
        result = json.loads(out.stdout.strip().splitlines()[-1])
        print(f"seed {seed}: {time.time() - t0:.1f} s, correct={result['correct']} "
              f"failed={result['failed']}/{result['attempted']}", flush=True)
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
    worst = 0.0
    for metric in bench["end_to_end"]:
        vs = values.get(metric["name"], [])
        if len(vs) < 2:
            continue
        q1, med, q3 = statistics.quantiles(vs, n=4)
        spread = (q3 - q1) / med if med else float("inf")
        limit = metric["bound"] / 3
        if metric["name"] != "setup_s":
            worst = max(worst, spread / limit)
        flag = "ok" if spread < limit else "WIDE"
        print(f"{metric['name']:22s} median {med:12.4f}  spread {spread:6.3f}  "
              f"bound/3 {limit:6.3f}  {flag}   "
              + " ".join(f"{v:.4g}" for v in vs))
    return 0 if worst < 1 else 1


if __name__ == "__main__":
    sys.exit(main())
