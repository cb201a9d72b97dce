#!/usr/bin/env python3
"""Self-test of the benchmark: every workload at a tiny size.

Usage (from the root of a source tree):

    python3 perfbench/selftest.py

Checks, per workload:
  * an untraced run prints every end-to-end metric of BENCHMARK.json with
    its unit and a value above zero, passes its correctness check and
    fails no op;
  * a traced run prints every per-layer metric with its unit;
  * the bypass predictions hold as exact counts: on deep-vf nothing is
    logged, no bitmap word is read, no commit history is replayed and no
    merge joins a key; the buffer pool evicts nothing on curation-hy and
    deep-vf, and something on flat-tf-durable.
Then a run whose expected fingerprint is corrupted on purpose must
report correct=false with a failed op.  Exits non-zero on any failure.
"""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

ZERO_ON_BYPASS = {
    "deep-vf": ["wal.records", "bitmap.words_per_emitted",
                "commit_history.deltas_replayed_per_checkout", "merge.keys_joined",
                "buffer_pool.evictions"],
    "curation-hy": ["buffer_pool.evictions"],
}
POSITIVE = {"flat-tf-durable": ["buffer_pool.evictions", "wal.records"]}

failures = []


def check(cond, msg):
    print(("ok    " if cond else "FAIL  ") + msg, flush=True)
    if not cond:
        failures.append(msg)


def run(workload, trace, *extra):
    cmd = [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
           "--seed", "7", "--seconds", "1", "--trace", str(trace), "--size", "tiny", *extra]
    out = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    check(out.returncode == 0, f"{workload} trace={trace} {' '.join(extra)}: exit 0")
    return json.loads(out.stdout.strip().splitlines()[-1])


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    for w in bench["workloads"]:
        name = w["name"]
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            r = run(name, trace)
            check(r["correct"] and r["failed"] == 0 and r["attempted"] >= 1,
                  f"{name} trace={trace}: correct with no failed op")
            m = r["metrics"]
            check(set(m) == {x["name"] for x in bench[key]},
                  f"{name} trace={trace}: prints exactly the {key} metrics")
            for x in bench[key]:
                got = m.get(x["name"], {})
                check(got.get("unit") == x["unit"], f"{name}: {x['name']} in {x['unit']}")
                if trace == 0:
                    check(got.get("value", 0) > 0, f"{name}: {x['name']} above zero")
            if trace == 1:
                for k in ZERO_ON_BYPASS.get(name, []):
                    check(m[k]["value"] == 0, f"{name}: {k} is exactly 0")
                for k in POSITIVE.get(name, []):
                    check(m[k]["value"] > 0, f"{name}: {k} is above 0")
    r = run("deep-vf", 0, "--corrupt-expected")
    check(not r["correct"] and r["failed"] >= 1,
          "a corrupted expected fingerprint fails the correctness check")
    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
