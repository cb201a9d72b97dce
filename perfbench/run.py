#!/usr/bin/env python3
"""Build the Decibel benchmark from source and run one workload.

Usage (from the root of a source tree):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The executable is built with dune into the tree's own _build directory
(the shared dune cache is disabled, so nothing is written outside the
tree), then run from the tree's root with the same arguments.  Its last
line of standard output is the JSON result; everything it writes at
run time goes under .perfbench-run/ (traces stay there, database
directories are removed).  Exits non-zero, without a result, when the
tree cannot be built.
"""

import os
import signal
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TARGET = "./perfbench/perfbench.exe"
EXE = os.path.join(ROOT, "_build", "default", "perfbench", "perfbench.exe")


def run(cmd, env, **kw):
    """Run [cmd] to completion; a SIGTERM to us stops and reaps it."""
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, **kw)

    def stop(signum, _frame):
        proc.terminate()
        proc.wait()
        sys.exit(128 + signum)

    old = signal.signal(signal.SIGTERM, stop)
    try:
        return proc.wait()
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        signal.signal(signal.SIGTERM, old)


def main():
    if not (os.path.isfile(os.path.join(ROOT, "dune-project"))
            and os.path.isdir(os.path.join(ROOT, "lib"))):
        print("perfbench: no Decibel source tree at " + ROOT, file=sys.stderr)
        return 2
    env = dict(os.environ, DUNE_CACHE="disabled")
    # build output goes to stderr: stdout carries only the benchmark's
    built = run(["dune", "build", "--root", ROOT, TARGET], env, stdout=sys.stderr)
    if built != 0 or not os.path.isfile(EXE):
        print("perfbench: build failed", file=sys.stderr)
        return built or 1
    return run([EXE] + sys.argv[1:], env)


if __name__ == "__main__":
    sys.exit(main())
