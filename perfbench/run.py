#!/usr/bin/env python3
"""Build and run the H-SYN synthesis benchmark from the root of a checkout.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --check-exact --workload NAME --seed N

The first form builds perfbench/hbench.exe with dune, writing only
under the checkout's _build and .perfbench_tmp directories, and runs
it; the last line of its standard output is the JSON result.
--check-exact runs the traced mode twice and fails unless every work
counter, gc.minor_mwords and objective_geo repeat exactly. See
perfbench/README.md.
"""

import argparse
import os
import shutil
import subprocess
import sys

EXE = os.path.join("_build", "default", "perfbench", "hbench.exe")
TMP_DIR = ".perfbench_tmp"
RUN_TIMEOUT_S = 170


def fail(msg, code=2):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def build():
    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        fail("run me from the root of an H-SYN checkout (no dune-project or lib/ here)")
    if shutil.which("dune"):
        dune = ["dune"]
    elif shutil.which("opam"):
        dune = ["opam", "exec", "--", "dune"]
    else:
        fail("neither dune nor opam is on PATH")
    # The compiler's temporary files stay in the checkout too.
    tmp = os.path.abspath(TMP_DIR)
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, DUNE_CACHE="disabled", TMPDIR=tmp)
    proc = subprocess.run(
        dune + ["build", "--root", ".", "./perfbench/hbench.exe"],
        stdout=sys.stderr,
        stderr=sys.stderr,
        env=env,
    )
    if proc.returncode != 0 or not os.path.isfile(EXE):
        fail("build failed")


def run(workload, seed, seconds, trace, capture=False):
    cmd = [EXE, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    try:
        proc = subprocess.run(cmd, timeout=RUN_TIMEOUT_S, text=True,
                              stdout=subprocess.PIPE if capture else None)
    except subprocess.TimeoutExpired:
        fail("run exceeded %d s" % RUN_TIMEOUT_S, 3)
    return proc


def work_line(stdout):
    for line in stdout.splitlines():
        if line.startswith("work "):
            return dict(kv.split("=", 1) for kv in line[len("work "):].split())
    fail("no work line in the traced output")


def check_exact(workload, seed):
    first, second = (run(workload, seed, 1, 1, capture=True) for _ in range(2))
    if first.returncode != 0 or second.returncode != 0:
        fail("a traced run failed", 1)
    a, b = work_line(first.stdout), work_line(second.stdout)
    diff = sorted(k for k in set(a) | set(b) if a.get(k) != b.get(k))
    for k in diff:
        print("differs: %s %s vs %s" % (k, a.get(k), b.get(k)))
    print("%s seed %d: %d exact values, %d differ" % (workload, seed, len(a), len(diff)))
    return 1 if diff else 0


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, default=10)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--check-exact", action="store_true")
    args = p.parse_args()
    build()
    if args.check_exact:
        return check_exact(args.workload, args.seed)
    return run(args.workload, args.seed, args.seconds, args.trace).returncode


if __name__ == "__main__":
    sys.exit(main())
