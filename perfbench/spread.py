#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics, the way the bounds in
BENCHMARK.json are meant to be checked.

    python3 perfbench/spread.py --workload NAME [--runs 10] [--first-seed 1]

Runs the benchmark once per seed (first-seed, first-seed + 1, ...) with
--trace 0 and the run_seconds of BENCHMARK.json, then prints for each
end-to-end metric its median and its spread: the distance between the
first and third quartile (statistics.quantiles, n=4) as a share of the
median, next to the metric's bound. Every run must report correct.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--first-seed", type=int, default=1)
    args = p.parse_args()
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    values = {m["name"]: [] for m in bench["end_to_end"]}
    ok = True
    for i in range(args.runs):
        seed = args.first_seed + i
        proc = subprocess.run(
            bench["command"] + ["--workload", args.workload, "--seed", str(seed),
                                "--seconds", str(bench["run_seconds"]), "--trace", "0"],
            stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print("seed %d: exit %d" % (seed, proc.returncode))
            ok = False
            continue
        res = json.loads(lines[-1])
        ok = ok and res["correct"]
        for name, v in res["metrics"].items():
            values[name].append(v["value"])
        print("seed %d: %s" % (seed, " ".join("%s=%r" % (k, v["value"])
                                             for k, v in res["metrics"].items())), flush=True)
    for m in bench["end_to_end"]:
        vs = values[m["name"]]
        if len(vs) < 2:
            continue
        q1, med, q3 = statistics.quantiles(vs, n=4)
        spread = (q3 - q1) / med if med else float("nan")
        print("%-16s median %-14.6g spread %6.2f%%  bound %5.1f%%  %s" % (
            m["name"], med, 100 * spread, 100 * m["bound"],
            "ok" if spread <= m["bound"] / 3 else "WIDE"))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
