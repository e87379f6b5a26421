#!/usr/bin/env python3
"""Run one workload over several seeds and print, per end-to-end
metric, the median and the spread: the distance between the first and
third quartiles (statistics.quantiles(values, n=4)) over the median.

Run from the root of a dprle source tree:

    python3 perfbench/spread.py --workload wire --seeds 1-10

Each run lasts BENCHMARK.json's run_seconds, with tracing off. Each
run's result line and run log are appended to --log (default
spread.log in the current directory).
"""

import argparse
import json
import os
import statistics
import subprocess
import sys


def seeds(spec):
    lo, _, hi = spec.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--log", default="spread.log")
    args = ap.parse_args()
    here = os.path.dirname(os.path.abspath(__file__))
    with open(os.path.join(os.path.dirname(here), "BENCHMARK.json")) as f:
        seconds = json.load(f)["run_seconds"]
    values = {}
    with open(args.log, "a") as log:
        for seed in seeds(args.seeds):
            cmd = [sys.executable, os.path.join(here, "run.py"), "--workload",
                   args.workload, "--seed", str(seed), "--seconds",
                   str(seconds), "--trace", "0"]
            run = subprocess.run(cmd, capture_output=True, text=True)
            log.write("## %s seed %d\n%s%s" % (args.workload, seed, run.stderr, run.stdout))
            if run.returncode != 0:
                sys.exit("seed %d failed:\n%s" % (seed, run.stderr))
            result = json.loads(run.stdout.strip().splitlines()[-1])
            print("seed %d: correct=%s attempted=%d failed=%d" % (
                seed, result["correct"], result["attempted"], result["failed"]))
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
    for name, vs in values.items():
        med = statistics.median(vs)
        spread = float("nan")
        if len(vs) > 1 and med:
            q1, _, q3 = statistics.quantiles(vs, n=4)
            spread = (q3 - q1) / med
        print("%-34s median %12.4f  spread %.4f  (n=%d)" % (name, med, spread, len(vs)))


if __name__ == "__main__":
    main()
