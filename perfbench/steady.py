#!/usr/bin/env python3
"""Runs one workload N times and reports how steady each metric is.

  python3 perfbench/steady.py --workload query_window --runs 10
  python3 perfbench/steady.py --workload query_window --runs 10 --sets 2

For every metric it prints the median, the first and third quartiles
(statistics.quantiles(values, n=4)) and the spread, (q3 - q1) / median.
End-to-end metrics whose spread exceeds their bound in BENCHMARK.json are
flagged (setup_s excepted, as the agreement rule excepts it). With --sets 2
a second set of runs on fresh seeds follows, and a metric whose second
median is worse than the first by more than its bound is flagged too. Exits
1 when anything is flagged or any run fails its output check.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def load_spec():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as f:
        return json.load(f)


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return None
    return json.loads(lines[-1])


def summarize(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    spread = (q3 - q1) / median if median else float("inf")
    return median, q1, q3, spread


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--sets", type=int, choices=[1, 2], default=1)
    parser.add_argument("--seed-base", type=int, default=1)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()
    spec = load_spec()
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    seconds = spec["run_seconds"]

    flagged = []
    medians = []
    seed = args.seed_base
    for set_no in range(args.sets):
        values = {}
        for _ in range(args.runs):
            result = run_once(args.workload, seed, seconds, args.trace)
            print("seed %d: %s" % (seed, "failed" if result is None else
                                   json.dumps(result)), flush=True)
            seed += 1
            if result is None or not result["correct"]:
                flagged.append("run with seed %d failed" % (seed - 1))
                continue
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
        print("\nset %d, %s, %d runs" % (set_no + 1, args.workload, args.runs))
        print("%-44s %12s %12s %12s %8s %6s" % ("metric", "median", "q1", "q3",
                                               "spread", "bound"))
        set_medians = {}
        for name, vals in values.items():
            if len(vals) < 2:
                continue
            median, q1, q3, spread = summarize(vals)
            set_medians[name] = median
            bound = bounds.get(name, {}).get("bound")
            mark = ""
            if bound is not None and name != "setup_s" and spread > bound:
                mark = "  SPREAD > BOUND"
                flagged.append("%s spread %.3f > %.3f" % (name, spread, bound))
            elif bound is not None and spread > bound / 3:
                mark = "  (above bound/3)"
            print("%-44s %12.5g %12.5g %12.5g %8.3f %6s%s" % (
                name, median, q1, q3, spread,
                "-" if bound is None else bound, mark))
        medians.append(set_medians)
    if len(medians) == 2:
        print("\nagreement of the two sets")
        for name, m in bounds.items():
            a, b = medians[0].get(name), medians[1].get(name)
            if a is None or b is None or a == 0:
                continue
            worse = (b - a) / a if m["better"] == "lower" else (a - b) / a
            mark = "  WORSE > BOUND" if worse > m["bound"] else ""
            if mark:
                flagged.append("%s second median worse by %.3f" % (name, worse))
            print("%-44s %12.5g %12.5g %+8.3f%s" % (name, a, b, worse, mark))
    if flagged:
        print("\nflagged:\n  " + "\n  ".join(flagged))
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
