#!/usr/bin/env python3
"""Runs each workload repeatedly and reports how steady its end-to-end
metrics are against their bounds in BENCHMARK.json.

    python3 e2ebench/steadiness.py [--runs 10] [--first-seed 1]
                                   [--workloads a,b] [--out FILE]
                                   [--baseline FILE]

For every workload it runs `run.py --workload W --seed S --seconds
<run_seconds> --trace 0` once per seed, then prints, per end-to-end metric,
the median, the first and third quartiles (statistics.quantiles(v, n=4)),
the spread (q3 - q1) / median and the metric's bound. A spread above a
third of the bound is flagged; one above the bound fails the metric. It
also checks that every run is correct and that the share of failed
operations is the same in every run. With --baseline (the --out file of an
earlier set) it also prints each median's change against that set's and
fails a metric whose median got worse by more than its bound, or a workload
whose failed share changed. Exit status 1 when any check fails.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload, seed, seconds):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
        text=True, timeout=1000)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError("%s seed %d: exit %d" % (workload, seed,
                                                    proc.returncode))
    return json.loads(lines[-1])


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workloads", default="")
    parser.add_argument("--out", default="")
    parser.add_argument("--baseline", default="")
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    workloads = [w["name"] for w in bench["workloads"]]
    if args.workloads:
        workloads = args.workloads.split(",")
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    lower_is_better = {m["name"]: m["better"] == "lower"
                       for m in bench["end_to_end"]}
    baseline = {}
    if args.baseline:
        with open(args.baseline) as f:
            baseline = json.load(f)

    ok = True
    report = {}
    for workload in workloads:
        results = []
        for i in range(args.runs):
            seed = args.first_seed + i
            results.append(run_once(workload, seed, bench["run_seconds"]))
            r = results[-1]
            print("%s seed %d: correct=%s attempted=%d failed=%d" %
                  (workload, seed, r["correct"], r["attempted"], r["failed"]),
                  flush=True)
        shares = {r["failed"] / r["attempted"] for r in results}
        all_correct = all(r["correct"] for r in results)
        ok = ok and all_correct and len(shares) == 1
        rows = {}
        print("\n%s (%d runs): all correct=%s, failed shares=%s" %
              (workload, len(results), all_correct, sorted(shares)))
        base = baseline.get(workload)
        if base is not None and base["failed_shares"] != sorted(shares):
            print("  failed shares differ from the baseline's %s" %
                  base["failed_shares"])
            ok = False
        print("  %-22s %12s %12s %12s %8s %6s %8s" %
              ("metric", "median", "q1", "q3", "spread", "bound",
               "vs base"))
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in results]
            q1, median, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / median if median else float("inf")
            verdict = ""
            if spread > bound:
                verdict = "over bound"
                ok = False
            elif spread > bound / 3:
                verdict = "over bound/3"
            change = ""
            if base is not None:
                before = base["metrics"][name]["median"]
                shift = (median - before) / before
                worse = shift if lower_is_better[name] else -shift
                change = "%+8.3f" % shift
                if worse > bound:
                    verdict += " median worse than baseline by > bound"
                    ok = False
            print("  %-22s %12.5g %12.5g %12.5g %8.3f %6.2f %8s %s" %
                  (name, median, q1, q3, spread, bound, change, verdict))
            rows[name] = {"median": median, "q1": q1, "q3": q3,
                          "spread": spread, "bound": bound, "values": values}
        report[workload] = {"correct": all_correct,
                            "failed_shares": sorted(shares), "metrics": rows}
        print(flush=True)
    if args.out:
        with open(args.out, "w") as f:
            json.dump(report, f, indent=1)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
