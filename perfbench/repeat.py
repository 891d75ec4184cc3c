#!/usr/bin/env python3
"""Re-check that the serving benchmark is steady.

usage: python3 perfbench/repeat.py [--runs N] [--out FILE.json]

Run it from the repository root. It runs every workload of BENCHMARK.json
N times (default 10) at the file's run_seconds, with seed r + 1 in round
r, rotating the workload order each round so no workload always runs
first. Each run is one `perfbench/run.py` process, started exactly as a
user would start it. For each end-to-end metric and workload it prints
the median, the first and third quartiles (Python's statistics.quantiles,
n=4), and the spread (q3 - q1) / median against the metric's bound from
BENCHMARK.json, plus the share of failed operations. It exits 0 only if
every spread is within its bound, every run was correct and the failed
share is the same in every run. --out keeps every run's result line.
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
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr[-2000:])
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}")
    return json.loads(lines[-1])


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--out")
    args = ap.parse_args()
    workloads = [w["name"] for w in bench["workloads"]]
    seconds = bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    results = {w: [] for w in workloads}
    for r in range(args.runs):
        k = r % len(workloads)
        for w in workloads[k:] + workloads[:k]:
            res = run_once(w, r + 1, seconds)
            results[w].append(res)
            vals = " ".join(f"{m}={v['value']:.4g}"
                            for m, v in res["metrics"].items())
            print(f"round {r} {w} seed {r + 1} "
                  f"correct={res['correct']} failed={res['failed']}/"
                  f"{res['attempted']} {vals}", flush=True)

    print()
    print(f"{'workload':16} {'metric':16} {'median':>12} {'q1':>12} "
          f"{'q3':>12} {'spread':>8} {'bound':>6} {'/bound':>7}")
    steady = True
    for w in workloads:
        runs = results[w]
        for m in bounds:
            vals = [x["metrics"][m]["value"] for x in runs]
            med = statistics.median(vals)
            q1, _, q3 = (statistics.quantiles(vals, n=4) if len(vals) > 1
                         else (med, med, med))
            spread = (q3 - q1) / med if med else float("inf")
            ratio = spread / bounds[m]
            if ratio > 1:
                steady = False
            print(f"{w:16} {m:16} {med:12.5g} {q1:12.5g} {q3:12.5g} "
                  f"{spread:8.3f} {bounds[m]:6.2f} {ratio:7.2f}")
        shares = {x["failed"] / x["attempted"] for x in runs}
        correct = all(x["correct"] for x in runs)
        print(f"{w:16} {'failed share':16} {sorted(shares)} correct={correct}")
        steady = steady and correct and len(shares) == 1
    if args.out:
        with open(args.out, "w") as f:
            json.dump(results, f, indent=1)
    print("steady" if steady else "NOT steady: a spread exceeds its bound, "
          "a run was incorrect, or the failed share moved")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
