#!/usr/bin/env python3
"""Steadiness check for the benchmark.

Runs two independent sets of runs of every workload (set A on seeds
1..N, set B on seeds 101..100+N), then prints, for each end-to-end
metric, both sets' medians and quartiles, each set's spread (quartile
distance over the median) and the change of B's median against A's,
each against the metric's bound in BENCHMARK.json. It also re-runs set
A's first seed and checks that the device counts repeat exactly.

    python3 perfbench/steady.py [--runs 10] [--workloads etl-sort,serve-mix]

Run it from the repository root. Raw results go to
.bench_build/steady.json.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

EXACT = ("cachelines_written_per_query", "cachelines_read_per_query", "modelled_ms_per_query")


def run_once(bench, workload, seed):
    cmd = bench["command"] + ["--workload", workload, "--seed", str(seed),
                              "--seconds", str(bench["run_seconds"]), "--trace", "0"]
    out = subprocess.run(cmd, check=True, stdout=subprocess.PIPE, text=True, timeout=600).stdout
    return json.loads(out.strip().splitlines()[-1])


def summary(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values)}


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--runs", type=int, default=10, help="runs per set and workload")
    ap.add_argument("--workloads", help="comma-separated subset (default: all)")
    args = ap.parse_args()
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    names = [w["name"] for w in bench["workloads"]]
    if args.workloads:
        names = args.workloads.split(",")
    report = {}
    ok = True
    for w in names:
        sets = {"A": [], "B": []}
        for i in range(args.runs):
            # Alternate the sets so drift over time lands on both.
            sets["A"].append(run_once(bench, w, 1 + i))
            sets["B"].append(run_once(bench, w, 101 + i))
        again = run_once(bench, w, 1)
        exact = all(again["metrics"][m]["value"] == sets["A"][0]["metrics"][m]["value"] for m in EXACT)
        share = {k: (sum(r["failed"] for r in v), sum(r["attempted"] for r in v)) for k, v in sets.items()}
        print(f"== {w}: attempted/failed A {share['A'][1]}/{share['A'][0]}, B {share['B'][1]}/{share['B'][0]}; "
              f"correct {all(r['correct'] for v in sets.values() for r in v)}; same-seed counts repeat exactly: {exact}")
        print(f"  {'metric':30s} {'bound':>6s} {'A median':>12s} {'A q1..q3':>25s} {'A sprd':>7s} "
              f"{'B median':>12s} {'B q1..q3':>25s} {'B sprd':>7s} {'B vs A':>7s}")
        rows = {}
        for m in bench["end_to_end"]:
            a = summary([r["metrics"][m["name"]]["value"] for r in sets["A"]])
            b = summary([r["metrics"][m["name"]]["value"] for r in sets["B"]])
            worse = (b["median"] - a["median"]) / a["median"]
            if m["better"] == "higher":
                worse = -worse
            fine = worse <= m["bound"] and (m["name"] == "setup_s" or max(a["spread"], b["spread"]) <= m["bound"])
            ok = ok and fine
            rows[m["name"]] = {"bound": m["bound"], "A": a, "B": b, "worse": worse, "within": fine}
            print(f"  {m['name']:30s} {m['bound']:6.3f} {a['median']:12.4f} {a['q1']:12.4f}..{a['q3']:<12.4f} "
                  f"{a['spread']:7.4f} {b['median']:12.4f} {b['q1']:12.4f}..{b['q3']:<12.4f} {b['spread']:7.4f} "
                  f"{worse:+7.4f}{'' if fine else '  OUT OF BOUND'}")
        ok = ok and exact and share["A"][0] * share["B"][1] == share["B"][0] * share["A"][1]
        report[w] = {"metrics": rows, "exact_repeat": exact, "failed_attempted": share,
                     "runs": {k: v for k, v in sets.items()}}
    os.makedirs(".bench_build", exist_ok=True)
    with open(".bench_build/steady.json", "w") as f:
        json.dump(report, f, indent=1)
    print("steady" if ok else "NOT steady")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
