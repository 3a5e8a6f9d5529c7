#!/usr/bin/env python3
"""Steadiness check: run every workload repeatedly, in two separate sets.

    python3 perfbench/steady.py [--runs 10] [--workloads adaptive,dag] [--seconds S]

Each set runs each workload --runs times, each run with its own seed (set A
uses seeds 1..runs, set B seeds 1001..1000+runs). For every end-to-end
metric the script prints each set's median and quartiles (Python's
statistics.quantiles(n=4)) and the spread (Q3 - Q1) / median, next to the
metric's bound from BENCHMARK.json, and it compares the share of failed
operations and the medians of the two sets. It exits 1 when a spread
exceeds its bound, a set-B median is worse than set A's by more than the
bound, or the failed shares differ. Results also go to
.bench_out/steady.json.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload, seed, seconds, trace=0):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                         text=True, check=True, cwd=ROOT)
    return json.loads(out.stdout.strip().splitlines()[-1])


def summarize(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return {"median": q2, "q1": q1, "q3": q3, "spread": (q3 - q1) / q2 if q2 else float("inf")}


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    parser.add_argument("--seconds", type=float, default=bench["run_seconds"])
    args = parser.parse_args()

    metrics = {m["name"]: m for m in bench["end_to_end"]}
    workloads = args.workloads.split(",")
    results = {w: [[], []] for w in workloads}
    # Set by set, so a partial run still has whole sets of every workload.
    for s in range(2):
        for workload in workloads:
            for i in range(args.runs):
                seed = 1000 * s + i + 1
                r = run_once(workload, seed, args.seconds)
                results[workload][s].append(r)
                print(f"set {'AB'[s]} {workload} seed {seed}: " + " ".join(
                    f"{k}={v['value']:.6g}" for k, v in r["metrics"].items()), file=sys.stderr)

    report = {}
    ok = True
    for workload in workloads:
        sets = results[workload]
        report[workload] = {}
        print(f"\n== {workload} ({args.runs} runs x 2 sets, {args.seconds:g} s each)")
        print(f"  {'metric':24} {'set':>3} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6}")
        for name, spec in metrics.items():
            entry = []
            for s, runs in enumerate(sets):
                stats = summarize([r["metrics"][name]["value"] for r in runs])
                entry.append(stats)
                flag = ""
                if stats["spread"] > spec["bound"]:
                    flag, ok = " SPREAD", False
                elif stats["spread"] > spec["bound"] / 3:
                    flag = " (above a third of the bound)"
                print(f"  {name:24} {'AB'[s]:>3} {stats['median']:12.6g} {stats['q1']:12.6g} "
                      f"{stats['q3']:12.6g} {stats['spread']:8.4f} {spec['bound']:6.3f}{flag}")
            a, b = entry[0]["median"], entry[1]["median"]
            worse = (b - a) / a if spec["better"] == "lower" else (a - b) / a
            if worse > spec["bound"]:
                ok = False
                print(f"  {name:24} set B median worse than set A by {worse:.3f}")
            report[workload][name] = entry
        shares = [sorted({r["failed"] / r["attempted"] for r in runs}) for runs in sets]
        correct = all(r["correct"] for runs in sets for r in runs)
        print(f"  failed shares per set: {shares}; all correct: {correct}")
        if len({tuple(s) for s in shares}) > 1 or any(len(s) > 1 for s in shares) or not correct:
            ok = False
        report[workload]["failed_shares"] = shares
        report[workload]["correct"] = correct
    os.makedirs(os.path.join(ROOT, ".bench_out"), exist_ok=True)
    with open(os.path.join(ROOT, ".bench_out", "steady.json"), "w") as f:
        json.dump(report, f, indent=1)
    print("\nsteady" if ok else "\nNOT steady")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
