#!/usr/bin/env python3
"""Per-layer table from a traced benchmark run.

    python3 perfbench/layer_table.py --run adaptive [--seed 1] [--seconds 10]
    python3 perfbench/layer_table.py .bench_out/trace-dag-1.json ...

With --run, first makes the traced run (run.py --trace 1), then prints its
table. For each span the benchmark timed (one per layer entry point) the
table gives the call count, p50 and p99 host time, and total and self time
(self = the span minus the child spans inside it); then every per-layer
metric. On adaptive and dag it states the closure check: the layers' self
times per operation against the untraced host time per operation, which
must agree within 10%; the script exits 1 when it does not. If any span was
dropped, trace.overhead_share is marked invalid.
"""
import argparse
import glob
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def print_table(path, per_layer):
    """Print one trace summary, with the units of BENCHMARK.json's per_layer
    list; returns False when its closure check fails."""
    with open(path) as f:
        t = json.load(f)
    print(f"== {t['workload']} seed {t['seed']} ({t['seconds']:g} s; {t['traced_ops']} traced "
          f"operations, untraced {t['untraced_rps']:.6g}/s, traced {t['traced_rps']:.6g}/s)")
    layers = t["layers"]
    self_total = sum(v["self_s"] for k, v in layers.items() if k != "request") or 1.0
    print(f"  {'span':16} {'count':>10} {'p50 us':>11} {'p99 us':>11} {'total s':>10} "
          f"{'self s':>10} {'self/op us':>11} {'share':>7}")
    for name, v in layers.items():
        share = "" if name == "request" else f"{v['self_s'] / self_total:7.3f}"
        per_op = v["self_s"] / max(t["traced_ops"], 1) * 1e6
        label = "request (bench)" if name == "request" else name
        print(f"  {label:16} {v['count']:10d} {v['p50_us']:11.4g} {v['p99_us']:11.4g} "
              f"{v['total_s']:10.4g} {v['self_s']:10.4g} {per_op:11.4g} {share:>7}")
    print(f"  {'metric':40} {'value':>14} unit")
    for spec in per_layer:
        name = spec["name"]
        value = f"{t['metrics'].get(name, 0.0):14.6g}"
        if name == "trace.overhead_share" and not t["overhead_valid"]:
            value = f"{'invalid':>14}"
        if name == "trace.closure_share" and not t["closure_checked"]:
            continue
        print(f"  {name:40} {value} {spec['unit']}")
    if t["closure_checked"]:
        ok = abs(t["closure_share"] - 1.0) <= 0.10
        layer_per_op = t["closure_share"] * t["untraced_us_per_op"]
        print(f"  closure: layers' self time {layer_per_op:.4g} us/op vs untraced "
              f"{t['untraced_us_per_op']:.4g} us/op -> {t['closure_share']:.3f} "
              f"({'holds' if ok else 'FAILS'}, within 10%)")
    if not t["overhead_valid"]:
        print(f"  trace.overhead_share invalid: {t['dropped_spans']} spans dropped")
    return not t["closure_checked"] or abs(t["closure_share"] - 1.0) <= 0.10


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("files", nargs="*")
    parser.add_argument("--run", metavar="WORKLOAD")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    args = parser.parse_args()
    files = list(args.files)
    if args.run:
        cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", args.run,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "1"]
        result = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        if result.returncode != 0:
            return result.returncode
        last = json.loads(result.stdout.strip().splitlines()[-1])
        if not last["correct"]:
            print("the traced run's output checks failed", file=sys.stderr)
        files.append(os.path.join(".bench_out", f"trace-{args.run}-{args.seed}.json"))
    if not files:
        files = sorted(glob.glob(os.path.join(".bench_out", "trace-*.json")))
    if not files:
        parser.error("no trace files; make a traced run first (--run WORKLOAD)")
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        per_layer = json.load(f)["per_layer"]
    ok = True
    for path in files:
        ok = print_table(path, per_layer) and ok
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
