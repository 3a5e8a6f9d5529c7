#!/usr/bin/env python3
"""Build the benchmark binary if needed, then run one workload.

    python3 perfbench/run.py --workload adaptive|spine|overload|dag \
        --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selftest

The benchmark package (perfbench/CMakeLists.txt) compiles the runtime from
../src on its own, into $CARGO_TARGET_DIR (default .bench_build) under the
current directory. Build output goes to stderr. The binary reports metric
values by name; the last line of stdout is its JSON result with every metric
of BENCHMARK.json's end_to_end list (--trace 0) or per_layer list
(--trace 1), in that order and with that unit. A per-layer metric the
workload does not exercise reads 0; a missing end-to-end metric, or a metric
BENCHMARK.json does not list, makes the result incorrect. Traced runs leave
their layer summary in .bench_out/ for layer_table.py.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BINARY = "mw-perfbench"


def build(build_dir):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("perfbench: the runtime sources (src/) are not next to this benchmark")
    jobs = str(os.cpu_count() or 1)
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", build_dir,
                        "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", build_dir, "--target", BINARY, "-j", jobs],
                   stdout=sys.stderr, check=True)
    return os.path.join(build_dir, BINARY)


def load_benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def complete(result, specs, fill_missing):
    """Give the binary's metric values the names, order and units of `specs`."""
    values = result["metrics"]
    listed = {spec["name"] for spec in specs}
    for name in sorted(set(values) - listed):
        print(f"perfbench: metric {name} is not in BENCHMARK.json", file=sys.stderr)
        result["correct"] = False
    metrics = {}
    for spec in specs:
        if spec["name"] not in values and not fill_missing:
            print(f"perfbench: metric {spec['name']} was not reported", file=sys.stderr)
            result["correct"] = False
        metrics[spec["name"]] = {"value": values.get(spec["name"], 0.0), "unit": spec["unit"]}
    result["metrics"] = metrics
    return result


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    if not args.selftest and not args.workload:
        parser.error("--workload is required")

    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    try:
        binary = build(build_dir)
    except (OSError, subprocess.CalledProcessError) as err:
        sys.exit(f"perfbench: build failed: {err}")

    if args.selftest:
        return subprocess.run([binary, "--selftest"]).returncode
    bench = load_benchmark()
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out-dir", os.path.abspath(".bench_out")]
    run = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    lines = run.stdout.splitlines()
    if run.returncode != 0 or not lines:
        sys.stdout.write(run.stdout)
        return run.returncode or 1
    for line in lines[:-1]:
        print(line)
    specs = bench["per_layer"] if args.trace else bench["end_to_end"]
    print(json.dumps(complete(json.loads(lines[-1]), specs, fill_missing=args.trace == 1)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
