#!/usr/bin/env python3
"""Build and run the perfbench workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is cube18_transpose, serve_stream, tune_cold, or `all` (each
workload in its own process, one after another, serve_stream first).
The first call builds the program and the repository's libraries from
source into .bench_build/perfbench; later calls only rebuild what
changed.

Each workload prints its metrics by name, then a JSON object
{correct, attempted, failed, metrics} as the last line of stdout: with
--trace 0 the end-to-end metrics of BENCHMARK.json, with --trace 1 its
per-layer metrics (a layer the workload does not reach reads 0).  The
exit code is nonzero when the build fails, a check fails or a metric is
missing.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
# `all` runs them in this order: serve_stream, the lightest, first, so
# it never follows the ~520 MiB cube18_transpose process in any mode.
WORKLOADS = ["serve_stream", "tune_cold", "cube18_transpose"]
RUN_TIMEOUT_S = 170


def build():
    """Configure once, then build the program; all output goes to stderr."""
    if not os.path.exists(os.path.join(BUILD, "Makefile")):
        subprocess.run(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", BUILD, "--target", "perfbench", "-j", jobs],
                   stdout=sys.stderr, check=True)
    return os.path.join(BUILD, "perfbench")


def declared_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return spec["per_layer" if trace else "end_to_end"]


def run_workload(exe, name, args):
    cmd = [exe, "--workload", name, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    lines = proc.stdout.rstrip("\n").split("\n")
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    if result is None:
        sys.exit("perfbench: %s printed no result (exit code %d)" % (name, proc.returncode))
    for line in lines[:-1]:
        print(line)

    # Keep exactly the declared metrics; a layer this workload does not
    # reach did no work and reads 0, an end-to-end metric may not be absent.
    got = result["metrics"]
    metrics = {}
    for m in declared_metrics(args.trace):
        if m["name"] in got:
            metrics[m["name"]] = {"value": got[m["name"]]["value"], "unit": m["unit"]}
        elif args.trace:
            metrics[m["name"]] = {"value": 0, "unit": m["unit"]}
        else:
            sys.exit("perfbench: %s did not report %s" % (name, m["name"]))
    for extra in sorted(set(got) - set(metrics)):
        print("perfbench: %s reported undeclared metric %s" % (name, extra), file=sys.stderr)
    result["metrics"] = metrics
    return result, proc.returncode


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    try:
        exe = build()
    except (OSError, subprocess.CalledProcessError) as e:
        sys.exit("perfbench: build failed: %s" % e)

    names = WORKLOADS if args.workload == "all" else [args.workload]
    results, codes = [], []
    for name in names:
        result, code = run_workload(exe, name, args)
        results.append(result)
        codes.append(code)
    if len(names) == 1:
        out = results[0]
    else:
        out = {"correct": all(r["correct"] for r in results),
               "attempted": sum(r["attempted"] for r in results),
               "failed": sum(r["failed"] for r in results),
               "metrics": {"%s/%s" % (n, k): v
                           for n, r in zip(names, results) for k, v in r["metrics"].items()}}
    print(json.dumps(out))
    return max(codes)


if __name__ == "__main__":
    sys.exit(main())
