#!/usr/bin/env python3
"""Runs BENCHMARK.json's command ten times per workload, a new seed each time,
and prints what the driver judges the benchmark by: per end-to-end metric the
quartile distance over the median (statistics.quantiles, n=4) against a third
of its bound. Run from the repository root: python3 benchmark/spread.py
[--runs N] [--first-seed S] [--workload NAME]... [--json OUT]."""
import argparse
import json
import statistics
import subprocess
import sys
import time


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=100)
    ap.add_argument("--workload", action="append")
    ap.add_argument("--json", help="write every run's metrics here")
    args = ap.parse_args()
    manifest = json.load(open("BENCHMARK.json"))
    bounds = {m["name"]: m["bound"] for m in manifest["end_to_end"]}
    workloads = args.workload or [w["name"] for w in manifest["workloads"]]
    record, steady = {}, True
    for workload in workloads:
        values = {name: [] for name in bounds}
        for i in range(args.runs):
            cmd = manifest["command"] + [
                "--workload", workload, "--seed", str(args.first_seed + i),
                "--seconds", str(manifest["run_seconds"]), "--trace", "0"]
            started = time.time()
            out = subprocess.run(cmd, stdout=subprocess.PIPE, check=True, text=True).stdout
            result = json.loads(out.strip().splitlines()[-1])
            if not result["correct"] or result["failed"]:
                print(f"{workload} seed {args.first_seed + i}: FAILED {result['failed']}")
                steady = False
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
            print(f"{workload} run {i + 1}/{args.runs} took {time.time() - started:.1f} s",
                  file=sys.stderr)
        record[workload] = values
        print(f"\n{workload}")
        print(f"  {'metric':<22}{'median':>14}{'spread':>9}{'bound/3':>9}")
        for name, vs in values.items():
            median = statistics.median(vs)
            q = statistics.quantiles(vs, n=4) if len(vs) > 1 else [median] * 3
            spread = (q[2] - q[0]) / median if median else 0.0
            limit = bounds[name] / 3
            # The driver exempts setup_s from the spread rule.
            flag = "" if spread <= limit or name == "setup_s" else "  <-- too wide"
            steady &= not flag
            print(f"  {name:<22}{median:>14.6f}{spread:>8.2%}{limit:>9.2%}{flag}")
    if args.json:
        json.dump(record, open(args.json, "w"), indent=1)
    sys.exit(0 if steady else 1)


if __name__ == "__main__":
    main()
