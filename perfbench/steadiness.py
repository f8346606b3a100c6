#!/usr/bin/env python3
"""Measure the benchmark's run-to-run spread.

Runs the command from BENCHMARK.json `--runs` times per workload, each
time with another seed, interleaving the workloads so that each sees the
same spread of host conditions. For every end-to-end metric it prints the
median, the quartiles (as `statistics.quantiles(values, n=4)` gives them)
and the spread: the distance between the quartiles as a share of the
median. A spread above a third of the metric's bound, or above a tenth,
is flagged.

    python3 perfbench/steadiness.py --runs 10 --json steadiness.json

Run it from the root of the repository.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time


def run_once(command, workload, seed, seconds):
    args = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", "0"]
    started = time.monotonic()
    proc = subprocess.run(args, capture_output=True, text=True, check=False)
    wall = time.monotonic() - started
    if proc.returncode != 0:
        sys.exit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        sys.exit(f"{workload} seed {seed}: incorrect result {result}")
    return result, wall


def summarize(values, bound):
    q1, med, q3 = statistics.quantiles(values, n=4)
    spread = (q3 - q1) / med
    flags = []
    if bound is not None and spread > bound / 3:
        flags.append("above bound/3")
    if spread > 0.1:
        flags.append("above 0.1")
    return {"median": med, "q1": q1, "q3": q3, "spread": spread,
            "bound": bound, "flags": flags}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--json", help="also write the summary to this file")
    opts = parser.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    workloads = [w["name"] for w in bench["workloads"]]
    seconds = bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    values = {w: {} for w in workloads}
    walls = {w: [] for w in workloads}
    for i in range(opts.runs):
        seed = opts.first_seed + i
        for w in workloads:
            result, wall = run_once(bench["command"], w, seed, seconds)
            walls[w].append(wall)
            for name, m in result["metrics"].items():
                values[w].setdefault(name, []).append(m["value"])
            print(f"run {i + 1}/{opts.runs} {w} seed {seed}: {wall:.1f} s wall, "
                  + ", ".join(f"{k}={m['value']:.4g}" for k, m in result["metrics"].items()),
                  file=sys.stderr, flush=True)

    summary = {}
    print(f"| workload | metric | median | q1 | q3 | spread | bound | flags |")
    print(f"|---|---|---|---|---|---|---|---|")
    for w in workloads:
        summary[w] = {"wall_s_max": max(walls[w])}
        for name, vals in values[w].items():
            s = summarize(vals, bounds.get(name))
            s["values"] = vals
            summary[w][name] = s
            print(f"| {w} | {name} | {s['median']:.4g} | {s['q1']:.4g} | {s['q3']:.4g} "
                  f"| {s['spread']:.4f} | {s['bound']} | {', '.join(s['flags'])} |")
    print(f"\nlongest run (s): " + ", ".join(
        f"{w} {summary[w]['wall_s_max']:.1f}" for w in workloads))
    if opts.json:
        with open(opts.json, "w") as f:
            json.dump(summary, f, indent=1)


if __name__ == "__main__":
    main()
