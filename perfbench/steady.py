#!/usr/bin/env python3
"""Runs the benchmark on several seeds and reports each metric's spread.

    python3 perfbench/steady.py --workload ls-websearch --seeds 1-10 [--trace 0]
    python3 perfbench/steady.py --workload all --seeds 1

Run from the checkout root. Each run is BENCHMARK.json's command in a
fresh process. For every workload and metric it prints the median, the
first and third quartiles (statistics.quantiles, n=4) and the spread
(Q3 - Q1) / median, next to the bound BENCHMARK.json gives the metric;
a single seed prints each metric's value and unit.
"""
import argparse
import json
import statistics
import subprocess
import sys


def seeds(spec):
    out = []
    for part in spec.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, help="a workload, a comma-separated list, or all")
    ap.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 3,5,9173")
    ap.add_argument("--trace", default="0")
    args = ap.parse_args()
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    names = args.workload.split(",")
    if names == ["all"]:
        names = [w["name"] for w in bench["workloads"]]
    for name in names:
        report(bench, name, args.seeds, args.trace)


def report(bench, workload, seed_spec, trace):
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    values, units = {}, {}
    for seed in seeds(seed_spec):
        cmd = bench["command"] + ["--workload", workload, "--seed", str(seed),
                                  "--seconds", str(bench["run_seconds"]), "--trace", trace]
        proc = subprocess.run(cmd, capture_output=True, text=True)
        if proc.returncode != 0:
            sys.exit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
        res = json.loads(proc.stdout.strip().splitlines()[-1])
        if not res["correct"] or res["failed"]:
            sys.exit(f"{workload} seed {seed}: incorrect result\n{proc.stdout}")
        for k, v in res["metrics"].items():
            values.setdefault(k, []).append(v["value"])
            units[k] = v["unit"]
        print(f"{workload} seed {seed}: " + ", ".join(
            f"{k}={v['value']:.6g} {v['unit']}" for k, v in res["metrics"].items()), flush=True)
    n = len(seeds(seed_spec))
    print(f"\n{workload}, {n} seeds ({seed_spec}):")
    if n < 2:
        return
    print("| metric | unit | median | Q1 | Q3 | spread | bound |")
    print("|---|---|---|---|---|---|---|")
    for k, vs in values.items():
        med = statistics.median(vs)
        q1, _, q3 = statistics.quantiles(vs, n=4)
        spread = (q3 - q1) / med if med else float("nan")
        print(f"| {k} | {units[k]} | {med:.6g} | {q1:.6g} | {q3:.6g} | {spread:.4f} | {bounds.get(k, '-')} |")
    print(flush=True)


if __name__ == "__main__":
    main()
