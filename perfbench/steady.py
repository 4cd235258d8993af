#!/usr/bin/env python3
"""Steadiness check for the benchmark defined in BENCHMARK.json.

Runs every workload (or the ones named) for several sets of runs, one seed
per run, and prints each end-to-end metric's median and quartiles with its
spread (interquartile distance over median) against the metric's bound, and
how far each set's median moved from the first set's in the worse
direction. Exits 1 if a spread (other than setup_s's) exceeds its bound, a
later set's median is worse than the first set's by more than the bound, a
run fails, or the share of failed operations differs between sets.

Usage, from the repository root:
    python3 perfbench/steady.py [--sets 2] [--runs 10] [--seed0 1]
                                [--workload NAME ...]
"""

import argparse
import json
import os
import statistics
import subprocess
import sys


def run_once(bench, workload, seed, env):
    cmd = bench["command"] + [
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(bench["run_seconds"]),
        "--trace", "0",
    ]
    out = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, text=True, timeout=900)
    if out.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed}: exit {out.returncode}")
    lines = out.stdout.strip().splitlines()
    return json.loads(lines[-1])


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--sets", type=int, default=2)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seed0", type=int, default=1)
    ap.add_argument("--workload", action="append")
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    env = dict(os.environ)
    env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    metrics = bench["end_to_end"]
    ok = True
    for w in workloads:
        sets = []
        for s in range(args.sets):
            results = []
            for r in range(args.runs):
                seed = args.seed0 + s * args.runs + r
                res = run_once(bench, w, seed, env)
                if not res["correct"]:
                    print(f"{w} seed {seed}: correct=false")
                    ok = False
                results.append(res)
                vals = " ".join(
                    f"{k}={v['value']:.5g}" for k, v in res["metrics"].items()
                )
                print(f"  {w} set {s} seed {seed}: attempted={res['attempted']} "
                      f"failed={res['failed']} {vals}", flush=True)
            sets.append(results)
        shares = []
        for results in sets:
            att = sum(r["attempted"] for r in results)
            fail = sum(r["failed"] for r in results)
            shares.append(fail / att)
        if len(set(shares)) > 1:
            print(f"{w}: failed share differs between sets: {shares}")
            ok = False
        print(f"\n{w}: failed share per set {shares}")
        print(f"{'metric':<14}{'set':>4}{'q1':>14}{'median':>14}{'q3':>14}"
              f"{'spread':>9}{'drift':>9}{'bound':>7}  verdict")
        for m in metrics:
            name, bound, lower = m["name"], m["bound"], m["better"] == "lower"
            first = None
            for s, results in enumerate(sets):
                vals = [r["metrics"][name]["value"] for r in results]
                q1, med, q3 = quartiles(vals)
                spread = (q3 - q1) / med if med else float("inf")
                if first is None:
                    first = med
                drift = (med - first) / first if lower else (first - med) / first
                verdict = []
                if name != "setup_s" and spread > bound:
                    verdict.append("SPREAD")
                if drift > bound:
                    verdict.append("DRIFT")
                if verdict:
                    ok = False
                elif name != "setup_s" and spread > bound / 3:
                    verdict.append("ok, but spread above a third of the bound")
                print(f"{name:<14}{s:>4}{q1:>14.6g}{med:>14.6g}{q3:>14.6g}"
                      f"{spread:>9.4f}{drift:>9.4f}{bound:>7.3f}  "
                      f"{' '.join(verdict) or 'ok'}")
        print()
    print("STEADY" if ok else "NOT STEADY")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
