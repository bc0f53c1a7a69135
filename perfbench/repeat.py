#!/usr/bin/env python3
"""Repeat-run helper for the repository benchmark.

Runs the benchmark command from BENCHMARK.json several times per
workload, each time with another seed, and prints for every end-to-end
metric its median, its quartiles (statistics.quantiles, n=4) and the
spread (Q3 - Q1) / median against the metric's bound. It also prints the
share of failed operations, which must be the same in every run.

Run from the repository root:

    python3 perfbench/repeat.py                      # every workload, 10 runs
    python3 perfbench/repeat.py --runs 5 --workloads catchup
    python3 perfbench/repeat.py --overhead           # add traced runs

With --overhead each workload also gets traced runs; the helper prints
the traced run's median op latency (traced.op_p50_ms) against the
untraced op_p50_ms, the tracing overhead, and the median of every
per-layer metric over the traced runs.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time


def run_once(bench, workload, seed, seconds, trace):
    cmd = bench["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
    ]
    start = time.monotonic()
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}")
    result = json.loads(lines[-1])
    result["elapsed_s"] = time.monotonic() - start
    return result


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--bench", default="BENCHMARK.json")
    ap.add_argument("--workloads", nargs="*")
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seed", type=int, default=1, help="first seed; run i uses seed+i")
    ap.add_argument("--overhead", action="store_true", help="also make traced runs")
    args = ap.parse_args()

    with open(args.bench) as f:
        bench = json.load(f)
    seconds = bench["run_seconds"]
    bounds = {m["name"]: m for m in bench["end_to_end"]}
    names = args.workloads or [w["name"] for w in bench["workloads"]]
    worst = 0.0
    for wl in names:
        results = [run_once(bench, wl, args.seed + i, seconds, 0) for i in range(args.runs)]
        shares = {r["failed"] / r["attempted"] for r in results}
        print(f"== {wl}: {args.runs} runs of {seconds}s ({max(r['elapsed_s'] for r in results):.1f}s wall at most), attempted "
              f"{min(r['attempted'] for r in results)}..{max(r['attempted'] for r in results)}, "
              f"failed share {sorted(shares)}, correct {all(r['correct'] for r in results)}")
        print(f"   {'metric':<18} {'unit':<5} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6}")
        medians = {}
        for name in sorted({k for r in results for k in r["metrics"]}):
            vals = [r["metrics"][name]["value"] for r in results if name in r["metrics"]]
            if len(vals) != len(results):
                print(f"   {name}: reported by {len(vals)} of {len(results)} runs")
                continue
            med, q1, q3, sp = spread(vals)
            medians[name] = med
            b = bounds.get(name, {}).get("bound")
            flag = ""
            if b is not None:
                worst = max(worst, sp / b)
                flag = "ok" if sp <= b / 3 else ("within bound" if sp <= b else "TOO WIDE")
            print(f"   {name:<18} {results[0]['metrics'][name]['unit']:<5} {med:12.5g} {q1:12.5g} {q3:12.5g} "
                  f"{sp:8.3f} {b if b is not None else '-':>6} {flag}")
        if args.overhead:
            traced = [run_once(bench, wl, args.seed + i, seconds, 1) for i in range(args.runs)]
            t = statistics.median(r["metrics"]["traced.op_p50_ms"]["value"] for r in traced)
            u = medians.get("op_p50_ms")
            print(f"   tracing overhead: traced op p50 {t:.5g} ms vs untraced {u:.5g} ms ({(t / u - 1) * 100:+.1f}%)")
            for name in sorted(traced[0]["metrics"]):
                m = statistics.median(r["metrics"][name]["value"] for r in traced)
                print(f"   traced {name:<28} {m:12.5g} {traced[0]['metrics'][name]['unit']}")
    print(f"widest spread as a share of its bound: {worst:.2f}")


if __name__ == "__main__":
    main()
