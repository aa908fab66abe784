#!/usr/bin/env python3
"""Steadiness mode: run one workload N times and report the spread.

    python3 fwbench/steady.py --workload sweep [--runs 10] [--first-seed 1]
                              [--seconds 10] [--out fwbench/results/X.json]

Each run is a fresh `run.py --trace 0` process with its own seed
(first-seed, first-seed + 1, ...).  For every end-to-end metric it prints
the median, the quartiles (statistics.quantiles(values, n=4)), the spread
(Q3 - Q1) / median and the bound from BENCHMARK.json.  A spread above a
third of the bound is marked; the bounds are set from these figures.
A fixed pure-Python loop, timed before and after the runs, shows how
fast the machine itself ran.  --out writes the per-run values, the
reference loop and the summary as JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def one_run(workload, seed, seconds):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"run with seed {seed} exited {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def reference_loop(passes=30):
    """(min, median, max) ms of a fixed pure-Python loop: machine noise."""
    times = []
    for _ in range(passes):
        t0 = time.perf_counter()
        s = 0
        for i in range(200_000):
            s += i * i % 7
        times.append((time.perf_counter() - t0) * 1e3)
    return min(times), statistics.median(times), max(times)


def summarize(results, bounds):
    out = {}
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        q1, med, q3 = statistics.quantiles(values, n=4)
        out[name] = {"unit": results[0]["metrics"][name]["unit"],
                     "median": med, "q1": q1, "q3": q3,
                     "spread": (q3 - q1) / med, "bound": bounds.get(name)}
    return out


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=None,
                    help="run length (default: run_seconds of BENCHMARK.json)")
    ap.add_argument("--out", help="write per-run values and summary here")
    ns = ap.parse_args(argv)
    if ns.runs < 2:
        ap.error("--runs must be at least 2")
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    seconds = ns.seconds if ns.seconds is not None else bench["run_seconds"]

    loops = [reference_loop()]
    results = []
    for seed in range(ns.first_seed, ns.first_seed + ns.runs):
        res = one_run(ns.workload, seed, seconds)
        results.append(res)
        shown = " ".join(f"{k}={v['value']:.4g}" for k, v in res["metrics"].items())
        print(f"seed {seed}: failed {res['failed']}/{res['attempted']} {shown}",
              flush=True)
    loops.append(reference_loop())
    summary = summarize(results, bounds)
    print(f"\nreference loop (min/median/max ms of 30 passes), before: "
          f"{loops[0][0]:.1f}/{loops[0][1]:.1f}/{loops[0][2]:.1f}, after: "
          f"{loops[1][0]:.1f}/{loops[1][1]:.1f}/{loops[1][2]:.1f}")
    print(f"{ns.workload}: {ns.runs} runs of {seconds} s")
    print(f"{'metric':<14}{'median':>12}{'Q1':>12}{'Q3':>12}{'spread':>9}{'bound':>8}")
    for name, s in summary.items():
        mark = "" if s["bound"] is None or s["spread"] <= s["bound"] / 3 else "  > bound/3"
        print(f"{name:<14}{s['median']:>12.5g}{s['q1']:>12.5g}{s['q3']:>12.5g}"
              f"{s['spread']:>9.2%}{s['bound'] or 0:>8.2f} {s['unit']}{mark}")
    shares = {r["failed"] / r["attempted"] for r in results}
    print(f"failed share per run: {sorted(shares)}")
    if ns.out:
        os.makedirs(os.path.dirname(os.path.abspath(ns.out)), exist_ok=True)
        with open(ns.out, "w", encoding="utf-8") as fh:
            json.dump({"workload": ns.workload, "seconds": seconds,
                       "seeds": list(range(ns.first_seed, ns.first_seed + ns.runs)),
                       "reference_loop_ms": loops, "runs": results,
                       "summary": summary},
                      fh, indent=1, sort_keys=True)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
