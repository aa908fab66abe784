#!/usr/bin/env python3
"""Run one fwdiff benchmark workload and print its metrics.

    python3 fwbench/run.py --workload {oracle,sweep,axioms} --seed N
                           --seconds S --trace {0,1}

With --trace 0 the run does whole rounds of jobs in a closed loop, one
process and no threads, until S seconds have passed and the workload's
minimum job count is met; between rounds it times set-up in
SETUP_PROBES fresh processes.  It prints the end-to-end metrics.  With --trace 1 it runs
the workload's fixed number of rounds once untraced and once with every
fwdiff layer wrapped in spans (see tracing.py), prints the per-layer
metrics and the tracing overhead, and writes the spans to fwbench/out/.

Outputs are checked after the timed region; a job whose output fails
its check counts as failed.  The last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
SETUP_PROBES = 9
PROBE_TIMEOUT_S = 60


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=("oracle", "sweep", "axioms"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="set up, print 'ready' and exit (set-up probes)")
    return ap.parse_args(argv)


def probe_setup(args):
    """Seconds from spawning a fresh interpreter to its first job."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
         "--seed", str(args.seed), "--setup-only"],
        stdout=subprocess.PIPE, cwd=ROOT)
    try:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        proc.wait(timeout=PROBE_TIMEOUT_S)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if line.strip() != b"ready" or proc.returncode != 0:
        raise RuntimeError("set-up probe failed")
    return elapsed


def nearest_rank(values, pct):
    xs = sorted(values)
    return xs[max(0, math.ceil(pct / 100 * len(xs)) - 1)]


class Runner:
    """Runs rounds of a workload, timing each job and keeping its output."""

    def __init__(self, workload, state, tracer=None):
        self.workload = workload
        self.state = state
        self.tracer = tracer
        self.latencies = []
        self.outputs = []
        self.round_walls = []
        self._round = 0

    def _job(self, key, fn, *args):
        if self.tracer:
            self.tracer.job = len(self.latencies)
        t0 = time.perf_counter()
        try:
            result = fn(*args)
        except Exception:  # a job that raises is a failed job, not a crash
            traceback.print_exc()
            result = None
        self.latencies.append(time.perf_counter() - t0)
        if self.tracer:
            self.tracer.job = None
        self.outputs.append((self._round, key, result))

    def run_round(self, r):
        self._round = r
        t0 = time.perf_counter()
        self.workload.run_round(self.state, r, self._job)
        self.round_walls.append(time.perf_counter() - t0)

    def wall(self):
        return sum(self.round_walls)


def end_to_end(args, wl):
    runner = Runner(wl, wl.setup(args.seed))
    probes = []
    r = 0
    while runner.wall() < args.seconds or len(runner.latencies) < wl.min_jobs:
        # set-up probes are spread over the run, between rounds, so that
        # their median sees the same machine as the jobs
        if len(probes) < min(SETUP_PROBES,
                             1 + SETUP_PROBES * runner.wall() / args.seconds):
            probes.append(probe_setup(args))
        runner.run_round(r)
        r += 1
    while len(probes) < SETUP_PROBES:
        probes.append(probe_setup(args))
    setup_s = statistics.median(probes)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    failed = wl.check(runner.state, runner.outputs)
    lat_ms = [x * 1e3 for x in runner.latencies]
    metrics = {
        "setup_s": (setup_s, "s"),
        "jobs_per_s": (len(lat_ms) / runner.wall(), "1/s"),
        "job_p50_ms": (statistics.median(lat_ms), "ms"),
        "job_tail_ms": (nearest_rank(lat_ms, wl.tail_pct), "ms"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    print(f"# {wl.name}: {len(lat_ms)} jobs in {r} rounds, "
          f"{runner.wall():.3f} s timed; job_tail_ms is p{wl.tail_pct}")
    return len(lat_ms), failed, metrics


def traced(args, wl):
    from tracing import Tracer

    plain = Runner(wl, wl.setup(args.seed))
    for r in range(wl.trace_rounds):
        plain.run_round(r)
    tracer = Tracer()
    tracer.install()
    tracer.active = True
    tracer.job = "setup"
    runner = Runner(wl, wl.setup(args.seed), tracer)
    for r in range(wl.trace_rounds):
        runner.run_round(r)
    tracer.active = False
    failed = wl.check(plain.state, plain.outputs) + \
        wl.check(runner.state, runner.outputs)
    overhead = runner.wall() / plain.wall()
    os.makedirs(OUT, exist_ok=True)
    dump = os.path.join(OUT, f"trace-{wl.name}-{args.seed}.jsonl.gz")
    tracer.dump(dump, {"workload": wl.name, "seed": args.seed,
                       "rounds": wl.trace_rounds, "jobs": len(runner.latencies),
                       "untraced_s": plain.wall(), "traced_s": runner.wall()})
    metrics = tracer.layer_metrics()
    metrics["trace.overhead"] = (overhead, "ratio")
    print(f"# {wl.name}: {wl.trace_rounds} round(s) untraced in "
          f"{plain.wall():.3f} s, traced in {runner.wall():.3f} s; spans in "
          f"{os.path.relpath(dump, ROOT)}")
    return len(plain.latencies) + len(runner.latencies), failed, metrics


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "fwdiff", "__init__.py")):
        print(f"fwbench: no fwdiff sources under {SRC}", file=sys.stderr)
        return 2
    # one process and no threads: numpy's BLAS pool would add a second
    # core's worth of load to the oracle's rank computations
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(0, SRC)
    from workloads import WORKLOADS

    wl = WORKLOADS[args.workload]
    if args.setup_only:
        wl.setup(args.seed)
        print("ready", flush=True)
        return 0
    attempted, failed, metrics = (traced if args.trace else end_to_end)(args, wl)
    for name, (value, unit) in metrics.items():
        print(f"{name} {value} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
