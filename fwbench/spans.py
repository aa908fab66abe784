#!/usr/bin/env python3
"""Print self times per workload from the span dumps of traced runs.

    python3 fwbench/spans.py [DUMP ...]     (default: fwbench/out/trace-*)

Self time is recomputed from the spans themselves: a span's duration
minus the durations of the spans whose parent it is.  One table per
dump, heaviest self time first.
"""

from __future__ import annotations

import glob
import gzip
import json
import os
import sys
from collections import defaultdict

HERE = os.path.dirname(os.path.abspath(__file__))


def self_times(path):
    with gzip.open(path, "rt", encoding="utf-8") as fh:
        header = json.loads(fh.readline())
        spans = [json.loads(line) for line in fh]
    child_ns = defaultdict(int)
    for _sid, _name, start, end, parent, _job in spans:
        if parent is not None:
            child_ns[parent] += end - start
    calls, total, own = defaultdict(int), defaultdict(int), defaultdict(int)
    for sid, name, start, end, _parent, _job in spans:
        calls[name] += 1
        total[name] += end - start
        own[name] += end - start - child_ns[sid]
    return header, calls, total, own


def main(argv=None):
    paths = (argv if argv is not None else sys.argv[1:]) or \
        sorted(glob.glob(os.path.join(HERE, "out", "trace-*.jsonl.gz")))
    if not paths:
        print("no span dumps; run run.py with --trace 1 first", file=sys.stderr)
        return 1
    for path in paths:
        header, calls, total, own = self_times(path)
        print(f"\n{header['workload']} (seed {header['seed']}, "
              f"{header['rounds']} round(s), {header['jobs']} jobs; "
              f"traced {header['traced_s']:.3f} s, "
              f"untraced {header['untraced_s']:.3f} s)")
        print(f"{'span':<40}{'calls':>9}{'total ms':>12}{'self ms':>12}")
        for name in sorted(own, key=own.get, reverse=True):
            print(f"{name:<40}{calls[name]:>9}{total[name] / 1e6:>12.3f}"
                  f"{own[name] / 1e6:>12.3f}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
