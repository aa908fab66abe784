#!/usr/bin/env python3
"""Long-running randomized replay of the derivation axioms.

Runs check_axioms in rounds with stepped seeds and reports any failing
identity verbatim.  Intended for soak testing beyond what the unit
suite covers; exit code 1 if any round fails.  Errors end the run as in
the fwdiff command line tool (fwdiff.cli.exit_code): work past a size
bound (say, the Witt carries of a --p near a million) with one
"refused: ..." line on stderr and exit code 1, an input the library
rejects (say, a --p that is not prime) with one "error: ..." line and
exit code 2, and a fault of fwdiff itself with one "internal error: ..."
line and exit code 3; a count out of range is a usage error, also exit
code 2."""

import argparse
import time

from fwdiff.cli import exit_code, int_at_least
from fwdiff.fwcore import check_axioms


def rounds(ns):
    bad = 0
    t0 = time.time()
    for r in range(ns.rounds):
        rep = check_axioms(ns.p, ns.nvars, trials=ns.trials, seed=ns.seed + r)
        mark = "ok " if rep.passed else "BAD"
        print(f"round {r:3d}  seed={ns.seed + r:<6} [{mark}]"
              f" {rep.trials - len(rep.failures)}/{rep.trials}")
        if not rep.passed:
            bad += 1
            print(f"  {rep.describe()}")
    print(f"{ns.rounds} rounds in {time.time() - t0:.1f}s, {bad} failing")
    return 1 if bad else 0


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--p", type=int, required=True, help="the prime")
    ap.add_argument("--nvars", type=int_at_least(0), default=2)
    ap.add_argument("--trials", type=int_at_least(1), default=2000,
                    help="trials per round (default 2000)")
    ap.add_argument("--rounds", type=int_at_least(1), default=10)
    ap.add_argument("--seed", type=int, default=0, help="base seed")
    ns = ap.parse_args(argv)
    return exit_code(lambda: rounds(ns))


if __name__ == "__main__":
    raise SystemExit(main())
