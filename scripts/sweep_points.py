#!/usr/bin/env python3
"""Sweep the rational points of a ring over small field extensions and
tabulate the regularity verdicts at each one.

Errors end the sweep as in the fwdiff command line tool (fwdiff.cli.
exit_code): work past a size bound (say, the points of four variables
over F_81) with one "refused: ..." line on stderr and exit code 1, an
input the library rejects (a ring file it cannot read, a field the base
does not embed into) with one "error: ..." line and exit code 2, and a
fault of fwdiff itself with one "internal error: ..." line and exit
code 3; a --max-degree below 1 is a usage error, also exit code 2."""

import argparse

from fwdiff.cli import exit_code, int_at_least
from fwdiff.localalg import rational_points, regularity
from fwdiff.modarith import GaloisField, PrimeField
from fwdiff.ringfile import parse_ring


def fields_for(pres, max_degree):
    p = pres.base.p
    yield PrimeField(p)
    for e in range(2, max_degree + 1):
        yield GaloisField(p, e)


def run(ns) -> int:
    with open(ns.ring) as fh:
        pres = parse_ring(fh.read())
    print(f"# {pres.describe()}")
    for fld in fields_for(pres, ns.max_degree):
        pts = rational_points(pres, fld)
        print(f"\nover {fld.tag()}: {len(pts)} rational point(s)")
        for x in pts:
            v = regularity(pres, x, flat=ns.flat)
            print(f"  {x.describe():<18} {v.verdict:<11}"
                  f" fiber={v.fiber_dim} d={v.d} r={v.r}")
    return 0


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("ring", help="ring description file")
    ap.add_argument("--max-degree", type=int_at_least(1), default=2,
                    help="largest residue-field extension degree (default 2)")
    ap.add_argument("--flat", action="store_true",
                    help="assert flatness for a Z/p^2 base")
    ns = ap.parse_args(argv)
    return exit_code(lambda: run(ns))


if __name__ == "__main__":
    raise SystemExit(main())
