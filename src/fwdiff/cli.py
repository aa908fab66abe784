"""The fwdiff command line tool.

Subcommands:
    present   print the module presentation of a ring file
    fiber     fiber dimension at a point (--point) or prime (--prime)
    regular   the rank-criterion regularity verdict at a locus
    oracle    cross-check the presentation against the brute-force module
    axioms    randomized check of the derivation axioms over Z/p^2

Exit codes: 0 success, 1 computational refusal (Unknown verdict, size
bound, undecidable primality class, failed check), 2 input error, 3
internal error (any other exception, reported in one line).
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from . import __version__
from .errors import (
    OffSchemeError,
    PresentationError,
    RingFileError,
    SizeRefusalError,
    UnsupportedClassError,
    ZeroDivisorError,
)
from .fwcore import check_axioms
from .localalg import PointSpec, PrimeSpec, fiber_dim, regularity
from .ringfile import parse_point_coords, parse_prime_gens, parse_ring

REFUSAL_ERRORS = (SizeRefusalError, UnsupportedClassError)
INPUT_ERRORS = (RingFileError, PresentationError, OffSchemeError,
                ZeroDivisorError, OSError)


def int_at_least(lo):
    """An argparse type: an integer no smaller than lo."""
    def parse(text):
        n = int(text)
        if n < lo:
            raise argparse.ArgumentTypeError(f"must be at least {lo}, not {n}")
        return n
    parse.__name__ = "int"  # argparse reports "invalid int value: ..."
    return parse


@functools.cache
def build_parser():
    """The argument parser, built on the first call and shared after it."""
    top = argparse.ArgumentParser(
        prog="fwdiff",
        description="Frobenius-Witt differentials of finitely presented "
                    "rings over F_q and Z/p^2",
    )
    top.add_argument("--version", action="version", version=__version__)
    sub = top.add_subparsers(dest="command", required=True)

    def ring_flags(p, locus=False):
        p.add_argument("-i", "--input", required=True, metavar="FILE",
                       help="ring description file")
        p.add_argument("--json", action="store_true",
                       help="emit the result document as JSON")
        p.add_argument("--seed", type=int, default=0,
                       help="seed echoed into the result document")
        if locus:
            p.add_argument("--point", metavar="C1,C2,...",
                           help="coordinates of a rational point")
            p.add_argument("--prime", metavar='"G1;G2"',
                           help="generators of a prime of the carrier")
            p.add_argument("--flat", action="store_true",
                           help="assert flatness over Z_(p) for a Zp2 base")

    p = sub.add_parser("present", help="module presentation of a ring file")
    ring_flags(p)
    p = sub.add_parser("fiber", help="fiber dimension at a locus")
    ring_flags(p, locus=True)
    p = sub.add_parser("regular", help="regularity verdict at a locus")
    ring_flags(p, locus=True)
    p = sub.add_parser("oracle", help="brute-force cross-check")
    ring_flags(p)
    p.add_argument("--max-size", type=int_at_least(1), default=None,
                   help="lower the ring-size limit of the brute force")
    p = sub.add_parser("axioms", help="randomized derivation-axiom check")
    p.add_argument("--p", type=int, required=True, help="the prime")
    p.add_argument("--nvars", type=int_at_least(0), default=2,
                   help="number of variables (default 2)")
    p.add_argument("--trials", type=int_at_least(1), default=500,
                   help="number of random trials (default 500)")
    p.add_argument("--seed", type=int, default=0,
                   help="random seed (default 0)")
    p.add_argument("--json", action="store_true",
                   help="emit the result document as JSON")
    return top


def _load_ring(args):
    with open(args.input, encoding="utf-8") as fh:
        return parse_ring(fh.read())


def _locus_of(args, ring_pres):
    if getattr(args, "point", None) is not None:
        if getattr(args, "prime", None) is not None:
            raise PresentationError("--point and --prime are exclusive")
        coords = parse_point_coords(args.point, ring_pres)
        return PointSpec.of(ring_pres, coords)
    if getattr(args, "prime", None) is not None:
        gens = parse_prime_gens(args.prime, ring_pres)
        return PrimeSpec(ring_pres, tuple(gens))
    raise PresentationError("a locus is required: --point or --prime")


def _document(command, seed, ring_pres=None, fw=None, result=None):
    return {
        "command": command,
        "ring": ring_pres.describe() if ring_pres is not None else None,
        "module": fw.describe() if fw is not None else None,
        "result": result,
        "meta": {"version": __version__, "seed": seed},
    }


def _emit(doc, args, out):
    if args.json:
        out.write(json.dumps(doc, sort_keys=True, indent=2) + "\n")
    else:
        _emit_text(doc, out)


def _ring_line(ring):
    head = ring["base"]
    if ring["vars"]:
        head += "[" + ", ".join(ring["vars"]) + "]"
    if ring["relations"]:
        head += " / (" + "; ".join(ring["relations"]) + ")"
    return head


def _emit_text(doc, out):
    w = out.write
    if doc["ring"] is not None:
        w(f"ring: {_ring_line(doc['ring'])}\n")
    res = doc["result"]
    cmd = doc["command"]
    if cmd == "present":
        mod = doc["module"]
        w("generators: " + ", ".join(mod["generators"]) + "\n")
        if res["free_rank"] is not None:
            w(f"free module of rank {res['free_rank']}\n")
        rels = doc["ring"]["relations"]
        for name, col in zip(rels, mod["columns"]):
            w(f"column of {name}: ({', '.join(col)})\n")
    elif cmd == "fiber":
        w(f"locus: {res['locus']}\n")
        w(f"fiber dimension: {res['fiber_dim']}\n")
    elif cmd == "regular":
        w(f"locus: {res['locus']}\n")
        w(f"verdict: {res['verdict']}\n")
        w(f"fiber dimension: {res['fiber_dim']}\n")
        w(f"d: {res['d']}  r: {res['r']}  mode: {res['flatness_mode']}\n")
        if res.get("explanation"):
            w(f"note: {res['explanation']}\n")
    elif cmd == "oracle":
        w(f"ring size: {res['size']}\n")
        w(f"brute-force dimension: {res['brute_dim']}\n")
        w(f"presented dimension: {res['presented_dim']}\n")
        w("match: " + ("yes" if res["match"] else "NO") + "\n")
    elif cmd == "axioms":
        w(f"p={res['p']} nvars={res['nvars']}: "
          f"{res['passed']}/{res['trials']} pass\n")
        for fail in res["failures"]:
            w(f"  failure: {fail}\n")


def cmd_present(args, out):
    ring_pres = _load_ring(args)
    fw = ring_pres.fw
    free = fw.ngens if not fw.columns else None
    doc = _document("present", args.seed, ring_pres, fw,
                    {"generators": list(fw.generators),
                     "ngens": fw.ngens,
                     "free_rank": free})
    _emit(doc, args, out)
    return 0


def cmd_fiber(args, out):
    ring_pres = _load_ring(args)
    locus = _locus_of(args, ring_pres)
    fw = ring_pres.fw
    doc = _document("fiber", args.seed, ring_pres, fw,
                    {"locus": locus.describe(), "kind": locus.kind,
                     "fiber_dim": fiber_dim(fw, locus)})
    _emit(doc, args, out)
    return 0


def cmd_regular(args, out):
    ring_pres = _load_ring(args)
    locus = _locus_of(args, ring_pres)
    verdict = regularity(ring_pres, locus, flat=args.flat)
    result = verdict.describe()
    result["locus"] = locus.describe()
    doc = _document("regular", args.seed, ring_pres, ring_pres.fw, result)
    _emit(doc, args, out)
    return 0 if verdict.verdict != "Unknown" else 1


def cmd_oracle(args, out):
    from .oracle import cross_check  # numpy loads only for the oracle

    ring_pres = _load_ring(args)
    fw = ring_pres.fw
    result = cross_check(fw, max_size=args.max_size)
    doc = _document("oracle", args.seed, ring_pres, fw, result)
    _emit(doc, args, out)
    return 0 if result["match"] else 1


def cmd_axioms(args, out):
    report = check_axioms(args.p, args.nvars, trials=args.trials,
                          seed=args.seed)
    doc = _document("axioms", args.seed, result=report.describe())
    _emit(doc, args, out)
    return 0 if report.passed else 1


DISPATCH = {
    "present": cmd_present,
    "fiber": cmd_fiber,
    "regular": cmd_regular,
    "oracle": cmd_oracle,
    "axioms": cmd_axioms,
}


def exit_code(work, err=None):
    """work(), whose return value is the exit code, run under the exit
    code contract: a refusal is one "refused:" line on err (default
    stderr) and 1, an input error one "error:" line and 2, and any other
    exception one "internal error:" line and 3."""
    err = err if err is not None else sys.stderr
    try:
        return work()
    except REFUSAL_ERRORS as e:
        err.write(f"refused: {e}\n")
        return 1
    except INPUT_ERRORS as e:
        err.write(f"error: {e}\n")
        return 2
    except Exception as e:  # a fault of fwdiff itself, not of the input
        err.write(f"internal error: {e!r}\n")
        return 3


def run(argv=None, out=None, err=None):
    out = out if out is not None else sys.stdout
    args = build_parser().parse_args(argv)
    return exit_code(lambda: DISPATCH[args.command](args, out), err)


def main():
    sys.exit(run())


if __name__ == "__main__":
    main()
