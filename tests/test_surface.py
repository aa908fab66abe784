"""The public surface: every exported name resolves, the README's library
example runs as printed, input guards hold under `python -O`, and
verdicts run without loading numpy."""

import contextlib
import io
import os
import re
import subprocess
import sys
import textwrap

import fwdiff

README = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")


def test_every_exported_name_resolves():
    assert len(set(fwdiff.__all__)) == len(fwdiff.__all__)
    for name in fwdiff.__all__:
        assert getattr(fwdiff, name) is not None, name


def test_readme_python_example_runs():
    with open(README, encoding="utf-8") as fh:
        blocks = re.findall(r"```python\n(.*?)```", fh.read(), re.S)
    assert len(blocks) == 1
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(blocks[0], {})
    assert out.getvalue().splitlines() == ["('w(x)', 'w(y)')", "Regular"]


# Each case must raise PresentationError.  The script stops at the first
# case that does not, so the negative powers, which never terminate
# without their guard, run only once every earlier guard has held.
GUARDS = textwrap.dedent("""
    from fwdiff import (GaloisField, PointSpec, PolyRing,
                        PresentationError, PresentationMorphism, PrimeField,
                        PrimeSpec, PrimeSquareRing, RingPresentation,
                        fiber_dim, groebner, present_fw, residue_p_rank)
    from fwdiff.modarith import default_minpoly
    from fwdiff.mpoly import homogenize, standard_monomials, witt_P_pair

    k = PrimeField(5)
    ring = PolyRing(k, ("x", "y"))
    x, y = ring.gens()
    cusp = RingPresentation(k, ("x", "y"), (y**2 - x**3,))
    node = RingPresentation(k, ("x", "y"), (x * y,))
    zring = PolyRing(PrimeSquareRing(5), ("x",))
    line4 = RingPresentation(GaloisField(2, 2), ("x",), ())
    cases = {
        "point of another presentation": lambda: fiber_dim(
            present_fw(cusp), PointSpec.of(node, (0, 0))),
        "prime of another presentation": lambda: fiber_dim(
            present_fw(cusp), PrimeSpec(node, (x, y))),
        "residue rank at a prime of another presentation":
            lambda: residue_p_rank(cusp, PrimeSpec(node, (x,))),
        "groebner of nothing in no ring": lambda: groebner([]),
        "evaluate arity": lambda: x.evaluate((k.one(),)),
        "shift arity": lambda: x.shift((k.one(), k.one(), k.one())),
        "monomial length": lambda: ring.poly({(1,): k.one()}),
        "extension degree of a minimal polynomial": lambda: default_minpoly(2, 9),
        # x^9 + x^4 + 1 is irreducible over F_2: only the degree bound refuses
        "extension degree of a field": lambda: GaloisField(
            2, 9, (1, 0, 0, 0, 1, 0, 0, 0, 0, 1)),
        "Witt carry over an extension field": lambda: witt_P_pair(
            *PolyRing(GaloisField(3, 2), ("x",)).gens() * 2),
        "carry of two rings": lambda: witt_P_pair(x, zring.gen(0)),
        "homogenize into other variables": lambda: homogenize(x, ring),
        "lead monomial with no unit term": lambda: (
            5 * zring.gen(0)).lead_monomial(),
        "infinite staircase": lambda: standard_monomials(groebner([x])),
        "lead monomial of zero": lambda: ring.zero().lead_monomial(),
        "coordinate of another characteristic": lambda: PointSpec.of(
            node, (PrimeField(3).one(), 0)),
        "coordinate field with no embedding": lambda: PointSpec.of(
            line4, (GaloisField(2, 3).generator(),)),
        "coordinates in two fields": lambda: PointSpec(
            node, (k.one(), GaloisField(5, 2).one())),
        "prime generator off the carrier": lambda: PrimeSpec(
            node, (zring.gen(0),)),
        "base ring of no kind": lambda: RingPresentation("F5", ("x",), ()),
        "relation in other variables": lambda: RingPresentation(
            k, ("x",), (x,)),
        "image outside the target": lambda: PresentationMorphism(
            node, cusp, (x, 1)),
        "unknown monomial order": lambda: PolyRing(k, ("x",), "lex"),
        "duplicate variable names": lambda: PolyRing(k, ("x", "x")),
        "sum of two rings": lambda: x + zring.gen(0),
        "sum with a float": lambda: x + 1.5,
        "negative power of a scalar": lambda: k.of_int(2) ** -1,
        "negative power of a polynomial": lambda: (x + 1) ** -1,
    }
    for name, case in cases.items():
        try:
            case()
        except PresentationError:
            print("raised:", name)
        else:
            print("silent:", name)
            break
""")


def test_input_guards_hold_without_asserts():
    r = subprocess.run([sys.executable, "-O", "-c", GUARDS],
                       capture_output=True, text=True, timeout=120)
    assert r.returncode == 0, r.stderr
    lines = r.stdout.splitlines()
    assert len(lines) == 28 and all(
        line.startswith("raised:") for line in lines), r.stdout


ORACLE_FREE_VERDICT = textwrap.dedent("""
    import io, sys
    import fwdiff, fwdiff.cli, fwdiff.localalg
    from fwdiff import PointSpec, PolyRing, PrimeField, RingPresentation

    k = PrimeField(5)
    x, y = PolyRing(k, ("x", "y")).gens()
    cusp = RingPresentation(k, ("x", "y"), (y**2 - x**3,))
    print(fwdiff.regularity(cusp, PointSpec.of(cusp, (0, 0))).verdict)
    print("numpy" in sys.modules)
    print(callable(fwdiff.cross_check), "numpy" in sys.modules)
    out = io.StringIO()
    print(fwdiff.cli.run(["oracle", "-i", sys.argv[1]], out=out),
          out.getvalue().splitlines()[-1])
""")


def test_verdicts_do_not_load_numpy():
    ring = os.path.join(os.path.dirname(README), "rings", "zp2.ring")
    r = subprocess.run([sys.executable, "-c", ORACLE_FREE_VERDICT, ring],
                       capture_output=True, text=True, timeout=120)
    assert r.returncode == 0, r.stderr
    assert r.stdout.splitlines() == [
        "NotRegular", "False", "True True", "0 match: yes"]
