"""The ring-file grammar: totality, round trips, and error positions."""

import glob
import os
import random

import pytest
from hypothesis import given, settings, strategies as st

from fwdiff.errors import RingFileError
from fwdiff.fwcore import RingPresentation
from fwdiff.modarith import (
    GaloisField,
    PrimeField,
    PrimeSquareRing,
    default_minpoly,
)
from fwdiff.mpoly import PolyRing
from fwdiff.ringfile import (
    parse_point_coords,
    parse_poly,
    parse_prime_gens,
    parse_ring,
    render_ring,
)
from routes import random_poly

RINGS_DIR = os.path.join(os.path.dirname(__file__), os.pardir, "rings")


# ---------------------------------------------------------------------------
# expressions

def _plane(p=5):
    ring = PolyRing(PrimeField(p), ("x", "y"))
    return ring, dict(zip(ring.variables, ring.gens()))


def test_expression_precedence():
    ring, names = _plane()
    x, y = ring.gens()
    assert parse_poly("2*x^3", ring, names) == 2 * x**3
    assert parse_poly("-x^2", ring, names) == -(x**2)
    assert parse_poly("x - -1", ring, names) == x + ring.one()
    assert parse_poly("x + y*x", ring, names) == x + y * x
    assert parse_poly("(x + y)^2", ring, names) == (x + y) ** 2
    assert parse_poly("x^2*y", ring, names) == x**2 * y


def test_expression_errors_carry_positions():
    ring, names = _plane()
    with pytest.raises(RingFileError) as e:
        parse_poly("x + z", ring, names)
    assert (e.value.line, e.value.col) == (1, 5)
    with pytest.raises(RingFileError) as e:
        parse_poly("x^y", ring, names)
    assert (e.value.line, e.value.col) == (1, 3)
    with pytest.raises(RingFileError) as e:
        parse_poly("x $ y", ring, names)
    assert (e.value.line, e.value.col) == (1, 3)
    with pytest.raises(RingFileError) as e:
        parse_poly("2 x", ring, names)  # no implicit multiplication
    assert (e.value.line, e.value.col) == (1, 3)
    with pytest.raises(RingFileError) as e:
        parse_poly("(x + y", ring, names)
    assert e.value.line == 1
    with pytest.raises(RingFileError):
        parse_poly("", ring, names)


# ---------------------------------------------------------------------------
# files

CUSP_TEXT = """\
# a curve with one bad point
base: Fp(5)
vars: x, y
rel: y^2 - x^3
"""


def test_parse_basic_file():
    pres = parse_ring(CUSP_TEXT)
    assert pres.base == PrimeField(5)
    assert pres.variables == ("x", "y")
    assert len(pres.relations) == 1
    assert str(pres.relations[0]) in ("4*x^3 + y^2", "y^2 + 4*x^3")


def test_zero_relations_are_dropped():
    pres = parse_ring("base: Fp(3)\nvars: x\nrel: 0\nrel: x - x\nrel: 3\n")
    assert pres.relations == ()


def test_no_vars_file():
    pres = parse_ring("base: Zp2(3)\nvars:\n")
    assert pres.variables == ()
    assert pres.base == PrimeSquareRing(3)


def test_fq_base_with_generator_constant():
    pres = parse_ring("base: Fq(3,2)\nvars: x, y\nrel: x^2 + t*y^2 + t\n")
    assert pres.base == GaloisField(3, 2)
    t = pres.base.generator()
    f = pres.relations[0]
    assert f.terms[(0, 2)] == t and f.terms[(0, 0)] == t


def test_custom_minpoly_parsed_and_kept():
    pres = parse_ring("base: Fq(3,2,t^2+t+2)\nvars: x\n")
    assert pres.base.minpoly == (2, 1, 1)
    assert pres.base != GaloisField(3, 2)  # different structure constants
    out = pres.base.tag()
    assert out == "Fq(3,2,t^2+t+2)"
    assert GaloisField(3, 2).tag() == "Fq(3,2)"


def test_default_minpoly_written_implicitly():
    explicit = "base: Fq(2,2," + \
        "+".join(_term for _term in ["t^2", "t", "1"]) + ")\nvars: x\n"
    pres = parse_ring(explicit)
    assert pres.base.minpoly == default_minpoly(2, 2)
    assert render_ring(pres) == "base: Fq(2,2)\nvars: x\n"


@pytest.mark.parametrize("tag", [
    "Fp(5)", "Zp2(3)", "Fq(3,2)", "Fq(3,2,t^2+t+2)", "Fq(2,3,t^3+t^2+1)"])
def test_every_base_round_trips_through_its_tag(tag):
    """The tag is the one rendering of a base: render_ring and describe()
    write it, and it reads back to an equal ring.  The parent's describe()
    wrote Fq(3,2) for the field with minimal polynomial t^2+t+2."""
    pres = parse_ring(f"base: {tag}\nvars: x\nrel: x^2 - 1\n")
    assert pres.base.tag() == tag
    assert parse_ring(render_ring(pres)).base == pres.base
    written = f"base: {pres.describe()['base']}\nvars: x\n"
    assert parse_ring(written).base == pres.base


@pytest.mark.parametrize("text,line,col", [
    ("base: Fp(4)\nvars: x\n", 1, 7),             # 4 is not prime
    ("base: Fp(5)\nvars: x\nrel: x*z\n", 3, 8),   # unknown variable
    ("base: Fp(5)\nvars: x, x\n", 2, 10),         # duplicate variable
    ("base: Fp(5)\nvars: _h\n", 2, 7),            # reserved prefix
    ("base: Fq(2,2)\nvars: t\n", 2, 7),           # generator collision
    ("base: Fp(5)\nvars: x,\n", 2, 8),            # trailing comma
    ("base: Fq(2)\nvars: x\n", 1, 7),             # wrong arity
    ("base: Fq(2,2,t^3+t+1)\nvars: x\n", 1, 7),   # minpoly degree
    ("base: Fq(2,2,t^2+1)\nvars: x\n", 1, 7),     # reducible minpoly
    ("base: Qp(5)\nvars: x\n", 1, 7),             # unknown tag
    ("vars: x\nbase: Fp(5)\n", 1, 1),             # vars before base
    ("base: Fp(5)\nbase: Fp(5)\nvars: x\n", 2, 1),
    ("base: Fp(5)\nrel: x\nvars: x\n", 2, 1),
    ("base: Fp(5)\nvars: x\nvars: y\n", 3, 1),    # duplicate vars line
    ("base: Fp(5,2)\nvars: x\n", 1, 7),           # Fp arity
    ("base: Fq(3,2,2*t^2+1)\nvars: x\n", 1, 7),   # minpoly not monic
    ("flavor: vanilla\n", 1, 1),                  # unknown head
])
def test_file_errors_carry_positions(text, line, col):
    with pytest.raises(RingFileError) as e:
        parse_ring(text)
    assert (e.value.line, e.value.col) == (line, col), str(e.value)


def test_missing_sections_reported_without_position():
    with pytest.raises(RingFileError) as e:
        parse_ring("# nothing\n")
    assert "base" in str(e.value) and e.value.line is None
    with pytest.raises(RingFileError) as e:
        parse_ring("base: Fp(5)\n")
    assert "vars" in str(e.value)


def test_comments_and_blank_lines_ignored():
    text = "\n# top\nbase: Fp(5)   # inline\n\nvars: x # names\nrel: x^2\n\n"
    pres = parse_ring(text)
    assert pres.variables == ("x",)
    assert len(pres.relations) == 1


# ---------------------------------------------------------------------------
# round trips

def test_repo_ring_files_parse_and_round_trip():
    paths = sorted(glob.glob(os.path.join(RINGS_DIR, "*.ring")))
    assert len(paths) >= 7
    for path in paths:
        with open(path) as fh:
            text = fh.read()
        pres = parse_ring(text)
        again = parse_ring(render_ring(pres))
        assert again == pres, path


_BASES = [PrimeField(2), PrimeField(5), PrimeSquareRing(2), PrimeSquareRing(3),
          GaloisField(2, 2), GaloisField(3, 2)]


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=10**6))
def test_render_parse_round_trip_random(seed):
    rng = random.Random(seed)
    base = _BASES[rng.randrange(len(_BASES))]
    nvars = rng.randint(0, 3)
    variables = tuple(("x", "y", "z")[:nvars])
    ring = PolyRing(base, variables)
    rels = []
    for _ in range(rng.randint(0, 2)):
        f = random_poly(rng, ring, max_terms=3, max_degree=2)
        if not f.is_zero():
            rels.append(f)
    pres = RingPresentation(base, variables, tuple(rels))
    assert parse_ring(render_ring(pres)) == pres


# ---------------------------------------------------------------------------
# command-line loci

def test_parse_point_coords():
    pres = parse_ring(CUSP_TEXT)
    coords = parse_point_coords("1, 4", pres)
    k = PrimeField(5)
    assert coords == [k.of_int(1), k.of_int(4)]
    conic = parse_ring("base: Fq(3,2)\nvars: x, y\nrel: x^2 + t*y^2 + t\n")
    t = conic.base.generator()
    coords = parse_point_coords("t + 1, 2*t", conic)
    assert coords == [t + conic.base.one(), t + t]
    with pytest.raises(RingFileError):
        parse_point_coords("x, 0", pres)  # variables are not point data


def test_parse_prime_gens():
    pres = parse_ring(CUSP_TEXT)
    gens = parse_prime_gens("x - 1; y - 1", pres)
    assert len(gens) == 2
    cring = pres.carrier_ring
    x, y = cring.gens()
    assert gens[0] == x - cring.one()
    assert gens[1] == y - cring.one()
