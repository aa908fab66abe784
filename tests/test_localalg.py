"""Fibers, local dimension, cotangent spaces, and the rank criterion.

Regularity answers are cross-checked against the classical Jacobian
criterion for plane curves, and the prime route against the point route
at every maximal ideal of a rational point.  Cotangent spaces and split
sequences come from the untwisted reference routes in routes.py, and
point enumeration is compared with its evaluate-based route there.
Call counts pin the work done once per ring and once per point.
"""

import dataclasses
import glob
import os

import pytest
from hypothesis import given, settings, strategies as st

from fwdiff import fwcore, localalg, modarith, mpoly
from fwdiff.errors import (
    OffSchemeError,
    PresentationError,
    SizeRefusalError,
    UnsupportedClassError,
    ZeroDivisorError,
)
from fwdiff.fwcore import RingPresentation, present_fw
from fwdiff.localalg import (
    PointSpec,
    PrimeSpec,
    fiber_dim,
    rational_points,
    regularity,
    residue_p_rank,
    _ambient_equidimensional,
)
from fwdiff.modarith import GaloisField, PrimeField, PrimeSquareRing
from fwdiff.mpoly import PolyRing
from fwdiff.ringfile import parse_poly, parse_ring
from routes import (
    check_prdx,
    check_split_sequence,
    cotangent_dim,
    derivative,
    jacobian_verdict,
    rational_points_by_evaluate,
    ring_of,
)

ROOT = os.path.join(os.path.dirname(__file__), os.pardir)
RING_FILES = sorted(
    glob.glob(os.path.join(ROOT, "rings", "*.ring"))
    + glob.glob(os.path.join(ROOT, "fwbench", "rings", "sweep", "*.ring")))


def _cpoly(pres, text):
    ring = pres.carrier_ring
    names = dict(zip(ring.variables, ring.gens()))
    return parse_poly(text, ring, names)


CUSP = ring_of(PrimeField(5), ("x", "y"), ["y^2 - x^3"])
NODE = ring_of(PrimeField(5), ("x", "y"), ["x*y"])
LINE = ring_of(PrimeField(5), ("x",), [])
PARABOLA = ring_of(PrimeSquareRing(3), ("x", "y"), ["y^2 - 3*x"])
ZP2X = ring_of(PrimeSquareRing(2), ("x",), [])


# ---------------------------------------------------------------------------
# points

def test_point_validation():
    PointSpec.of(CUSP, (0, 0))
    PointSpec.of(CUSP, (1, 1))
    with pytest.raises(OffSchemeError):
        PointSpec.of(CUSP, (1, 2))
    with pytest.raises(PresentationError):
        PointSpec.of(CUSP, (1,))
    # extension coordinates are fine when they satisfy the equations
    F25 = GaloisField(5, 2)
    t = F25.generator()
    PointSpec.of(CUSP, (t**2, t**3))


def test_rational_points_of_cusp():
    pts = rational_points(CUSP)
    coords = {tuple(c.value for c in p.coordinates) for p in pts}
    assert coords == {(0, 0), (1, 1), (1, 4), (4, 2), (4, 3)}
    # the cusp is the bijective image of t -> (t^2, t^3), so |F_25| points
    assert len(rational_points(CUSP, GaloisField(5, 2))) == 25


def test_rational_points_zp2_base_uses_carrier():
    pts = rational_points(PARABOLA)
    coords = {tuple(c.value for c in p.coordinates) for p in pts}
    # carrier relation is y^2: y = 0, x free
    assert coords == {(0, 0), (1, 0), (2, 0)}


def test_rational_points_refuse_enumerations_past_the_bound(monkeypatch):
    """Four variables over F_81 are 43 million candidates, which ran past
    20 s; the refusal comes before the first.  The cusp's 25 candidates
    over F_5 fit a bound of 25 and are refused at 24."""
    space = ring_of(GaloisField(3, 4), ("x", "y", "z", "w"), [])
    with pytest.raises(SizeRefusalError, match="43046721 candidates"):
        rational_points(space)
    monkeypatch.setattr(modarith, "PRODUCT_BOUND", 25)
    assert len(rational_points(CUSP)) == 5
    monkeypatch.setattr(modarith, "PRODUCT_BOUND", 24)
    with pytest.raises(SizeRefusalError):
        rational_points(CUSP)


@pytest.mark.parametrize("path", RING_FILES, ids=os.path.basename)
def test_rational_points_match_evaluate_route(path):
    with open(path, encoding="utf-8") as fh:
        pres = parse_ring(fh.read())
    for fld in (PrimeField(pres.p), GaloisField(pres.p, 2)):
        if isinstance(pres.residue_field, GaloisField) \
                and isinstance(fld, PrimeField):
            # F_p holds no F_q coefficient: both routes refuse alike
            with pytest.raises(PresentationError):
                rational_points_by_evaluate(pres, fld)
            with pytest.raises(PresentationError):
                rational_points(pres, fld)
            continue
        assert rational_points(pres, fld) == \
            rational_points_by_evaluate(pres, fld), fld.tag()


# ---------------------------------------------------------------------------
# work done once: per ring, per point

def _count_calls(monkeypatch, module, name):
    real = getattr(module, name)
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


def test_repeated_verdicts_reuse_one_presentation(monkeypatch):
    pres = ring_of(PrimeField(5), ("x", "y"), ["y^2 - x^3"])
    calls = _count_calls(monkeypatch, fwcore, "present_fw")
    verdicts = [regularity(pres, x).verdict for x in rational_points(pres)]
    assert verdicts == ["NotRegular"] + ["Regular"] * 4
    assert len(calls) == 1
    assert pres.fw is pres.fw
    assert pres.carrier_basis() is pres.fw.ring.carrier_basis()


def test_kept_presentation_leaves_equality_alone():
    pres = ring_of(PrimeField(5), ("x", "y"), ["y^2 - x^3"])
    twin = ring_of(PrimeField(5), ("x", "y"), ["y^2 - x^3"])
    pres.fw  # kept on pres, not on twin
    assert pres == twin and hash(pres) == hash(twin)
    assert "fw" not in vars(twin)
    node = dataclasses.replace(pres, relations=NODE.relations)
    assert node == NODE and node.fw.columns == present_fw(NODE).columns
    assert node.fw.columns != pres.fw.columns


def test_prime_verdict_computes_the_carrier_basis_once(monkeypatch):
    pres = ring_of(PrimeField(5), ("x", "y", "z"), ["x*z", "y*z"])
    P = PrimeSpec(pres, (_cpoly(pres, "x"), _cpoly(pres, "y")))
    calls = _count_calls(monkeypatch, fwcore, "groebner")
    regularity(pres, P)
    assert len(calls) == 1


def test_point_verdict_evaluates_the_matrix_once(monkeypatch):
    pres = ring_of(PrimeField(5), ("x", "y"), ["y^2 - x^3"])
    x = PointSpec.of(pres, (1, 1))
    calls = _count_calls(monkeypatch, localalg, "_point_matrix")
    v = regularity(pres, x)
    assert len(calls) == 1
    assert v.fiber_dim == fiber_dim(pres.fw, x) == 1
    assert v.certificate["evaluated_matrix"] == [["2"], ["2"]]


def test_prime_verdict_reduces_each_entry_once(monkeypatch):
    pres = ring_of(PrimeField(5), ("x", "y", "z"), ["x*z", "y*z"])
    P = PrimeSpec(pres, (_cpoly(pres, "x"), _cpoly(pres, "y")))
    pres.fw  # the presentation is built before counting
    calls = _count_calls(monkeypatch, mpoly, "normal_form")
    v = regularity(pres, P)
    assert len(calls) == 6  # a 3 x 2 matrix; 12 when the rank reduced again
    assert v.fiber_dim == fiber_dim(pres.fw, P) == 1
    assert v.certificate["reduced_matrix"] == [["z^5", "0"], ["0", "z^5"],
                                               ["0", "0"]]
    assert v.certificate["rank"] == 2


def test_enumerated_points_are_checked_once(monkeypatch):
    """rational_points has tested every relation at the points it keeps,
    so it does not run PointSpec's checks again; the public constructor
    still runs them."""
    calls = []
    real = PointSpec.__post_init__
    monkeypatch.setattr(PointSpec, "__post_init__",
                        lambda self: calls.append(self) or real(self))
    points = rational_points(CUSP)
    assert len(points) == 5 and not calls
    assert [PointSpec(CUSP, x.coordinates) for x in points] == points
    assert len(calls) == 5
    with pytest.raises(OffSchemeError):
        PointSpec.of(CUSP, (1, 2))
    assert not hasattr(points[0], "__dict__")  # slots: no per-point dict


# ---------------------------------------------------------------------------
# frozen fibers and verdicts

def test_cusp_regularity_frozen():
    fw = present_fw(CUSP)
    origin = PointSpec.of(CUSP, (0, 0))
    smooth = PointSpec.of(CUSP, (1, 1))
    assert fiber_dim(fw, origin) == 2
    assert fiber_dim(fw, smooth) == 1
    v0 = regularity(CUSP, origin)
    v1 = regularity(CUSP, smooth)
    assert (v0.verdict, v0.fiber_dim, v0.d, v0.r) == ("NotRegular", 2, 1, 0)
    assert (v1.verdict, v1.fiber_dim, v1.d, v1.r) == ("Regular", 1, 1, 0)
    assert v0.flatness_mode == "charP"


def test_node_regularity_frozen():
    origin = PointSpec.of(NODE, (0, 0))
    assert regularity(NODE, origin).verdict == "NotRegular"
    for a in range(1, 5):
        v = regularity(NODE, PointSpec.of(NODE, (a, 0)))
        assert v.verdict == "Regular" and v.fiber_dim == 1


def test_plane_curve_sweep_vs_jacobian_oracle():
    """Verdicts at every rational point match the smoothness Jacobian."""
    curves = [CUSP, NODE,
              ring_of(PrimeField(5), ("x", "y"), ["y^2 - x^3 - x^2"]),
              ring_of(PrimeField(3), ("x", "y"), ["y^2 - x^3 + x"])]
    fields = {5: [PrimeField(5), GaloisField(5, 2)],
              3: [PrimeField(3), GaloisField(3, 2)]}
    for pres in curves:
        f = pres.relations_mod_p()[0]
        for fld in fields[pres.p]:
            for x in rational_points(pres, fld):
                grad = [derivative(f, j).evaluate(x.coordinates, fld)
                        for j in range(2)]
                smooth = any(not g.is_zero() for g in grad)
                v = regularity(pres, x)
                assert v.verdict == ("Regular" if smooth else "NotRegular"), \
                    f"{pres.describe()} at {x.describe()}"


@st.composite
def hypersurfaces(draw):
    """base[x_1..x_n]/(f): base F_2, F_3, F_5 or F_4, n = 1-3, f of degree
    1-3 with one to four terms and nonzero coefficients."""
    k = draw(st.sampled_from([PrimeField(2), PrimeField(3), PrimeField(5),
                              GaloisField(2, 2)]))
    n, d = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    units = [c for c in k.elements() if not c.is_zero()]

    def mono(degree):
        idx = draw(st.lists(st.integers(0, n - 1), min_size=degree,
                            max_size=degree))
        return tuple(idx.count(j) for j in range(n))

    terms = {mono(d): draw(st.sampled_from(units))}
    for _ in range(draw(st.integers(0, 3))):
        terms.setdefault(mono(draw(st.integers(0, d))),
                         draw(st.sampled_from(units)))
    ring = PolyRing(k, ("x", "y", "z")[:n])
    return RingPresentation(k, ring.variables, (ring.poly(terms),))


@settings(max_examples=600, deadline=None, derandomize=True)
@given(hypersurfaces())
def test_hypersurface_verdicts_match_the_jacobian_criterion(pres):
    """At every rational point of a generated hypersurface over its base
    field the verdict is Regular exactly when the gradient is nonzero."""
    for x in rational_points(pres):
        assert regularity(pres, x).verdict == jacobian_verdict(pres, x), \
            f"{pres.describe()} at {x.describe()}"


def test_parabola_over_zp2_frozen():
    origin = PointSpec.of(PARABOLA, (0, 0))
    other = PointSpec.of(PARABOLA, (1, 0))
    fw = present_fw(PARABOLA)
    assert fiber_dim(fw, origin) == 3
    assert fiber_dim(fw, other) == 2
    v0 = regularity(PARABOLA, origin, flat=True)
    v1 = regularity(PARABOLA, other, flat=True)
    assert (v0.verdict, v0.fiber_dim, v0.d) == ("NotRegular", 3, 2)
    assert (v1.verdict, v1.fiber_dim, v1.d) == ("Regular", 2, 2)
    assert v1.flatness_mode == "flatness-asserted"


def test_zp2_without_flat_is_unknown():
    x = PointSpec.of(ZP2X, (0,))
    v = regularity(ZP2X, x)
    assert v.verdict == "Unknown" and v.d is None
    assert "flat" in v.explanation
    assert regularity(ZP2X, x, flat=True).d == 2


# ---------------------------------------------------------------------------
# primes

def test_prime_route_matches_point_route_on_cusp():
    for pt in rational_points(CUSP):
        a, b = pt.coordinates
        P = PrimeSpec(CUSP, (_cpoly(CUSP, "x") - a, _cpoly(CUSP, "y") - b))
        assert residue_p_rank(CUSP, P) == 0
        vp = regularity(CUSP, P)
        vx = regularity(CUSP, pt)
        assert vp.verdict == vx.verdict
        assert vp.fiber_dim == vx.fiber_dim
        assert (vp.d, vp.r) == (vx.d, vx.r)


def test_generic_point_of_cusp_is_regular():
    P = PrimeSpec(CUSP, ())
    assert residue_p_rank(CUSP, P) == 1
    v = regularity(CUSP, P)
    assert (v.verdict, v.fiber_dim, v.d, v.r) == ("Regular", 1, 0, 1)


def test_curve_in_plane_prime_frozen():
    """The height-one prime (y) of F_5[x,y]: d = 1, r = 1, fiber 2."""
    plane = ring_of(PrimeField(5), ("x", "y"), [])
    P = PrimeSpec(plane, (_cpoly(plane, "y"),))
    assert residue_p_rank(plane, P) == 1
    v = regularity(plane, P)
    assert (v.verdict, v.fiber_dim, v.d, v.r) == ("Regular", 2, 1, 1)


def test_prime_validation_errors():
    plane = ring_of(PrimeField(5), ("x", "y"), [])
    # proven non-prime: the nonlinear part factors
    with pytest.raises(PresentationError):
        PrimeSpec(plane, (_cpoly(plane, "x*y"),))
    # (y) on the cusp is not prime either: x^3 survives in the quotient
    with pytest.raises(PresentationError):
        PrimeSpec(CUSP, (_cpoly(CUSP, "y"),))
    # empty locus
    with pytest.raises(PresentationError):
        PrimeSpec(plane, (_cpoly(plane, "x"), _cpoly(plane, "x - 1")))
    # degree 4: outside the decidable class without the assertion
    quartic = _cpoly(plane, "x^4 + y^4 + 1")
    with pytest.raises(UnsupportedClassError):
        PrimeSpec(plane, (quartic,))
    PrimeSpec(plane, (quartic,), assert_prime=True)  # caller's responsibility


def test_asserted_prime_caught_by_zero_divisor():
    """An asserted 'prime' that is secretly a product is detected the
    moment elimination multiplies the two factors."""
    pres = ring_of(PrimeField(5), ("x", "y"),
                 ["x^2*y^2 + 2*x^2 + 2*y^2 + 4"])  # (x^2+2)(y^2+2)
    P = PrimeSpec(pres, (), assert_prime=True)
    with pytest.raises(ZeroDivisorError):
        fiber_dim(present_fw(pres), P)


def test_prime_needs_carrier_polynomials():
    with pytest.raises(PresentationError):
        PrimeSpec(CUSP, (CUSP.poly_ring.gen(0),))  # wrong coefficient ring


# ---------------------------------------------------------------------------
# local dimension soundness

def test_equidimensionality_certificates():
    plane = ring_of(PrimeField(5), ("x", "y"), [])
    assert _ambient_equidimensional(plane)
    assert _ambient_equidimensional(CUSP)  # hypersurface
    ci = ring_of(PrimeField(5), ("x", "y", "z"), ["x^2 - z", "y^2 - z"])
    assert _ambient_equidimensional(ci)  # 2 relations, codim 2
    mixed = ring_of(PrimeField(5), ("x", "y", "z"), ["x*z", "y*z"])
    assert not _ambient_equidimensional(mixed)  # plane union line


def test_mixed_dimension_prime_is_conservative():
    """At P = (x, y) of F_5[x,y,z]/(xz, yz) the bound d = 1 with r = 1
    exceeds the fiber (1), and the carrier is not certified
    equidimensional, so the verdict stays Unknown rather than guessing."""
    mixed = ring_of(PrimeField(5), ("x", "y", "z"), ["x*z", "y*z"])
    P = PrimeSpec(mixed, (_cpoly(mixed, "x"), _cpoly(mixed, "y")))
    v = regularity(mixed, P)
    assert v.fiber_dim == 1 and (v.d, v.r) == (1, 1)
    assert v.verdict == "Unknown"
    assert "below" in v.explanation


def test_fiber_matching_an_upper_bound_on_d_stays_unknown():
    """At P = (z) of F_3[x,y,z]/(xz, yz), the generic point of the plane,
    the fiber 2 equals d + r = 0 + 2, but the carrier is not certified
    equidimensional, so d is only an upper bound and the match proves
    nothing: Unknown, not Regular."""
    mixed = ring_of(PrimeField(3), ("x", "y", "z"), ["x*z", "y*z"])
    v = regularity(mixed, PrimeSpec(mixed, (_cpoly(mixed, "z"),)))
    assert (v.verdict, v.fiber_dim, v.d, v.r) == ("Unknown", 2, 0, 2)
    assert v.explanation.startswith(
        "fiber matches d + r, but d is only an upper bound here: ")


def test_nonequidimensional_trap_is_not_misjudged():
    """Cusp curve (singular at (1,1,0,0)) glued to a disjoint plane of
    larger dimension.  The naive bound dim A - dim A/P = 2 would match
    the fiber and return Regular; the tangent cone at the rational point
    gives the true local dimension 1 and the verdict NotRegular."""
    base = PrimeField(5)
    pres = ring_of(base, ("x", "y", "u", "v"), [
        "(y-1)^2*x - (x-1)^3*x",
        "(y-1)^2*y - (x-1)^3*y",
        "u*x", "u*y", "v*x", "v*y",
    ])
    gens = tuple(_cpoly(pres, s) for s in ("x - 1", "y - 1", "u", "v"))
    P = PrimeSpec(pres, gens)
    v = regularity(pres, P)
    assert (v.verdict, v.fiber_dim, v.d, v.r) == ("NotRegular", 2, 1, 0)
    # the same answer through the point route
    x = PointSpec.of(pres, (1, 1, 0, 0))
    vx = regularity(pres, x)
    assert (vx.verdict, vx.fiber_dim, vx.d) == ("NotRegular", 2, 1)


def test_carrier_local_dim_tangent_cone():
    def d(pres, coords):
        return regularity(pres, PointSpec.of(pres, coords)).d

    assert d(CUSP, (0, 0)) == 1
    assert d(CUSP, (1, 1)) == 1
    mixed = ring_of(PrimeField(5), ("x", "y", "z"), ["x*z", "y*z"])
    # origin lies on both components: local dimension is the larger one
    assert d(mixed, (0, 0, 0)) == 2
    # a point on the line only
    assert d(mixed, (0, 0, 1)) == 1
    # a point inside the plane only
    assert d(mixed, (1, 1, 0)) == 2


# ---------------------------------------------------------------------------
# cotangent spaces and the point-level consistency check

def test_cotangent_dims_frozen():
    assert cotangent_dim(CUSP, PointSpec.of(CUSP, (0, 0))) == 2
    assert cotangent_dim(CUSP, PointSpec.of(CUSP, (1, 1))) == 1
    assert cotangent_dim(ZP2X, PointSpec.of(ZP2X, (0,))) == 2
    assert cotangent_dim(PARABOLA, PointSpec.of(PARABOLA, (0, 0))) == 3
    assert cotangent_dim(PARABOLA, PointSpec.of(PARABOLA, (1, 0))) == 2


def test_prdx_consistency_sweeps():
    cases = [
        (LINE, [PrimeField(5), GaloisField(5, 2)]),
        (CUSP, [PrimeField(5), GaloisField(5, 2)]),
        (NODE, [PrimeField(5)]),
        (ZP2X, [PrimeField(2), GaloisField(2, 2)]),
        (PARABOLA, [PrimeField(3), GaloisField(3, 2)]),
    ]
    for pres, flds in cases:
        for fld in flds:
            pts = rational_points(pres, fld)
            assert pts
            for x in pts:
                rep = check_prdx(pres, x)
                assert rep["consistent"], (pres.describe(), rep)
                assert rep["fiber_dim"] == rep["cotangent_dim"]


# ---------------------------------------------------------------------------
# split sequences

def test_split_sequence_plane_modulo_line():
    plane = ring_of(PrimeField(5), ("x", "y"), [])
    yrel = plane.poly_ring.gen(1)
    for a in range(5):
        rep = check_split_sequence(plane, (yrel,), PointSpec.of(plane, (a, 0)))
        assert rep["hypothesis_ok"] and rep["consistent"]
        assert (rep["fiber_A"], rep["s_prime"], rep["fiber_B"]) == (2, 1, 1)


def test_split_sequence_zp2_flat():
    free = ring_of(PrimeSquareRing(3), ("x", "y"), [])
    yrel = free.poly_ring.gen(1)
    rep = check_split_sequence(free, (yrel,), PointSpec.of(free, (1, 0)),
                               flat=True)
    assert rep["hypothesis_ok"] and rep["consistent"]
    assert (rep["fiber_A"], rep["s_prime"], rep["fiber_B"]) == (3, 1, 2)


def test_split_sequence_reports_failed_hypothesis():
    plane = ring_of(PrimeField(5), ("x", "y"), [])
    cusprel = parse_poly("y^2 - x^3", plane.poly_ring,
                         dict(zip(plane.variables, plane.poly_ring.gens())))
    rep = check_split_sequence(plane, (cusprel,), PointSpec.of(plane, (0, 0)))
    assert not rep["hypothesis_ok"]
    assert rep["regular_B"] == "NotRegular"
