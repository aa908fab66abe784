"""Sparse multivariate polynomials, Groebner machinery, Witt carries.

The Groebner results are cross-checked against sympy's implementation and
the dimension function against a Hilbert-growth counting oracle, so the
in-package Buchberger code never certifies itself.
"""

import glob
import itertools
import os
import random

import pytest
import sympy
from hypothesis import given, settings, strategies as st

from fwdiff import modarith, mpoly
from fwdiff.errors import PresentationError, SizeRefusalError
from fwdiff.fwcore import column_of, w_poly
from fwdiff.modarith import (
    PRODUCT_BOUND,
    GaloisField,
    PrimeField,
    PrimeSquareRing,
    embed,
    reduce_mod_p,
)
from fwdiff.mpoly import (
    PolyRing,
    frobenius_twist,
    groebner,
    homogenize,
    krull_dim,
    mono_div,
    mono_lcm,
    mono_mul,
    normal_form,
    staircase_dim,
    standard_monomials,
    witt_P_pair,
    witt_Q,
)
from fwdiff.ringfile import parse_ring
from routes import (
    TUPLE_KEYS,
    derivative,
    divide,
    frobenius_twist_by_terms,
    groebner_by_tuples,
    groebner_extended,
    ideal_contains,
    normal_form_by_tuples,
    random_poly,
    random_scalar,
    spoly,
    staircase_dim_by_subsets,
    w_poly_by_polys,
    witt_P_pair_by_powers,
    witt_P_scalars,
    witt_Q_multinomial,
    witt_R,
)


def _random_poly(rng, ring, max_terms=4, max_exp=2):
    k = ring.coeff
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        m = tuple(rng.randint(0, max_exp) for _ in range(ring.nvars))
        terms[m] = k.of_int(rng.randint(0, k.modulus - 1))
    return ring.poly(terms)


# ---------------------------------------------------------------------------
# monomials and ring arithmetic

def test_mono_helpers():
    assert mono_mul((1, 2), (3, 0)) == (4, 2)
    assert mono_div((4, 2), (1, 2)) == (3, 0)
    assert mono_div((1, 2), (2, 0)) is None
    assert mono_lcm((1, 2), (2, 0)) == (2, 2)


_coeffs = st.integers(min_value=0, max_value=4)
_monos = st.tuples(st.integers(0, 3), st.integers(0, 3))
_polys = st.dictionaries(_monos, _coeffs, max_size=4)


def _mk(d):
    ring = PolyRing(PrimeField(5), ("x", "y"))
    return ring.poly({m: ring.coeff.of_int(c) for m, c in d.items()})


@settings(max_examples=60)
@given(_polys, _polys, _polys)
def test_ring_axioms(df, dg, dh):
    f, g, h = _mk(df), _mk(dg), _mk(dh)
    assert (f + g) + h == f + (g + h)
    assert f + g == g + f
    assert f * g == g * f
    assert (f * g) * h == f * (g * h)
    assert f * (g + h) == f * g + f * h
    assert f - f == f.ring.zero()
    assert f * f.ring.one() == f


@settings(max_examples=30)
@given(_polys, _polys)
def test_pow_matches_repeated_mul(df, dg):
    f = _mk(df)
    assert f**3 == f * f * f
    assert f**0 == f.ring.one()


def test_lead_monomial_grevlex():
    ring = PolyRing(PrimeField(5), ("x", "y"))
    x, y = ring.gens()
    assert (x + y**2).lead_monomial() == (0, 2)  # degree dominates
    assert (x**2 + x * y).lead_monomial() == (2, 0)
    assert (x * y**2 + x**2 * y).lead_monomial() == (2, 1)


def test_derivative_and_evaluate():
    R = PrimeSquareRing(3)
    ring = PolyRing(R, ("x", "y"))
    x, y = ring.gens()
    f = x**3 * y + 2 * x * y**2
    assert derivative(f, 0) == 3 * x**2 * y + 2 * y**2
    assert derivative(f, 1) == x**3 + 4 * x * y
    v = f.evaluate((R.of_int(2), R.of_int(5)))
    assert v == R.of_int(2**3 * 5 + 2 * 2 * 5**2)


def test_shift_agrees_with_evaluation():
    k = PrimeField(5)
    ring = PolyRing(k, ("x", "y"))
    rng = random.Random(11)
    for _ in range(10):
        f = _random_poly(rng, ring)
        c = (k.of_int(rng.randrange(5)), k.of_int(rng.randrange(5)))
        g = f.shift(c)
        for a in k.elements():
            for b in k.elements():
                assert g.evaluate((a, b)) == f.evaluate((a + c[0], b + c[1]))


# ---------------------------------------------------------------------------
# division and Groebner bases

def test_divide_is_exact_and_reduced():
    """The reference division recomposes f and leaves a reduced remainder,
    and normal_form, the library's one division, leaves the same one."""
    rng = random.Random(7)
    ring = PolyRing(PrimeField(5), ("x", "y", "z"))
    for _ in range(25):
        f = _random_poly(rng, ring, max_terms=5, max_exp=3)
        basis = [_random_poly(rng, ring, max_terms=3, max_exp=2) for _ in range(2)]
        basis = [b for b in basis if not b.is_zero()]
        if not basis:
            continue
        quots, rem = divide(f, basis)
        recomposed = rem
        for q, b in zip(quots, basis):
            recomposed = recomposed + q * b
        assert recomposed == f
        for m in rem.terms:
            assert all(mono_div(m, b.lead_monomial()) is None for b in basis)
        assert normal_form(f, basis) == rem


def _to_sympy(f, syms):
    expr = sympy.Integer(0)
    for m, c in f.terms.items():
        t = sympy.Integer(c.value)
        for s, e in zip(syms, m):
            t *= s**e
        expr += t
    return expr


def _sympy_gb_dicts(polys, syms, p):
    gb = sympy.groebner([_to_sympy(f, syms) for f in polys], *syms,
                        modulus=p, order="grevlex")
    out = set()
    for g in gb.polys:
        d = frozenset((m, int(c) % p) for m, c in g.terms())
        out.add(d)
    return out


def _our_gb_dicts(gb):
    return {frozenset((m, c.value) for m, c in g.terms.items()) for g in gb.polys}


@pytest.mark.parametrize("p", [2, 3, 5])
def test_groebner_matches_sympy(p):
    """Reduced bases agree with an independent implementation."""
    rng = random.Random(100 + p)
    syms = sympy.symbols("x y z")
    ring = PolyRing(PrimeField(p), ("x", "y", "z"))
    done = 0
    while done < 12:
        gens = [_random_poly(rng, ring, max_terms=3, max_exp=2)
                for _ in range(rng.randint(1, 3))]
        gens = [g for g in gens if not g.is_zero()]
        if not gens:
            continue
        ours = groebner(gens, ring=ring)
        assert ours.torsion == ()
        # Buchberger's criterion: every S-polynomial reduces to zero
        for f, g in itertools.combinations(ours.polys, 2):
            assert normal_form(spoly(f, g), ours).is_zero()
        theirs = _sympy_gb_dicts(gens, syms, p)
        if ours.is_trivial():
            assert theirs == {frozenset({((0, 0, 0), 1)})}
        else:
            assert _our_gb_dicts(ours) == theirs
        done += 1


@pytest.mark.parametrize("R", [PrimeSquareRing(3), PrimeSquareRing(2)])
def test_groebner_over_p2_coefficients(R):
    """Over Z/p^2 the images mod p of the basis are the reduced basis of
    the images of the inputs, and an input in p lands, divided by p, in
    the torsion."""
    rng = random.Random(R.tag())
    k = R.residue_field()
    ring = PolyRing(R, ("x", "y"))
    x, y = ring.gens()
    for _ in range(15):
        gens = [random_poly(rng, ring, max_terms=3, max_degree=2)
                for _ in range(rng.randint(1, 3))]
        gb = groebner(gens, ring=ring)
        images = groebner([g.map_coeffs(k, reduce_mod_p) for g in gens],
                          ring=ring.with_coeff(k))
        assert tuple(f.map_coeffs(k, reduce_mod_p) for f in gb.polys) \
            == images.polys
    gb = groebner([x**2, x * y * R.p + y * R.p], ring=ring)
    assert [str(f) for f in gb.polys] == ["x^2"]
    kx, ky = ring.with_coeff(k).gens()
    assert gb.torsion == (kx * ky + ky,)


KERNEL_RINGS = [PrimeField(2), PrimeField(3), GaloisField(2, 2),
                GaloisField(3, 2), PrimeSquareRing(2), PrimeSquareRing(3)]


@st.composite
def systems(draw, rings=KERNEL_RINGS, orders=("grevlex", "homoglocal")):
    """(ring, generators): 1-3 polynomials of 1-4 terms of degree at most
    3 in 1-4 variables, over one of rings, in one of orders."""
    R = draw(st.sampled_from(rings))
    n = draw(st.integers(1, 4))
    ring = PolyRing(R, tuple(f"x{i}" for i in range(n)),
                    draw(st.sampled_from(orders)))
    elements = list(R.elements())
    monos = st.lists(st.integers(0, n - 1), max_size=3).map(
        lambda vs: tuple(vs.count(i) for i in range(n)))
    term = st.tuples(monos, st.sampled_from(elements))
    gens = draw(st.lists(st.lists(term, min_size=1, max_size=4),
                         min_size=1, max_size=3))
    return ring, [ring.poly(dict(g)) for g in gens]


def _listed(polys):
    return [list((m, c.value) for m, c in f.terms.items()) for f in polys]


@settings(max_examples=300, deadline=None, derandomize=True)
@given(systems())
def test_the_packed_kernel_matches_the_tuple_route(system):
    """groebner and normal_form on packed monomials and raw values give
    the reference route's reduced basis and torsion, term for term and in
    the same term order, over fields and over Z/p^2, in both orders."""
    ring, gens = system
    ours, theirs = groebner(gens, ring=ring), groebner_by_tuples(gens, ring)
    assert _listed(ours.polys) == _listed(theirs.polys)
    assert _listed(ours.torsion) == _listed(theirs.torsion)
    f = sum(gens[1:], gens[0] * gens[0])
    divisors = list(theirs.polys)
    assert _listed([normal_form(f, ours)]) == \
        _listed([normal_form_by_tuples(f, divisors)])
    assert _listed([normal_form(f, divisors[::-1])]) == \
        _listed([normal_form_by_tuples(f, divisors[::-1])])


@settings(max_examples=60, deadline=None, derandomize=True)
@given(systems(rings=[PrimeField(2), PrimeField(3)], orders=("grevlex",)))
def test_the_packed_kernel_matches_sympy_over_prime_fields(system):
    """The kernel's grevlex bases over F_2 and F_3 are sympy's."""
    ring, gens = system
    gens = [g for g in gens if not g.is_zero()]
    if not gens:
        return
    ours = groebner(gens, ring=ring)
    syms = sympy.symbols(ring.variables)
    theirs = _sympy_gb_dicts(gens, syms, ring.coeff.p)
    assert _our_gb_dicts(ours) == theirs


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.integers(0, 6).flatmap(lambda n: st.tuples(
    st.sampled_from(("grevlex", "homoglocal")),
    *[st.lists(st.integers(0, 3) | st.integers(0, 300) | st.integers(0, 2**40),
               min_size=n, max_size=n).map(tuple) for _ in range(2)])))
def test_the_packing_orders_multiplies_and_divides_as_the_tuples(drawn):
    """At a width that holds a, b and a*b: the pack is injective and
    unpacks back, int order is the tuple key's order (and so is ring.key
    across widths), a product adds packs less the offset, and the guard
    bits of a difference say whether b divides a, the quotient's pack
    being the difference plus the offset."""
    order, a, b = drawn
    ring = PolyRing(PrimeField(2), tuple(f"x{i}" for i in range(len(a))),
                    order)
    key = TUPLE_KEYS[order]
    ab = mono_mul(a, b)
    P = ring.packing(sum(ab))
    pa, pb = P.pack(a), P.pack(b)
    assert P.unpack(pa) == a and P.unpack(pb) == b
    assert (pa == pb) == (a == b)
    assert (pa < pb) == (key(a) < key(b))
    assert (ring.key(a) < ring.key(b)) == (key(a) < key(b))
    assert P.pack(ab) == pa + pb - P.offset
    divides = all(x >= y for x, y in zip(a, b))
    assert (not (pa - pb) & P.guards) == divides
    if divides:
        assert pa - pb + P.offset == P.pack(mono_div(a, b))


def test_a_slot_overflow_widens_the_packing_and_refuses_nothing():
    """Exponents past a slot get a wider packing, and the reference's
    answers: an input of degree 2^40; an S-polynomial whose y^300 passes
    the first width; over Z/9 one whose term in p, y^256, passes it
    though its lcm does not; and a division of a dividend above the width
    a basis has packed its leads at."""
    ring = PolyRing(PrimeField(2), ("x", "y"))
    x, y = ring.gens()
    zring = PolyRing(PrimeSquareRing(3), ("x", "y"))
    zx, zy = zring.gens()
    for gens in ([x**(2**40) + y, y**2 + 1], [x**200 + y**200, x * y**100 + 1],
                 [zx**2 + 3 * zy**254, zx * zy + 1]):
        ours, theirs = groebner(gens), groebner_by_tuples(gens)
        assert _listed(ours.polys) == _listed(theirs.polys)
        assert _listed(ours.torsion) == _listed(theirs.torsion)
    gb = groebner([zx**2 + 3 * zy**3, zy**2 - zx])
    for f in (zx + 1, zx**300 * zy + zx):
        assert _listed([gb.normal_form(f)]) == \
            _listed([normal_form_by_tuples(f, list(gb.polys))])
    assert gb._leads.packing.top >= 301


def test_groebner_known_example():
    # the cusp plus its tangent line section
    ring = PolyRing(PrimeField(5), ("x", "y"))
    x, y = ring.gens()
    gb = groebner([y**2 - x**3, y])
    assert _our_gb_dicts(gb) == {frozenset({((0, 1), 1)}),
                                 frozenset({((3, 0), 1)})}


def test_normal_form_properties():
    ring = PolyRing(PrimeField(3), ("x", "y"))
    x, y = ring.gens()
    gb = groebner([x**2 - y, y**2 - x])
    rng = random.Random(3)
    for _ in range(15):
        f = _random_poly(rng, ring, max_terms=4, max_exp=3)
        g = _random_poly(rng, ring, max_terms=4, max_exp=3)
        nf = gb.normal_form
        assert nf(nf(f)) == nf(f)
        assert nf(f + g) == nf(f) + nf(g)
        assert nf(f - nf(f)).is_zero()
        assert ideal_contains(gb, f * (x**2 - y))


def test_groebner_extended_representations():
    rng = random.Random(42)
    ring = PolyRing(PrimeField(5), ("x", "y"))
    for _ in range(10):
        gens = [_random_poly(rng, ring, max_terms=3, max_exp=2)
                for _ in range(rng.randint(1, 3))]
        if all(g.is_zero() for g in gens):
            continue
        basis, reps, syzygies = groebner_extended(gens)
        for b, rep in zip(basis, reps):
            acc = ring.zero()
            for r, g in zip(rep, gens):
                acc = acc + r * g
            assert acc == b
        for syz in syzygies:
            acc = ring.zero()
            for s, g in zip(syz, gens):
                acc = acc + s * g
            assert acc.is_zero()


# ---------------------------------------------------------------------------
# dimension

def _growth_dim(gb, smax=12):
    """Independent Krull dimension: degree of the Hilbert growth of the
    staircase, read off from iterated finite differences."""
    n = gb.ring.nvars
    leads = gb.lead_monomials()

    def count(s):
        c = 0
        for m in itertools.product(range(s + 1), repeat=n):
            if sum(m) > s:
                continue
            if any(mono_div(m, l) is not None for l in leads):
                continue
            c += 1
        return c

    seq = [count(s) for s in range(smax + 1)]
    for k in range(n + 2):
        if all(v == 0 for v in seq[-3:]):
            return k - 1
        seq = [b - a for a, b in zip(seq, seq[1:])]
    return n


@pytest.mark.parametrize("rels,expected", [
    ([], 2),
    (["x", "y"], 0),
    (["x*y"], 1),
    (["y^2-x^3"], 1),
])
def test_krull_dim_frozen_2vars(rels, expected):
    from fwdiff.ringfile import parse_poly
    ring = PolyRing(PrimeField(5), ("x", "y"))
    names = dict(zip(ring.variables, ring.gens()))
    gens = [parse_poly(r, ring, names) for r in rels]
    gb = groebner(gens, ring=ring)
    assert krull_dim(gb) == expected
    assert _growth_dim(gb) == expected


def test_krull_dim_coordinate_cross():
    ring = PolyRing(PrimeField(3), ("x", "y", "z"))
    x, y, z = ring.gens()
    gb = groebner([x * z, y * z])  # plane union line: dimension 2
    assert krull_dim(gb) == 2
    assert _growth_dim(gb) == 2
    gb2 = groebner([x * y, y * z, x * z])  # three axes
    assert krull_dim(gb2) == 1
    assert _growth_dim(gb2) == 1


def test_krull_dim_random_vs_growth():
    rng = random.Random(17)
    ring = PolyRing(PrimeField(3), ("x", "y", "z"))
    done = 0
    while done < 10:
        gens = [_random_poly(rng, ring, max_terms=3, max_exp=2)
                for _ in range(rng.randint(1, 3))]
        gens = [g for g in gens if not g.is_zero()]
        if not gens:
            continue
        gb = groebner(gens, ring=ring)
        assert krull_dim(gb) == _growth_dim(gb)
        done += 1


@st.composite
def _ideals(draw):
    base = draw(st.sampled_from([PrimeField(2), PrimeField(3),
                                 PrimeSquareRing(2), PrimeSquareRing(3)]))
    ring = PolyRing(base, tuple(f"x{i}" for i in range(draw(
        st.integers(0, 4)))))
    monomial = st.tuples(*[st.integers(0, 2)] * ring.nvars)
    term = st.tuples(monomial, st.integers(1, base.modulus - 1))
    gens = draw(st.lists(st.lists(term, min_size=1, max_size=2),
                         min_size=1, max_size=3))
    # pure powers of some variables, so that finite quotients are common
    if ring.nvars:
        for i in draw(st.sets(st.integers(0, ring.nvars - 1))):
            e = draw(st.integers(1, 3))
            gens.append([(tuple(e * (j == i) for j in range(ring.nvars)), 1)])
    return ring, [ring.poly(dict(terms)) for terms in gens]


@settings(max_examples=500, deadline=None, derandomize=True)
@given(_ideals())
def test_finiteness_by_pure_powers_matches_krull_dim(ideal):
    """A nontrivial basis is finite exactly when its Krull dimension is 0;
    the unit ideal's quotient, 0, is finite."""
    ring, gens = ideal
    gb = groebner(gens, ring=ring)
    want = gb.is_trivial() or krull_dim(gb) == 0
    assert gb.is_finite() == want


def test_staircase_edges():
    assert staircase_dim([], 3) == 3
    assert staircase_dim([(0, 0)], 2) == -1  # unit ideal
    assert staircase_dim([(1, 0), (0, 1)], 2) == 0


@st.composite
def _staircases(draw):
    nvars = draw(st.integers(0, 9))
    monomial = st.tuples(*[st.sampled_from((0, 0, 1, 2))] * nvars)
    return draw(st.lists(monomial, max_size=10)), nvars


@settings(max_examples=500, deadline=None, derandomize=True)
@given(_staircases())
def test_staircase_dim_matches_the_subset_search(staircase):
    """The least set of variables meeting every support gives the largest
    subset that holds none, as the search over all subsets finds it."""
    leads, nvars = staircase
    assert staircase_dim(leads, nvars) == staircase_dim_by_subsets(leads, nvars)


def _edges(nvars, pairs):
    return [tuple(int(i in pair) for i in range(nvars)) for pair in pairs]


def test_staircase_dim_counts_its_search_nodes(monkeypatch):
    """Hitting set is NP-hard, so the search counts its nodes against
    PRODUCT_BOUND: the 12-cycle x_i x_(i+1), of dimension 6, takes 43
    nodes, and is refused with the bound one below.  n variables in n/2
    disjoint pairs take n + 1 nodes, and the 40-cycle 421."""
    cycle = _edges(12, [(i, (i + 1) % 12) for i in range(12)])
    monkeypatch.setattr(modarith, "PRODUCT_BOUND", 43)
    assert staircase_dim(cycle, 12) == 6
    monkeypatch.setattr(modarith, "PRODUCT_BOUND", 42)
    with pytest.raises(SizeRefusalError, match="more than 42 search nodes"):
        staircase_dim(cycle, 12)
    for n in (28, 200):
        pairs = _edges(n, [(i, i + 1) for i in range(0, n, 2)])
        monkeypatch.setattr(modarith, "PRODUCT_BOUND", n + 1)
        assert staircase_dim(pairs, n) == n // 2
    monkeypatch.setattr(modarith, "PRODUCT_BOUND", 421)
    assert staircase_dim(_edges(40, [(i, (i + 1) % 40) for i in range(40)]),
                         40) == 20


def test_standard_monomials_zero_dim():
    ring = PolyRing(PrimeField(5), ("x", "y"))
    x, y = ring.gens()
    gb = groebner([x**2, x * y, y**3])
    mons = standard_monomials(gb)
    assert set(mons) == {(0, 0), (1, 0), (0, 1), (0, 2)}
    assert mons == sorted(mons, key=ring.key)
    empty = groebner([ring.one()], ring=ring)
    assert standard_monomials(empty) == []


# ---------------------------------------------------------------------------
# Witt carries on polynomials

@pytest.mark.parametrize("p", [2, 3])
def test_twist_carry_identity_prime_square(p):
    """f^p = f^(p) + p*Q(f) over Z/p^2, exactly."""
    rng = random.Random(p)
    ring = PolyRing(PrimeSquareRing(p), ("X", "Y"))
    for _ in range(40):
        f = _random_poly(rng, ring, max_terms=3, max_exp=2)
        assert f**p == frobenius_twist(f) + witt_Q(f) * p


@pytest.mark.parametrize("p", [2, 3])
def test_carry_addition_rule(p):
    """Q(f+g) = Q(f) + Q(g) + P(f,g) - R(f,g)."""
    rng = random.Random(10 * p)
    ring = PolyRing(PrimeSquareRing(p), ("X", "Y"))
    for _ in range(25):
        f = _random_poly(rng, ring, max_terms=3, max_exp=2)
        g = _random_poly(rng, ring, max_terms=3, max_exp=2)
        lhs = witt_Q(f + g)
        rhs = witt_Q(f) + witt_Q(g) + witt_P_pair(f, g) - witt_R(f, g)
        assert lhs == rhs


@pytest.mark.parametrize("p", [2, 3, 5])
def test_pair_carry_defining_identity(p):
    rng = random.Random(20 + p)
    ring = PolyRing(PrimeSquareRing(p), ("X", "Y"))
    for _ in range(10):
        f = _random_poly(rng, ring, max_terms=2, max_exp=1)
        g = _random_poly(rng, ring, max_terms=2, max_exp=1)
        assert (f + g) ** p == f**p + g**p + witt_P_pair(f, g) * p


def test_matched_carry_single_monomial():
    R = PrimeSquareRing(3)
    ring = PolyRing(R, ("X", "Y"))
    a, b = R.of_int(4), R.of_int(7)
    f = ring.poly({(1, 2): a})
    g = ring.poly({(1, 2): b})
    r = witt_R(f, g)
    assert r == ring.poly({(3, 6): witt_P_scalars(a, b)})
    assert witt_R(f, ring.zero()).is_zero()


@pytest.mark.parametrize("p", [2, 3])
def test_twist_additivity_carry(p):
    """f^(p) is additive up to the matched-monomial carry."""
    rng = random.Random(30 + p)
    ring = PolyRing(PrimeSquareRing(p), ("X", "Y"))
    for _ in range(20):
        f = _random_poly(rng, ring, max_terms=3, max_exp=2)
        g = _random_poly(rng, ring, max_terms=3, max_exp=2)
        assert frobenius_twist(f + g) == \
            frobenius_twist(f) + frobenius_twist(g) + witt_R(f, g) * p


def test_single_term_has_no_carry():
    ring = PolyRing(PrimeSquareRing(3), ("X",))
    f = ring.poly({(2,): ring.coeff.of_int(5)})
    assert witt_Q(f).is_zero()


WITT_RINGS = [PrimeSquareRing(p) for p in (2, 3, 5, 7)]


def _witt_samples(R, seed, count, max_terms=9):
    """Polynomials over R in 1, 2 and 3 variables: zero, a single term, p
    times a variable, then count random ones of up to max_terms terms with
    exponents at most 2."""
    rng = random.Random(seed)
    for nvars in (1, 2, 3):
        ring = PolyRing(R, tuple(f"x{i}" for i in range(nvars)))
        yield ring.zero()
        yield ring.poly({(2,) * nvars: random_scalar(rng, R)})
        yield ring.gen(0) * R.p
        for _ in range(count):
            yield random_poly(rng, ring, max_terms, 2)


@pytest.mark.parametrize("R", WITT_RINGS, ids=lambda R: R.tag())
def test_witt_routines_match_references(R):
    """witt_Q (one p-th power over the p^3 lift), frobenius_twist and
    w_poly on raw values give exactly the terms of the references: the
    multinomial sum and the SparsePoly-level closed formula."""
    for f in _witt_samples(R, seed=R.tag(), count=4):
        q = witt_Q(f)
        assert q.ring == f.ring
        assert q.terms == witt_Q_multinomial(f).terms, str(f)
        assert frobenius_twist(f).terms == frobenius_twist_by_terms(f).terms
        got, want = w_poly(f), w_poly_by_polys(f)
        assert [v.ring for v in got] == [v.ring for v in want]
        assert [v.terms for v in got] == [v.terms for v in want], str(f)


@pytest.mark.parametrize("R", WITT_RINGS, ids=lambda R: R.tag())
def test_witt_P_pair_matches_reference(R):
    """witt_P_pair on raw values equals the sum of binom(p,i)/p f^i g^(p-i)
    in SparsePoly arithmetic, term for term."""
    fs = list(_witt_samples(R, seed=R.tag(), count=2))
    gs = list(_witt_samples(R, seed=R.tag() + "g", count=2, max_terms=3))
    for f, g in zip(fs, gs):
        for a, b in ((f, g), (g, f)):
            assert witt_P_pair(a, b).terms == witt_P_pair_by_powers(a, b).terms, \
                (str(a), str(b))


def _matches_references(f, g):
    """witt_Q, witt_P_pair (both orders) and w_poly of f and g give the
    terms of the SparsePoly-level references."""
    for h in (f, g):
        assert witt_Q(h).terms == witt_Q_multinomial(h).terms, str(h)
        got, want = w_poly(h), w_poly_by_polys(h)
        assert [v.terms for v in got] == [v.terms for v in want], str(h)
    for a, b in ((f, g), (g, f)):
        assert witt_P_pair(a, b).terms == witt_P_pair_by_powers(a, b).terms


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_packing_without_variables(p):
    """Over Z/p^2 itself every monomial is (), packed at key 0 in radix 1."""
    R = PrimeSquareRing(p)
    ring = PolyRing(R, ())
    for a in range(0, p * p, 3):
        for b in (0, 1, p, p * p - 1):
            _matches_references(ring.constant(a), ring.constant(b))


@pytest.mark.parametrize("p", [2, 3, 5])
def test_packing_at_the_top_digit(p):
    """Exponents d in every variable put p*d = B - 1 in every digit of the
    twist, and the carries of Q reach it too; the terms of the sum of two
    such polynomials stay in their digits."""
    R = PrimeSquareRing(p)
    ring = PolyRing(R, ("x", "y", "z"))
    x, y, z = ring.gens()
    f = x**3 * y**3 * z**3 + x**3 + 2 * y**3 * z + 1
    g = (x * y * z) ** 3 * (p + 1) + z**3 + x * y
    _matches_references(f, g)
    _matches_references(f, f)
    assert max(max(m) for m in frobenius_twist(f).terms) == 3 * p


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11])
def test_single_terms_have_no_carry(p):
    R = PrimeSquareRing(p)
    ring = PolyRing(R, ("x", "y"))
    rng = random.Random(p)
    for _ in range(6):
        m = (rng.randint(0, 4), rng.randint(0, 4))
        f = ring.poly({m: R.of_int(rng.randrange(1, p * p))})
        assert witt_Q(f).is_zero()
        _matches_references(f, ring.gen(1) + ring.one())


@pytest.mark.parametrize("p", [2, 3, 5])
def test_packing_a_high_power_of_one_variable(p):
    """x^1000 packs in radix 1000p + 1; its twisted derivative lands at
    p*999 and its sum with 1 + x carries in every exponent up to 1000p."""
    ring = PolyRing(PrimeSquareRing(p), ("x",))
    x = ring.gen(0)
    f = x**1000
    assert witt_Q(f).is_zero()
    _matches_references(f, x + 1)
    _matches_references(f + 3, x**999 * p + x)


@pytest.mark.parametrize("R", [PrimeSquareRing(13), PrimeSquareRing(101)],
                         ids=lambda R: R.tag())
def test_witt_routines_at_large_p_match_references(R):
    """The product loop sums its products unreduced and reduces each value
    once.  witt_Q and w_poly
    of 2- and 3-term polynomials give the terms of the multinomial
    reference, and witt_P_pair those of the by-powers reference: at p = 13
    of two 2-term polynomials, at p = 101 of two terms at one monomial,
    whose one value sums 100 products (there the polynomials are in one
    variable, so the powers stay under PRODUCT_BOUND)."""
    rng = random.Random(R.tag())
    nvars = 2 if R.p == 13 else 1
    ring = PolyRing(R, ("x", "y")[:nvars])
    box = list(itertools.product(range(3), repeat=nvars))

    def poly(terms):
        return ring.poly({m: random_scalar(rng, R)
                          for m in rng.sample(box, terms)})

    for h in (poly(3), poly(2)):
        assert witt_Q(h).terms == witt_Q_multinomial(h).terms, str(h)
        assert [v.terms for v in w_poly(h)] == \
            [v.terms for v in w_poly_by_polys(h)], str(h)
    if R.p == 13:
        f, g = poly(2), poly(2)
    else:
        f, g = (ring.poly({(2,): random_scalar(rng, R)}) for _ in range(2))
    assert witt_P_pair(f, g).terms == witt_P_pair_by_powers(f, g).terms


@pytest.mark.parametrize("k", [PrimeField(5), GaloisField(3, 2), GaloisField(2, 3)],
                         ids=lambda k: k.tag())
def test_charp_column_is_the_twisted_gradient(k):
    """column_of over a field runs the packed w core without its w(p)
    coordinate: the twisted derivatives, term for term."""
    rng = random.Random(k.tag())
    for nvars in (0, 1, 2, 3):
        names = tuple(f"x{i}" for i in range(nvars))
        ring = PolyRing(k, names)
        for _ in range(5):
            f = random_poly(rng, ring, 5, 4)
            want = [frobenius_twist_by_terms(derivative(f, j))
                    for j in range(nvars)]
            assert [c.terms for c in column_of(f)] == \
                [c.terms for c in want], str(f)


# ---------------------------------------------------------------------------
# bounded work

def test_witt_carries_past_the_product_bound_are_refused():
    R = PrimeSquareRing(10007)
    ring = PolyRing(R, ("x", "y"))
    x, y = ring.gens()
    with pytest.raises(SizeRefusalError, match="Witt carry Q"):
        witt_Q(y**2 - x**3 - x)
    with pytest.raises(SizeRefusalError, match="Witt carry P"):
        witt_P_pair(x + 1, y + 1)
    # one term has no carry, and is not bounded at any p
    huge = PolyRing(PrimeSquareRing(1000003), ("x",))
    assert witt_Q(huge.gen(0) * 5).is_zero()


def test_powers_past_the_product_bound_are_refused():
    """Powers count the products they take, not a bound on the terms of
    the powers: over F_7, where most binomials vanish, (x + 1)^3000 takes
    about 3*10^5 products, and a power of a form stays on a line of
    monomials; over Z/49 (x + 1)^3000 would take millions.  The square
    and multiply takes no square after the last bit."""
    ring = PolyRing(PrimeSquareRing(7), ("x",))
    x = ring.gen(0)
    with pytest.raises(SizeRefusalError, match="power 3000"):
        (x + 1) ** 3000
    assert x**10**9 == ring.poly({(10**9,): ring.coeff.one()})
    k = PrimeField(7)
    plane = PolyRing(k, ("x", "y"))
    x, y = plane.gens()
    assert len(((x + 1) ** 3000).terms) == 240  # 3000 = 11514 in base 7
    form, by_products = x * x + x * y + y * y, plane.one()
    for _ in range(64):
        by_products = by_products * form
    assert form**64 == by_products


def test_the_product_bound_counts_the_products_taken(monkeypatch):
    """The count is exact: witt_Q, witt_P_pair and powers of random
    polynomials run with PRODUCT_BOUND at the value products of their
    sparse products, and are refused with it one below."""
    taken = []
    real, real_poly = mpoly._raw_mul, mpoly.SparsePoly.__mul__

    def counting(a, b, *args):
        taken[-1] += len(a) * len(b)
        return real(a, b, *args)

    def counting_poly(a, b):
        taken[-1] += len(a.terms) * len(b.terms)
        return real_poly(a, b)

    monkeypatch.setattr(mpoly, "_raw_mul", counting)
    monkeypatch.setattr(mpoly.SparsePoly, "__mul__", counting_poly)
    rng = random.Random(5)
    for R in (PrimeSquareRing(3), PrimeSquareRing(5), PrimeSquareRing(7),
              PrimeSquareRing(2)):
        ring = PolyRing(R, ("x", "y"))
        for _ in range(10):
            f, g = random_poly(rng, ring, 5, 3), random_poly(rng, ring, 4, 2)
            e = rng.randint(2, 13)
            for run in (lambda: witt_Q(f), lambda: witt_P_pair(f, g),
                        lambda: g**e):
                taken.append(0)
                want, n = run(), taken[-1]
                if n:
                    monkeypatch.setattr(modarith, "PRODUCT_BOUND", n)
                    assert run() == want
                    monkeypatch.setattr(modarith, "PRODUCT_BOUND", n - 1)
                    with pytest.raises(SizeRefusalError):
                        run()
                    monkeypatch.setattr(modarith, "PRODUCT_BOUND", PRODUCT_BOUND)
    assert sum(1 for n in taken if n) > 60


def test_a_product_past_the_bound_is_refused_before_its_first_value_product(
        monkeypatch):
    """Two 1001-term polynomials take 1002001 value products: their product
    is refused before the first of them is taken."""
    k = PrimeField(1009)
    ring = PolyRing(k, ("x", "y"))
    f = ring.poly({(i, 0): i + 1 for i in range(1001)})
    g = ring.poly({(0, j): j + 1 for j in range(1001)})
    taken = []
    real = PrimeField._mul
    monkeypatch.setattr(PrimeField, "_mul",
                        lambda self, a, b: taken.append(1) or real(self, a, b))
    with pytest.raises(SizeRefusalError,
                       match="a product of 1001 and 1001 terms"):
        f * g
    assert not taken
    assert len((f * g.terms[(0, 0)]).terms) == 1001  # a scalar is no product


def test_one_division_builds_a_bounded_number_of_polys(monkeypatch):
    """normal_form reduces one dict in place: the polynomials it builds do
    not grow with its steps."""
    ring = PolyRing(PrimeField(5), ("x", "y"))
    x, y = ring.gens()
    gb = groebner([x**2 - y, y**3 - x - 1])
    f = (x + y + 2) ** 9
    built = []
    real = mpoly.SparsePoly.__init__

    def counting(self, *args):
        built.append(1)
        real(self, *args)

    monkeypatch.setattr(mpoly.SparsePoly, "__init__", counting)
    real_budget = mpoly._budget
    spent = []

    def counting_budget(what, *args, **kw):
        spend = real_budget(what, *args, **kw)
        return lambda n: spent.append(n) or spend(n)

    monkeypatch.setattr(mpoly, "_budget", counting_budget)
    r = normal_form(f, gb)
    assert len(spent) > 50 and len(built) <= 2
    monkeypatch.undo()
    assert r == divide(f, list(gb.polys))[1]


def test_a_groebner_basis_keeps_its_leads(monkeypatch):
    """Two divisions by one basis find its leading terms once."""
    ring = PolyRing(PrimeField(7), ("x", "y", "z"))
    x, y, z = ring.gens()
    gb = groebner([x * y - z, y**2 - x, z**2 - y + 1])
    f = (x + 2 * y + 3 * z + 1) ** 4
    calls = []
    real = mpoly.SparsePoly.lead_monomial
    monkeypatch.setattr(mpoly.SparsePoly, "lead_monomial",
                        lambda self: calls.append(1) or real(self))
    first = normal_form(f, gb)
    assert gb.normal_form(f) == first
    assert len(calls) == len(gb.polys)
    assert normal_form(f, list(gb.polys)) == first


def test_groebner_finds_each_lead_once(monkeypatch):
    """groebner keeps each member's lead beside it, packed: no S-pair
    division, minimalisation or final sort finds a lead again, so
    SparsePoly.lead_monomial is never called, over many S-pairs."""
    calls, pairs = [], []
    real, real_reduce = mpoly.SparsePoly.lead_monomial, mpoly._reduce
    monkeypatch.setattr(mpoly.SparsePoly, "lead_monomial",
                        lambda self: calls.append(1) or real(self))
    monkeypatch.setattr(mpoly, "_reduce",
                        lambda *args: pairs.append(1) or real_reduce(*args))
    for R in (PrimeField(7), PrimeSquareRing(3)):
        ring = PolyRing(R, ("x", "y", "z"))
        x, y, z = ring.gens()
        gens = [x**2 * y - z**2 + 1, y**2 * z - x + 2, z**2 * x - y**2 + x * y]
        del calls[:], pairs[:]
        gb = groebner(gens)
        assert not calls
        assert len(pairs) > 10 and len(gb.polys) > 5


RING_FILES = sorted(
    glob.glob(os.path.join(os.path.dirname(__file__), os.pardir, "rings",
                           "*.ring"))
    + glob.glob(os.path.join(os.path.dirname(__file__), os.pardir, "fwbench",
                             "rings", "*", "*.ring")))


def test_no_ring_file_is_refused():
    """Every ring of rings/ and fwbench/rings/ parses and presents under
    PRODUCT_BOUND (so does everything the rest of this suite builds: a
    refusal there fails its test)."""
    assert len(RING_FILES) > 50
    for path in RING_FILES:
        with open(path, encoding="utf-8") as fh:
            pres = parse_ring(fh.read())
        assert len(pres.fw.columns) == len(pres.relations), path


@pytest.mark.parametrize("k", [PrimeField(5), GaloisField(3, 2), GaloisField(2, 3)],
                         ids=lambda k: k.tag())
def test_frobenius_twist_over_fields_matches_reference(k):
    for f in _witt_samples(k, seed=k.p, count=5):
        assert frobenius_twist(f).terms == frobenius_twist_by_terms(f).terms
        with pytest.raises(PresentationError, match="p\\^2-torsion"):
            witt_Q(f)


def test_twist_in_char_p_is_frobenius():
    F = GaloisField(3, 2)
    ring = PolyRing(F, ("x", "y"))
    rng = random.Random(9)
    for _ in range(15):
        f = ring.poly({
            (rng.randint(0, 2), rng.randint(0, 2)): random_scalar(rng, F)
            for _ in range(rng.randint(1, 3))})
        g = ring.poly({
            (rng.randint(0, 2), rng.randint(0, 2)): random_scalar(rng, F)
            for _ in range(rng.randint(1, 3))})
        assert frobenius_twist(f) == f**3
        assert frobenius_twist(f * g) == frobenius_twist(f) * frobenius_twist(g)
        assert frobenius_twist(f + g) == frobenius_twist(f) + frobenius_twist(g)


# ---------------------------------------------------------------------------
# homogenization

def test_homogenize_properties():
    k = PrimeField(5)
    ring = PolyRing(k, ("x", "y"))
    target = PolyRing(k, ("_h", "x", "y"), order="homoglocal")
    rng = random.Random(13)
    for _ in range(10):
        f = _random_poly(rng, ring, max_terms=4, max_exp=3)
        if f.is_zero():
            continue
        h = homogenize(f, target)
        d = f.total_degree()
        assert all(sum(m) == d for m in h.terms)
        for a in k.elements():
            for b in k.elements():
                assert h.evaluate((k.one(), a, b)) == f.evaluate((a, b))


# ---------------------------------------------------------------------------
# the coefficient map

OVER_RINGS = [PrimeField(2), PrimeSquareRing(2), GaloisField(2, 2),
              GaloisField(2, 3), GaloisField(2, 3, (1, 0, 1, 1)),
              PrimeField(3), PrimeSquareRing(3), GaloisField(3, 2),
              GaloisField(3, 2, (2, 1, 1))]
# the maps besides the identities, for one p: Z/p^2 -> F_p -> F_q
OVER_MAPS = {(PrimeSquareRing, PrimeField), (PrimeField, GaloisField),
             (PrimeSquareRing, GaloisField)}


def test_over_is_reduction_then_embedding_and_refuses_the_rest():
    """f.over(k) is f itself into its own ring; along Z/p^2 -> F_p -> F_q
    it reduces each coefficient mod p and embeds it, and is a ring map;
    every other pair of OVER_RINGS (F_q -> F_p, F_p or F_q -> Z/p^2, F_q
    -> an F_q of another minimal polynomial or degree, a change of p) is a
    PresentationError."""
    rng = random.Random(23)
    assert GaloisField(2, 3) != GaloisField(2, 3, (1, 0, 1, 1))
    assert GaloisField(3, 2) != GaloisField(3, 2, (2, 1, 1))
    for a in OVER_RINGS:
        ring = PolyRing(a, ("x", "y"))
        # a term p*x whose coefficient reduces to 0, where p*1 is not 0
        pterm = ring.poly({(1, 0): a.p})
        samples = [random_poly(rng, ring, 4, 2) + pterm for _ in range(6)]
        for f in samples:
            assert f.over(a) is f
        for b in OVER_RINGS:
            if b == a:
                continue
            if a.p == b.p and (type(a), type(b)) in OVER_MAPS:
                for f, g in zip(samples, samples[1:]):
                    expect = {m: embed(reduce_mod_p(c), b)
                              for m, c in f.terms.items()}
                    assert f.over(b).ring == ring.with_coeff(b)
                    assert f.over(b).terms == {
                        m: c for m, c in expect.items() if not c.is_zero()}
                    assert (f + g).over(b) == f.over(b) + g.over(b)
                    assert (f * g).over(b) == f.over(b) * g.over(b)
            else:
                with pytest.raises(PresentationError, match="no embedding"):
                    ring.one().over(b)
