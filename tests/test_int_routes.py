"""The oracle's shortcuts on plain ints, each against the route it stands
in for: the F_2 row space ranks by XOR on int rows where every other p
keeps the numpy Gauss-Jordan, which it must match row for row; where
p*1 = 0 the tree coordinates are read off the digits with no tree walked
and no Witt carry computed; and a one-term dividend that no leading
monomial divides is its own normal form, found with no packing."""

import glob
import os
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fwdiff.errors import SizeRefusalError
from fwdiff.linalg import ModPSpan, _gauss_jordan
from fwdiff.modarith import GaloisField, PrimeField, PrimeSquareRing
from fwdiff.mpoly import PolyRing, groebner, normal_form
from fwdiff.oracle import (
    FiniteRing,
    _digit_coordinates,
    _tree_coordinates,
    brute_fw,
)
from fwdiff.ringfile import parse_ring
from routes import normal_form_by_tuples, span_contains, span_rref

ROOT = os.path.join(os.path.dirname(__file__), os.pardir)
RING_FILES = sorted(glob.glob(os.path.join(ROOT, "rings", "*.ring"))
                    + glob.glob(os.path.join(ROOT, "fwbench", "rings",
                                             "oracle", "*.ring")))


# ---------------------------------------------------------------------------
# XOR ranks over F_2

def _f2_batches(rng, nrows, ncols):
    """nrows rows over F_2, split into 1-4 batches: random rows of a random
    density, rows that sum earlier ones, zero rows and repeated rows."""
    density = rng.choice([0.05, 0.3, 0.5, 0.9])
    rows = []
    for _ in range(nrows):
        kind = rng.random()
        if kind < 0.1:
            rows.append(np.zeros(ncols, dtype=np.int64))
        elif kind < 0.2 and rows:
            rows.append(rng.choice(rows).copy())
        elif kind < 0.4 and len(rows) > 1:
            rows.append(sum(rng.sample(rows, 2)) % 2)
        else:
            rows.append(np.array([rng.random() < density
                                  for _ in range(ncols)], dtype=np.int64))
    cuts = sorted(rng.sample(range(1, nrows), min(nrows - 1,
                                                  rng.randint(0, 3))))
    return [np.array(rows[a:b]).reshape(-1, ncols)
            for a, b in zip([0] + cuts, cuts + [nrows])]


def _assert_matches_gauss_jordan(batches, ncols):
    span = ModPSpan(2, ncols)
    for batch in batches:
        rank = span.add_rows(batch)
        assert rank == span.rank
    basis, pivots = _gauss_jordan(np.vstack(batches) % 2, 2)
    got_pivots, got_basis = span_rref(span)
    assert span.rank == len(pivots)
    assert got_pivots == pivots
    assert got_basis.dtype == np.int64
    assert got_basis.shape == (len(pivots), ncols)
    assert (got_basis == basis).all()
    return span


def test_f2_spans_match_gauss_jordan_on_derandomized_matrices():
    """The rank of the XOR route, and the pivots and reduced row-echelon
    basis its kept rows give (span_rref), are those of the numpy
    Gauss-Jordan on the same rows, for 1-120 rows and 1-300 columns added
    over several calls; every row added lies in the span."""
    rng = random.Random(2)
    for _ in range(150):
        nrows, ncols = rng.randint(1, 120), rng.randint(1, 300)
        batches = _f2_batches(rng, nrows, ncols)
        span = _assert_matches_gauss_jordan(batches, ncols)
        for row in np.vstack(batches)[::7]:
            assert span_contains(span, row)


def test_an_f2_span_stops_at_full_rank_in_the_middle_of_a_batch():
    """Once the rank is full the rest of a batch, and every later batch,
    is skipped; the span is still the whole space."""
    rng = random.Random(5)
    for ncols in (1, 7, 8, 9, 64, 65, 200):
        eye = np.eye(ncols, dtype=np.int64)
        order = rng.sample(range(ncols), ncols)
        junk = np.array([[rng.randrange(2) for _ in range(ncols)]
                         for _ in range(5)])
        batches = [junk, eye[order], junk, eye]
        span = _assert_matches_gauss_jordan(batches, ncols)
        assert span.rank == ncols
        assert span_rref(span)[0] == list(range(ncols))
        assert span.add_rows(junk) == ncols


def test_f2_spans_read_entries_mod_2_and_single_rows():
    span = ModPSpan(2, 4)
    assert span.add_rows(np.array([3, -2, 5, 0])) == 1
    assert span.add_rows([[1, 0, 1, 0], [0, 0, 0, 0]]) == 1
    assert span.add_rows([[0, 1, 1, 2]]) == 2
    pivots, basis = span_rref(span)
    assert pivots == [0, 1]
    assert basis.tolist() == [[1, 0, 1, 0], [0, 1, 1, 0]]


def test_a_wide_f2_span_matches_gauss_jordan():
    """A span of 5000 columns: 70 rows of which 10 are sums of others."""
    rng = random.Random(11)
    ncols = 5000
    rows = [np.array([rng.random() < 0.5 for _ in range(ncols)],
                     dtype=np.int64) for _ in range(60)]
    rows += [sum(rng.sample(rows, 3)) % 2 for _ in range(10)]
    rng.shuffle(rows)
    rows = np.array(rows)
    span = _assert_matches_gauss_jordan([rows[:33], rows[33:]], ncols)
    assert span.rank == 60


@pytest.mark.parametrize("p", [3, 5])
def test_odd_primes_keep_the_gauss_jordan_route(p):
    rng = random.Random(p)
    rows = np.array([[rng.randrange(p) for _ in range(9)] for _ in range(6)])
    span = ModPSpan(p, 9)
    span.add_rows(rows[:2])
    span.add_rows(rows[2:])
    basis, pivots = _gauss_jordan(rows.copy(), p)
    got_pivots, got_basis = span_rref(span)
    assert got_pivots == pivots and (got_basis == basis).all()


# ---------------------------------------------------------------------------
# digit coordinates where p*1 = 0

def _finite_rings():
    """(file name, presentation, FiniteRing) for every ring file that is
    finite within 4096 elements."""
    out = []
    for path in RING_FILES:
        with open(path, encoding="utf-8") as fh:
            pres = parse_ring(fh.read())
        try:
            fr = FiniteRing.from_presentation(pres, max_size=4096)
        except SizeRefusalError:  # infinite, or over the size bound
            continue
        out.append((os.path.basename(path), pres, fr))
    return out


@pytest.fixture(scope="module")
def finite_rings():
    return _finite_rings()


def test_digit_coordinates_are_the_tree_coordinates_where_p_is_zero(
        finite_rings):
    """T[a] = sum_u a_u e_u when p*1 = 0 (oracle module docstring): the
    digits give the T that induction along the tree gives."""
    checked = 0
    for name, _, fr in finite_rings:
        if fr.p_one_idx != fr.zero_idx:
            continue
        T, _ = _tree_coordinates(fr)
        digits = _digit_coordinates(fr)
        assert digits.shape == T.shape and (digits == T).all(), name
        checked += 1
    assert checked >= 29


def test_characteristic_p_rings_compute_no_witt_carry(finite_rings,
                                                      monkeypatch):
    """brute_fw on a ring of characteristic p reads its coordinates off
    the digits and ranks the Leibniz rows alone, so it never computes a
    Witt carry; a Z/p^2 ring with p*1 != 0 still does, for its tree and
    its additive rows."""
    calls = []
    real = FiniteRing.witt_carry_gen
    monkeypatch.setattr(FiniteRing, "witt_carry_gen", lambda ring, i, u:
                        calls.append(ring.label) or real(ring, i, u))
    charp = 0
    for name, pres, fr in finite_rings:
        before = len(calls)
        brute_fw(fr)
        if pres.is_charp:
            assert len(calls) == before, name
            charp += 1
        elif fr.p_one_idx != fr.zero_idx:
            assert len(calls) > before, name
    assert charp >= 29


# ---------------------------------------------------------------------------
# one-term normal forms

@st.composite
def one_term_divisions(draw):
    """(ring, generators, a one-term dividend): 1-3 generators of 1-3
    terms of degree at most 3 in 1-3 variables over F_2, F_9, Z/4 or Z/9;
    the dividend's monomial has exponents up to 4, its coefficient is any
    nonzero value, p and its multiples among them over Z/p^2."""
    R = draw(st.sampled_from([PrimeField(2), GaloisField(3, 2),
                              PrimeSquareRing(2), PrimeSquareRing(3)]))
    n = draw(st.integers(1, 3))
    ring = PolyRing(R, tuple(f"x{i}" for i in range(n)),
                    draw(st.sampled_from(("grevlex", "homoglocal"))))
    elements = list(R.elements())
    monos = st.lists(st.integers(0, n - 1), max_size=3).map(
        lambda vs: tuple(vs.count(i) for i in range(n)))
    gens = draw(st.lists(st.lists(st.tuples(monos, st.sampled_from(elements)),
                                  min_size=1, max_size=3),
                         min_size=1, max_size=3))
    m = tuple(draw(st.lists(st.integers(0, 4), min_size=n, max_size=n)))
    c = draw(st.sampled_from([x for x in elements if not x.is_zero()]))
    return ring, [ring.poly(dict(g)) for g in gens], ring.poly({m: c})


@settings(max_examples=300, deadline=None, derandomize=True)
@given(one_term_divisions())
def test_one_term_normal_forms_match_the_tuple_route(division):
    """A one-term dividend that no leading monomial divides comes back as
    it is, without packing the basis; any other comes back as the tuple
    route's remainder, unit coefficient or not."""
    ring, gens, f = division
    gb = groebner(gens, ring=ring)
    (m,) = f.terms
    divides = any(all(a >= b for a, b in zip(m, lm))
                  for lm in gb.lead_monomials())
    fresh = groebner(gens, ring=ring)
    got = normal_form(f, fresh)
    assert got == normal_form_by_tuples(f, list(gb.polys))
    assert (got is f) == (not divides)
    if not divides:
        assert fresh._leads.packing is None
    listed = list(gb.polys)[::-1]
    assert normal_form(f, listed) == normal_form_by_tuples(f, listed)
