"""Exact rank computations: the symbolic fraction-free rank and the
int64 F_p row space, each checked against the other (over F_p, and over
F_25 through its F_5-coordinates) and against known ranks."""

import random

import numpy as np
import pytest

from fwdiff.errors import FWDiffError, ZeroDivisorError
from fwdiff.linalg import ModPSpan
from fwdiff.localalg import rank_fraction_free
from fwdiff.modarith import PrimeField
from fwdiff.mpoly import PolyRing, groebner
from routes import field_rank, span_contains, span_rref


def _random_matrix(rng, k, nrows, ncols):
    return [[k.of_int(rng.randrange(k.modulus)) for _ in range(ncols)]
            for _ in range(nrows)]


@pytest.mark.parametrize("p", [2, 3, 5])
def test_field_rank_vs_span(p):
    rng = random.Random(p)
    k = PrimeField(p)
    for _ in range(30):
        nrows, ncols = rng.randint(1, 6), rng.randint(1, 6)
        rows = _random_matrix(rng, k, nrows, ncols)
        span = ModPSpan(p, ncols)
        span.add_rows(np.array([[e.value for e in r] for r in rows]))
        assert field_rank(rows) == span.rank


def test_field_rank_known_values():
    k = PrimeField(5)
    I3 = [[k.of_int(int(i == j)) for j in range(3)] for i in range(3)]
    assert field_rank(I3) == 3
    assert field_rank([]) == 0
    zero = [[k.zero()] * 4 for _ in range(2)]
    assert field_rank(zero) == 0
    # rank drops mod 5: second row = 2 * first + 5 * unit
    rows = [[k.of_int(1), k.of_int(2)], [k.of_int(2), k.of_int(9)]]
    assert field_rank(rows) == 1


def test_span_incremental_and_contains():
    span = ModPSpan(3, 4)
    assert span.add_rows(np.array([[1, 2, 0, 1]])) == 1
    assert span.add_rows(np.array([[2, 4, 0, 2]])) == 1  # dependent
    assert span.add_rows(np.array([[0, 1, 1, 0]])) == 2
    assert span_contains(span, np.array([1, 0, 1, 1]))  # r1 + r2 mod 3
    assert not span_contains(span, np.array([0, 0, 0, 1]))
    # basis stays in reduced echelon form: pivot columns are unit vectors
    pivots, basis = span_rref(span)
    for i, piv in enumerate(pivots):
        col = basis[:, piv]
        assert col[i] == 1 and col.sum() == 1


def test_span_full_rank_early_stop():
    span = ModPSpan(2, 3)
    rows = np.array([[1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, 1]])
    assert span.add_rows(rows) == 3


def _combination(rng, p, vectors):
    coeffs = [rng.randrange(p) for _ in vectors]
    return [sum(c * v[j] for c, v in zip(coeffs, vectors)) % p
            for j in range(len(vectors[0]))]


def test_span_is_exact_below_2_31():
    """At p = 2^31 - 1 entry products reach 2^62; rank and membership of
    rank-deficient random rows must still match elimination on Residues."""
    p = 2**31 - 1
    k = PrimeField(p)
    rng = random.Random(31)
    for _ in range(20):
        ncols = rng.randint(3, 8)
        gens = [[rng.randrange(p) for _ in range(ncols)]
                for _ in range(rng.randint(1, ncols - 1))]
        rows = [_combination(rng, p, gens) for _ in range(ncols + 2)]
        span = ModPSpan(p, ncols)
        span.add_rows(np.array(rows, dtype=np.int64))
        field_rows = [[k.of_int(v) for v in row] for row in rows]
        rank = field_rank(field_rows)
        assert span.rank == rank
        inside = _combination(rng, p, rows)
        outside = [rng.randrange(p) for _ in range(ncols)]
        for vec in (inside, outside):
            grows = field_rank(field_rows + [[k.of_int(v) for v in vec]])
            assert span_contains(span, np.array(vec, dtype=np.int64)) == \
                (grows == rank)


def test_span_refuses_primes_past_int64_exactness():
    with pytest.raises(FWDiffError):
        ModPSpan(2**31, 4)
    with pytest.raises(FWDiffError):
        ModPSpan(2**61 - 1, 4)


def _nf_for(rels, ring):
    gb = groebner(rels, ring=ring)
    return gb.normal_form


def test_fraction_free_matches_field_rank_at_points():
    """Rank over F_5[x]/(x^2 - 2) (a field since 2 is a non-residue mod 5)
    equals the fraction-free rank of the same matrix."""
    k = PrimeField(5)
    ring = PolyRing(k, ("x",))
    x = ring.gen(0)
    nf = _nf_for([x**2 - 2], ring)
    rng = random.Random(23)
    for _ in range(15):
        nrows, ncols = rng.randint(1, 4), rng.randint(1, 4)
        rows = [[ring.poly({(0,): k.of_int(rng.randrange(5)),
                            (1,): k.of_int(rng.randrange(5))})
                 for _ in range(ncols)] for _ in range(nrows)]
        r1 = rank_fraction_free(rows, nf)
        # independent route: F_25 as vectors over F_5, rank of the 2x-blown-up
        # matrix equals 2 * rank over the field
        blown = []
        for row in rows:
            for mult in (ring.one(), x):
                brow = []
                for e in row:
                    v = nf(e * mult)
                    brow.extend([v.terms.get((0,), k.zero()).value,
                                 v.terms.get((1,), k.zero()).value])
                blown.append(brow)
        span = ModPSpan(5, 2 * ncols)
        span.add_rows(np.array(blown, dtype=np.int64))
        assert 2 * r1 == span.rank


def test_fraction_free_detects_zero_divisors():
    """Over F_5[x]/(x^4+1) = F_5[x]/((x^2+2)(x^2+3)) elimination must hit a
    zero divisor pair and name the offenders."""
    k = PrimeField(5)
    ring = PolyRing(k, ("x",))
    x = ring.gen(0)
    nf = _nf_for([x**4 + 1], ring)
    a = nf(x**2 + 2)
    b = nf(x**2 + 3)
    assert nf(a * b).is_zero()
    # elimination of the second row under the first forces the product a*b
    with pytest.raises(ZeroDivisorError) as info:
        rank_fraction_free([[a, ring.one()], [b, ring.zero()]], nf)
    off = info.value.offenders
    assert len(off) == 2 and nf(off[0] * off[1]).is_zero()


def test_fraction_free_known_ranks():
    k = PrimeField(3)
    ring = PolyRing(k, ("x", "y"))
    x, y = ring.gens()
    nf = _nf_for([y**2 - x**3], ring)  # cusp coordinate ring, a domain
    rows = [[x, y], [y, x**2]]
    # det = x^3 - y^2 = 0 in the quotient, rows dependent over the fractions
    assert rank_fraction_free(rows, nf) == 1
    assert rank_fraction_free([[x, y]], nf) == 1
    assert rank_fraction_free([[ring.zero(), ring.zero()]], nf) == 0
    assert rank_fraction_free([], nf) == 0
