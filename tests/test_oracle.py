"""Brute-force universal module on small finite rings.

The oracle lists every element as a digit vector, checks the structure
constants that the carries and the closure products of the additive
generators give, keeps the products and sums by each generator,
eliminates every symbol along a breadth-first tree, and row-reduces the
remaining relations in tree coordinates.  The tests here check the oracle
against itself (permutation invariance), against the operation tables
that tests/routes.py fills along a tree, the exhaustive axiom check on
them and the per-element module of tests/routes.py (span memberships
forced by the axioms, the action on the quotient), against an all-pairs
reference built here from the definition (closures on every pair of
element polynomials, both relation families on every pair), on fixed and
on generated rings, and pin the dimensions it must report on the
standard small rings.
"""

import itertools
import math
import operator
import os
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fwdiff import mpoly, oracle
from fwdiff.errors import PresentationError, SizeRefusalError
from fwdiff.fwcore import RingPresentation, present_fw
from fwdiff.linalg import ModPSpan
from fwdiff.modarith import (
    GaloisField,
    PrimeField,
    PrimeSquareRing,
    reduce_mod_p,
)
from fwdiff.mpoly import PolyRing, groebner
from fwdiff.oracle import (
    FiniteRing,
    _refuse_oversized,
    brute_fw,
    cross_check,
    presented_fp_dimension,
    relation_rows,
)
from fwdiff.ringfile import parse_ring
from routes import (
    action_matrix,
    basis_certificates,
    element_brute_fw,
    element_polys,
    element_relation_rows,
    fill_tables,
    finite_ring_zp2_by_syzygies,
    OperationTables,
    operation_tables,
    pow_idx,
    presented_fp_dimension_by_normal_forms,
    rebuilt,
    ring_of,
    span_contains,
    verify_axioms,
)


Z4 = ring_of(PrimeSquareRing(2), (), [])
Z9 = ring_of(PrimeSquareRing(3), (), [])
F2_EPS = ring_of(PrimeField(2), ("x",), ["x^2"])
F2_EPS3 = ring_of(PrimeField(2), ("x",), ["x^3"])
F3_EPS = ring_of(PrimeField(3), ("x",), ["x^2"])
Z4_MIXED = ring_of(PrimeSquareRing(2), ("x",), ["x^2", "2*x"])
F4 = ring_of(GaloisField(2, 2), (), [])
F9 = ring_of(GaloisField(3, 2), (), [])


@pytest.mark.parametrize("pres,size,dim", [
    (Z4, 4, 1),
    (Z9, 9, 1),
    (F2_EPS, 4, 2),
    (F2_EPS3, 8, 3),
    (F3_EPS, 9, 2),
    (Z4_MIXED, 8, 4),
    (F4, 4, 0),
    (F9, 9, 0),
])
def test_cross_check_small_rings(pres, size, dim):
    rep = cross_check(present_fw(pres))
    assert rep["match"], rep
    assert rep["size"] == size
    assert rep["brute_dim"] == dim == rep["presented_dim"]


def test_perfect_field_module_vanishes():
    for pres in (F4, F9, ring_of(PrimeField(5), (), [])):
        fr = FiniteRing.from_presentation(pres)
        assert brute_fw(fr).dimension == 0


def test_table_construction_and_axioms():
    fr = FiniteRing.from_presentation(Z4_MIXED)
    assert fr.size == 8
    assert fr.carrier_dim == 2  # carrier F_2[x]/(x^2) has basis 1, x
    # the structure constants went through the check in the constructor;
    # run the exhaustive one on the reference tables, spot-check
    # commutativity and the squares, by the table and by the library
    t = operation_tables(fr)
    verify_axioms(t)
    assert (t.add == t.add.T).all()
    for i in range(fr.size):
        assert t.frob[i] == pow_idx(t, i, 2) == fr.product(i, i)


@pytest.mark.parametrize("pres", [Z4, Z9, F4, Z4_MIXED])
def test_p_multiples_lie_in_additive_span(pres):
    """Telescoping additivity forces w(p*a) = -sum_j P(ja, a) w(p), so the
    vector [w(p*a)] + (sum_j P(ja,a)) [w(p)] must already lie in the span
    of the Add family alone, for every element and basis multiplier."""
    fr = FiniteRing.from_presentation(pres)
    t = operation_tables(fr)
    p, n, e = fr.p, fr.size, fr.carrier_dim
    span = ModPSpan(p, e * n)
    for batch in element_relation_rows(fr, families=("add",)):
        span.add_rows(batch)
    for a in range(n):
        pa = fr.int_mult_idx(p, a)
        carry = fr.zero_idx
        for j in range(1, p):
            ja = fr.int_mult_idx(j, a)
            carry = t.add[carry, t.witt_carry_idx(ja, a)]
        for beta in fr.basis_idx:
            vec = np.zeros(e * n, dtype=np.int64)
            vec[pa * e:(pa + 1) * e] += fr.reduce_mat[beta]
            vec[fr.p_one_idx * e:(fr.p_one_idx + 1) * e] += \
                fr.reduce_mat[t.mul[beta, carry]]
            assert span_contains(span, vec % p), (pres.describe(), a)


def test_action_matrix_sanity():
    fr = FiniteRing.from_presentation(Z4_MIXED)
    um = element_brute_fw(fr)
    d = um.dimension
    assert d == 4 == brute_fw(fr).dimension
    ident = action_matrix(um, fr.one_idx)
    assert (ident == np.eye(d, dtype=np.int64)).all()
    zero = action_matrix(um, fr.zero_idx)
    assert not zero.any()
    add = operation_tables(fr).add
    for a in range(fr.size):
        for b in range(fr.size):
            lhs = action_matrix(um, add[a, b])
            rhs = (action_matrix(um, a) + action_matrix(um, b)) % fr.p
            assert (lhs == rhs).all()


def test_basis_certificates_name_free_coordinates():
    fr = FiniteRing.from_presentation(Z4)
    um = element_brute_fw(fr)
    certs = basis_certificates(um)
    assert len(certs) == um.dimension == 1
    assert "w(" in certs[0]


def test_closures_run_only_for_carries_and_generator_products(monkeypatch):
    """Z/9[x]/(x^2) has 81 elements on d = 4 digits with g = 2
    generators: building it canonicalizes at most d + g^2 times (each
    canonical form ends in one normal form modulo U), where closures on
    every a + g_u would take n g + g^2 = 166."""
    calls = []
    real = oracle.normal_form
    monkeypatch.setattr(oracle, "normal_form",
                        lambda f, gb: calls.append(f) or real(f, gb))
    fr = FiniteRing.from_presentation(
        ring_of(PrimeSquareRing(3), ("x",), ["x^2"]))
    d, g = fr.digits.shape[1], fr.carrier_dim
    assert (fr.size, d, g) == (81, 4, 2)
    assert 0 < len(calls) <= d + g * g


def test_non_canonical_closure_results_are_refused():
    """A closure whose result is not a canonical form (a monomial off the
    staircase, or a p-digit where U allows none) is refused."""
    for pres in (F2_EPS3, Z4_MIXED):
        fr = FiniteRing.from_presentation(pres)
        x = fr.digit_basis[1]
        with pytest.raises(PresentationError, match="canonical form"):
            fr.index_of(x * x * x)
        with pytest.raises(PresentationError, match="canonical form"):
            FiniteRing(fr.p, fr.digit_basis, fr.carrier_dim,
                       lambda f: f * x, fr.digits_of, fr.label)
    # fr is Z4_MIXED, where U = (x): 2*x has a p-digit off stairU
    with pytest.raises(PresentationError, match="canonical form"):
        fr.index_of(fr.digit_basis[1] * 2)


def _z4_read_by(misread):
    """Z/4, digit basis 1, 2, rebuilt with the digit reader
    f -> misread(fr, f), fr the ring as built."""
    fr = FiniteRing.from_presentation(Z4)
    return FiniteRing(fr.p, fr.digit_basis, fr.carrier_dim, fr.canon,
                      lambda f: misread(fr, f), fr.label)


def test_basis_lifts_off_their_unit_digit_vectors_are_refused():
    """Digits of Z/4 read reversed put the basis lift 1 at the digit
    vector of 2; the ring is refused before any closure runs."""
    with pytest.raises(PresentationError, match="not unit digit vectors"):
        _z4_read_by(lambda fr, f: fr.digits_of(f)[::-1])


def test_a_carry_with_a_generator_digit_is_refused():
    """canon(2) of Z/4 read as 1 + 2 gives the carry c_u = digits(p g_u)
    of the generator 1 a generator digit."""
    with pytest.raises(PresentationError, match="has a generator digit"):
        _z4_read_by(lambda fr, f: [1, 1] if f == fr.canon(
            fr.digit_basis[0] * 2) else fr.digits_of(f))


def test_charp_rings_reuse_the_carrier_basis(monkeypatch):
    """In characteristic p the builder reads its digit basis off the
    carrier basis the presentation keeps, canon is that basis's normal
    form, and no Buchberger runs again; over F_4 the digit basis is
    c x^m for c in 1, t."""
    pres = ring_of(GaloisField(2, 2), ("x",), ["x^2"])
    gb = pres.carrier_basis()
    monkeypatch.setattr(oracle, "groebner",
                        lambda *a, **k: pytest.fail("groebner ran again"))
    fr = FiniteRing.from_presentation(pres)
    assert fr.size == 16 and fr.canon.__self__ is gb
    t = pres.carrier_ring.constant(GaloisField(2, 2).generator())
    x = pres.carrier_ring.gen(0)
    assert fr.digit_basis == [1, t, x, t * x]


# ---------------------------------------------------------------------------
# refusals

def test_size_cap_refusals():
    big = ring_of(PrimeField(2), ("x",), ["x^5"])  # 32 elements > 16
    with pytest.raises(SizeRefusalError):
        FiniteRing.from_presentation(big)
    # explicit cap overrides
    fr = FiniteRing.from_presentation(big, max_size=32)
    assert fr.size == 32
    with pytest.raises(SizeRefusalError):  # no default bound for p = 7
        FiniteRing.from_presentation(ring_of(PrimeField(7), (), []))
    rep = cross_check(present_fw(ring_of(PrimeField(7), (), [])), max_size=7)
    assert rep["match"] and rep["brute_dim"] == 0


def test_zero_and_infinite_rings_are_rejected():
    zero = ring_of(PrimeField(2), ("x",), ["x", "x + 1"])
    with pytest.raises(PresentationError):
        FiniteRing.from_presentation(zero)
    infinite = ring_of(PrimeField(2), ("x",), [])
    with pytest.raises(SizeRefusalError):
        FiniteRing.from_presentation(infinite)
    zero2 = ring_of(PrimeSquareRing(2), ("x",), ["x", "x + 1"])
    with pytest.raises(PresentationError):
        FiniteRing.from_presentation(zero2)


def test_more_zp2_quotients_cross_check():
    """Quotients where (I : p) strictly exceeds I mod p exercise the
    torsion of the Z/p^2 Groebner basis in the canonical form."""
    cases = [
        ring_of(PrimeSquareRing(2), ("x",), ["x^2 - 2"]),
        ring_of(PrimeSquareRing(2), ("x",), ["x^2 - 2*x"]),
        ring_of(PrimeSquareRing(3), ("x",), ["x^2", "3*x"]),
        ring_of(PrimeSquareRing(2), ("x", "y"),
                ["x^2", "y^2", "x*y", "2*x", "2*y"]),
    ]
    for pres in cases:
        rep = cross_check(present_fw(pres), max_size=81)
        assert rep["match"], rep


def test_table_build_memory_is_bounded():
    """At 243 elements the generator rows take 4 kB and the check a few
    d^4 arrays, where the n x n x n array of an exhaustive check alone
    would be 115 MB."""
    big = ring_of(PrimeField(3), ("x",), ["x^5"])
    tracemalloc.start()
    try:
        fr = FiniteRing.from_presentation(big, max_size=243)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert fr.size == 243
    assert peak < 64 * 2**20, peak


def test_oversized_tables_are_refused_before_enumeration():
    """F_3[x]/(x^10) has 59049 elements, past MAX_RING_SIZE = 4096, so the
    refusal comes before any element is built, whatever the size cap; the
    staircase is cut at the most digits d with p^d <= 4096."""
    huge = ring_of(PrimeField(3), ("x",), ["x^10"])
    tracemalloc.start()
    try:
        with pytest.raises(SizeRefusalError, match=r"more than 3\^7 "
                           "elements, over the bound 4096"):
            FiniteRing.from_presentation(huge, max_size=59049)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20, peak
    for p, top in ((2, 12), (5, 5)):
        with pytest.raises(SizeRefusalError,
                           match=rf"more than {p}\^{top} elements"):
            FiniteRing.from_presentation(
                ring_of(PrimeField(p), ("x",), [f"x^{top + 1}"]),
                max_size=10**5)
    for size in (729, 2187, 4096):  # at most the bound
        _refuse_oversized(3, size, size)
    with pytest.raises(SizeRefusalError,
                       match="4097 elements, over the bound 4096"):
        _refuse_oversized(3, 4097, 4097)
    with pytest.raises(SizeRefusalError, match="over the bound 81"):
        _refuse_oversized(3, 729, None)


def test_cross_check_at_729_elements():
    """The structure-constant check, the tables and the tree-coordinate
    rank of a 729-element ring stay far below the n^3 and n * e scale."""
    pres = ring_of(PrimeField(3), ("x",), ["x^6"])
    tracemalloc.start()
    try:
        rep = cross_check(present_fw(pres), max_size=729)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert rep["match"] and rep["size"] == 729 and rep["brute_dim"] == 6
    assert peak < 100 * 2**20, peak



@pytest.mark.parametrize("pres", [
    ring_of(PrimeField(2), ("x",), ["x^12"]),
    ring_of(PrimeSquareRing(2), ("x",), ["x^6"]),
], ids=["F2[x]/(x^12)", "Z4[x]/(x^6)"])
def test_cross_check_at_4096_elements_builds_no_table(pres):
    """At 4096 elements two n x n tables would take 256 MB; the oracle
    multiplies by generators only, through g x n rows, so the whole
    cross-check stays a small fraction of that."""
    fw = present_fw(pres)
    tracemalloc.start()
    try:
        rep = cross_check(fw, max_size=4096)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert rep["match"] and rep["size"] == 4096 and rep["brute_dim"] == 12
    assert peak < 32 * 2**20, peak


# ---------------------------------------------------------------------------
# the presented dimension, read through the oracle's ring

ROOT = os.path.join(os.path.dirname(__file__), os.pardir)
PRESENTED_FILES = sorted(
    os.path.join(ROOT, *folder, name)
    for folder in [("rings",), ("fwbench", "rings", "oracle"),
                   ("fwbench", "rings", "sweep")]
    for name in os.listdir(os.path.join(ROOT, *folder))
    if name.endswith(".ring"))


def test_presented_dimension_matches_the_normal_form_route():
    """presented_fp_dimension reads the column entries as elements of the
    FiniteRing; the reference expands the carrier on a digit basis of its
    own and divides every basis multiple of every entry.  They agree on
    every ring file that builds within 4096 elements, over F_p, F_q and
    Z/p^2, and on a ring without variables."""
    bases = set()
    for path in PRESENTED_FILES:
        with open(path, encoding="utf-8") as fh:
            pres = parse_ring(fh.read())
        try:
            fr = FiniteRing.from_presentation(pres, max_size=4096)
        except SizeRefusalError:  # infinite, or over the size bound
            continue
        fw = present_fw(pres)
        assert (presented_fp_dimension(fw, fr)
                == presented_fp_dimension_by_normal_forms(fw)), path
        bases.add(pres.base.tag().split("(")[0])
    assert bases == {"Fp", "Fq", "Zp2"}
    point = ring_of(PrimeField(7), (), [])
    fr = FiniteRing.from_presentation(point, max_size=7)
    fw = present_fw(point)
    assert (presented_fp_dimension(fw, fr)
            == presented_fp_dimension_by_normal_forms(fw) == 0)


def test_cross_check_divides_nothing_after_the_ring_is_built(monkeypatch):
    """All polynomial division of a cross-check happens while
    FiniteRing.from_presentation builds the ring: the presented columns
    are read through its digits, not reduced again modulo the carrier."""
    path = os.path.join(ROOT, "fwbench", "rings", "oracle", "f3_x2_xy_y2.ring")
    with open(path, encoding="utf-8") as fh:
        fw = present_fw(parse_ring(fh.read()))
    assert fw.columns
    built, during, after = [], [], []
    real_nf, real_build = mpoly.normal_form, FiniteRing.from_presentation

    def counted(f, basis):
        (after if built else during).append(f)
        return real_nf(f, basis)

    def build(ring_pres, max_size=None):
        built.append(real_build(ring_pres, max_size=max_size))
        return built[-1]

    monkeypatch.setattr(mpoly, "normal_form", counted)
    monkeypatch.setattr(oracle, "normal_form", counted)
    monkeypatch.setattr(FiniteRing, "from_presentation", build)
    assert cross_check(fw)["match"]
    assert len(built) == 1 and during and not after


# ---------------------------------------------------------------------------
# the all-pairs reference: the universal module straight from its definition

def _all_pairs_tables(fr):
    """Both operation tables from the closures on all n^2 pairs: canon of
    a + b and of a * b, looked up among the element polynomials."""
    els = element_polys(fr)
    idx = {a: i for i, a in enumerate(els)}
    return tuple(
        np.array([[idx[fr.canon(fn(a, b))] for b in els] for a in els],
                 dtype=np.int64)
        for fn in (operator.add, operator.mul))


def _check_tables(fr):
    """The reference tables equal the all-pairs closure tables, and so do
    fr's digit sums and structure-constant products on all n^2 pairs;
    returns the reference tables."""
    add, mul = _all_pairs_tables(fr)
    t = operation_tables(fr)
    i, j = np.ogrid[:fr.size, :fr.size]
    assert (t.add == add).all() and (t.mul == mul).all()
    assert (fr.plus(i, j) == add).all() and (fr.product(i, j) == mul).all()
    return t


def _all_pairs_rank(fr):
    """Rank of both relation families over every pair a <= b, one row
    per basis multiplier, assembled term by term."""
    p, n, e = fr.p, fr.size, fr.carrier_dim
    one = fr.one_idx
    t = operation_tables(fr)
    span = ModPSpan(p, e * n)
    rows = []

    def relation(terms):
        for beta in fr.basis_idx:
            row = np.zeros(e * n, dtype=np.int64)
            for sign, x, c in terms:
                row[x * e:(x + 1) * e] += sign * fr.reduce_mat[t.mul[beta, c]]
            rows.append(row % p)

    for a in range(n):
        for b in range(a, n):
            relation([(1, t.add[a, b], one), (-1, a, one), (-1, b, one),
                      (1, fr.p_one_idx, t.witt_carry_idx(a, b))])
            relation([(1, t.mul[a, b], one), (-1, a, t.frob[b]),
                      (-1, b, t.frob[a])])
            if len(rows) >= 1024:
                span.add_rows(np.array(rows))
                rows = []
    if rows:
        span.add_rows(np.array(rows))
    return span.rank


RINGS_DIR = os.path.join(os.path.dirname(__file__), os.pardir, "rings")


def _ring_file(name):
    with open(os.path.join(RINGS_DIR, name), encoding="utf-8") as fh:
        return parse_ring(fh.read())


REFERENCE_RINGS = [
    (Z4, None), (Z9, None), (F2_EPS, None), (F2_EPS3, None), (F3_EPS, None),
    (Z4_MIXED, None), (F4, None), (F9, None),
    (ring_of(PrimeField(5), (), []), None),
    (ring_of(PrimeField(7), (), []), 7),
    (ring_of(PrimeField(2), ("x",), ["x^5"]), 32),
    (ring_of(PrimeSquareRing(2), ("x",), ["x^2 - 2"]), 81),
    (ring_of(PrimeSquareRing(2), ("x",), ["x^2 - 2*x"]), 81),
    (ring_of(PrimeSquareRing(3), ("x",), ["x^2", "3*x"]), 81),
    (ring_of(PrimeSquareRing(2), ("x", "y"),
           ["x^2", "y^2", "x*y", "2*x", "2*y"]), 81),
    (ring_of(PrimeField(2), ("x", "y"), ["x^2", "y^2"]), None),
    (parse_ring("base: Fq(2,2)\nvars: x\nrel: x^2 + x + t\n"), None),
    (ring_of(PrimeField(5), ("x",), ["x^2"]), None),
    (ring_of(PrimeSquareRing(5), (), []), None),
    (ring_of(PrimeField(3), ("x", "y"), ["x^2", "y^2"]), None),
    (ring_of(PrimeSquareRing(3), ("x",), ["x^2"]), None),
    (_ring_file("zp2.ring"), None),
]


def _ring_id(pres):
    d = pres.describe()
    return f"{d['base']}[{','.join(d['vars'])}]/({';'.join(d['relations'])})"


@pytest.mark.parametrize("pres,max_size", REFERENCE_RINGS,
                         ids=[_ring_id(pres) for pres, _ in REFERENCE_RINGS])
def test_generator_oracle_matches_all_pairs_reference(pres, max_size):
    fr = FiniteRing.from_presentation(pres, max_size=max_size)
    verify_axioms(_check_tables(fr))
    um = brute_fw(fr)
    # Leibniz rows on generator pairs, and when p*1 != 0 the additive rows
    # off the tree and the [p] row; e rows each, e per free symbol wide
    n, g, e = fr.size, len(fr.basis_idx), fr.carrier_dim
    with_p = fr.p_one_idx != fr.zero_idx
    rows = [batch.shape for batch in relation_rows(fr)]
    assert {width for _, width in rows} == {e * (g + with_p)} == {um.ncols}
    assert sum(h for h, _ in rows) == e * (g * (g + 1) // 2
                                           + with_p * (n * g - n + 2))
    rank = _all_pairs_rank(fr)
    # the ranks are taken in different coordinates: compare dimensions
    assert um.dimension == fr.size * fr.carrier_dim - rank
    assert element_brute_fw(fr).dimension == um.dimension


BENCH_RINGS_DIR = os.path.join(os.path.dirname(__file__), os.pardir,
                               "fwbench", "rings", "oracle")


@pytest.mark.parametrize("name", sorted(os.listdir(BENCH_RINGS_DIR)))
def test_generator_oracle_matches_references_on_bench_rings(name):
    with open(os.path.join(BENCH_RINGS_DIR, name), encoding="utf-8") as fh:
        fr = FiniteRing.from_presentation(parse_ring(fh.read()))
    verify_axioms(_check_tables(fr))
    assert brute_fw(fr).dimension == element_brute_fw(fr).dimension


def test_generator_rows_match_the_reference_tables():
    """On every ring that builds from rings/ and fwbench/rings/oracle/
    within 4096 elements, the generator rows, the structure-constant
    products and the digit sums of all n^2 pairs, the Frobenius of each
    generator and the Witt carries P(a, g_u) agree with the tables that
    tests/routes.py fills along a tree.  p*1 has no generator digit, so
    it is never a generator."""
    built = 0
    for path in sorted(os.path.join(folder, name)
                       for folder in (RINGS_DIR, BENCH_RINGS_DIR)
                       for name in os.listdir(folder)):
        with open(path, encoding="utf-8") as fh:
            pres = parse_ring(fh.read())
        try:
            fr = FiniteRing.from_presentation(pres, max_size=4096)
        except SizeRefusalError:  # infinite
            continue
        t = operation_tables(fr)
        gens = np.array(fr.basis_idx)
        i, j = np.ogrid[:fr.size, :fr.size]
        assert (fr.mulg == t.mul[gens]).all(), path
        assert (fr.addg == t.add[gens]).all(), path
        assert (fr.product(i, j) == t.mul).all(), path
        assert (fr.plus(i, j) == t.add).all(), path
        assert (oracle._frobenius_of_generators(fr) == t.frob[gens]).all()
        a, u = np.ogrid[:fr.size, :gens.size]
        assert (fr.witt_carry_gen(a, u) == t.witt_carry_idx(a, gens[u])).all()
        assert not fr.digits[fr.p_one_idx, :gens.size].any(), path
        built += 1
    assert built == 42


def _rows_sent(monkeypatch):
    """The heights of the row batches every ModPSpan is given from now on."""
    heights = []
    real = ModPSpan.add_rows
    monkeypatch.setattr(ModPSpan, "add_rows", lambda span, rows:
                        heights.append(len(rows)) or real(span, rows))
    return heights


@pytest.mark.parametrize("pres", [
    F2_EPS3, F3_EPS,
    ring_of(PrimeField(2), ("x", "y"), ["x^2", "y^2"]),
    ring_of(PrimeField(2), ("x",), ["x^5"]),
    parse_ring("base: Fq(2,2)\nvars: x\nrel: x^2\n"),
    ring_of(PrimeSquareRing(2), ("x",), ["x^3", "2"]),
], ids=_ring_id)
def test_rings_with_p_zero_send_only_their_leibniz_rows(monkeypatch, pres):
    """When p*1 = 0 the additive rows are zero in tree coordinates, so
    brute_fw ranks the Leibniz block alone: e rows for each generator pair
    g <= h, though the rank stays below full.  The dimension is still the
    presented one and the per-element reference's."""
    fr = FiniteRing.from_presentation(pres, max_size=81)
    assert fr.p_one_idx == fr.zero_idx
    heights = _rows_sent(monkeypatch)
    um = brute_fw(fr)
    g, e = len(fr.basis_idx), fr.carrier_dim
    assert sum(heights) == e * g * (g + 1) // 2
    assert 0 < um.rank < um.ncols
    assert um.dimension == presented_fp_dimension(present_fw(pres), fr)
    assert um.dimension == element_brute_fw(fr).dimension


@pytest.mark.parametrize("pres,leibniz_rank,rank,dim", [
    (ring_of(PrimeSquareRing(2), ("x",), ["2*x", "x^3"]), 6, 7, 5),
    (ring_of(PrimeSquareRing(3), ("x",), ["3*x", "x^4"]), 12, 13, 7),
], ids=["Z4[x]/(2x,x^3)", "Z9[x]/(3x,x^4)"])
def test_zp2_rings_keep_their_additive_rows(monkeypatch, pres, leibniz_rank,
                                            rank, dim):
    """Where p*1 != 0 the additive rows raise the rank past the Leibniz
    block's, and brute_fw still ranks them."""
    fr = FiniteRing.from_presentation(pres, max_size=243)
    leibniz = next(relation_rows(fr))
    span = ModPSpan(fr.p, leibniz.shape[1])
    span.add_rows(leibniz)
    assert span.rank == leibniz_rank
    heights = _rows_sent(monkeypatch)
    um = brute_fw(fr)
    assert sum(heights) > len(leibniz)
    assert um.rank == rank
    assert um.dimension == presented_fp_dimension(present_fw(pres), fr) == dim


class _Judged(Exception):
    """Stops a probe ring once its structure constants are judged."""


def _check_both_ways(fr, corrupt):
    """(refusal, reference) for fr rebuilt with corrupt applied to its
    carries and generator products: the structure-constant check's
    refusal message (None when it accepts), and the reference verdict on
    the tables that tests/routes.py fills from the corrupted sums and
    products, namely the identity element when they satisfy every ring
    axiom (verify_axioms) and have one, else False.  reference is None
    when the generators do not reach every element, so that there are
    no tables."""

    class Probe(FiniteRing):
        def _closures(self):
            carries, prods = super()._closures()
            corrupt(carries, prods)
            self.prods = prods
            return carries, prods

        def _check_ring(self, prods):
            try:
                super()._check_ring(prods)
                self.refusal = None
            except PresentationError as e:
                self.refusal = str(e)
            raise _Judged(self)

    with pytest.raises(_Judged) as judged:
        rebuilt(fr, cls=Probe)
    probe, = judged.value.args
    addg = probe._index(probe.digits + probe.digits[probe.basis_idx][:, None])
    reached = np.array([probe.zero_idx])
    while reached.size < probe.size:
        grown = np.union1d(reached, addg[:, reached])
        if grown.size == reached.size:
            return probe.refusal, None
        reached = grown
    t = OperationTables(probe, *fill_tables(probe.zero_idx, addg,
                                            probe.prods @ probe._weights))
    try:
        verify_axioms(t)
    except PresentationError:
        return probe.refusal, False
    ident = np.flatnonzero((t.mul == np.arange(probe.size)).all(axis=1))
    return probe.refusal, (int(ident[0]) if ident.size else False)


def _corruptions(fr):
    """Every corruption of one carry c_u (its p-digits) or of one
    generator product, written to the entry (u, w) alone or to (u, w) and
    (w, u) alike: (table, entries, new digits)."""
    p, g = fr.p, fr.carrier_dim
    d = fr.digits.shape[1]
    out = []
    for u in range(g):
        carry = fr.digits[fr.int_mult_idx(p, fr.basis_idx[u])][g:].tolist()
        for new in map(list, itertools.product(range(p), repeat=d - g)):
            if new != carry:
                out.append(("carries", [u], new))
        for w in range(g):
            old = fr.digits[fr.mulg[u, fr.basis_idx[w]]]
            for new in map(list, itertools.product(range(p), repeat=d)):
                if new != old.tolist():
                    out.append(("prods", [(u, w)], new))
                    if u < w:
                        out.append(("prods", [(u, w), (w, u)], new))
    return out


@pytest.mark.parametrize("pres", [Z4, Z9, F2_EPS3, F3_EPS, Z4_MIXED, F4,
                                  ring_of(PrimeField(2), ("x", "y"),
                                          ["x^2", "y^2"]),
                                  ring_of(PrimeSquareRing(3), ("x",), ["x^2"]),
                                  ring_of(PrimeField(3), ("x", "y"),
                                          ["x^2", "y^2"])],
                         ids=_ring_id)
def test_table_check_rejects_what_the_exhaustive_check_rejects(pres):
    """Corrupt one carry c_u or one generator product (every such
    corruption, or 60 of them drawn at random where there are more): the
    structure-constant check must refuse whatever the exhaustive O(n^3)
    check of the filled tables refuses, and what it accepts has canon(1)
    as its identity.  It may refuse a ring the reference accepts for two
    reasons only, counted here: a p-digit that is not exactly p times a
    generator, and an identity other than canon(1), such as 1 * 1 = 3
    over Z/4 (a ring with identity 3).  Corrupted carries can leave the
    generators short of some elements; the check must refuse those, and
    the reference has no tables to judge.  Every ring sees corruptions
    that both refuse."""
    fr = FiniteRing.from_presentation(pres)
    assert _check_both_ways(fr, lambda c, s: None) == (None, fr.one_idx)
    cases = _corruptions(fr)
    if len(cases) > 60:
        rng = np.random.RandomState(11)
        cases = [cases[i] for i in rng.choice(len(cases), 60, replace=False)]
    outcomes = dict.fromkeys(
        ("accepted", "refused", "no tables", "p-digit", "identity"), 0)
    for table, entries, new in cases:

        def corrupt(carries, prods):
            for entry in entries:
                if table == "carries":
                    carries[entry][fr.carrier_dim:] = new
                else:
                    prods[entry] = new

        refusal, reference = _check_both_ways(fr, corrupt)
        case = (table, entries, new, refusal, reference)
        if refusal is None:
            assert reference == fr.one_idx, case
            outcomes["accepted"] += 1
        elif reference is None:
            outcomes["no tables"] += 1
        elif reference is False:
            outcomes["refused"] += 1
        elif "p-digit" in refusal:
            outcomes["p-digit"] += 1
        else:
            assert reference != fr.one_idx, case
            outcomes["identity"] += 1
    assert outcomes["refused"] > 0, outcomes


def test_identity_other_than_canon_one_is_refused():
    """1 * 1 = 3 over Z/4 is a ring with identity 3, and the tables pass
    the exhaustive check; the structure-constant check refuses it, as
    canon(1) = 1 is not its identity."""
    fr = FiniteRing.from_presentation(Z4)
    three = fr.digits[fr.index_of(fr.digit_basis[0] * 3)]

    def corrupt(carries, prods):
        prods[0, 0] = three

    refusal, reference = _check_both_ways(fr, corrupt)
    assert "violate the ring axioms" in refusal
    assert reference == fr.index_of(fr.digit_basis[0] * 3) != fr.one_idx


def test_reference_covers_every_finite_ring_file():
    for name in sorted(os.listdir(RINGS_DIR)):
        pres = _ring_file(name)
        if name == "zp2.ring":
            assert FiniteRing.from_presentation(pres).size == 9
            continue
        with pytest.raises(SizeRefusalError, match="infinite"):
            FiniteRing.from_presentation(pres)


# ---------------------------------------------------------------------------
# generated rings: base[x] or base[x, y] modulo x^a (and y^b) and one
# random relation

GENERATED_BASES = [PrimeField(2), PrimeField(3), GaloisField(2, 2),
                   PrimeSquareRing(2), PrimeSquareRing(3)]
GENERATED_LIMIT = 243  # cross_check up to here; all-pairs tables up to 27


@st.composite
def generated_rings(draw):
    base = draw(st.sampled_from(GENERATED_BASES))
    elems = list(base.elements())
    # x^a, y^b leave at most |base|^(a b) elements
    places = int(math.log(GENERATED_LIMIT, len(elems)) + 1e-9)
    a = draw(st.integers(1, places))
    exps = [a] if draw(st.booleans()) else [a, draw(st.integers(1, places // a))]
    ring = PolyRing(base, ("x", "y")[:len(exps)])
    monos = st.tuples(*(st.integers(0, e) for e in exps))
    rel = ring.poly(draw(st.dictionaries(monos, st.sampled_from(elems),
                                         max_size=3)))
    powers = [ring.gen(i) ** e for i, e in enumerate(exps)]
    return RingPresentation(base, ring.variables,
                            tuple(powers + ([rel] if not rel.is_zero() else [])))


@settings(max_examples=100, deadline=None, derandomize=True)
@given(generated_rings())
def test_generated_rings_match_the_references(pres):
    """Zero rings are refused; otherwise the coordinate tables equal the
    all-pairs closure tables (up to 27 elements) and cross_check matches
    (up to 243)."""
    if pres.carrier_basis().is_trivial():
        with pytest.raises(PresentationError, match="zero ring"):
            FiniteRing.from_presentation(pres, max_size=GENERATED_LIMIT)
        return
    fr = FiniteRing.from_presentation(pres, max_size=GENERATED_LIMIT)
    if fr.size <= 27:
        _check_tables(fr)
    rep = cross_check(present_fw(pres), max_size=GENERATED_LIMIT)
    assert rep["match"] and rep["size"] == fr.size, rep


# ---------------------------------------------------------------------------
# the Z/p^2 route against the reference that tracks syzygies

def test_s_pair_torsion_enters_the_canonical_form():
    """In Z/4[x]/(x^2 + 2, x^3) the S-pair x(x^2 + 2) - x^3 = 2x reduces to
    2x, so x lies in U = (I : 2) mod 2: the ring has 8 elements, not 16."""
    pres = ring_of(PrimeSquareRing(2), ("x",), ["x^2 + 2", "x^3"])
    gb = groebner(pres.relations, ring=pres.poly_ring)
    assert pres.carrier_ring.gen(0) in gb.torsion
    fr = FiniteRing.from_presentation(pres)
    assert fr.size == 8
    assert cross_check(present_fw(pres))["match"]


class _RouteParts:
    """What a Z/p^2 route hands to FiniteRing, kept without the tables."""

    def __init__(self, p, digit_basis, ngens, canon, digits_of, label):
        d = len(digit_basis)
        self.size, self.digit_basis = p ** d, digit_basis
        self.ngens, self.canon = ngens, canon
        self.digits = (np.arange(self.size)[:, None]
                       // p ** np.arange(d - 1, -1, -1)) % p


ZP2_LIMIT = 3125


def _route_or_refusal(route, *args, **kwargs):
    try:
        return route(*args, **kwargs)
    except (PresentationError, SizeRefusalError) as e:
        return type(e), str(e)


@st.composite
def zp2_presentations(draw):
    p = draw(st.sampled_from([2, 3, 5]))
    base = PrimeSquareRing(p)
    ring = PolyRing(base, ("x", "y")[:draw(st.integers(1, 2))])
    monos = st.tuples(*(st.integers(0, 3) for _ in ring.variables))
    rels = []
    for _ in range(draw(st.integers(1, 4))):
        f = ring.poly(draw(st.dictionaries(
            monos, st.integers(1, p * p - 1), min_size=1, max_size=3)))
        rels.append(f * draw(st.sampled_from([1, 1, p])))
    return RingPresentation(base, ring.variables, tuple(rels))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(zp2_presentations())
def test_zp2_route_matches_the_syzygy_reference(pres):
    """The route on leading unit terms and torsion refuses what the
    reference refuses, and otherwise lists the same digit basis (the
    standard monomials S and stairU) and gives the same canonical form to
    every product of two digit-basis elements and to p times every digit
    basis element (every element, up to 81)."""
    got = _route_or_refusal(FiniteRing.from_presentation.__func__,
                            _RouteParts, pres, ZP2_LIMIT)
    want = _route_or_refusal(finite_ring_zp2_by_syzygies, pres, ZP2_LIMIT,
                             cls=_RouteParts)
    if isinstance(want, tuple) or isinstance(got, tuple):
        assert got == want
        return
    assert (got.size, got.ngens) == (want.size, want.ngens)
    assert got.digit_basis == want.digit_basis
    basis = want.digit_basis
    p = pres.p
    for i, a in enumerate(basis):
        assert got.canon(a * p) == want.canon(a * p)
        for b in basis[i:]:
            assert got.canon(a * b) == want.canon(a * b)
    if want.size <= 81:
        for row in want.digits.tolist():
            e = sum((b * c for c, b in zip(row, basis) if c),
                    pres.poly_ring.zero())
            assert got.canon(e * p) == want.canon(e * p)
    gb = groebner(pres.relations, ring=pres.poly_ring)
    images = groebner(pres.relations_mod_p(), ring=pres.carrier_ring)
    assert tuple(f.map_coeffs(pres.residue_field, reduce_mod_p)
                 for f in gb.polys) == images.polys
