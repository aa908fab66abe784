"""Coefficient rings: Z/p^2, F_q, the test-only Galois ring covers of
F_q, and the base Witt data."""

import glob
import io
import itertools
import os
import random

import pytest
import sympy
from sympy.polys.domains import ZZ
from sympy.polys.galoistools import gf_mul, gf_rem

from fwdiff.cli import run
from fwdiff.errors import PresentationError, SizeRefusalError
from fwdiff.fwcore import check_axioms
from fwdiff.modarith import (
    GaloisField,
    PrimeField,
    PrimeSquareRing,
    Residue,
    default_minpoly,
    embed,
    is_prime,
    reduce_mod_p,
    w_base,
)
from routes import GaloisRing, lift_to_p2, p2_cover_of, witt_P_scalars

PRIMES = [2, 3, 5, 7]


@pytest.mark.parametrize("p", PRIMES)
def test_prime_field_is_a_field(p):
    k = PrimeField(p)
    elems = list(k.elements())
    assert len(elems) == p == k.order()
    for a in elems:
        if not a.is_zero():
            assert a * a.inv() == k.one()
        assert a ** p == a  # Fermat


def test_non_prime_modulus_rejected():
    with pytest.raises(Exception):
        PrimeField(4)
    with pytest.raises(Exception):
        PrimeSquareRing(6)


def test_is_prime_matches_sympy_below_the_bound():
    """Miller-Rabin to the first 13 prime bases agrees with sympy on every
    n below 20000, on random n up to the bound, and on the least strong
    pseudoprimes to the first 11 and to the first 12 prime bases; the
    bound itself is refused."""
    rng = random.Random(13)
    bound = 3317044064679887385961981
    samples = list(range(20000)) + [rng.randrange(bound) for _ in range(2000)]
    samples += [3825123056546413051, 318665857834031151167461,
                1000000000000000003, bound - 2]
    for n in samples:
        assert is_prime(n) == sympy.isprime(n), n
    with pytest.raises(SizeRefusalError):
        is_prime(bound)


@pytest.mark.parametrize("p", PRIMES)
def test_prime_square_ring_units(p):
    R = PrimeSquareRing(p)
    for a in R.elements():
        if a.value % p:
            assert a * a.inv() == R.one()
        else:
            with pytest.raises(Exception):
                a.inv()


def test_residue_int_comparison_and_hash():
    k = PrimeField(5)
    assert k.of_int(7) == 2
    assert k.of_int(7) == k.of_int(2)
    assert hash(k.of_int(7)) == hash(k.of_int(2))
    assert k.of_int(1) != PrimeField(3).of_int(1)


# ---------------------------------------------------------------------------
# extension rings

def test_default_minpoly_deterministic_and_known():
    # the first monic irreducible quadratic over F_2 is t^2 + t + 1
    assert default_minpoly(2, 2) == (1, 1, 1)
    assert default_minpoly(2, 2) == default_minpoly(2, 2)
    assert default_minpoly(3, 1) == (0, 1) or default_minpoly(3, 1)[1] == 1


def test_minimal_polynomial_search_is_bounded_and_kept(monkeypatch):
    """A field is built, printed and built again on one search; a search
    past PRODUCT_BOUND trial divisions is refused."""
    from fwdiff import modarith
    from fwdiff.ringfile import parse_ring, render_ring

    searches = []
    real = modarith._factor_search

    def counted(p, what):
        searches.append((p, what))
        return real(p, what)

    monkeypatch.setattr(modarith, "_factor_search", counted)
    default_minpoly.cache_clear()
    pres = parse_ring("base: Fq(3,4)\nvars: x\nrel: x - t\n")
    assert render_ring(pres).startswith("base: Fq(3,4)\n")
    assert GaloisField(3, 4) == pres.base
    assert len(searches) == 1
    # degree 4 over F_31 takes 31 + 31^2 divisions per irreducible candidate
    monkeypatch.setattr(modarith, "PRODUCT_BOUND", 900)
    default_minpoly.cache_clear()
    with pytest.raises(SizeRefusalError, match="than 900 trial divisions"):
        default_minpoly(31, 4)
    with pytest.raises(SizeRefusalError, match="trial divisions"):
        GaloisField(31, 4, (1, 1, 0, 0, 1))
    monkeypatch.undo()
    default_minpoly.cache_clear()
    assert default_minpoly(31, 4) == (1, 1, 0, 0, 1)


def test_tag_spells_the_minimal_polynomial_when_the_default_is_refused(
        monkeypatch):
    """Under a bound of 1000 trial divisions one irreducibility check over
    F_31 in degree 4 (31 + 31^2) passes but the search for the default is
    refused, so Fq(31,4) would not read back: the tag spells t^4+t+1."""
    from fwdiff import modarith

    monkeypatch.setattr(modarith, "PRODUCT_BOUND", 1000)
    default_minpoly.cache_clear()
    assert GaloisField(31, 4, (1, 1, 0, 0, 1)).tag() == "Fq(31,4,t^4+t+1)"
    monkeypatch.undo()
    default_minpoly.cache_clear()
    assert GaloisField(31, 4, (1, 1, 0, 0, 1)).tag() == "Fq(31,4)"


@pytest.mark.parametrize("minpoly,tag", [
    (None, "Fq(3,2)"), ((2, 2, 1), "Fq(3,2,t^2+2*t+2)"),
], ids=["default", "custom"])
def test_tag_adds_no_attribute_to_the_field(minpoly, tag):
    """An attribute first set on a field after __init__ made later
    arithmetic on it 5-20% slower (F_25 and F_49 on CPython 3.11): the tag
    is kept in an attribute that __init__ already made."""
    k = GaloisField(3, 2, minpoly)
    before = list(vars(k))
    assert k.tag() == tag and k.tag() is k.tag()
    assert list(vars(k)) == before


@pytest.mark.parametrize("p,e", [(2, 2), (2, 3), (3, 2), (5, 2)])
def test_galois_field_structure(p, e):
    F = GaloisField(p, e)
    elems = list(F.elements())
    assert len(elems) == p**e == F.order()
    for a in elems:
        assert a ** (p**e) == a
        if not a.is_zero():
            assert a * a.inv() == F.one()
    t = F.generator()
    # the generator satisfies its minimal polynomial
    acc = F.zero()
    for i, c in enumerate(F.minpoly):
        acc = acc + F.of_int(c) * t**i
    assert acc.is_zero()


def _sympy_product(F, a, b):
    """a * b in F_p[t]/(m) by sympy's dense F_p arithmetic, which lists
    coefficients high degree first."""
    prod = gf_mul(a.value[::-1], b.value[::-1], F.p, ZZ)
    rem = gf_rem(prod, F.minpoly[::-1], F.p, ZZ)[::-1]
    return tuple(int(c) for c in rem) + (0,) * (F.degree - len(rem))


@pytest.mark.parametrize("p,e,pairs", [
    (2, 2, None), (2, 3, None), (3, 2, None), (5, 2, None), (2, 8, 3000),
], ids=["F4", "F8", "F9", "F25", "F256_sampled"])
def test_galois_field_products_match_sympy(p, e, pairs):
    """Every product of F_4, F_8, F_9 and F_25, and 3000 seeded pairs of
    F_256, agree with sympy's product reduced by the minimal polynomial."""
    F = GaloisField(p, e)
    elems = list(F.elements())
    if pairs is None:
        sample = itertools.product(elems, repeat=2)
    else:
        rng = random.Random(256)
        sample = [(rng.choice(elems), rng.choice(elems)) for _ in range(pairs)]
    for a, b in sample:
        assert (a * b).value == _sympy_product(F, a, b)


def test_lowering_the_one_product_bound_bounds_every_loop(monkeypatch):
    """PRODUCT_BOUND has one copy, modarith's: lowered there alone it
    refuses a power, a product by a scalar, a division, a one-term
    division, a Witt carry, a staircase search, a point enumeration, a
    minimal-polynomial search and an axiom block, with no variables too,
    each of which passes at the default bound; each refusal begins with
    its own loop's phrase and names the unit that loop counts.  The
    one-term dividend is counted from its own first step on."""
    from fwdiff import modarith
    from fwdiff.localalg import rational_points
    from fwdiff.mpoly import (PolyRing, groebner, normal_form, staircase_dim,
                              witt_Q)
    from routes import ring_of

    x, y = PolyRing(PrimeField(5), ("x", "y")).gens()
    gb = groebner([x**2 - y, y**3 - x - 1])
    f = (x + y + 2) ** 9
    g = (x + y + 1) ** 4
    square = sum((x**i * y**j for i in range(3) for j in range(3)), 0)
    u, v = PolyRing(PrimeSquareRing(5), ("u", "v")).gens()
    cycle = [tuple(int(i in (j, (j + 1) % 12)) for i in range(12))
             for j in range(12)]
    cusp = ring_of(PrimeField(5), ("x", "y"), ["y^2 - x^3"])

    def minpoly():
        default_minpoly.cache_clear()
        return default_minpoly(5, 4)

    loops = {
        "power": (lambda: (x + 1) ** 20, "the power 20 of 2 terms",
                  "value products"),
        "scalar product": (lambda: g * 3, "a product of 15 and 1 terms",
                           "value products"),
        "division": (lambda: normal_form(f, gb), "the division of 45 terms",
                     "terms"),
        "one-term division": (lambda: normal_form(x**2 * y**2, [square]),
                              "the division of 1 terms", "terms"),
        "witt_Q": (lambda: witt_Q(u + v + 1), "the Witt carry Q",
                   "value products"),
        "staircase_dim": (lambda: staircase_dim(cycle, 12),
                          "the Krull dimension", "search nodes"),
        "rational_points": (lambda: rational_points(cusp), "enumerating",
                            "candidates"),
        "default_minpoly": (minpoly, "finding an irreducible polynomial",
                            "trial divisions"),
        "check_axioms": (lambda: check_axioms(3, 2, trials=20),
                         "checking the axioms", "key digits"),
        "check_axioms, no variables": (
            lambda: check_axioms(3, 0, trials=20), "checking the axioms",
            "key digits"),
    }
    for run, _, _ in loops.values():
        run()
    monkeypatch.setattr(modarith, "PRODUCT_BOUND", 10)
    for name, (run, phrase, unit) in loops.items():
        with pytest.raises(SizeRefusalError) as refused:
            run()
            pytest.fail(f"{name} ran past a bound of 10")
        assert str(refused.value).startswith(phrase + " "), name
        assert str(refused.value).endswith(f"more than 10 {unit}"), name
    monkeypatch.undo()
    default_minpoly.cache_clear()


def test_frobenius_is_a_ring_map():
    F = GaloisField(3, 2)
    for a in F.elements():
        for b in F.elements():
            assert (a + b) ** 3 == a**3 + b**3
            assert (a * b) ** 3 == a**3 * b**3


@pytest.mark.parametrize("R,value", [
    (PrimeField(7), 3), (PrimeSquareRing(5), 7), (GaloisField(3, 2), (1, 2)),
    (GaloisRing(GaloisField(2, 3)), (3, 1, 2))], ids=str)
def test_pow_takes_no_square_after_its_last_bit(R, value, monkeypatch):
    """Square and multiply takes popcount(n) products and bitlen(n) - 1
    squares, on the library's rings and on the tests' GR(2^2, 3)."""
    powers = [R.one().value]
    for _ in range(70):
        powers.append(R._mul(powers[-1], value))
    taken = []
    real = type(R)._mul
    monkeypatch.setattr(type(R), "_mul",
                        lambda self, a, b: taken.append(1) or real(self, a, b))
    for n in range(1, 71):
        taken.clear()
        assert R._pow(value, n) == powers[n], n
        assert len(taken) == bin(n).count("1") + n.bit_length() - 1, n


def test_embeddings_are_ring_maps():
    k = PrimeField(3)
    F = GaloisField(3, 2)
    for a in k.elements():
        for b in k.elements():
            assert embed(a, F) + embed(b, F) == embed(a + b, F)
            assert embed(a, F) * embed(b, F) == embed(a * b, F)
    R = PrimeSquareRing(3)
    G = p2_cover_of(F)
    for a in R.elements():
        assert embed(a, G) ** 2 == embed(a * a, G)


EIGHT_RINGS = [PrimeField(2), PrimeField(3), PrimeSquareRing(2),
               PrimeSquareRing(3), GaloisField(2, 2), GaloisField(3, 2),
               p2_cover_of(GaloisField(2, 2)), p2_cover_of(GaloisField(3, 2))]


def test_embeddings_are_exactly_the_canonical_ones():
    """A ring embeds into itself, F_p into F_q of the same p, and Z/p^2
    into the tests' GR(p^2, e) of the same p: no other ordered pair of
    these."""
    into = {PrimeField: (GaloisField,), PrimeSquareRing: (GaloisRing,)}
    for a in EIGHT_RINGS:
        for b in EIGHT_RINGS:
            canonical = a == b or (a.p == b.p
                                   and type(b) in into.get(type(a), ()))
            assert a.embeds_into(b) == canonical, (a, b)
            if canonical:
                assert embed(a.one(), b) == b.one()
            else:
                with pytest.raises(PresentationError, match="no embedding"):
                    embed(a.one(), b)


def test_every_accepted_embedding_is_a_ring_map():
    """embed is additive and multiplicative on all element pairs wherever
    embeds_into accepts.  Reading an int value of F_p in Z/p^2 or
    GR(p^2, e) is not: over p = 3, 2 + 2 = 1 maps to 1, but the images
    of 2 add up to 4 in Z/9."""
    for a in EIGHT_RINGS:
        for b in EIGHT_RINGS:
            if not a.embeds_into(b):
                continue
            elems = [Residue(a, v) for v in itertools.product(
                range(a.modulus), repeat=a.degree)] if a.degree > 1 \
                else list(a.elements())
            for x in elems:
                for y in elems:
                    assert embed(x, b) + embed(y, b) == embed(x + y, b), \
                        (a, b, x, y)
                    assert embed(x, b) * embed(y, b) == embed(x * y, b), \
                        (a, b, x, y)


@pytest.mark.parametrize("make", [GaloisField], ids=lambda c: c.__name__)
def test_an_extension_of_degree_one_is_refused(make):
    """Degree 1 is F_p, on ints; a second F_p on 1-tuples would have a
    generator t = 1 although t = 0 mod its minimal polynomial t."""
    with pytest.raises(PresentationError, match="degree 1 is Fp"):
        make(3, 1)
    with pytest.raises(PresentationError, match="degree 1 is Fp"):
        make(5, 1, (2, 1))
    assert default_minpoly(3, 1) == (0, 1)
    assert PrimeField(3).degree == PrimeSquareRing(3).degree == 1


def test_lift_reduce_round_trip():
    for p in [2, 3, 5]:
        R = PrimeSquareRing(p)
        k = PrimeField(p)
        for a in k.elements():
            assert reduce_mod_p(lift_to_p2(a)) == a
        assert p2_cover_of(k) == R
        assert R.residue_field() == k
    F = GaloisField(2, 3)
    G = p2_cover_of(F)
    assert isinstance(G, GaloisRing)
    assert G.residue_field() == F
    for a in F.elements():
        b = lift_to_p2(a)
        assert b.ring is G and Residue(F, tuple(x % 2 for x in b.value)) == a


def _count_builds(monkeypatch, cls):
    built = []
    init = cls.__init__

    def counting_init(self, *args, **kwargs):
        built.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(cls, "__init__", counting_init)
    return built


def test_library_builds_no_cover_rings(monkeypatch):
    """An oracle job over Z/p^2 builds no Z/p^2 beyond the one its ring
    file names."""
    squares = _count_builds(monkeypatch, PrimeSquareRing)
    oracle_rings = os.path.join(os.path.dirname(__file__), os.pardir,
                                "fwbench", "rings", "oracle")
    jobs = 0
    for path in sorted(glob.glob(os.path.join(oracle_rings, "z*.ring"))):
        squares.clear()
        assert run(["oracle", "--json", "-i", path], out=io.StringIO()) == 0
        assert len(squares) <= 1, (path, len(squares))
        jobs += 1
    assert jobs == 12


# ---------------------------------------------------------------------------
# Witt data

@pytest.mark.parametrize("p", [2, 3, 5])
def test_witt_P_scalars_matches_polynomial(p):
    """P(a, b) = ((a~ + b~)^p - a~^p - b~^p) / p mod p on integer lifts."""
    R = PrimeSquareRing(p)
    k = PrimeField(p)
    for a in R.elements():
        for b in R.elements():
            abar, bbar = reduce_mod_p(a), reduce_mod_p(b)
            got = witt_P_scalars(abar, bbar)
            x, y = abar.value, bbar.value
            want = k.of_int(((x + y)**p - x**p - y**p) // p)
            assert got == want


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_w_base_defining_equation_zp2(p):
    """p * w_base(a) lifts to a~ - a~^p mod p^2, for every a."""
    R = PrimeSquareRing(p)
    for a in R.elements():
        v = w_base(a)
        lhs = (p * v.value) % (p * p)
        rhs = (a.value - a.value**p) % (p * p)
        assert lhs == rhs


def _w_base_axioms(R):
    """w_base is the w(p)-coordinate of w on scalars: additivity picks up
    the Witt carry of the mod-p reductions, multiplication is twisted."""
    k = R.residue_field()
    elems = list(R.elements())
    for a in elems:
        for b in elems:
            abar, bbar = reduce_mod_p(a), reduce_mod_p(b)
            assert w_base(a + b) == w_base(a) + w_base(b) - witt_P_scalars(abar, bbar)
            assert w_base(a * b) == bbar**R.p * w_base(a) + abar**R.p * w_base(b)
    assert w_base(R.one()).is_zero()
    assert w_base(R.of_int(R.p)) == k.one()


@pytest.mark.parametrize("p", [2, 3, 5])
def test_w_base_axioms_prime_square(p):
    _w_base_axioms(PrimeSquareRing(p))


@pytest.mark.parametrize("p", [2, 3, 5])
def test_w_base_normalization(p):
    """w_base(p) = 1 and w_base(0) = w_base(1) = 0."""
    R = PrimeSquareRing(p)
    assert w_base(R.of_int(p)) == PrimeField(p).one()
    assert w_base(R.zero()).is_zero()
    assert w_base(R.one()).is_zero()


def test_mixed_ring_arithmetic_rejected():
    with pytest.raises(PresentationError):
        PrimeField(3).one() + PrimeField(5).one()
    with pytest.raises(PresentationError):
        PrimeField(3).coerce(PrimeSquareRing(3).one())


def test_residue_field_is_built_once_per_ring(monkeypatch):
    """Z/p^2 keeps its residue field: a check_axioms block constructs as
    many fields at 40 trials as at 5, and Z/p^2 hands back the same field
    on every call."""
    built = []
    for cls in (PrimeField, GaloisField):
        init = cls.__init__

        def counted(self, *args, _init=init, **kwargs):
            built.append(type(self))
            _init(self, *args, **kwargs)

        monkeypatch.setattr(cls, "__init__", counted)
    counts = []
    for trials in (5, 40):
        built.clear()
        check_axioms(3, 2, trials=trials, seed=1)
        counts.append(len(built))
    assert counts[0] == counts[1], counts
    R = PrimeSquareRing(5)
    assert R.residue_field() is R.residue_field() is R.residue_field()
    built.clear()
    a = R.of_int(7)
    for _ in range(4):
        a.inv()
        reduce_mod_p(a)
        w_base(a)
    assert built == []
