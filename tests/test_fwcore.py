"""The derivation presentation: w_poly, axiom fuzzing, functoriality,
base change, and the twisted-Kaehler cross-route for relative cokernels."""

import io
import itertools
import random
import time
from dataclasses import replace

import pytest

import routes
from fwdiff import fwcore, modarith
from fwdiff.cli import run
from fwdiff.errors import OffSchemeError, PresentationError
from fwdiff.fwcore import (
    PresentationMorphism,
    base_change_map,
    check_axioms,
    column_of,
    present_fw,
    relative_cokernel,
    w_poly,
)
from fwdiff.localalg import PointSpec, fiber_dim
from fwdiff.modarith import (
    GaloisField,
    PrimeField,
    PrimeSquareRing,
    reduce_mod_p,
)
from fwdiff.mpoly import PolyRing, frobenius_twist, witt_Q
from fwdiff.ringfile import parse_ring
from routes import (
    check_axioms_by_polys,
    lift_to_p2,
    p2_cover_of,
    random_poly,
    random_scalar,
    ring_of,
    twisted_relative_kahler,
    w_poly_by_polys,
    w_poly_charp,
    with_extra_relations,
)


# ---------------------------------------------------------------------------
# w_poly on concrete polynomials

def test_present_binomial_power_in_polynomial_time():
    """(x+1)^20 over F_7 has 21 terms; witt_Q of its Z/49 lift took
    18.9 s of CPU as a multinomial sum over about 888 000 exponent
    tuples.  The column is the twisted gradient, and the carry of the
    lift satisfies F^7 = F^(7) + 7 Q(F)."""
    pres = ring_of(PrimeField(7), ["x"], ["(x+1)^20"])
    start = time.process_time()
    fw = present_fw(pres)
    assert time.process_time() - start < 5.0
    (f,) = pres.relations
    gb = pres.carrier_basis()
    assert fw.columns == (tuple(gb.normal_form(e) for e in w_poly_charp(f)),)
    lift = f.map_coeffs(p2_cover_of(f.ring.coeff), lift_to_p2)
    assert lift**7 == frobenius_twist(lift) + witt_Q(lift) * 7


def test_charp_columns_compute_no_witt_carry(monkeypatch):
    """Over F_p and F_q the w(p) coordinate is dropped, so presenting the
    ring makes no Witt carry call; a Z/p^2 relation still makes one."""
    calls = []
    real = fwcore._witt_Q_raw
    monkeypatch.setattr(fwcore, "_witt_Q_raw",
                        lambda *args: calls.append(args) or real(*args))
    for pres in (ring_of(PrimeField(7), ["x"], ["(x+1)^20"]),
                 ring_of(PrimeField(3), ["x", "y"], ["y^2 - x^3", "x*y"]),
                 parse_ring("base: Fq(2,2)\nvars: x, y\n"
                            "rel: x^3 + t*y^2 + y\n")):
        present_fw(pres)
    assert calls == []
    present_fw(ring_of(PrimeSquareRing(3), ["x"], ["x^2 + 3*x"]))
    assert len(calls) == 1


def test_the_witt_carries_read_f_mod_p(monkeypatch):
    """Q(f) and P(f, g) are integer polynomials in the coefficients, each
    monomial holding each of its coefficients to a positive power, so mod
    p they depend only on f and g mod p, and a term that p divides adds
    nothing to them.  The w core, which reads Q mod p, hands _witt_Q_raw f
    mod p without such terms, and check_axioms hands _witt_P_raw f and g
    so reduced, at modulus p: every value lies in 1..p-1."""
    calls = {"_witt_Q_raw": [], "_witt_P_raw": []}
    for name, seen in calls.items():
        monkeypatch.setattr(fwcore, name, lambda *args, real=getattr(
            fwcore, name), seen=seen: seen.append(args) or real(*args))
    (f,) = ring_of(PrimeSquareRing(3), ["x", "y"],
                   ["3*x^2*y + 4*x*y + 6*y^2 + 2*x + 5"]).relations
    column_of(f)
    assert sorted(calls["_witt_Q_raw"][0][0].values()) == [1, 2, 2]
    assert check_axioms(3, 2, trials=40, seed=7).passed
    assert len(calls["_witt_Q_raw"]) > 1 and calls["_witt_P_raw"]
    for raw, p in calls["_witt_Q_raw"]:
        assert all(0 < c < p for c in raw.values())
    for a, b, p, modulus in calls["_witt_P_raw"]:
        assert modulus == p
        assert all(0 < c < p for c in (*a.values(), *b.values()))


@pytest.mark.parametrize("p,e", [(5, 10), (7, 14)])
def test_present_answers_relations_sparse_mod_p(tmp_path, monkeypatch, p, e):
    """(x+y+z+1)^(2p) over Z/p^2 has 218 terms at p = 5 and 474 at p = 7,
    but only 10 mod p, where it is (x^p+y^p+z^p+1)^2.  Its Witt carry Q
    over every term was refused at PRODUCT_BOUND; read on f mod p it is
    answered.  At p = 5 the column is that of the full-coefficient route:
    the public witt_Q of every term, under a raised bound."""
    text = f"base: Zp2({p})\nvars: x, y, z\nrel: (x+y+z+1)^{e}\n"
    path = tmp_path / "sparse.ring"
    path.write_text(text)
    err = io.StringIO()
    assert run(["present", "-i", str(path)], out=io.StringIO(), err=err) == 0
    assert err.getvalue() == ""
    if p == 5:
        (f,) = parse_ring(text).relations
        got = column_of(f)
        monkeypatch.setattr(modarith, "PRODUCT_BOUND", 10**8)
        monkeypatch.setattr(routes, "witt_Q_multinomial", witt_Q)
        assert [v.terms for v in got] == \
            [v.terms for v in w_poly_by_polys(f)]


def test_w_of_square_p3():
    """w(X^2) = 2 X^3 w(X) over Z/9."""
    ring = PolyRing(PrimeSquareRing(3), ("X",))
    X = ring.gen(0)
    wx, wp = w_poly(X**2)
    k = PrimeField(3)
    kring = ring.with_coeff(k)
    assert wx == kring.poly({(3,): k.of_int(2)})
    assert wp.is_zero()


@pytest.mark.parametrize("p", [2, 3, 5])
def test_w_of_p_times_variable(p):
    """w(pY) = Y^p w(p): the coefficient lands on the w(p) coordinate."""
    ring = PolyRing(PrimeSquareRing(p), ("Y",))
    Y = ring.gen(0)
    wy, wp = w_poly(Y * p)
    k = PrimeField(p)
    assert wy.is_zero()
    assert wp == ring.with_coeff(k).poly({(p,): k.one()})


@pytest.mark.parametrize("p", [2, 3, 5])
def test_w_kills_constants_one_and_zero(p):
    ring = PolyRing(PrimeSquareRing(p), ("X",))
    for f in (ring.one(), ring.zero(), ring.constant(ring.coeff.of_int(p * p))):
        assert all(c.is_zero() for c in w_poly(f))
    # but w(p) itself is the second unit vector
    wx, wp = w_poly(ring.constant(ring.coeff.of_int(p)))
    assert wx.is_zero()
    assert wp == ring.with_coeff(PrimeField(p)).one()


@pytest.mark.parametrize("p,n", [(2, n) for n in range(1, 7)]
                         + [(3, n) for n in range(1, 7)])
def test_power_rule_two_routes(p, n):
    """w(f^n) = n f^(p(n-1)) w(f), computed independently on both sides."""
    rng = random.Random(97 * p + n)
    ring = PolyRing(PrimeSquareRing(p), ("X", "Y"))
    k = PrimeField(p)
    for _ in range(8):
        f = random_poly(rng, ring, max_terms=3, max_degree=2)
        lhs = w_poly(f**n)
        fbar = f.map_coeffs(k, reduce_mod_p)
        scalar = fbar ** (p * (n - 1)) * n
        wf = w_poly(f)
        assert lhs == [scalar * c for c in wf]


def test_w_poly_rejects_field_coefficients():
    ring = PolyRing(PrimeField(3), ("X",))
    with pytest.raises(PresentationError):
        w_poly(ring.gen(0))
    with pytest.raises(PresentationError):
        w_poly_charp(PolyRing(PrimeSquareRing(3), ("X",)).gen(0))


@pytest.mark.parametrize("base", [
    PrimeSquareRing(3), PrimeSquareRing(2), PrimeField(5), GaloisField(2, 2),
    GaloisField(3, 2),
], ids=lambda R: R.tag())
@pytest.mark.parametrize("nvars", [0, 1, 2])
def test_w_poly_and_column_of_split_the_packed_vector(base, nvars):
    """The w core packs every coordinate into one vector; split again, it
    gives the references' coordinates on constants, on X^p (whose
    derivatives all vanish, as does its w), with no variables, and over
    F_q (column_of only: w_poly needs Z/p^2)."""
    p, rng = base.p, random.Random(nvars)
    ring = PolyRing(base, tuple(f"x{i+1}" for i in range(nvars)))
    polys = [ring.zero(), ring.one(), ring.constant(random_scalar(rng, base))]
    polys += [x**p for x in ring.gens()]
    polys += [random_poly(rng, ring, max_terms=3, max_degree=p + 1)
              for _ in range(4)]
    got = {}
    if not base.is_field:
        got["w_poly"] = w_poly
    got["column_of"] = column_of
    for f in polys:
        want = w_poly_charp(f) if base.is_field else w_poly_by_polys(f)
        assert len(want) == nvars + (not base.is_field)
        for name, fn in got.items():
            assert fn(f) == want, (name, str(f))
    for x in ring.gens():
        for fn in got.values():
            assert all(c.is_zero() for c in fn(x**p))


# ---------------------------------------------------------------------------
# axiom fuzzing

@pytest.mark.parametrize("p,nvars,trials", [(2, 1, 60), (3, 2, 40), (5, 1, 15)])
def test_axioms_random(p, nvars, trials):
    rep = check_axioms(p, nvars, trials=trials, seed=0)
    assert rep.passed
    d = rep.describe()
    assert d["passed"] == trials and d["failures"] == []


def test_axioms_count_the_products_they_take():
    """At p = 13 in three variables the carries of fg would pass
    PRODUCT_BOUND if bound by the terms their powers could have; counted
    as taken, every trial runs."""
    assert check_axioms(13, 3, trials=20, seed=0).passed


def test_axioms_deterministic():
    a = check_axioms(3, 2, trials=10, seed=5)
    b = check_axioms(3, 2, trials=10, seed=5)
    assert a.describe() == b.describe()


@pytest.mark.parametrize("p", [2, 3, 5])
@pytest.mark.parametrize("nvars", [0, 1, 2, 3])
def test_axioms_match_the_polynomial_reference(p, nvars):
    """check_axioms on packed raw values reports exactly what the
    SparsePoly-level reference reports on the same samples."""
    trials = {2: 40, 3: 25, 5: 10}[p]
    for seed in (0, 1):
        got = check_axioms(p, nvars, trials=trials, seed=seed).describe()
        assert got == check_axioms_by_polys(p, nvars, trials, seed).describe()
        assert got["passed"] == trials


@pytest.mark.parametrize("nvars", [1, 2])
def test_axioms_at_p_13_match_the_polynomial_reference(nvars):
    """At p = 13 the carries sum up to 12 products of values of Z/13^3
    before reducing them."""
    got = check_axioms(13, nvars, trials=25, seed=1).describe()
    assert got == check_axioms_by_polys(13, nvars, 25, 1).describe()
    assert got["passed"] == 25


def test_axioms_split_each_key_into_digits_once(monkeypatch):
    """One check_axioms block splits each packed key that it passes to w
    into its nvars exponent digits once, however many of its polynomials
    and trials share the key; a pair with a zero member passes no key."""
    calls = []
    monkeypatch.setattr(fwcore, "divmod", lambda a, b: calls.append(a)
                        or divmod(a, b), raising=False)
    p, nvars, trials, seed = 3, 2, 30, 4
    assert check_axioms(p, nvars, trials=trials, seed=seed).passed
    rng = random.Random(seed)
    ring = PolyRing(PrimeSquareRing(p), ("x1", "x2"))
    monomials = set()
    for _ in range(trials):
        f, g = random_poly(rng, ring), random_poly(rng, ring)
        if not (f.is_zero() or g.is_zero()):
            for h in (f, g, f + g, f * g):
                monomials.update(h.terms)
    assert len(calls) == nvars * len(monomials)


def _w_core_calls(monkeypatch):
    """The inputs of every call of a w core that fwcore builds from now on."""
    calls = []
    real = fwcore._w_core

    def counting(*args):
        w = real(*args)
        return lambda raw: calls.append(raw) or w(raw)

    monkeypatch.setattr(fwcore, "_w_core", counting)
    return calls


def test_axioms_take_w_of_zero_and_of_f_plus_zero_without_the_core(
        monkeypatch):
    """A block calls the w core on no zero polynomial and on nothing of a
    pair with a zero member, where both identities hold by construction;
    every nonzero f, g, f + g and fg of any other pair is one call."""
    calls = _w_core_calls(monkeypatch)
    p, nvars, trials, seed = 3, 2, 60, 2
    assert check_axioms(p, nvars, trials=trials, seed=seed).passed
    rng = random.Random(seed)
    ring = PolyRing(PrimeSquareRing(p), tuple(f"x{i+1}" for i in range(nvars)))
    want = []
    for _ in range(trials):
        f, g = random_poly(rng, ring), random_poly(rng, ring)
        if not (f.is_zero() or g.is_zero()):
            want += [h for h in (f, g, f + g, f * g) if not h.is_zero()]
    assert all(calls)
    assert len(calls) == len(want) < 3 * trials


@pytest.mark.parametrize("p", [2, 3, 5, 13, 1000003])
def test_axioms_draw_the_samples_of_randrange(monkeypatch, p):
    """check_axioms draws through getrandbits as Random.randrange draws:
    the inputs of its w core and its carry calls are, in order, those that
    random_poly's samples from the same seed give, drawn by randint and
    randrange at each bound the sampler uses: 4 (terms), 3 (exponents) and
    p^2 (coefficients).  The core and the carry are stubs here, so the
    draws are pinned also at p = 1000003, where each carry is refused."""
    log, radix = [], []
    monkeypatch.setattr(fwcore, "_w_core", lambda R, k, n, B: radix.append(
        B) or (lambda raw: log.append(raw) or {}))
    monkeypatch.setattr(fwcore, "_witt_P_raw",
                        lambda *args: log.append("P") or {})
    nvars, trials, seed = 2, 60, 11
    check_axioms(p, nvars, trials=trials, seed=seed)
    (B,) = radix
    ring = PolyRing(PrimeSquareRing(p), ("x1", "x2"))

    def packed(*hs):
        return [{m[0] + m[1] * B: c.value for m, c in h.terms.items()}
                for h in hs if not h.is_zero()]

    rng, want = random.Random(seed), []
    for _ in range(trials):
        f, g = random_poly(rng, ring), random_poly(rng, ring)
        if not (f.is_zero() or g.is_zero()):
            want += packed(f, g, f + g) + ["P"] + packed(f * g)
    assert log == want
    assert want.count("P") > trials // 4


@pytest.mark.parametrize("core", ["_witt_Q_raw", "_witt_P_raw"])
def test_axioms_catch_a_carry_core_missing_a_term(monkeypatch, core):
    """With one term that is nonzero mod p dropped from the result of a
    packed carry core, check_axioms reports failures, at trials whose f
    and g are the reference's samples, while the reference, which shares
    no code with the cores, still passes."""
    real = getattr(fwcore, core)
    p, nvars, trials, seed = 3, 2, 40, 7

    def dropping(*args):
        out = real(*args)
        for m, c in out.items():
            if c % p:
                del out[m]
                break
        return out

    monkeypatch.setattr(fwcore, core, dropping)
    rep = check_axioms(p, nvars, trials=trials, seed=seed)
    assert len(rep.failures) >= 5
    assert check_axioms_by_polys(p, nvars, trials, seed).passed
    rng = random.Random(seed)
    ring = PolyRing(PrimeSquareRing(p), ("x1", "x2"))
    samples = [(str(random_poly(rng, ring)), str(random_poly(rng, ring)))
               for _ in range(trials)]
    for fail in rep.failures:
        assert (fail["f"], fail["g"]) == samples[fail["trial"]]
        assert not (fail["additivity"] and fail["leibniz"])


def _drop_a_twisted_derivative(out, raw, p, at_wp):
    for key, v in out.items():
        if key < at_wp and v % p:
            del out[key]
            return


def _shift_a_w_base(out, raw, p, at_wp):
    key = p * next(iter(raw)) + at_wp
    out[key] = (out[key] + 1) % p


@pytest.mark.parametrize("mutate", [_drop_a_twisted_derivative,
                                    _shift_a_w_base])
def test_axioms_catch_a_w_core_with_one_wrong_term(monkeypatch, mutate):
    """With the first nonzero twisted-derivative term of every w vector
    dropped, or the w_base of its first term shifted by one, check_axioms
    reports failures, at trials whose f and g are the reference's samples
    and have no zero member, while the reference, which shares no code
    with the core, still passes."""
    real = fwcore._w_core
    p, nvars, trials, seed = 3, 2, 40, 7

    def mutated(R, k, n, B):
        w = real(R, k, n, B)

        def wrong(raw):
            out = w(raw)
            mutate(out, raw, p, n * B**n)
            return out
        return wrong

    monkeypatch.setattr(fwcore, "_w_core", mutated)
    rep = check_axioms(p, nvars, trials=trials, seed=seed)
    assert len(rep.failures) >= 5
    assert check_axioms_by_polys(p, nvars, trials, seed).passed
    rng = random.Random(seed)
    ring = PolyRing(PrimeSquareRing(p), ("x1", "x2"))
    samples = [(random_poly(rng, ring), random_poly(rng, ring))
               for _ in range(trials)]
    for fail in rep.failures:
        f, g = samples[fail["trial"]]
        assert (fail["f"], fail["g"]) == (str(f), str(g))
        assert not (f.is_zero() or g.is_zero())
        assert not (fail["additivity"] and fail["leibniz"])


def test_random_generators_deterministic():
    ring = PolyRing(PrimeSquareRing(3), ("X", "Y"))
    f1 = random_poly(random.Random(4), ring)
    f2 = random_poly(random.Random(4), ring)
    assert f1 == f2
    s1 = random_scalar(random.Random(4), GaloisField(2, 2))
    s2 = random_scalar(random.Random(4), GaloisField(2, 2))
    assert s1 == s2


# ---------------------------------------------------------------------------
# presentations

def test_present_fw_shapes():
    cusp = ring_of(PrimeField(5), ("x", "y"), ["y^2 - x^3"])
    fw = present_fw(cusp)
    assert fw.generators == ("w(x)", "w(y)")
    assert len(fw.columns) == 1
    assert "w(p)" not in fw.generators

    free = ring_of(PrimeSquareRing(2), ("x",), [])
    fw2 = present_fw(free)
    assert fw2.generators == ("w(x)", "w(p)")
    assert fw2.columns == ()
    assert fw2.generators[-1] == "w(p)"

    point = ring_of(PrimeSquareRing(3), (), [])
    fw3 = present_fw(point)
    assert fw3.generators == ("w(p)",)


def test_columns_are_normal_forms():
    cusp = ring_of(PrimeField(5), ("x", "y"), ["y^2 - x^3"])
    fw = present_fw(cusp)
    gb = cusp.carrier_basis()
    raw = column_of(cusp.relations[0])
    assert fw.columns[0] == tuple(gb.normal_form(e) for e in raw)


def test_quotient_functoriality():
    """Adding a relation appends its column and re-reduces the old ones."""
    rng = random.Random(31)
    base = PrimeField(3)
    pres = ring_of(base, ("x", "y"), ["x*y - 1"])
    ring = pres.poly_ring
    for _ in range(8):
        g = random_poly(rng, ring, max_terms=2, max_degree=2)
        bigger = with_extra_relations(pres, [g])
        if bigger.carrier_basis().is_trivial():
            continue
        fw_small = present_fw(pres)
        fw_big = present_fw(bigger)
        gb = bigger.carrier_basis()
        assert len(fw_big.columns) == len(fw_small.columns) + 1
        for old, new in zip(fw_small.columns, fw_big.columns):
            assert new == tuple(gb.normal_form(e) for e in old)
        assert fw_big.columns[-1] == tuple(
            gb.normal_form(e) for e in column_of(g))


# ---------------------------------------------------------------------------
# morphisms and base change

def test_morphism_validation():
    A = ring_of(PrimeField(3), ("x",), ["x^2"])
    B = ring_of(PrimeField(3), ("u",), [])
    u = B.poly_ring.gen(0)
    with pytest.raises(PresentationError):  # x^2 not sent to 0
        PresentationMorphism(A, B, (u,))
    PresentationMorphism(A, B, (B.poly_ring.zero(),))  # x -> 0 is fine


def test_morphism_relation_check_is_real():
    A = ring_of(PrimeField(3), ("x",), ["x^2"])
    B = ring_of(PrimeField(3), ("u",), ["u^4"])
    u = B.poly_ring.gen(0)
    m = PresentationMorphism(A, B, (u * u,))
    assert m.push(A.poly_ring.gen(0)) == u * u


def test_morphism_mixed_characteristic_rules():
    A2 = ring_of(PrimeSquareRing(3), ("x",), [])
    B3 = ring_of(PrimeField(3), ("x",), [])
    # Z/9 algebra -> char 3 algebra is fine; the reverse is not a ring map
    PresentationMorphism(A2, B3, (B3.poly_ring.gen(0),))
    with pytest.raises(PresentationError):
        PresentationMorphism(B3, A2, (A2.poly_ring.gen(0),))
    with pytest.raises(PresentationError):  # p must match
        PresentationMorphism(ring_of(PrimeField(2), ("x",), []), B3,
                             (B3.poly_ring.gen(0),))
    with pytest.raises(PresentationError):  # arity
        PresentationMorphism(A2, B3, ())


def test_a_morphism_needs_a_coefficient_map():
    """The coefficients of a morphism move along SparsePoly.over, so there
    is no morphism from an F_q ring to an F_p ring, with or without a
    relation to push; Z/p^2 and F_p rings do map into F_q rings."""
    F9, F3 = GaloisField(3, 2), PrimeField(3)
    B3 = ring_of(F3, ("y",), ["y^2 + 1"])
    y = B3.poly_ring.gen(0)
    A9 = ring_of(F9, ("x",), [])
    x = A9.poly_ring.gen(0)
    t = A9.poly_ring.constant(F9.generator())
    for rels in ((), (x**2 + 1,), (x - t,)):
        with pytest.raises(PresentationError,
                           match=r"no embedding of Fq\(3,2\) into Fp\(3\)"):
            PresentationMorphism(replace(A9, relations=rels), B3, (y,))
    B9 = ring_of(F9, ("y",), ["y^2 + 1"])
    for base in (F3, PrimeSquareRing(3)):
        m = PresentationMorphism(ring_of(base, ("x",), ["x^2 + 1"]), B9,
                                 (B9.poly_ring.gen(0),))
        assert m.push(m.source.poly_ring.gen(0)) == B9.poly_ring.gen(0)
        assert m.push(m.source.poly_ring.constant(4)) == B9.poly_ring.one()


def test_identity_base_change_is_identity_matrix():
    pres = ring_of(PrimeSquareRing(3), ("x", "y"), ["y^2 - 3*x"])
    ident = PresentationMorphism(pres, pres, tuple(pres.poly_ring.gens()))
    cols = base_change_map(ident)
    assert isinstance(cols, tuple) and len(cols) == pres.fw.ngens == 3
    one = pres.carrier_ring.one()
    for j, col in enumerate(cols):
        assert len(col) == 3
        for i, e in enumerate(col):
            assert e == (one if i == j else one.ring.zero())
    # cokernel of the identity vanishes everywhere
    cok = relative_cokernel(ident)
    x = PointSpec.of(pres, (0, 0))
    assert fiber_dim(cok, x) == 0


def test_free_adjunction_cokernel_is_free_rank_one():
    A = ring_of(PrimeSquareRing(3), (), [])
    B = ring_of(PrimeSquareRing(3), ("x",), [])
    m = PresentationMorphism(A, B, ())
    cok = relative_cokernel(m)
    tw = twisted_relative_kahler(m)
    assert tw.generators == ("F*d(x)",)
    for v in range(3):
        x = PointSpec.of(B, (v,))
        assert fiber_dim(cok, x) == 1
        assert fiber_dim(tw, x) == 1


def test_relative_cokernel_matches_twisted_kahler_fibers():
    """Two independently computed presentations of the same module must
    agree fiberwise: cokernel route vs twisted relative differentials."""
    cases = []
    # char p: cusp over its x-line
    A = ring_of(PrimeField(5), ("s",), [])
    B = ring_of(PrimeField(5), ("x", "y"), ["y^2 - x^3"])
    cases.append((PresentationMorphism(A, B, (B.poly_ring.gen(0),)), B))
    # char p: plane over a point
    A0 = ring_of(PrimeField(2), (), [])
    B0 = ring_of(PrimeField(2), ("x", "y"), [])
    cases.append((PresentationMorphism(A0, B0, ()), B0))
    # Z/p^2: parabola over the base
    Az = ring_of(PrimeSquareRing(3), (), [])
    Bz = ring_of(PrimeSquareRing(3), ("x", "y"), ["y^2 - 3*x"])
    cases.append((PresentationMorphism(Az, Bz, ()), Bz))
    for morph, B in cases:
        cok = relative_cokernel(morph)
        tw = twisted_relative_kahler(morph)
        k = B.residue_field
        pts = []
        n = len(B.variables)
        for vals in itertools.product(list(k.elements()), repeat=n):
            try:
                pts.append(PointSpec(B, tuple(vals)))
            except OffSchemeError:
                continue
        assert pts
        for x in pts:
            assert fiber_dim(cok, x) == fiber_dim(tw, x), \
                f"routes disagree at {x.describe()}"
