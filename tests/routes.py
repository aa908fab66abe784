"""Test-only code: reference routes that compute by independent formulas
what the library computes another way (Witt carries, the derivation
axioms on polynomials, twisted Jacobians, cotangent spaces, division with
quotients, Buchberger on exponent tuples, Krull dimensions by subsets, finite Z/p^2-algebras from the
syzygies of the reduced relations, the operation tables of a finite ring
by gathers along a tree, the universal module on one symbol per
element, the presented dimension by carrier normal forms), the Z/p^2
covers of the residue fields they lift through (the Galois ring
GR(p^2, e) lives here only), random polynomials, and helpers that
inspect library objects."""

import functools
import itertools
import math
import random

import numpy as np

from fwdiff.errors import PresentationError, SizeRefusalError
from fwdiff.fwcore import (
    SAMPLE_DEGREE,
    SAMPLE_TERMS,
    AxiomReport,
    FWPresentation,
    RingPresentation,
    present_fw,
)
from fwdiff.linalg import ModPSpan, rank_fraction_free
from fwdiff.localalg import PointSpec, fiber_dim, regularity
from fwdiff.modarith import (
    GaloisField,
    PrimeField,
    PrimeSquareRing,
    Residue,
    _BaseRing,
    _budget,
    _upoly_mul,
    _upoly_rem,
    embed,
    reduce_mod_p,
    w_base,
)
from fwdiff.mpoly import (
    GroebnerBasis,
    PolyRing,
    SparsePoly,
    _addmul,
    frobenius_twist,
    groebner,
    krull_dim,
    mono_deg,
    mono_div,
    mono_lcm,
    mono_mul,
    normal_form,
    standard_monomials,
)
from fwdiff.oracle import (
    FiniteRing,
    UniversalModule,
    _digit_model,
    _label_of,
    _refuse_oversized,
    relation_rows,
)
from fwdiff.ringfile import parse_poly


def ring_of(base, varnames, relstrs):
    """The presentation base[varnames]/(relstrs), relations as text."""
    ring = PolyRing(base, tuple(varnames))
    names = dict(zip(ring.variables, ring.gens()))
    rels = tuple(parse_poly(r, ring, names) for r in relstrs)
    return RingPresentation(base, tuple(varnames), rels)


class GaloisRing(_BaseRing):
    """GR(p^2, e) = (Z/p^2)[t]/(m~), the unramified degree-e cover of Z/p^2
    with residue field k = F_(p^e), m~ the minimal polynomial of k read
    verbatim: sums and products, enough to evaluate a polynomial over
    Z/p^2 at a lifted point of k.  Z/p^2 embeds into it (embeds_into)."""

    is_field = False

    def __init__(self, k):
        self.p, self.degree, self.minpoly = k.p, k.degree, k.minpoly
        self.modulus, self._residue_field = k.p**2, k

    def tag(self):
        return f"GR({self.p}^2,{self.degree})"

    def _of_int(self, n):
        return (n % self.modulus,) + (0,) * (self.degree - 1)

    def _add(self, a, b):
        return tuple((x + y) % self.modulus for x, y in zip(a, b))

    def _sub(self, a, b):
        return tuple((x - y) % self.modulus for x, y in zip(a, b))

    def _mul(self, a, b):
        return tuple(_upoly_rem(_upoly_mul(a, b), self.minpoly, self.modulus))

    def _is_zero(self, a):
        return not any(a)


@functools.cache
def p2_cover_of(ring):
    """The flat Z/p^2-cover of a base ring (identity on p^2-torsion rings),
    built once per field."""
    if isinstance(ring, (PrimeSquareRing, GaloisRing)):
        return ring
    if isinstance(ring, PrimeField):
        return PrimeSquareRing(ring.p)
    if isinstance(ring, GaloisField):
        return GaloisRing(ring)
    raise PresentationError(f"no Z/p^2 cover for {ring!r}")


def lift_to_p2(a: Residue) -> Residue:
    """Lift a residue-field element into Z/p^2 or GR(p^2, e) verbatim."""
    cover = p2_cover_of(a.ring)
    return a if cover == a.ring else Residue(cover, a.value)


def field_rank(rows):
    """Rank of a matrix of field Residues."""
    return rank_fraction_free(rows, lambda e: e)


def derivative(f, i):
    """The partial derivative of f in its i-th variable."""
    out = {}
    for m, c in f.terms.items():
        e = m[i]
        if e == 0:
            continue
        v = c * e
        if v.is_zero():
            continue
        mm = list(m)
        mm[i] = e - 1
        out[tuple(mm)] = v
    return SparsePoly(f.ring, out)


def jacobian_verdict(ring_pres, x: PointSpec):
    """The verdict of the Jacobian criterion for a hypersurface f = 0 at a
    rational point x on it: f lies in m_x^2 exactly when its linear part
    at x, the gradient of f at x, vanishes, so the local ring is Regular
    exactly when some df/dx_j is nonzero at x."""
    (f,) = ring_pres.relations_mod_p()
    grad = [derivative(f, j).evaluate(x.coordinates, x.field)
            for j in range(f.ring.nvars)]
    return "Regular" if any(not g.is_zero() for g in grad) else "NotRegular"


# ---------------------------------------------------------------------------
# division with quotients, Buchberger with representations

def divide(f, basis):
    """Multivariate division over a field: f = sum q_i b_i + r with no term
    of r divisible by any leading monomial.  Ties go to the first-listed
    divisor.  Returns (quotients, remainder)."""
    ring = f.ring
    quots = [ring.zero() for _ in basis]
    rem = ring.zero()
    h = f
    leads = [(b.lead_monomial(), b.terms[b.lead_monomial()]) for b in basis]
    while not h.is_zero():
        lm = h.lead_monomial()
        lc = h.terms[lm]
        for i, (blm, blc) in enumerate(leads):
            q = mono_div(lm, blm)
            if q is not None:
                coef = lc * blc.inv()
                qpoly = SparsePoly(ring, {q: coef})
                quots[i] = quots[i] + qpoly
                h = h - qpoly * basis[i]
                break
        else:
            t = SparsePoly(ring, {lm: lc})
            rem = rem + t
            h = h - t
    return quots, rem


def groebner_extended(gens):
    """Buchberger over a field with representation tracking and syzygy
    collection.

    Returns (basis, reps, syzygies) where basis[i] = sum_j reps[i][j] *
    gens[j] exactly, and each syzygy s satisfies sum_j s[j] * gens[j] = 0.
    No minimalization is performed; every S-pair is reduced explicitly so
    the collected syzygies generate the whole syzygy module.
    """
    if not gens:
        raise PresentationError("groebner_extended needs generators")
    ring = gens[0].ring
    m = len(gens)
    unit = lambda j: [ring.one() if t == j else ring.zero() for t in range(m)]
    basis, reps = [], []
    syzygies = []

    def track_divide(f, frep):
        quots, rem = divide(f, basis) if basis else ([], f)
        rrep = list(frep)
        for q, brep in zip(quots, reps):
            if q.is_zero():
                continue
            for t in range(m):
                rrep[t] = rrep[t] - q * brep[t]
        return rem, rrep

    for j, g in enumerate(gens):
        if g.is_zero():
            syzygies.append(unit(j))
            continue
        rep = unit(j)
        lc = g.terms[g.lead_monomial()]
        basis.append(g * lc.inv())
        reps.append([r * lc.inv() for r in rep])

    pairs = [(i, j) for i in range(len(basis)) for j in range(i + 1, len(basis))]
    while pairs:
        i, j = pairs.pop(0)
        fi, fj = basis[i], basis[j]
        l = mono_lcm(fi.lead_monomial(), fj.lead_monomial())
        ui = SparsePoly(ring, {mono_div(l, fi.lead_monomial()): ring.coeff.one()})
        uj = SparsePoly(ring, {mono_div(l, fj.lead_monomial()): ring.coeff.one()})
        sp = ui * fi - uj * fj
        sprep = [ui * a - uj * b for a, b in zip(reps[i], reps[j])]
        rem, rrep = track_divide(sp, sprep)
        if rem.is_zero():
            if any(not r.is_zero() for r in rrep):
                syzygies.append(rrep)
        else:
            lc = rem.terms[rem.lead_monomial()]
            k = len(basis)
            basis.append(rem * lc.inv())
            reps.append([r * lc.inv() for r in rrep])
            pairs.extend((t, k) for t in range(k))

    # relations coming from re-dividing the inputs by the completed basis
    for j, g in enumerate(gens):
        if g.is_zero():
            continue
        rem, rrep = track_divide(g, unit(j))
        assert rem.is_zero()  # the basis holds every input
        if any(not r.is_zero() for r in rrep):
            syzygies.append(rrep)
    return basis, reps, syzygies


# ---------------------------------------------------------------------------
# Buchberger on exponent tuples and Residues: the reference for the packed
# kernel of fwdiff.mpoly, with the monomial orders as tuple keys

def key_grevlex(m):
    return (sum(m), tuple(-e for e in reversed(m)))


def key_homoglocal(m):
    # first exponent is the homogenizer; ties on total degree are broken
    # by negative degree then grevlex on the remaining variables
    rest = m[1:]
    return (sum(m), -sum(rest), tuple(-e for e in reversed(rest)))


TUPLE_KEYS = {"grevlex": key_grevlex, "homoglocal": key_homoglocal}


def lead_by_tuples(f):
    """The largest monomial of f among its unit terms, by the tuple key."""
    R = f.ring.coeff
    monos = [m for m, c in f.terms.items()
             if R.is_field or R._is_unit(c.value)]
    if not monos:
        raise PresentationError(f"{f} has no unit term to lead")
    return max(monos, key=TUPLE_KEYS[f.ring.order])


def _lead_triples(basis):
    """(leading monomial, its inverse coefficient, b) for each nonzero b."""
    return [(lm := lead_by_tuples(b), b.terms[lm].inv(), b)
            for b in basis if b.terms]


def normal_form_by_tuples(f, basis):
    """normal_form of f by the divisors of the list basis, in their order,
    reducing from the largest term down by the tuple key."""
    leads = _lead_triples(basis)
    if not leads:
        return f
    key = TUPLE_KEYS[f.ring.order]
    spend = _budget("the division of {} terms", len(f.terms), unit="terms")
    rem = {}
    h = dict(f.terms)
    while h:
        spend(len(h))
        lm = max(h, key=key)
        lc = h[lm]
        for blm, binv, b in leads:
            q = mono_div(lm, blm)
            if q is not None:
                spend(len(b.terms))
                _addmul(h, b.terms, q, -(lc * binv))
                break
        else:
            rem[lm] = rem[lm] + lc if lm in rem else lc
            del h[lm]
    return SparsePoly(f.ring, {m: c for m, c in rem.items() if not c.is_zero()})


def spoly(f, g):
    lf, lg = lead_by_tuples(f), lead_by_tuples(g)
    l = mono_lcm(lf, lg)
    out = {}
    _addmul(out, f.terms, mono_div(l, lf), f.terms[lf].inv())
    _addmul(out, g.terms, mono_div(l, lg), -g.terms[lg].inv())
    return SparsePoly(f.ring, out)


def groebner_by_tuples(gens, ring=None):
    """Buchberger with sugar-strategy pair selection on exponent tuples and
    Residues, as fwdiff.mpoly.groebner computes it on packed monomials:
    the same reduced basis and the same torsion."""
    gens = [g for g in gens if not g.is_zero()]
    ring = ring or gens[0].ring
    key = TUPLE_KEYS[ring.order]
    R = ring.coeff
    basis, sugars, pairs, torsion = [], [], [], []

    def add_poly(f, sugar):
        if not R.is_field and not any(R._is_unit(c.value)
                                      for c in f.terms.values()):
            k = R.residue_field()
            torsion.append(f.map_coeffs(k, lambda c: Residue(k, c.value // R.p)))
            return
        lm = lead_by_tuples(f)
        f = f * f.terms[lm].inv()
        k = len(basis)
        for i, (lmi, _, _) in enumerate(basis):
            l = mono_lcm(lmi, lm)
            if l == mono_mul(lmi, lm):
                continue  # product criterion: coprime leads
            s = max(sugars[i] + mono_deg(l) - mono_deg(lmi),
                    sugar + mono_deg(l) - mono_deg(lm))
            pairs.append((s, key(l), i, k))
        basis.append((lm, R.one(), f))
        sugars.append(sugar)

    for g in gens:
        add_poly(g, g.total_degree())
    while pairs:
        pairs.sort()
        s, _, i, j = pairs.pop(0)
        h = normal_form_by_tuples(spoly(basis[i][2], basis[j][2]),
                                  [b for _, _, b in basis])
        if not h.is_zero():
            add_poly(h, max(s, h.total_degree()))
    minimal = [t for i, t in enumerate(basis) if not any(
        j != i and mono_div(t[0], glm) is not None and (glm != t[0] or j < i)
        for j, (glm, _, _) in enumerate(basis))]
    reduced = []
    for i, (lm, _, f) in enumerate(minimal):
        r = normal_form_by_tuples(f, [b for _, _, b in minimal[:i] + minimal[i + 1:]])
        reduced.append((key(lm), r * r.terms[lm].inv()))
    reduced.sort(key=lambda t: t[0])
    return GroebnerBasis(ring, tuple(f for _, f in reduced), tuple(torsion))


# ---------------------------------------------------------------------------
# Witt carries and twisted Jacobians

def witt_P_scalars(a: Residue, b: Residue) -> Residue:
    """The Witt carry P(a, b) = ((a + b)^p - a^p - b^p)/p, that is the sum
    of binom(p, i)/p * a^i * b^(p-i) over 0 < i < p, on one ring."""
    ring = a.ring
    b = ring.coerce(b)
    p = ring.p
    total = ring.zero()
    for i in range(1, p):
        c = math.comb(p, i) // p
        total = total + ring.of_int(c) * a**i * b ** (p - i)
    return total


def frobenius_twist_by_terms(f):
    """Sum of c^p X^(p*m) over the terms of f, in Residue arithmetic."""
    p = f.ring.coeff.p
    out = {}
    for m, c in f.terms.items():
        v = c**p
        if not v.is_zero():
            out[tuple(p * e for e in m)] = v
    return SparsePoly(f.ring, out)


def _multinomial_tuples(p, nparts):
    """Tuples (k_1..k_n), 0 <= k_t < p, sum p, with (p-1)!/prod(k_t!)."""
    fact = math.factorial

    def rec(prefix, remaining, slots):
        if slots == 0:
            if remaining == 0:
                yield tuple(prefix)
            return
        if remaining > (p - 1) * slots:
            return
        for k in range(min(p - 1, remaining) + 1):
            prefix.append(k)
            yield from rec(prefix, remaining - k, slots - 1)
            prefix.pop()

    for combo in rec([], p, nparts):
        denom = 1
        for k in combo:
            denom *= fact(k)
        yield combo, fact(p - 1) // denom


def witt_Q_multinomial(f):
    """Q(f) as the sum over exponent tuples (k_t), 0 <= k_t < p, sum p,
    of (p-1)!/prod(k_t!) times the product of the terms of f raised to
    the k_t, on the integer lift of Z/p^2, reduced once."""
    R = f.ring.coeff
    if not isinstance(R, PrimeSquareRing):
        raise PresentationError("witt_Q_multinomial needs Z/p^2")
    terms = f.sorted_terms()
    acc = {}
    for combo, coef in _multinomial_tuples(R.p, len(terms)):
        mono = (0,) * f.ring.nvars
        val = coef
        for k, (m, c) in zip(combo, terms):
            if k:
                mono = tuple(x + k * e for x, e in zip(mono, m))
                val *= c.value**k
        acc[mono] = acc.get(mono, 0) + val
    return f.ring.poly({m: R.of_int(v) for m, v in acc.items()})


def witt_P_pair_by_powers(f, g):
    """P(f, g) = sum of binom(p,i)/p * f^i g^(p-i), in SparsePoly arithmetic."""
    p = f.ring.coeff.p
    total = f.ring.zero()
    for i in range(1, p):
        total = total + (f**i * g ** (p - i)) * (math.comb(p, i) // p)
    return total


def w_poly_by_polys(f):
    """w(f) by its closed formula in SparsePoly arithmetic: twisted
    derivatives mod p, then sum X^(p*m) w_base(c_m) - Q(f) mod p."""
    R = f.ring.coeff
    p = R.p
    k = R.residue_field()
    out = [frobenius_twist_by_terms(derivative(f, j).map_coeffs(k, reduce_mod_p))
           for j in range(f.ring.nvars)]
    wp = {}
    for m, c in f.terms.items():
        wp[tuple(p * e for e in m)] = w_base(c)
    q = witt_Q_multinomial(f).map_coeffs(k, reduce_mod_p)
    out.append(f.ring.with_coeff(k).poly(wp) - q)
    return out


def random_scalar(rng, R):
    if R.degree > 1:
        return Residue(R, tuple(rng.randrange(R.modulus) for _ in range(R.degree)))
    return R.of_int(rng.randrange(R.modulus))


def random_poly(rng, ring, max_terms=SAMPLE_TERMS, max_degree=SAMPLE_DEGREE):
    """A random sparse polynomial with bounded support, for fuzzing; at
    the default bounds, the draws of fwcore.check_axioms."""
    nterms = rng.randint(0, max_terms)
    terms = {}
    for _ in range(nterms):
        m = tuple(rng.randint(0, max_degree) for _ in range(ring.nvars))
        terms[m] = random_scalar(rng, ring.coeff)
    return ring.poly(terms)


def check_axioms_by_polys(p, nvars, trials=500, seed=0):
    """fwcore.check_axioms in SparsePoly arithmetic, on the same samples:
    w_poly_by_polys for w, witt_P_pair_by_powers for the carry, and
    frobenius_twist_by_terms for the twisted scalars."""
    rng = random.Random(seed)
    base = PrimeSquareRing(p)
    ring = PolyRing(base, tuple(f"x{i+1}" for i in range(nvars)))
    k = base.residue_field()
    report = AxiomReport(p=p, nvars=nvars, trials=trials, seed=seed)
    for t in range(trials):
        f = random_poly(rng, ring)
        g = random_poly(rng, ring)
        wf, wg = w_poly_by_polys(f), w_poly_by_polys(g)
        ws = w_poly_by_polys(f + g)
        expect = [wf[i] + wg[i] for i in range(nvars + 1)]
        expect[nvars] = expect[nvars] - \
            witt_P_pair_by_powers(f, g).map_coeffs(k, reduce_mod_p)
        ok_add = ws == expect
        wm = w_poly_by_polys(f * g)
        ftw = frobenius_twist_by_terms(f.map_coeffs(k, reduce_mod_p))
        gtw = frobenius_twist_by_terms(g.map_coeffs(k, reduce_mod_p))
        ok_mul = all(
            wm[i] == gtw * wf[i] + ftw * wg[i] for i in range(nvars + 1))
        if not (ok_add and ok_mul):
            report.failures.append({
                "trial": t,
                "f": str(f),
                "g": str(g),
                "additivity": ok_add,
                "leibniz": ok_mul,
            })
    return report


def witt_R(f, g):
    """Matched-monomial carry R(f, g) = sum_m P(a_m, b_m) X^(p*m)."""
    assert f.ring == g.ring
    R = f.ring.coeff
    p = R.p
    out = {}
    for m in set(f.terms) | set(g.terms):
        a = f.terms.get(m, R.zero())
        b = g.terms.get(m, R.zero())
        v = witt_P_scalars(a, b)
        if not v.is_zero():
            out[tuple(p * e for e in m)] = v
    return SparsePoly(f.ring, out)


def w_poly_charp(f):
    """Frobenius-twisted gradient: the direct characteristic-p formula."""
    if not f.ring.coeff.is_field:
        raise PresentationError("w_poly_charp needs field coefficients")
    return [frobenius_twist(derivative(f, j)) for j in range(f.ring.nvars)]


def twisted_relative_kahler(morph) -> FWPresentation:
    """Frobenius-twisted relative Kaehler differentials of the carriers.

    Independent route for the cokernel: generators are the twisted dY_k
    of the target carrier, with twisted Jacobian columns of the target
    relations and of the images of the source variables.
    """
    tgt = morph.target
    k = tgt.residue_field
    gb = tgt.carrier_basis()
    cols = []
    for g in tgt.relations_mod_p():
        cols.append(tuple(gb.normal_form(e) for e in w_poly_charp(g)))
    for j in range(len(morph.source.variables)):
        img = morph.push(morph.source.poly_ring.gen(j))
        if not tgt.is_charp:
            img = img.map_coeffs(k, reduce_mod_p)
        cols.append(tuple(gb.normal_form(e) for e in w_poly_charp(img)))
    return FWPresentation(
        ring=tgt,
        generators=tuple(f"F*d({v})" for v in tgt.variables),
        columns=tuple(cols),
    )


# ---------------------------------------------------------------------------
# Krull dimension

def staircase_dim_by_subsets(lead_monos, nvars):
    """mpoly.staircase_dim by trying every variable subset S, from the
    largest down, for one that holds no leading monomial's support: the
    first found is the dimension, -1 for the unit ideal."""
    lead_monos = list(lead_monos)
    if any(mono_deg(m) == 0 for m in lead_monos):
        return -1
    supports = [frozenset(i for i, e in enumerate(m) if e) for m in lead_monos]
    for size in range(nvars, 0, -1):
        for subset in itertools.combinations(range(nvars), size):
            s = frozenset(subset)
            if all(not sup <= s for sup in supports):
                return size
    return 0


# ---------------------------------------------------------------------------
# point enumeration

def rational_points_by_evaluate(ring_pres, k):
    """Every point of the carrier over the field k, in itertools.product
    order, each candidate tested by SparsePoly.evaluate relation by
    relation, with no table of powers."""
    rels = [f.map_coeffs(k, lambda c: embed(c, k))
            for f in ring_pres.relations_mod_p()]
    return [PointSpec(ring_pres, combo)
            for combo in itertools.product(list(k.elements()),
                                           repeat=len(ring_pres.variables))
            if all(f.evaluate(list(combo), k).is_zero() for f in rels)]


# ---------------------------------------------------------------------------
# cotangent spaces

def with_extra_relations(ring_pres, extra):
    """The quotient of ring_pres by the extra relations."""
    return RingPresentation(ring_pres.base, ring_pres.variables,
                            ring_pres.relations + tuple(extra))


def _div_p(val: Residue, k):
    """(val / p) in the residue field, for val divisible by p in the cover."""
    ring = val.ring
    p = ring.p
    if isinstance(ring, PrimeSquareRing):
        assert val.value % p == 0
        return k.of_int(val.value // p)
    assert all(v % p == 0 for v in val.value)
    return Residue(k, tuple((v // p) % p for v in val.value))


def _cotangent_rows(ring_pres, polys, x: PointSpec):
    """One row per polynomial: its class in m/m^2 of the ambient at x.

    Over a characteristic-p base the row is the evaluated (untwisted)
    gradient; over Z/p^2 a leading column f(x~)/p is prepended, the
    coordinate along the generator p of the maximal ideal.  The value
    f(x~)/p is well defined up to the gradient columns, so ranks of row
    collections are lift-independent.
    """
    k = x.field
    n = len(ring_pres.variables)
    rows = []
    charp = ring_pres.is_charp
    cover = None if charp else p2_cover_of(k)
    lifts = None if charp else [lift_to_p2(c) for c in x.coordinates]
    for f in polys:
        fbar = f if charp else f.map_coeffs(ring_pres.residue_field,
                                            reduce_mod_p)
        grad = [derivative(fbar, j).evaluate(x.coordinates, k)
                for j in range(n)]
        if charp:
            rows.append(grad)
        else:
            val = f.evaluate(lifts, cover)
            rows.append([_div_p(val, k)] + grad)
    return rows


def cotangent_dim(ring_pres: RingPresentation, x: PointSpec) -> int:
    """dim_k m/m^2 of the local ring at x (the embedding dimension)."""
    n = len(ring_pres.variables)
    ambient = n if ring_pres.is_charp else n + 1
    rows = _cotangent_rows(ring_pres, ring_pres.relations, x)
    return ambient - field_rank(rows)


def check_prdx(ring_pres: RingPresentation, x: PointSpec) -> dict:
    """Exactness-of-dimensions check at a closed point.

    The cotangent sequence forces dim fiber = dim m/m^2 at points (the
    residue field is finite, hence perfect, so its differential term
    vanishes).  The two sides come from independent matrices: the fiber
    from the twisted relation columns, the cotangent space from the
    untwisted Jacobian with the p-column.
    """
    fw = present_fw(ring_pres)
    fiber = fiber_dim(fw, x)
    cot = cotangent_dim(ring_pres, x)
    return {
        "point": x.describe(),
        "fiber_dim": fiber,
        "cotangent_dim": cot,
        "consistent": fiber == cot,
    }


def check_split_sequence(ring_pres: RingPresentation, quotient_rels, x,
                         flat=False) -> dict:
    """Rank additivity for a regular quotient pair at a point.

    For B = A/(g_1..g_s) with A and B both regular at x, the conormal
    classes of the g_i split off: dim fiber_A = s' + dim fiber_B, where
    s' is the dimension of the span of the g_i in m/m^2 of A at x.  The
    left side uses twisted matrices, the right side untwisted ones, so
    agreement is a genuine cross-check.
    """
    quotient_rels = tuple(quotient_rels)
    target = with_extra_relations(ring_pres, quotient_rels)
    xA = x if x.ring == ring_pres else PointSpec(ring_pres, x.coordinates)
    xB = PointSpec(target, xA.coordinates)
    verdict_A = regularity(ring_pres, xA, flat=flat)
    verdict_B = regularity(target, xB, flat=flat)
    base_rows = _cotangent_rows(ring_pres, ring_pres.relations, xA)
    quot_rows = _cotangent_rows(ring_pres, quotient_rels, xA)
    s_prime = field_rank(base_rows + quot_rows) - field_rank(base_rows)
    fiber_A = fiber_dim(present_fw(ring_pres), xA)
    fiber_B = fiber_dim(present_fw(target), xB)
    return {
        "point": xA.describe(),
        "regular_A": verdict_A.verdict,
        "regular_B": verdict_B.verdict,
        "hypothesis_ok": verdict_A.verdict == "Regular"
                         and verdict_B.verdict == "Regular",
        "fiber_A": fiber_A,
        "fiber_B": fiber_B,
        "s_prime": s_prime,
        "consistent": fiber_A == s_prime + fiber_B,
    }


# ---------------------------------------------------------------------------
# membership in a row space or an ideal

def span_rref(span):
    """(pivots, basis) of a ModPSpan: its reduced row-echelon basis as
    int64 rows, one per pivot column, pivots ascending.  Over F_2 it is
    rebuilt from the kept int rows, each cleared of the later pivots."""
    if span.p != 2:
        return span._pivots, span._basis
    rows = {}
    for col in sorted(span._bits, reverse=True):
        row = span._bits[col]
        for later, kept in rows.items():
            if row >> later & 1:
                row ^= kept
        rows[col] = row
    basis = np.array([[r >> j & 1 for j in range(span.ncols)]
                      for r in reversed(rows.values())],
                     dtype=np.int64).reshape(-1, span.ncols)
    return sorted(rows), basis


def span_reduce(span, rows):
    """Reduce rows against the basis of a ModPSpan; returns the array."""
    rows = np.asarray(rows, dtype=np.int64) % span.p
    if rows.ndim == 1:
        rows = rows[None, :]
    for piv, brow in zip(*span_rref(span)):
        rows = (rows - np.outer(rows[:, piv], brow)) % span.p
    return rows


def span_contains(span, row):
    return not span_reduce(span, row).any()


def ideal_contains(gb, f):
    """Membership of f in the ideal of a Groebner basis."""
    return gb.normal_form(f).is_zero()


# ---------------------------------------------------------------------------
# finite rings and their universal modules

def finite_ring_zp2_by_syzygies(ring_pres, max_size, cls=FiniteRing):
    """The finite Z/p^2-algebra of ring_pres as cls, by the route that
    tracks representations: with I the relation ideal, U = (I : p) mod p
    is I_1 plus the sigma-image of the syzygies of the reduced relations
    (sigma(h) = (sum h~_i f_i)/p), and a polynomial's canonical form is
    r + p*h, r its normal form modulo I_1 lifted verbatim, and h what is
    left over p, reduced modulo U."""
    p = ring_pres.p
    base = ring_pres.base
    zring = ring_pres.poly_ring
    kfield = ring_pres.residue_field
    cring = ring_pres.carrier_ring
    relations = list(ring_pres.relations)
    fbars = ring_pres.relations_mod_p()

    def over_p(g):
        """g with every coefficient divided by p, landing mod p."""
        def div(c):
            assert c.value % p == 0, "expected a p-divisible coefficient"
            return kfield.of_int(c.value // p)
        return g.map_coeffs(kfield, div)

    def lift(g):
        return g.map_coeffs(base, lift_to_p2)

    if relations:
        basis, reps, syzygies = groebner_extended(fbars)
        gb1 = GroebnerBasis(cring, tuple(basis))
        exact = []
        for rep in reps:
            acc = zring.zero()
            for c, f in zip(rep, relations):
                acc = acc + lift(c) * f
            exact.append(acc)
        ugens = list(basis)
        for s in syzygies:
            acc = zring.zero()
            for c, f in zip(s, relations):
                acc = acc + lift(c) * f
            u = over_p(acc)
            if not u.is_zero():
                ugens.append(u)
        gbU = groebner(ugens, ring=cring)
    else:
        gb1 = GroebnerBasis(cring, ())
        exact = []
        gbU = GroebnerBasis(cring, ())
    if gb1.is_trivial():
        raise PresentationError("the presented ring is the zero ring")
    if krull_dim(gb1) > 0:
        raise SizeRefusalError("the presented ring is infinite")
    S = standard_monomials(gb1)
    stairU = [] if gbU.is_trivial() else standard_monomials(gbU)
    size = p ** (len(S) + len(stairU))
    _refuse_oversized(p, size, max_size)

    def canonicalize(g):
        gbar = g.map_coeffs(kfield, reduce_mod_p)
        if gb1.polys:
            quots, r = divide(gbar, list(gb1.polys))
        else:
            quots, r = [], gbar
        acc = g
        for q, bt in zip(quots, exact):
            if not q.is_zero():
                acc = acc - lift(q) * bt
        rlift = lift(r)
        h = over_p(acc - rlift)
        h = normal_form(h, gbU)
        return rlift + lift(h) * p

    label = _label_of(ring_pres)
    rpos = {m: j for j, m in enumerate(S)}
    hpos = {m: len(S) + j for j, m in enumerate(stairU)}

    def digits_of(f):
        out = [0] * (len(S) + len(stairU))
        for m, c in f.terms.items():
            h, r = divmod(c.value, p)
            if m not in rpos or (h and m not in hpos):
                raise PresentationError(f"{f} is not a canonical form of {label}")
            out[rpos[m]] = r
            if h:
                out[hpos[m]] = h
        return out

    basis = ([zring.poly({m: 1}) for m in S]
             + [zring.poly({m: p}) for m in stairU])
    return cls(p, basis, len(S), canonicalize, digits_of, label)


def rebuilt(fr: FiniteRing, cls=FiniteRing):
    """fr's constructor run again, as cls."""
    return cls(fr.p, fr.digit_basis, fr.carrier_dim, fr.canon, fr.digits_of,
               fr.label)


def element_polys(fr: FiniteRing):
    """Every element as a polynomial, sum_j digits[i, j] * digit_basis[j]."""
    zero = fr.digit_basis[0].ring.zero()
    return [sum((b * c for c, b in zip(row, fr.digit_basis) if c), zero)
            for row in fr.digits.tolist()]


def fill_tables(zero, addg, prods):
    """Both operation tables from the generator tables, addg[u, a] = a + g_u
    and prods[u, w] = g_u g_w, by gathers along the breadth-first tree from
    zero.  Along its edges z = y + g_w,
    x + z = (x + y) + g_w fills the addition table a column at a time, then
    g_u z = g_u y + g_u g_w the products with generators, and x z = x y +
    x g_w the multiplication table: identities of any commutative ring
    that the g_u generate additively.  Elements the tree does not reach
    are left unfilled."""
    n = addg.shape[1]
    steps, seen = [(zero, None, None)], {zero}
    for y, _, _ in steps:  # breadth-first: steps grows as it is read
        for u in range(len(addg)):
            z = int(addg[u, y])
            if z not in seen:
                seen.add(z)
                steps.append((z, y, u))
    tree = steps[1:]
    add, mul = np.empty((2, n, n), dtype=np.int64)
    mulg = np.empty((len(addg), n), dtype=np.int64)  # mulg[u, x] = g_u x
    add[:, zero] = np.arange(n)
    mulg[:, zero] = mul[:, zero] = zero
    for z, y, w in tree:
        add[:, z] = addg[w, add[:, y]]
    for z, y, w in tree:
        mulg[:, z] = add[mulg[:, y], prods[:, w]]
    for z, y, w in tree:
        mul[:, z] = add[mul[:, y], mulg[w]]
    return add, mul


class OperationTables:
    """The n x n tables add and mul of a FiniteRing fr, and its table of
    powers pows[k, a] = a^k for k <= p, with frob = pows[p]."""

    def __init__(self, fr, add, mul):
        self.ring, self.add, self.mul = fr, add, mul
        self.pows = np.empty((fr.p + 1, fr.size), dtype=np.int64)
        self.pows[0] = fr.one_idx
        self.pows[1] = np.arange(fr.size)
        for k in range(2, fr.p + 1):
            self.pows[k] = mul[self.pows[k - 1], self.pows[1]]
        self.frob = self.pows[fr.p]

    def witt_carry_idx(self, i, j):
        """Index of P(a_i, a_j) = sum binom(p,k)/p a_i^k a_j^(p-k)."""
        fr, p = self.ring, self.ring.p
        return fr._index(sum(
            math.comb(p, k) // p
            * fr.digits[self.mul[self.pows[k, i], self.pows[p - k, j]]]
            for k in range(1, p)))


def operation_tables(fr: FiniteRing):
    """The reference tables of fr, filled along the tree (fill_tables) from
    a + g_u by digit sums and from the closures canon(g_u g_w), with no
    use of fr's generator rows or structure constants."""
    _, prods = fr._closures()
    addg = fr._index(fr.digits + fr.digits[fr.basis_idx][:, None])
    return OperationTables(fr, *fill_tables(fr.zero_idx, addg,
                                            prods @ fr._weights))


def pow_idx(t: OperationTables, i, k):
    """Index of a_i^k, by k - 1 multiplications in the table."""
    total = i
    for _ in range(k - 1):
        total = t.mul[total, i]
    return total


def verify_axioms(t: OperationTables):
    """Commutativity, inverses, associativity and distributivity of the
    tables; the n^3 laws run on slabs of the first index, ~2^20 entries a
    slab."""
    add, mul, n = t.add, t.mul, t.ring.size
    ok = ((add == add.T).all() and (mul == mul.T).all()
          and (add == t.ring.zero_idx).any(axis=1).all())
    step = max(1, (1 << 20) // (n * n))
    for lo in range(0, n, step):
        a, m = add[lo:lo + step], mul[lo:lo + step]
        ok = ok and ((add[a] == a[:, add]).all()
                     and (mul[m] == m[:, mul]).all()
                     and (m[:, add] == add[m[:, :, None],
                                           m[:, None, :]]).all())
    if not ok:
        raise PresentationError(
            f"operation tables of {t.ring.label} violate the ring axioms")


def element_relation_rows(ring: FiniteRing, families=("add", "mul")):
    """Yield numpy relation rows of the universal module, in batches.

    One block of e coordinates per ring element, e = dim of A/pA.  Each
    relation is instantiated once per A/pA-basis multiplier beta_k: a
    term c*[x] of the relation places the basis decomposition of
    beta_k * c into the block of x.  The Leibniz family runs over the
    generator pairs g <= h and the additive family over the pairs
    (a, g), a in A; products, sums and carries come from the reference
    tables.
    """
    t = operation_tables(ring)
    gens = np.array(ring.basis_idx, dtype=np.int64)
    if "mul" in families:
        a, b = (gens[i] for i in np.triu_indices(len(gens)))
        yield _element_block(t, [(1, t.mul[a, b], ring.one_idx),
                                 (-1, a, t.frob[b]),
                                 (-1, b, t.frob[a])])
    if "add" in families:
        step = max(1, 1024 // (ring.carrier_dim * len(gens)))
        for lo in range(0, ring.size, step):
            a = np.repeat(np.arange(lo, min(lo + step, ring.size)), len(gens))
            b = np.resize(gens, a.size)
            yield _element_block(t, [(1, t.add[a, b], ring.one_idx),
                                     (-1, a, ring.one_idx),
                                     (-1, b, ring.one_idx),
                                     (1, ring.p_one_idx,
                                      t.witt_carry_idx(a, b))])


def _element_block(t, terms):
    """e rows per relation, one relation per entry of the index arrays:
    a term (sign, x, c) adds sign * (beta_k * c) to the block of x."""
    ring = t.ring
    e, n = ring.carrier_dim, ring.size
    m = np.size(terms[0][1])
    out = np.zeros((m, e, n, e), dtype=np.int64)
    pair, k = np.arange(m)[:, None], np.arange(e)[None, :]
    for sign, x, c in terms:
        x, c = np.broadcast_to(x, (m,)), np.broadcast_to(c, (m,))
        coeff = ring.reduce_mat[t.mul[ring.basis_idx, c[:, None]]]
        np.add.at(out, (pair, k, x[:, None]), sign * coeff)
    return (out % ring.p).reshape(m * e, n * e)


def element_brute_fw(ring: FiniteRing) -> UniversalModule:
    """The universal module on one block of coordinates per element."""
    ncols = ring.carrier_dim * ring.size
    span = ModPSpan(ring.p, ncols)
    for batch in element_relation_rows(ring):
        span.add_rows(batch)
        if span.rank == ncols:
            break
    return UniversalModule(ring=ring, dimension=ncols - span.rank,
                           ncols=ncols, rank=span.rank, span=span)


def presented_fp_dimension_by_normal_forms(fw: FWPresentation) -> int:
    """Total F_p-dimension of the presented module, for finite carriers,
    with no FiniteRing: the carrier is expanded as an F_p-space on its own
    digit basis, with no p-digits, and the module relations are all basis
    multiples of the presented columns, each reduced to its normal form
    modulo the carrier basis."""
    gb = fw.ring.carrier_basis()
    if gb.is_trivial():
        raise PresentationError("the presented ring is the zero ring")
    if not gb.is_finite():
        raise PresentationError("carrier is infinite; no total F_p-dimension")
    basis, digits_of = _digit_model(gb.ring, standard_monomials(gb),
                                    [], "the carrier")
    total = len(basis) * fw.ngens
    span = ModPSpan(fw.ring.p, total)
    rows = [[d for entry in col for d in digits_of(gb.normal_form(u * entry))]
            for col in fw.columns for u in basis]
    if rows:
        span.add_rows(np.array(rows, dtype=np.int64))
    return total - span.rank


def brute_fiber_at_point(ring_pres, x: PointSpec, max_size=3**6):
    """The fiber at a rational point x of M = FW(A), by the oracle on the
    finite ring B = A/m^2, m the maximal ideal of x.

    Shift x to the origin, through the int lift of each coordinate over
    Z/p^2 (p lies in m, so the lift does not matter); a translation is an
    automorphism of the polynomial ring, so the fibers correspond.  Then m
    is (x_1..x_n) in characteristic p and (p, x_1..x_n) over Z/p^2, and B
    adds to A the generators x_i x_j, and p x_i over Z/p^2, of m^2.  FW(B)
    is M modulo m^2 M and the w(g), g in m^2, and those lie in m M: for
    f, g in m, w(fg) = g^p w(f) + f^p w(g) with f^p, g^p in m, and for
    a, b in m^2 the carry P(a, b), a sum of multiples of ab, lies in m, so
    w(a + b) = w(a) + w(b) mod m M.  So B has the fiber M/mM of A at x.

    The oracle gives FW(B) as the free module over B/pB on its free
    symbols, e F_p-coordinates each on the digit basis of B/pB, modulo the
    F_p-span of relation_rows.  Reduced at x the relations vanish in m
    and shifted have no constant term, so the digits x^m, m a nonzero
    standard monomial, span m/pB, and the constant digits c * 1, c in an
    F_p-basis of k, are the residue field.  M/mM is then the free module
    on the constant coordinates modulo the relation rows restricted to
    them: its dimension over k is (the constant coordinates less the rank
    of the restricted rows) / [k : F_p]."""
    base = ring_pres.base
    if x.field != ring_pres.residue_field:
        raise PresentationError("brute_fiber_at_point needs a rational point")
    ring = ring_pres.poly_ring
    lifted = [Residue(base, c.value) for c in x.coordinates]
    gens = ring.gens()
    square = [a * b for i, a in enumerate(gens) for b in gens[i:]]
    if not base.is_field:
        square += [a * base.p for a in gens]
    B = RingPresentation(base, ring_pres.variables, tuple(
        [f.shift(lifted) for f in ring_pres.relations] + square))
    fr = FiniteRing.from_presentation(B, max_size=max_size)
    e = fr.carrier_dim
    const = [k for k in range(e)
             if not any(any(m) for m in fr.digit_basis[k].terms)]
    rows = np.concatenate(list(relation_rows(fr)))
    cols = [j * e + k for j in range(rows.shape[1] // e) for k in const]
    span = ModPSpan(fr.p, len(cols))
    span.add_rows(rows[:, cols])
    dim, rest = divmod(len(cols) - span.rank, len(const))
    assert rest == 0, "the fiber is a vector space over the residue field"
    return dim


def free_coords(um):
    """Coordinates (element index, basis index) spanning the quotient of
    a module from element_brute_fw."""
    taken = set(span_rref(um.span)[0])
    e = um.ring.carrier_dim
    return [(c // e, c % e) for c in range(um.ncols) if c not in taken]


def basis_certificates(um):
    elements = element_polys(um.ring)
    out = []
    for a, k in free_coords(um):
        beta = elements[um.ring.basis_idx[k]]
        out.append(f"({beta}) * w({elements[a]})")
    return out


def action_matrix(um, r_idx):
    """Matrix of multiplication by a ring element on the free coords of
    a module from element_brute_fw."""
    free = free_coords(um)
    e, mul = um.ring.carrier_dim, operation_tables(um.ring).mul
    cols = []
    for a, k in free:
        prod = mul[r_idx, um.ring.basis_idx[k]]
        vec = np.zeros(um.ncols, dtype=np.int64)
        vec[a * e:(a + 1) * e] = um.ring.reduce_mat[prod]
        vec = span_reduce(um.span, vec)[0]
        cols.append([vec[x * e + t] for (x, t) in free])
    return np.array(cols, dtype=np.int64).T
