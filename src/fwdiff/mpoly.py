"""Sparse multivariate polynomials, monomial orders, Buchberger bases.

Monomials are exponent tuples; polynomials are dicts from monomial to
nonzero coefficient, kept canonical at all times.  Two monomial orders
are provided: grevlex (default) and a homogenized-local order used by
the tangent-cone computation, in which the first variable is the
homogenizer and ties are broken by negative degree on the rest.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

from .errors import PresentationError
from .modarith import GaloisRing, PrimeSquareRing, Residue, embed


def mono_mul(a, b):
    return tuple(x + y for x, y in zip(a, b))


def mono_div(a, b):
    """a/b as a monomial, or None when b does not divide a."""
    out = []
    for x, y in zip(a, b):
        if x < y:
            return None
        out.append(x - y)
    return tuple(out)


def mono_lcm(a, b):
    return tuple(max(x, y) for x, y in zip(a, b))


def mono_deg(a):
    return sum(a)


def _key_grevlex(m):
    return (sum(m), tuple(-e for e in reversed(m)))


def _key_homoglocal(m):
    # first exponent is the homogenizer; ties on total degree are broken
    # by negative degree then grevlex on the remaining variables
    rest = m[1:]
    return (sum(m), -sum(rest), tuple(-e for e in reversed(rest)))


_ORDERS = {
    "grevlex": _key_grevlex,
    "homoglocal": _key_homoglocal,
}


class PolyRing:
    """A polynomial ring: coefficient ring, named variables, monomial order."""

    def __init__(self, coeff, variables, order="grevlex"):
        if order not in _ORDERS:
            raise PresentationError(f"unknown monomial order {order!r}")
        variables = tuple(variables)
        if len(set(variables)) != len(variables):
            raise PresentationError("duplicate variable names")
        self.coeff = coeff
        self.variables = variables
        self.order = order
        self.key = _ORDERS[order]

    @property
    def nvars(self):
        return len(self.variables)

    def poly(self, terms):
        clean = {}
        for m, c in terms.items():
            c = self.coeff.coerce(c)
            if not c.is_zero():
                if len(m) != self.nvars:
                    raise PresentationError(
                        f"monomial {m} has {len(m)} exponents, the ring "
                        f"has {self.nvars} variables")
                clean[m] = c
        return SparsePoly(self, clean)

    def zero(self):
        return SparsePoly(self, {})

    def one(self):
        return self.constant(1)

    def constant(self, c):
        return self.poly({(0,) * self.nvars: self.coeff.coerce(c)})

    def gen(self, i):
        m = [0] * self.nvars
        m[i] = 1
        return self.poly({tuple(m): self.coeff.one()})

    def gens(self):
        return [self.gen(i) for i in range(self.nvars)]

    def with_coeff(self, coeff):
        return PolyRing(coeff, self.variables, self.order)

    def __eq__(self, other):
        return (
            isinstance(other, PolyRing)
            and other.coeff == self.coeff
            and other.variables == self.variables
            and other.order == self.order
        )

    def __hash__(self):
        return hash((self.coeff, self.variables, self.order))

    def __repr__(self):
        return f"{self.coeff.tag()}[{', '.join(self.variables)}; {self.order}]"


class SparsePoly:
    """Canonical sparse polynomial over one of the coefficient rings."""

    __slots__ = ("ring", "terms")

    def __init__(self, ring, terms):
        self.ring = ring
        self.terms = terms

    def is_zero(self):
        return not self.terms

    def __add__(self, other):
        other = self._coerce(other)
        out = dict(self.terms)
        for m, c in other.terms.items():
            s = out.get(m)
            s = c if s is None else s + c
            if s.is_zero():
                out.pop(m, None)
            else:
                out[m] = s
        return SparsePoly(self.ring, out)

    __radd__ = __add__

    def __neg__(self):
        return SparsePoly(self.ring, {m: -c for m, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return self._coerce(other) - self

    def __mul__(self, other):
        if isinstance(other, (int, Residue)):
            c = self.ring.coeff.coerce(other)
            if c.is_zero():
                return self.ring.zero()
            out = {}
            for m, a in self.terms.items():
                v = a * c
                if not v.is_zero():
                    out[m] = v
            return SparsePoly(self.ring, out)
        other = self._coerce(other)
        out = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                m = mono_mul(m1, m2)
                v = c1 * c2
                s = out.get(m)
                s = v if s is None else s + v
                if s.is_zero():
                    out.pop(m, None)
                else:
                    out[m] = s
        return SparsePoly(self.ring, out)

    __rmul__ = __mul__

    def __pow__(self, n):
        if not isinstance(n, int) or n < 0:
            raise PresentationError(
                f"exponent must be a nonnegative integer, not {n!r}")
        result = self.ring.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def _coerce(self, other):
        if isinstance(other, SparsePoly):
            if other.ring != self.ring:
                raise PresentationError("polynomial ring mismatch")
            return other
        if isinstance(other, (int, Residue)):
            return self.ring.constant(other)
        raise PresentationError(f"cannot coerce {other!r}")

    def __eq__(self, other):
        if isinstance(other, (int, Residue)):
            other = self.ring.constant(other)
        if not isinstance(other, SparsePoly):
            return NotImplemented
        return self.ring == other.ring and self.terms == other.terms

    def __hash__(self):
        return hash((self.ring, frozenset(
            (m, c.value) for m, c in self.terms.items())))

    def sorted_terms(self):
        """Terms in descending monomial order; the canonical reading."""
        return sorted(self.terms.items(), key=lambda t: self.ring.key(t[0]),
                      reverse=True)

    def lead_monomial(self):
        if not self.terms:
            raise PresentationError("zero polynomial has no leading monomial")
        return max(self.terms, key=self.ring.key)

    def lead_coeff(self):
        return self.terms[self.lead_monomial()]

    def total_degree(self):
        if not self.terms:
            return -1
        return max(mono_deg(m) for m in self.terms)

    def monic(self):
        if self.is_zero():
            return self
        return self * self.lead_coeff().inv()

    def derivative(self, i):
        out = {}
        for m, c in self.terms.items():
            e = m[i]
            if e == 0:
                continue
            v = c * e
            if v.is_zero():
                continue
            mm = list(m)
            mm[i] = e - 1
            out[tuple(mm)] = v
        return SparsePoly(self.ring, out)

    def map_coeffs(self, target_ring, fn):
        """Apply fn to every coefficient, landing in target_ring."""
        new = self.ring.with_coeff(target_ring)
        out = {}
        for m, c in self.terms.items():
            v = fn(c)
            if not v.is_zero():
                out[m] = v
        return SparsePoly(new, out)

    def evaluate(self, coords, target=None):
        """Evaluate at a point with coordinates in a common ring.

        Coefficients are embedded into the coordinate ring when a canonical
        embedding exists (F_p into F_{p^e}, Z/p^2 into GR(p^2, e)).
        """
        if target is None:
            target = coords[0].ring if coords else self.ring.coeff
        self._check_arity(coords)
        total = target.zero()
        for m, c in self.terms.items():
            v = embed(c, target)
            for x, e in zip(coords, m):
                if e:
                    v = v * x**e
            total = total + v
        return total

    def _check_arity(self, coords):
        if len(coords) != self.ring.nvars:
            raise PresentationError(
                f"{len(coords)} coordinates given, the ring has "
                f"{self.ring.nvars} variables")

    def shift(self, coords):
        """Substitute X_j -> X_j + c_j (translation of the origin)."""
        ring = self.ring
        self._check_arity(coords)
        cache = {}

        def binom_pow(j, e):
            if (j, e) not in cache:
                base = ring.gen(j) + ring.constant(coords[j])
                cache[(j, e)] = base**e
            return cache[(j, e)]

        total = ring.zero()
        for m, c in self.terms.items():
            part = ring.constant(c)
            for j, e in enumerate(m):
                if e:
                    part = part * binom_pow(j, e)
            total = total + part
        return total

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for m, c in self.sorted_terms():
            cs = str(c)
            needs_paren = ("+" in cs or "-" in cs[1:] or "*" in cs)
            factors = []
            for name, e in zip(self.ring.variables, m):
                if e == 0:
                    continue
                factors.append(name if e == 1 else f"{name}^{e}")
            if not factors:
                parts.append(f"({cs})" if needs_paren else cs)
                continue
            if cs == "1":
                parts.append("*".join(factors))
            else:
                head = f"({cs})" if needs_paren else cs
                parts.append(head + "*" + "*".join(factors))
        return " + ".join(parts)

    def __repr__(self):
        return f"<{self} over {self.ring!r}>"


# ---------------------------------------------------------------------------
# division and Buchberger

def divide(f, basis):
    """Multivariate division: f = sum q_i b_i + r with no term of r
    divisible by any leading monomial.  Ties go to the first-listed
    divisor.  Returns (quotients, remainder)."""
    ring = f.ring
    quots = [ring.zero() for _ in basis]
    rem = ring.zero()
    h = f
    leads = [(b.lead_monomial(), b.lead_coeff()) for b in basis]
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


def normal_form(f, basis):
    """Remainder of f on division by the listed polynomials."""
    if isinstance(basis, GroebnerBasis):
        basis = basis.polys
    basis = [b for b in basis if not b.is_zero()]
    if not basis:
        return f
    return divide(f, basis)[1]


def spoly(f, g):
    lf, lg = f.lead_monomial(), g.lead_monomial()
    l = mono_lcm(lf, lg)
    uf = SparsePoly(f.ring, {mono_div(l, lf): f.lead_coeff().inv()})
    ug = SparsePoly(g.ring, {mono_div(l, lg): g.lead_coeff().inv()})
    return uf * f - ug * g


@dataclass(frozen=True)
class GroebnerBasis:
    """A reduced Groebner basis, sorted by ascending leading monomial."""

    ring: PolyRing
    polys: tuple

    def normal_form(self, f):
        return normal_form(f, list(self.polys))

    def is_trivial(self):
        """True when the ideal is the unit ideal (empty scheme)."""
        return any(p.total_degree() == 0 for p in self.polys)

    def lead_monomials(self):
        return [p.lead_monomial() for p in self.polys]


def groebner(gens, ring=None):
    """Buchberger's algorithm with sugar-strategy pair selection.

    Returns the reduced basis (monic, interreduced, deterministically
    sorted).
    """
    gens = [g for g in gens if not g.is_zero()]
    if ring is None:
        if not gens:
            raise PresentationError("empty generator list needs an explicit ring")
        ring = gens[0].ring
    if not ring.coeff.is_field:
        raise PresentationError(
            f"Groebner bases are computed over fields only, not over "
            f"{ring.coeff.tag()}")
    basis = []
    sugars = []
    pairs = []

    def add_poly(f, sugar):
        f = f.monic()
        k = len(basis)
        lm = f.lead_monomial()
        for i in range(k):
            lmi = basis[i].lead_monomial()
            l = mono_lcm(lmi, lm)
            if l == mono_mul(lmi, lm):
                continue  # product criterion: coprime leads
            s = max(sugars[i] + mono_deg(l) - mono_deg(lmi),
                    sugar + mono_deg(l) - mono_deg(lm))
            pairs.append((s, ring.key(l), i, k))
        basis.append(f)
        sugars.append(sugar)

    for g in gens:
        add_poly(g, g.total_degree())

    while pairs:
        pairs.sort()
        s, _, i, j = pairs.pop(0)
        h = normal_form(spoly(basis[i], basis[j]), basis)
        if not h.is_zero():
            add_poly(h, max(s, h.total_degree()))

    # minimalize: drop members whose lead is divisible by another lead
    minimal = []
    for i, f in enumerate(basis):
        lm = f.lead_monomial()
        keep = True
        for j, g in enumerate(basis):
            if i == j:
                continue
            glm = g.lead_monomial()
            if mono_div(lm, glm) is not None and (glm != lm or j < i):
                keep = False
                break
        if keep:
            minimal.append(f)
    # interreduce to the unique reduced basis
    reduced = []
    for i, f in enumerate(minimal):
        others = minimal[:i] + minimal[i + 1:]
        r = normal_form(f, others) if others else f
        if not r.is_zero():
            reduced.append(r.monic())
    reduced.sort(key=lambda f: ring.key(f.lead_monomial()))
    return GroebnerBasis(ring, tuple(reduced))


def groebner_extended(gens):
    """Buchberger with representation tracking and syzygy collection.

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
        lc = g.lead_coeff()
        basis.append(g.monic())
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
            lc = rem.lead_coeff()
            k = len(basis)
            basis.append(rem.monic())
            reps.append([r * lc.inv() for r in rrep])
            pairs.extend((t, k) for t in range(k))

    # relations coming from re-dividing the inputs by the completed basis
    for j, g in enumerate(gens):
        if g.is_zero():
            continue
        rem, rrep = track_divide(g, unit(j))
        assert rem.is_zero()  # internal invariant: the basis holds every input
        if any(not r.is_zero() for r in rrep):
            syzygies.append(rrep)
    return basis, reps, syzygies


# ---------------------------------------------------------------------------
# dimension

def staircase_dim(lead_monos, nvars):
    """Combinatorial Krull dimension of a monomial staircase.

    The dimension is the largest size of a variable subset S such that no
    leading monomial is supported inside S.  The unit ideal (a constant
    leading monomial) yields the sentinel -1: the scheme is empty.
    """
    lead_monos = list(lead_monos)
    if any(mono_deg(m) == 0 for m in lead_monos):
        return -1
    supports = [frozenset(i for i, e in enumerate(m) if e) for m in lead_monos]
    best = 0
    for size in range(nvars, 0, -1):
        for subset in itertools.combinations(range(nvars), size):
            s = frozenset(subset)
            if all(not sup <= s for sup in supports):
                return size
    return best


def krull_dim(gb: GroebnerBasis):
    """Krull dimension of the quotient by the ideal of a Groebner basis."""
    if gb.is_trivial():
        return -1
    return staircase_dim(gb.lead_monomials(), gb.ring.nvars)


def standard_monomials(gb: GroebnerBasis):
    """All monomials outside the leading ideal; requires dimension <= 0."""
    if gb.is_trivial():
        return []
    if krull_dim(gb) > 0:
        raise PresentationError("staircase is infinite")
    ring = gb.ring
    leads = gb.lead_monomials()
    seen = set()
    out = []
    queue = [(0,) * ring.nvars]
    while queue:
        m = queue.pop(0)
        if m in seen:
            continue
        seen.add(m)
        if any(mono_div(m, l) is not None for l in leads):
            continue
        out.append(m)
        for i in range(ring.nvars):
            mm = list(m)
            mm[i] += 1
            queue.append(tuple(mm))
    out.sort(key=ring.key)
    return out


# ---------------------------------------------------------------------------
# Witt operations on polynomials

def frobenius_twist(f):
    """Sum of c^p X^(p*m) over the terms of f: the p-th power when the
    coefficients live in characteristic p, the twist f^(p) otherwise."""
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


def witt_Q(f):
    """The multivariate carry Q(f) with f^p = f^(p) + p*Q(f).

    Q is the sum over exponent tuples (k_t), 0 <= k_t < p, sum k_t = p,
    of (p-1)!/(prod k_t!) times the corresponding product of terms of f.
    Over Z/p^2 the sum is evaluated on the exact integer lift and reduced
    at the end; over GR(p^2, e) it is evaluated in ring arithmetic (the
    scalars are integers).  A single-term f has no admissible tuple, so
    Q(f) = 0.
    """
    R = f.ring.coeff
    terms = f.sorted_terms()
    if isinstance(R, PrimeSquareRing):
        lifted = [(m, c.value) for m, c in terms]
        acc = {}
        for combo, coef in _multinomial_tuples(R.p, len(lifted)):
            mono = (0,) * f.ring.nvars
            val = coef
            for k, (m, c) in zip(combo, lifted):
                if k:
                    mono = mono_mul(mono, tuple(k * e for e in m))
                    val *= c**k
            acc[mono] = acc.get(mono, 0) + val
        out = {m: R.of_int(v) for m, v in acc.items()}
        return f.ring.poly(out)
    if isinstance(R, GaloisRing):
        total = f.ring.zero()
        for combo, coef in _multinomial_tuples(R.p, len(terms)):
            part = f.ring.constant(coef)
            for k, (m, c) in zip(combo, terms):
                if k:
                    part = part * SparsePoly(
                        f.ring, {tuple(k * e for e in m): c**k})
            total = total + part
        return total
    raise PresentationError(f"witt_Q needs p^2-torsion coefficients, got {R.tag()}")


def witt_P_pair(f, g):
    """P(f, g) as polynomials: sum of binom(p,i)/p * f^i g^(p-i)."""
    if f.ring != g.ring:
        raise PresentationError("witt_P_pair needs two polynomials of one ring")
    p = f.ring.coeff.p
    total = f.ring.zero()
    fp = [f.ring.one()]
    gp = [g.ring.one()]
    for i in range(1, p + 1):
        fp.append(fp[-1] * f)
        gp.append(gp[-1] * g)
    for i in range(1, p):
        total = total + (fp[i] * gp[p - i]) * (math.comb(p, i) // p)
    return total


def homogenize(f, target_ring):
    """Homogenize with the first variable of target_ring as the new one."""
    if target_ring.variables[1:] != f.ring.variables:
        raise PresentationError(
            "homogenize needs the variables of f after one new first variable")
    d = f.total_degree()
    out = {}
    for m, c in f.terms.items():
        out[(d - mono_deg(m),) + m] = embed(c, target_ring.coeff)
    return SparsePoly(target_ring, out)
