"""Sparse multivariate polynomials, monomial orders, Buchberger bases.

Monomials are exponent tuples; polynomials are dicts from monomial to
nonzero coefficient, kept canonical at all times.  Two monomial orders
are provided: grevlex (default) and a homogenized-local order used by
the tangent-cone computation, in which the first variable is the
homogenizer and ties are broken by negative degree on the rest.
groebner and normal_form, the one Buchberger and the one division, run
over a field or over Z/p^2, where leading terms are taken among the unit
terms (groebner's docstring says what that gives).

Inside the division and Buchberger kernel (_reduce, groebner) a monomial
is one int and a polynomial a dict {packed monomial: raw value}, with
arithmetic through the coefficient ring's value methods; SparsePolys
enter and leave it at the edge.  A packing at width w (_Packing) has
fields of w + 1 bits: the exponents low, each under a guard bit, then the
order's weight rows, the most significant highest (2^w - 1 - e_i for a
row of sign -1, e_i for +1), then the total degree, unbounded, on top.
grevlex's rows are the reversed negated exponents; homoglocal's the
negated degree in x_1..x_n, which at one total degree is the
homogenizer's exponent, then grevlex on x_1..x_n.  While every degree is
below 2^w, int comparison is the monomial order, X^a X^b packs to
pack(a) + pack(b) - offset (offset = pack(1)), and b divides a exactly
when a - b has no guard bit set.  PolyRing.packing(d) takes the least w
of 8, 16, 32, ... with d < 2^w; a pack of degree d lies below
2^w << shift(w), so below every pack at a wider width, and ring.key, a
monomial's pack at the width of its degree, orders all monomials.

The Witt operations (frobenius_twist, witt_Q, witt_P_pair) work on
packed raw polynomials, {key: value} dicts, and make Residues only for
the terms of their result.  X^m is the key sum m_i B^i in the radix
B = p*d + 1, d the largest exponent of the input (_pack).  None of them
forms an exponent above p*d < B, so no digit carries into the next and a
product of monomials is one integer addition.  witt_Q reads the carry off
one p-th power modulo p^3 (the argument is in its docstring).  The
carries take int values, of Z/p^2 or F_p: every product goes through one
loop, _raw_mul, which adds each c1 * c2 into its key unreduced, and its
caller reduces each value of the result once, mod p^3 or the modulus of
the ring.  witt_Q, witt_P_pair and SparsePoly products (by a scalar too)
and powers count the value products of each sparse product before taking
it, and normal_form the terms of every division step, and all refuse once
the count would pass PRODUCT_BOUND, through modarith's one counter,
_budget.
"""

from __future__ import annotations

import functools
import heapq
import operator
from dataclasses import dataclass

from .errors import PresentationError
from .modarith import Residue, _budget, embed, reduce_mod_p


def mono_mul(a, b):
    return tuple(map(operator.add, a, b))


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


# each order's weight rows below the total degree, most significant first,
# as (variable, sign) for n variables (module docstring)
_ORDERS = {
    "grevlex": lambda n: [(i, -1) for i in range(n - 1, -1, -1)],
    "homoglocal": lambda n: [(0, 1)] * (n > 0)
    + [(i, -1) for i in range(n - 1, 0, -1)],
}


class _Packing:
    """The monomials of n variables packed into ints at slot width w, the
    weight rows of an order above the exponents (module docstring)."""

    __slots__ = ("top", "offset", "guards", "shift", "vectors", "xshifts")

    def __init__(self, order, n, w):
        rows = _ORDERS[order](n)
        field = w + 1
        self.top = (1 << w) - 1  # the largest degree and exponent packed
        self.xshifts = [i * field for i in range(n)]
        self.shift = (n + len(rows)) * field  # of the degree, on top
        self.guards = sum(1 << (s + w) for s in self.xshifts)
        vectors = [(1 << s) + (1 << self.shift) for s in self.xshifts]
        self.offset = 0
        for r, (i, sign) in enumerate(rows):
            at = self.shift - (r + 1) * field
            vectors[i] += sign << at
            self.offset += self.top << at if sign < 0 else 0
        self.vectors = vectors

    def pack(self, m):
        return self.offset + sum(map(operator.mul, m, self.vectors))

    def unpack(self, key):
        top = self.top
        return tuple([key >> s & top for s in self.xshifts])

    def raw(self, f):
        """The packed raw terms of the SparsePoly f (pack, inlined)."""
        offset, vectors, mul = self.offset, self.vectors, operator.mul
        return {offset + sum(map(mul, m, vectors)): c.value
                for m, c in f.terms.items()}

    def terms(self, raw, R):
        """The SparsePoly terms of packed raw terms with values of R
        (unpack, inlined)."""
        top, xshifts = self.top, self.xshifts
        return {tuple([m >> s & top for s in xshifts]): Residue(R, c)
                for m, c in raw.items()}


_packing = functools.cache(_Packing)


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

    def packing(self, degree):
        """The packing of the monomials of at most this degree, at the
        least width w of 8, 16, 32, ... with degree < 2^w."""
        w = 8 if degree < 256 else 1 << (degree.bit_length() - 1).bit_length()
        return _packing(self.order, self.nvars, w)

    def key(self, m):
        """The order key of a monomial: its pack at the width of its degree,
        which orders all monomials (module docstring)."""
        return self.packing(sum(m)).pack(m)

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
        out = dict(self.terms)
        _addmul(out, self._coerce(other).terms)
        return SparsePoly(self.ring, out)

    __radd__ = __add__

    def __neg__(self):
        return SparsePoly(self.ring, {m: -c for m, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return self._coerce(other) - self

    def __mul__(self, other):
        other = self._coerce(other)
        _budget("a product of {} and {} terms", len(self.terms),
                len(other.terms))(len(self.terms) * len(other.terms))
        out = {}
        for m, c in self.terms.items():
            _addmul(out, other.terms, m, c)
        return SparsePoly(self.ring, out)

    __rmul__ = __mul__

    def __pow__(self, n):
        if not isinstance(n, int) or n < 0:
            raise PresentationError(
                f"exponent must be a nonnegative integer, not {n!r}")
        spend = _budget("the power {} of {} terms", n, len(self.terms))
        result = self.ring.one()
        base = self
        while n:
            if n & 1:
                spend(len(result.terms) * len(base.terms))
                result = result * base
            n >>= 1
            if n:
                spend(len(base.terms) ** 2)
                base = base * base
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
        """The largest monomial whose coefficient is a unit: over Z/p^2
        the terms in p are passed over."""
        monos = self.terms
        R = self.ring.coeff
        if not R.is_field:
            monos = [m for m, c in monos.items() if R._is_unit(c.value)]
        if not monos:
            raise PresentationError(f"{self} has no unit term to lead")
        return max(monos, key=self.ring.key)

    def total_degree(self):
        if not self.terms:
            return -1
        return max(mono_deg(m) for m in self.terms)

    def map_coeffs(self, target_ring, fn):
        """Apply fn to every coefficient, landing in target_ring."""
        new = self.ring.with_coeff(target_ring)
        out = {}
        for m, c in self.terms.items():
            v = fn(c)
            if not v.is_zero():
                out[m] = v
        return SparsePoly(new, out)

    def over(self, k):
        """f with its coefficients carried into the ring k: f itself when k
        is its coefficient ring, else each coefficient reduced mod p when k
        is a field, then embedded (Z/p^2 -> F_p -> F_q).  modarith decides
        which maps exist, and a missing one is a PresentationError."""
        if self.ring.coeff == k:
            return self
        return self.map_coeffs(
            k, lambda c: embed(reduce_mod_p(c) if k.is_field else c, k))

    def evaluate(self, coords, target=None):
        """Evaluate at a point with coordinates in a common ring.

        Coefficients are embedded into the coordinate ring when a canonical
        embedding exists (F_p into F_{p^e}).
        """
        if target is None:
            target = coords[0].ring if coords else self.ring.coeff
        return self._substitute(coords, lambda c: embed(c, target))

    def shift(self, coords):
        """Substitute X_j -> X_j + c_j (translation of the origin)."""
        self._check_arity(coords)
        return self._substitute(
            [x + c for x, c in zip(self.ring.gens(), coords)],
            self.ring.constant)

    def _check_arity(self, coords):
        if len(coords) != self.ring.nvars:
            raise PresentationError(
                f"{len(coords)} coordinates given, the ring has "
                f"{self.ring.nvars} variables")

    def _substitute(self, images, const):
        """The sum of const(c) * prod images[j]^m_j over the terms c*X^m,
        with each power images[j]^e taken once, by **."""
        self._check_arity(images)
        powers = {}
        total = const(self.ring.coeff.zero())
        for m, c in self.terms.items():
            v = const(c)
            for j, e in enumerate(m):
                if e:
                    if (j, e) not in powers:
                        powers[j, e] = images[j] ** e
                    v = v * powers[j, e]
            total = total + v
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

def normal_form(f, basis):
    """Remainder of f on division by a list or GroebnerBasis: no term of it,
    unit or not, is divisible by a leading monomial of the list.  Terms are
    reduced from the largest down, ties going to the first-listed divisor.
    Over Z/p^2 reducing a unit term may bring in larger terms in p, even at
    a monomial already in the remainder, where they add up.  The unit
    terms are divided as over the residue field, and a term in p is
    replaced by terms in p below it, so the division ends.  Each step
    scans the one dividend dict, and subtracts a multiple of b in place:
    their terms count against PRODUCT_BOUND, and a division that would
    pass it is refused with SizeRefusalError."""
    leads = basis._leads if isinstance(basis, GroebnerBasis) else _Leads(basis)
    if not (leads.leads and f.terms):
        return f
    if len(f.terms) == 1:  # one term no lead divides: its own remainder
        m, = f.terms
        if not any(all(map(operator.ge, m, lm)) for lm in leads.leads):
            return f
    P, divisors = leads.packed(f)
    R = f.ring.coeff
    return SparsePoly(f.ring, P.terms(_reduce(P.raw(f), divisors, R, P), R))


def _reduce(h, divisors, R, P):
    """The packed raw remainder of the packed raw dividend h, which it
    consumes, on division by the (packed lead, inverse lead value, packed
    raw divisor) triples divisors, in their order (normal_form).  The
    caller picks P wide enough for every product the division takes."""
    spend = _budget("the division of {} terms", len(h), unit="terms")
    add, mul, neg, guards = R._add, R._mul, R._neg, P.guards
    rem = {}
    while h:
        spend(len(h))
        lm = max(h)
        c = h[lm]
        for blm, binv, b in divisors:
            q = lm - blm
            if not q & guards:
                spend(len(b))
                _addmul_raw(h, b, q, neg(mul(c, binv)), R)
                break
        else:
            rem[lm] = add(rem[lm], c) if lm in rem else c
            del h[lm]
    return {m: c for m, c in rem.items() if not R._is_zero(c)}


def _addmul(out, terms, q=None, c=None):
    """Add c*X^q times the {monomial: coefficient} terms into the dict out
    in place, dropping every monomial that cancels; q or c None means 1."""
    for m, a in terms.items():
        m = m if q is None else mono_mul(q, m)
        a = a if c is None else c * a
        s = out.get(m)
        a = a if s is None else s + a
        if a.is_zero():
            out.pop(m, None)
        else:
            out[m] = a


def _addmul_raw(out, terms, q, c, R):
    """Add c*X^q times the packed raw terms over R into out in place,
    dropping every key that cancels; q is the packed X^q less the offset."""
    add, mul, is_zero, get = R._add, R._mul, R._is_zero, out.get
    for m, a in terms.items():
        m += q
        a = mul(c, a)
        s = get(m)
        if s is not None:
            a = add(s, a)
        if not is_zero(a):
            out[m] = a
        elif s is not None:
            del out[m]


class _Leads:
    """The nonzero members of a division, their leading monomials, and
    their divisor triples packed at the widest packing asked for yet."""

    def __init__(self, polys):
        self.polys = [b for b in polys if b.terms]
        self.leads = [b.lead_monomial() for b in self.polys]
        self.packing = self.triples = None

    def packed(self, f):
        """A packing for the division of a nonzero f and the triples packed
        by it: no product of the division passes the degree of f by more
        than rise, how far the terms in p of a member rise above its lead."""
        if self.packing is None:
            degrees = [b.total_degree() for b in self.polys]
            self.degree = max(degrees)
            self.rise = max(map(operator.sub, degrees,
                                map(mono_deg, self.leads)))
        need = max(max(map(sum, f.terms)) + self.rise, self.degree)
        if self.packing is None or need > self.packing.top:
            P = self.packing = f.ring.packing(need)
            R = f.ring.coeff
            self.triples = [(P.pack(lm), R._inv(b.terms[lm].value), P.raw(b))
                            for lm, b in zip(self.leads, self.polys)]
        return self.packing, self.triples


@dataclass(frozen=True)
class GroebnerBasis:
    """A reduced Groebner basis, sorted by ascending leading monomial.

    Over Z/p^2, torsion lists the h, over the residue field, of every
    input or S-pair that reduced to p*h (groebner); over a field it is
    empty."""

    ring: PolyRing
    polys: tuple
    torsion: tuple = ()

    @functools.cached_property
    def _leads(self):
        return _Leads(self.polys)

    def normal_form(self, f):
        return normal_form(f, self)

    def is_trivial(self):
        """True when the ideal is the unit ideal (empty scheme)."""
        return any(not any(m) for m in self.lead_monomials())

    def lead_monomials(self):
        return self._leads.leads

    def is_finite(self):
        """True when the quotient is finite over the coefficients (Krull
        dimension at most 0): the ideal is the unit ideal, or every variable
        has a pure power among the leading monomials."""
        pure = {i for m in self.lead_monomials()
                for i, e in enumerate(m) if e and e == mono_deg(m)}
        return len(pure) == self.ring.nvars or self.is_trivial()


def groebner(gens, ring=None):
    """Buchberger's algorithm with sugar-strategy pair selection.

    Returns the reduced basis (monic, interreduced, deterministically
    sorted).  Over Z/p^2 leading terms are taken among the unit terms
    only: every member lies in the ideal I, and their images mod p are
    the reduced basis of I mod p.  An input or S-pair that
    reduces to p*h, with no unit term left, puts h in the torsion of the
    result instead of the basis.

    Everything between the inputs and the result runs on packed
    monomials and raw values (module docstring), at a width that holds
    the inputs' degrees.  No term of an S-polynomial or of its reduction
    passes the degree of the pair's lcm, over a field, or passes it by
    more than rise, how far the terms in p of a member rise above its
    lead, over Z/p^2 (a unit term is replaced by smaller ones, a term in
    p by p times unit terms below it).  So before each pair the width is
    widened, and the basis repacked, if it would not hold that degree.
    """
    gens = [g for g in gens if not g.is_zero()]
    if ring is None:
        if not gens:
            raise PresentationError("empty generator list needs an explicit ring")
        ring = gens[0].ring
    R = ring.coeff
    one, minus_one, mul = R._of_int(1), R._of_int(-1), R._mul
    P = ring.packing(max(g.total_degree() for g in gens) if gens else 0)
    basis = []  # (packed lead, 1, packed raw monic member) triples
    leads = []  # the lead of each member as a tuple
    sugars, pairs, torsion = [], [], []
    rise = 0  # how far terms in p rise above their member's lead

    def add_poly(f, sugar):
        nonlocal rise
        units = f if R.is_field else [m for m, c in f.items() if R._is_unit(c)]
        if not units:  # f = p*h: h, over the residue field, is torsion
            k = R.residue_field()
            torsion.append(SparsePoly(ring.with_coeff(k), P.terms(
                {m: c // R.p for m, c in f.items()}, k)))
            return
        lm = max(units)
        if f[lm] != one:
            inv = R._inv(f[lm])
            f = {m: mul(c, inv) for m, c in f.items()}
        lt = P.unpack(lm)
        rise = max(rise, (max(f) >> P.shift) - (lm >> P.shift))
        k = len(basis)
        for i, lti in enumerate(leads):
            l = mono_lcm(lti, lt)
            if l == mono_mul(lti, lt):
                continue  # product criterion: coprime leads
            s = max(sugars[i] + mono_deg(l) - mono_deg(lti),
                    sugar + mono_deg(l) - mono_deg(lt))
            heapq.heappush(pairs, (s, ring.key(l), i, k, l))
        basis.append((lm, one, f))
        leads.append(lt)
        sugars.append(sugar)

    def fit(degree):
        """Widen the packing, and repack the basis, to hold this degree."""
        nonlocal P
        if degree > P.top:
            old, P = P, ring.packing(degree)
            basis[:] = [(P.pack(lt), one, {P.pack(old.unpack(m)): c
                                          for m, c in f.items()})
                        for lt, (_, _, f) in zip(leads, basis)]

    for g in gens:
        add_poly(P.raw(g), g.total_degree())

    while pairs:
        s, _, i, j, l = heapq.heappop(pairs)
        fit(mono_deg(l) + rise)
        L = P.pack(l)
        (li, _, fi), (lj, _, fj) = basis[i], basis[j]
        h = {m + L - li: c for m, c in fi.items()}
        _addmul_raw(h, fj, L - lj, minus_one, R)
        h = _reduce(h, basis, R, P)
        if h:
            add_poly(h, max(s, max(h) >> P.shift))

    fit(max(map(mono_deg, leads), default=0) + rise)
    guards = P.guards
    # minimalize: drop members whose lead is divisible by another lead
    minimal = [t for i, t in enumerate(basis) if not any(
        j != i and not (t[0] - glm) & guards and (glm != t[0] or j < i)
        for j, (glm, _, _) in enumerate(basis))]
    # interreduce to the unique reduced basis; no other lead divides the
    # lead lm of a member, so its unit coefficient stays at lm, the largest
    # unit term of the remainder, which is lm's member's lead
    reduced = []
    for i, (lm, _, f) in enumerate(minimal):
        others = minimal[:i] + minimal[i + 1:]
        r = _reduce(dict(f), others, R, P) if others else f
        if r[lm] != one:
            inv = R._inv(r[lm])
            r = {m: mul(c, inv) for m, c in r.items()}
        reduced.append((lm, r))
    reduced.sort(key=operator.itemgetter(0))
    return GroebnerBasis(ring, tuple(SparsePoly(ring, P.terms(r, R))
                                     for _, r in reduced), tuple(torsion))


# ---------------------------------------------------------------------------
# dimension

def staircase_dim(lead_monos, nvars):
    """Combinatorial Krull dimension of a monomial staircase.

    The dimension is the largest size of a variable subset S such that no
    leading monomial is supported inside S: nvars less the least size of
    a set of variables that meets every support.  A depth-first branch and
    bound finds that size on the minimal supports: it branches on the
    variables of the smallest support not yet met, and prunes where the
    pairwise disjoint open supports, each of which needs a variable of its
    own, leave no room below the best set found.  Each node counts against
    PRODUCT_BOUND, and a search that would pass it is refused with
    SizeRefusalError.  The unit ideal (a constant leading monomial) yields
    the sentinel -1: the scheme is empty.
    """
    supports = {frozenset(i for i, e in enumerate(m) if e) for m in lead_monos}
    if frozenset() in supports:
        return -1
    supports = sorted((s for s in supports if not any(t < s for t in supports)),
                      key=lambda s: (len(s), sorted(s)))
    spend = _budget("the Krull dimension of {} leading monomials",
                    len(supports), unit="search nodes")
    best = len(frozenset().union(*supports))  # all their variables meet all
    stack = [(supports, 0)]  # (the supports still open, variables taken)
    while stack:
        open_, size = stack.pop()
        spend(1)
        met, bound = set(), size
        for s in open_:
            if met.isdisjoint(s):
                met |= s
                bound += 1
        if bound < best and open_:
            stack.extend(([s for s in open_ if v not in s], size + 1)
                         for v in sorted(open_[0], reverse=True))
        elif bound < best:
            best = size
    return nvars - best


def krull_dim(gb: GroebnerBasis):
    """Krull dimension of the quotient by the ideal of a Groebner basis,
    -1 for the unit ideal (staircase_dim)."""
    return staircase_dim(gb.lead_monomials(), gb.ring.nvars)


def standard_monomials(gb: GroebnerBasis, limit=None):
    """All monomials outside the leading ideal; requires dimension <= 0.
    With a limit, a staircase of more monomials is cut at limit + 1 of
    them, before the rest is enumerated.  The unit ideal has none: its
    constant lead divides every monomial."""
    if not gb.is_finite():
        raise PresentationError("staircase is infinite")
    ring = gb.ring
    leads = gb.lead_monomials()
    seen = set()
    out = []
    queue = [(0,) * ring.nvars]
    while queue and (limit is None or len(out) <= limit):
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
# Witt operations on packed raw polynomials (module docstring)

def _pack(p, *polys):
    """The radix B = p*d + 1, d the largest exponent of the polys, and the
    raw values of each poly keyed by their packed monomials."""
    B = p * max((e for f in polys for m in f.terms for e in m), default=0) + 1
    radix = [B**i for i in range(polys[0].ring.nvars)]
    return B, [{sum(map(operator.mul, m, radix)): c.value
                for m, c in f.terms.items()} for f in polys]


def _unpack(ring, raw, B):
    """The SparsePoly over ring of a packed raw polynomial whose values are
    canonical for ring.coeff; zero values are dropped."""
    R, zero, out = ring.coeff, ring.coeff._of_int(0), {}
    for key, v in raw.items():
        if v != zero:
            m = []
            for _ in range(ring.nvars):
                key, e = divmod(key, B)
                m.append(e)
            out[tuple(m)] = Residue(R, v)
    return SparsePoly(ring, out)


def _raw_mul(a, b, out=None):
    """Add the product of the packed raw polynomials a and b into out (a
    new dict when None); zero values are kept.  The values are ints, and
    each value of out is the plain sum of its products c1 * c2, which the
    caller reduces once."""
    out = {} if out is None else out
    get = out.get
    for m1, c1 in a.items():
        for m2, c2 in b.items():
            m = m1 + m2
            out[m] = get(m, 0) + c1 * c2
    return out


def frobenius_twist(f):
    """Sum of c^p X^(p*m) over the terms of f: the p-th power when the
    coefficients live in characteristic p, the twist f^(p) otherwise."""
    R, p = f.ring.coeff, f.ring.coeff.p
    B, (raw,) = _pack(p, f)
    return _unpack(f.ring, {p * m: R._pow(c, p) for m, c in raw.items()}, B)


def _witt_Q_raw(raw, p):
    """Q of a packed raw polynomial over Z/p^2, packed alike, read off its
    p-th power mod p^3 in a radix where p times every exponent stays one
    digit (witt_Q)."""
    t, M = len(raw), p**3
    if t < 2:
        return {}
    spend = _budget("the Witt carry Q of {} terms at p = {}", t, p)
    power = raw
    for _ in range(p - 1):
        spend(len(power) * t)
        power = {m: v % M for m, v in _raw_mul(power, raw).items()}
    get = {p * m: pow(c, p, M) for m, c in raw.items()}.get
    return {m: (v - get(m, 0)) % M // p for m, v in power.items()}


def witt_Q(f):
    """The multivariate carry Q(f) with f^p = f^(p) + p*Q(f).

    Q(f) is the sum, over exponent tuples (k_t) with 0 <= k_t < p and
    sum k_t = p, of (p-1)!/prod(k_t!) times the product of the terms of f
    raised to the k_t.  It is read off one p-th power in a lift.  Let L be
    Z/p^3 and F the polynomial over L with the coefficients of f read
    verbatim.  By the multinomial theorem F^p is the sum over all tuples
    with sum p of p!/prod(k_t!) times the product.  The tuples with one k_t = p give
    sum c^p X^(p*m); every other coefficient p!/prod(k_t!) is p times
    (p-1)!/prod(k_t!).  So F^p - sum c^p X^(p*m) = p*Q~, with Q~ the
    same sum over L.  Every coefficient of the left side thus lies in pL,
    and since p*x = 0 in L exactly when x lies in p^2 L, dividing by p
    determines Q~ mod p^2.  Reduction L -> R is a ring map, so it takes
    Q~ to Q(f): the result is exactly the multinomial sum.

    The cost is p - 1 sparse products of F^k by F, at most |F^k| * t
    value products each for t terms, instead of one product of up to p
    terms for each of the C(t + p - 1, p) tuples.  Each product is counted
    before it is taken, and once the count would pass PRODUCT_BOUND the
    carry is refused with SizeRefusalError.  Fewer than two terms give 0.
    """
    R = f.ring.coeff
    if R.is_field:
        raise PresentationError(
            f"witt_Q needs p^2-torsion coefficients, got {R.tag()}")
    B, (raw,) = _pack(R.p, f)
    return _unpack(f.ring, _witt_Q_raw(raw, R.p), B)


def _witt_P_raw(a, b, p, M):
    """P(a, b) of packed raw polynomials, packed alike as for _witt_Q_raw,
    on int values reduced mod M, the modulus of their ring (witt_P_pair)."""
    if not (a and b):
        return {}
    spend = _budget("the Witt carry P of {} and {} terms at p = {}",
                    len(a), len(b), p)
    apow, bpow = [None, a], [None, b]
    for _ in range(2, p):
        spend(len(apow[-1]) * len(a) + len(bpow[-1]) * len(b))
        apow.append({m: v % M for m, v in _raw_mul(apow[-1], a).items()})
        bpow.append({m: v % M for m, v in _raw_mul(bpow[-1], b).items()})
    total, q, binom = {}, p * p, 1  # binom = C(p-1, i-1) mod p^2
    for i in range(1, p):
        spend(len(apow[i]) * len(bpow[p - i]))
        inv = pow(i, -1, q)
        c = binom * inv % q  # binom(p, i)/p = C(p-1, i-1)/i
        binom = binom * (p - i) * inv % q
        _raw_mul({m: c * v % M for m, v in apow[i].items()}, bpow[p - i],
                 total)
    return {m: v % M for m, v in total.items()}


def witt_P_pair(f, g):
    """P(f, g) as polynomials: sum of binom(p,i)/p * f^i g^(p-i), 0 < i < p,
    over Z/p^2 or F_p; an extension field is refused.

    Its value products are counted and bounded as for witt_Q."""
    if f.ring != g.ring:
        raise PresentationError("witt_P_pair needs two polynomials of one ring")
    R = f.ring.coeff
    if R.degree != 1:
        raise PresentationError(
            f"witt_P_pair needs Z/p^2 or F_p coefficients, got {R.tag()}")
    B, (a, b) = _pack(R.p, f, g)
    return _unpack(f.ring, _witt_P_raw(a, b, R.p, R.modulus), B)


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
