"""Brute-force differential modules of small finite rings.

The universal module is the quotient of the free module on one symbol
[a] per ring element by the submodule generated by the two derivation
relations

    R(a,b) = [a+b] - [a] - [b] + P(a,b)[p]
    D(a,b) = [ab] - b^p[a] - a^p[b]

over all pairs.  Relations on additive generators g, h of A (the basis
lifts: F_p-basis lifts in characteristic p, standard monomials over
Z/p^2) already span them all:

  * The Witt carry is a 2-cocycle, P(a,b) + P(a+b,c) = P(b,c) + P(a,b+c)
    as integer polynomials, so R(a,b+c) = R(a,b) + R(a+b,c) - R(b,c).
    R(0,g) = -[0] gives [0] = 0, and induction on b = g_1 + ... + g_k
    puts every R(a,b) in the span of the R(a,g).
  * Modulo those, D is biadditive: expanding [a(b+c)] and [b+c] with R,
    (b+c)^p = b^p + c^p + p P(b,c) and P(ab,ac) = a^p P(b,c) leave
    D(a,b+c) - D(a,b) - D(a,c) = -p P(b,c)[a], which is 0 over A/pA.
    With D(a,0) = (1 - a^p)[0] = 0 and D symmetric, the D(g,h) suffice.

So n*g + g(g+1)/2 pairs replace the n(n+1)/2 pairs of the definition,
with n = |A| and g generators.

Because p annihilates the universal module, the free module can be taken
over A/pA, and realizing A/pA-coordinates over an F_p-basis turns the
whole computation into one F_p rank: with e = dim_Fp(A/pA), the free
space has e * |A| coordinates, each relation contributes e rows (one per
basis multiplier, products decomposed in the basis), and the dimension
is e * |A| minus the rank.  When A/pA = F_p this is the plain |A| - rank
count.  The result is the ground truth against which the presentation
pipeline is cross-checked.

Finite rings over a Z/p^2 base are enumerated exactly: with I the
relation ideal, U = (I : p) mod p equals I_1 + the sigma-image of the
syzygies of the reduced relations (sigma(h) = (sum h~_i f_i)/p), and an
element has a unique canonical form r + p*h with r supported on the
standard monomials of I_1 and h reduced modulo U.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import PresentationError, SizeRefusalError
from .fwcore import FWPresentation, RingPresentation
from .linalg import ModPSpan
from .modarith import lift_to_p2, reduce_mod_p
from .mpoly import (
    GroebnerBasis,
    divide,
    groebner,
    groebner_extended,
    krull_dim,
    normal_form,
    standard_monomials,
)

# |A| caps keeping the relation matrix at desk scale
DEFAULT_SIZE_CAP = {2: 16, 3: 81, 5: 25}


def _size_cap(p, max_size):
    if max_size is not None:
        return max_size
    cap = DEFAULT_SIZE_CAP.get(p)
    if cap is None:
        raise SizeRefusalError(
            f"no default oracle bound for p = {p}; pass an explicit max size")
    return cap


def _field_basis(k):
    """The F_p-basis 1, t, .., t^(e-1) of a residue field of degree e."""
    basis = [k.one()]
    for _ in range(1, k.degree):
        basis.append(basis[-1] * k.generator())
    return basis


def _fp_digits(poly, S, k):
    """F_p-coordinates of a carrier element with standard monomials S,
    on the basis (standard monomial) x (field basis)."""
    out = []
    for m in S:
        c = poly.terms.get(m, k.zero())
        out.extend(c.value if isinstance(c.value, tuple) else [c.value])
    return out


class FiniteRing:
    """A finite ring of p-power order with verified operation tables.

    Elements are canonical-form polynomials.  The supplied closures are
    evaluated only against the additive generators (the basis lifts);
    every other column is filled by gathers, breadth-first from zero,
    through x + (y + g) = (x + y) + g and x(y + g) = xy + xg.  Every ring
    axiom is then checked exhaustively on the finished tables.
    """

    def __init__(self, p, elements, add_fn, mul_fn, basis_lifts, reduce_vec,
                 label):
        self.p = p
        self.elements = list(elements)
        self.size = len(self.elements)
        self.label = label
        self._add_fn = add_fn
        self._mul_fn = mul_fn
        self.basis_lifts = list(basis_lifts)
        n = self.size
        while n % p == 0:
            n //= p
        if n != 1:
            raise PresentationError("finite ring must have p-power order")
        self.index = {}
        for i, a in enumerate(self.elements):
            if a in self.index:
                raise PresentationError("duplicate elements in enumeration")
            self.index[a] = i
        self.basis_idx = [self.index[b] for b in self.basis_lifts]
        self.add, self.mul = self._tables()
        self.zero_idx = self._find_identity(self.add)
        self.one_idx = self._find_identity(self.mul)
        self._verify_axioms()
        self.p_one_idx = self.int_mult_idx(p, self.one_idx)
        self.frob = self.pow_idx(np.arange(self.size), p)
        self.reduce_mat = np.array(
            [list(reduce_vec(a)) for a in self.elements], dtype=np.int64) % p
        ident = self.reduce_mat[self.basis_idx]
        if not (ident == np.eye(self.carrier_dim, dtype=np.int64)).all():
            raise PresentationError("basis lifts do not reduce to unit vectors")

    def _tables(self):
        elems, n = self.elements, self.size
        gens = np.array(self.basis_idx, dtype=np.int64)
        addg, mulg = (
            np.array([[self.index[fn(a, elems[u])] for a in elems]
                      for u in gens], dtype=np.int64).reshape(len(gens), n)
            for fn in (self._add_fn, self._mul_fn))
        zero = np.flatnonzero((addg == gens[:, None]).all(axis=0))
        if zero.size == 0:
            raise PresentationError("operation table has no identity element")
        zero = int(zero[0])
        steps, seen = [(zero, None, None)], {zero}
        for y, _, _ in steps:  # breadth-first: steps grows as it is read
            for u in range(len(gens)):
                z = int(addg[u, y])
                if z not in seen:
                    seen.add(z)
                    steps.append((z, y, u))
        if len(seen) < n:
            raise PresentationError(
                f"the basis lifts do not generate {self.label} additively")
        add, mul = np.empty((2, n, n), dtype=np.int64)
        add[:, zero] = np.arange(n)
        mul[:, zero] = zero
        for z, y, u in steps[1:]:
            add[:, z] = addg[u, add[:, y]]
        for z, y, u in steps[1:]:
            mul[:, z] = add[mul[:, y], mulg[u]]
        return add, mul

    def _find_identity(self, table):
        n = self.size
        want = np.arange(n)
        for i in range(n):
            if (table[i] == want).all():
                return i
        raise PresentationError("operation table has no identity element")

    def _verify_axioms(self):
        """Commutativity, inverses, associativity and distributivity; the
        n^3 laws run on slabs of the first index, ~2^20 entries a slab."""
        add, mul, n = self.add, self.mul, self.size
        ok = ((add == add.T).all() and (mul == mul.T).all()
              and (add == self.zero_idx).any(axis=1).all())
        step = max(1, (1 << 20) // (n * n))
        for lo in range(0, n, step):
            a, m = add[lo:lo + step], mul[lo:lo + step]
            ok = ok and ((add[a] == a[:, add]).all()
                         and (mul[m] == m[:, mul]).all()
                         and (m[:, add] == add[m[:, :, None],
                                               m[:, None, :]]).all())
        if not ok:
            raise PresentationError(
                f"operation tables of {self.label} violate the ring axioms")

    @property
    def carrier_dim(self):
        return len(self.basis_lifts)

    def int_mult_idx(self, c, i):
        """Index of c*a for a nonnegative integer c."""
        total = self.zero_idx
        cur = i
        while c:
            if c & 1:
                total = self.add[total, cur]
            cur = self.add[cur, cur]
            c >>= 1
        return total

    def pow_idx(self, i, k):
        total = self.one_idx
        cur = i
        while k:
            if k & 1:
                total = self.mul[total, cur]
            cur = self.mul[cur, cur]
            k >>= 1
        return total

    def witt_carry_idx(self, i, j):
        """Index of P(a_i, a_j) = sum binom(p,k)/p a_i^k a_j^(p-k)."""
        p = self.p
        total = self.zero_idx
        for k in range(1, p):
            term = self.mul[self.pow_idx(i, k), self.pow_idx(j, p - k)]
            total = self.add[total, self.int_mult_idx(math.comb(p, k) // p, term)]
        return total

    @classmethod
    def from_presentation(cls, ring_pres: RingPresentation, max_size=None):
        if ring_pres.is_charp:
            return _finite_ring_charp(ring_pres, max_size)
        return _finite_ring_zp2(ring_pres, max_size)

    def __repr__(self):
        return f"FiniteRing({self.label}, size={self.size})"


def _finite_ring_charp(ring_pres, max_size):
    k = ring_pres.base
    cring = ring_pres.carrier_ring
    gb = groebner(ring_pres.relations_mod_p(), ring=cring)
    if gb.is_trivial():
        raise PresentationError("the presented ring is the zero ring")
    if krull_dim(gb) > 0:
        raise SizeRefusalError("the presented ring is infinite")
    S = standard_monomials(gb)
    size = k.order() ** len(S)
    cap = _size_cap(ring_pres.p, max_size)
    if size > cap:
        raise SizeRefusalError(f"ring has {size} elements, over the bound {cap}")
    elems = []
    for combo in itertools.product(list(k.elements()), repeat=len(S)):
        elems.append(cring.poly(dict(zip(S, combo))))
    gens = [cring.poly({m: c}) for m in S for c in _field_basis(k)]
    return FiniteRing(
        ring_pres.p, elems,
        add_fn=lambda a, b: a + b,
        mul_fn=lambda a, b: gb.normal_form(a * b),
        basis_lifts=gens, reduce_vec=lambda a: _fp_digits(a, S, k),
        label=_label_of(ring_pres),
    )


def _finite_ring_zp2(ring_pres, max_size):
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
    cap = _size_cap(p, max_size)
    if size > cap:
        raise SizeRefusalError(f"ring has {size} elements, over the bound {cap}")

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

    elems = []
    hpos = [S.index(m) for m in stairU]
    for rdigits in itertools.product(range(p), repeat=len(S)):
        for hdigits in itertools.product(range(p), repeat=len(stairU)):
            terms = dict(zip(S, rdigits))
            for pos, hd in zip(hpos, hdigits):
                terms[S[pos]] = terms[S[pos]] + p * hd
            elems.append(zring.poly({m: base.of_int(c)
                                     for m, c in terms.items()}))

    def reduce_vec(a):
        return [a.terms.get(m, base.zero()).value % p for m in S]

    return FiniteRing(
        p, elems,
        add_fn=lambda a, b: canonicalize(a + b),
        mul_fn=lambda a, b: canonicalize(a * b),
        basis_lifts=[zring.poly({m: base.one()}) for m in S],
        reduce_vec=reduce_vec,
        label=_label_of(ring_pres),
    )


def _label_of(ring_pres):
    d = ring_pres.describe()
    rel = ", ".join(d["relations"])
    core = f"{d['base']}[{', '.join(d['vars'])}]" if d["vars"] else d["base"]
    return f"{core}/({rel})" if rel else core


# ---------------------------------------------------------------------------
# the universal module

def relation_rows(ring: FiniteRing, families=("add", "mul")):
    """Yield numpy relation rows of the universal module, in batches.

    One block of e coordinates per ring element, e = dim of A/pA.  Each
    relation is instantiated once per A/pA-basis multiplier beta_k: a
    term c*[x] of the relation places the basis decomposition of
    beta_k * c into the block of x.  The Leibniz family runs over the
    generator pairs g <= h and the additive family over the pairs
    (a, g), a in A; the module docstring shows that these span all.
    """
    gens = np.array(ring.basis_idx, dtype=np.int64)
    if "mul" in families:
        a, b = (gens[t] for t in np.triu_indices(len(gens)))
        yield _relation_block(ring, [(1, ring.mul[a, b], ring.one_idx),
                                     (-1, a, ring.frob[b]),
                                     (-1, b, ring.frob[a])])
    if "add" in families:
        step = max(1, 1024 // (ring.carrier_dim * len(gens)))
        for lo in range(0, ring.size, step):
            a = np.repeat(np.arange(lo, min(lo + step, ring.size)), len(gens))
            b = np.resize(gens, a.size)
            yield _relation_block(ring, [(1, ring.add[a, b], ring.one_idx),
                                         (-1, a, ring.one_idx),
                                         (-1, b, ring.one_idx),
                                         (1, ring.p_one_idx,
                                          ring.witt_carry_idx(a, b))])


def _relation_block(ring, terms):
    """e rows per relation, one relation per entry of the index arrays:
    a term (sign, x, c) adds sign * (beta_k * c) to the block of x."""
    e, n = ring.carrier_dim, ring.size
    m = np.size(terms[0][1])
    out = np.zeros((m, e, n, e), dtype=np.int64)
    pair, k = np.arange(m)[:, None], np.arange(e)[None, :]
    for sign, x, c in terms:
        x, c = np.broadcast_to(x, (m,)), np.broadcast_to(c, (m,))
        coeff = ring.reduce_mat[ring.mul[ring.basis_idx, c[:, None]]]
        np.add.at(out, (pair, k, x[:, None]), sign * coeff)
    return (out % ring.p).reshape(m * e, n * e)


@dataclass
class UniversalModule:
    """The brute-force differential module of a finite ring."""

    ring: FiniteRing
    dimension: int
    ncols: int
    rank: int
    span: ModPSpan = field(repr=False)


def brute_fw(ring: FiniteRing) -> UniversalModule:
    """The universal module, by one big F_p rank computation."""
    ncols = ring.carrier_dim * ring.size
    span = ModPSpan(ring.p, ncols)
    for batch in relation_rows(ring):
        span.add_rows(batch)
        if span.rank == ncols:
            break
    return UniversalModule(
        ring=ring,
        dimension=ncols - span.rank,
        ncols=ncols,
        rank=span.rank,
        span=span,
    )


# ---------------------------------------------------------------------------
# cross-checking the presentation pipeline

def presented_fp_dimension(fw: FWPresentation) -> int:
    """Total F_p-dimension of the presented module, for finite carriers.

    The carrier is expanded as an F_p-space on (field basis) x (standard
    monomials); the module relations are all basis multiples of the
    presented columns.
    """
    gb = fw.carrier
    k = fw.carrier_ring.coeff
    if gb.is_trivial():
        raise PresentationError("the presented ring is the zero ring")
    if krull_dim(gb) > 0:
        raise PresentationError("carrier is infinite; no total F_p-dimension")
    S = standard_monomials(gb)
    scalars = _field_basis(k)
    total = len(scalars) * len(S) * fw.ngens
    span = ModPSpan(fw.ring.p, total)
    rows = []
    for col in fw.columns:
        for m in S:
            for sc in scalars:
                u = fw.carrier_ring.poly({m: sc})
                row = []
                for entry in col:
                    row.extend(_fp_digits(gb.normal_form(u * entry), S, k))
                rows.append(row)
    if rows:
        span.add_rows(np.array(rows, dtype=np.int64))
    return total - span.rank


def cross_check(fw: FWPresentation, max_size=None) -> dict:
    """Compare the brute-force dimension with the presented dimension."""
    fr = FiniteRing.from_presentation(fw.ring, max_size=max_size)
    um = brute_fw(fr)
    pres = presented_fp_dimension(fw)
    return {
        "ring": fr.label,
        "size": fr.size,
        "brute_dim": um.dimension,
        "presented_dim": pres,
        "match": um.dimension == pres,
    }
