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
whole computation into one F_p rank: with e = dim_Fp(A/pA), a free
module on s symbols has e * s coordinates, each relation contributes e
rows (one per basis multiplier, products decomposed in the basis), and
the dimension is e * s minus the rank.  The result is the ground truth
against which the presentation pipeline is cross-checked: the presented
module, its column entries read as elements of the same ring, is ranked
through the same relation blocks and the same cokernel routine.

Arithmetic in coordinates.  Element i is its digit vector D[i], entries in
[0, p), over an additive digit basis b_1, .., b_d: in characteristic p
the F_p-basis t^j x^m, m a standard monomial; over Z/p^2 the x^m for
m in S, then the p x^m for m in stairU (canonical forms, below).  So
n = p^d, and an element's index is its base-p key, in counting order.
The generators g_u are the first g digit-basis elements,
and their carries c_u = digits(p g_u) have no generator digit.  In
characteristic p the carry is 0.  Over Z/p^2, p x^m = p NF_U(x^m) in
A, as p u~ lies in I for every u in U, so c_u lies on the p x^m digits,
and for m in stairU it is exactly the digit of p x^m.  An integer
vector x stands for sum x_i b_i, and the digit normalisation N(x) takes
each generator digit x_u = q p + r (0 <= r < p) to r, adds q c_u, and
takes every other digit mod p.  So a + g_u = N(D[a] + e_u) and
c a = N(c D[a]) for every integer c, -a among them, and the closures
run only for the g carries (never in characteristic p, where
p g_u = 0), the g^2 products g_u g_w and canon(1).  Every result must
be a canonical form, or the ring is refused.

The structure-constant check, on d^3 triple products instead of the
n^2 table entries.  Let s_ij be the digits of b_i b_j: for generators
those of canon(g_u g_w), and for a p-digit b_v = p g_u, u the
generator whose carry c_u is exactly e_v, p times those of g_u:
s_vj = N(p s_uj) and s_jv = N(p s_ju) (a ring with a p-digit that is
no such multiple is refused).  Let L be the lattice spanned by
p e_u - c_u for the generators u and p e_v for the p-digits v.  Its
basis matrix is triangular with p on the diagonal, as no c_u has a
generator digit, so Z^d/L has p^d classes, N(x) - x lies in L, and N
maps each class to its one digit vector: x lies in L iff N(x) = 0.
The check asks

  (s) s_ij = s_ji;
  (l) N(sum_i l_i s_ij) = 0 for each of the d lattice vectors l;
  (a) N((b_i b_j) b_k) = N((b_k b_i) b_j), where (b_i b_j) b_k is
      sum_l s_ijl s_lk;
  (1) N(sum_i D_i s_ij) = e_j, with D the digits of canon(1);

for all i, j, k.  Extend the product bilinearly to Z^d by
x y = sum x_i y_j s_ij.  By (l) and bilinearity L y lies in L for
every y, and by (s) so does y L, so the product passes to Z^d/L,
where it is commutative by (s).  Under (s), (a) makes (b_i b_j) b_k
invariant under all permutations of i, j, k (a 3-cycle and a
transposition generate them), so (b_i b_j) b_k = (b_j b_k) b_i =
b_i (b_j b_k), and by trilinearity the product is associative.  It
distributes over + by bilinearity, and (1) makes canon(1) its
identity.  So the digit vectors, with N(D[a] + D[b]) and the product
through s, form a commutative ring of p^d elements with identity
canon(1): the ring that the closures describe.  The g_u generate it
additively, as e_v = p e_u - (p e_u - e_v) for each p-digit.  This is
the structure-constant representation of a finite-dimensional algebra
(W. A. de Graaf, Lie Algebras: Theory and Algorithms, 2000); the check
takes O(d^5) multiply-adds, with d = 16 at 2^16 elements over F_2.

Generator rows.  g_u x = N(sum_j x_j s_uj) is one contraction with the
checked structure constants, so a matrix product per generator gives
mulg[u, x] = g_u x, and a digit sum addg[u, a] = a + g_u.  The relations
below multiply by generators only, but for the powers a^k (k < p) in the
Witt carries at p >= 3, one product N(sum_ij x_i y_j s_ij) each.

Spanning-tree elimination.  The g_u generate A additively, so
breadth-first search from 0 along a -> a + g_u reaches every element z
by a tree edge z = y + g_w, y reached earlier.  The tree edge carries
the relation R(y, g_w): [z] = [y] + [g_w] - P(y, g_w)[p], with [p] the
symbol of p*1 and [0] = 0.  Keep [g_1], .., [g_g] as free symbols, and
[p] too unless p*1 is 0 (always in characteristic p); p*1 is never a
generator, as its generator digits, those of p canon(1), are 0.  Then
induction along the tree writes every [a] as a vector T[a] of
coefficients in A on these s = g or g + 1 symbols (Schreier's lemma;
Holt, Eick & O'Brien, Handbook of Computational Group Theory, 2005).
The map [a] -> T[a] is onto, and [z] - T[z] = R(y, g_w) + ([y] - T[y])
(with [0] = -R(0, g_1)) puts its kernel inside the relations.  So the
universal module is the free module on the s symbols modulo the images
of the relations.  The tree relations map to 0 by the choice of T (and
R(0, g) = -[0] too), except the one of p*1 when [p] is kept free: the
[p] row.  What remains is that row, the additive relations off the tree
and the Leibniz relations D(g_v, g_w): e * s columns instead of e * n.
Where p*1 != 0, T is filled along the tree a BFS level at a time: as
T[g_w] and T[p*1] are unit vectors, T[z] = T[y] + e_w - P(y, g_w) e_p
changes two columns of T[y] (_tree_coordinates).

When p*1 = 0 (always in characteristic p), [p] is not free and T[p*1] =
T[0] = 0, so T[z] = T[y] + T[g_w]; with no p-digits and no carries the
digits of y + g_w are those of y plus e_w, so T[a] = sum_u a_u e_u, a_u
the digits of a, is additive.  So no tree is walked and no carry is
computed there: T[a, u] is read off the digits as the index of a_u * 1
(_digit_coordinates).  R(a, g) then maps to T[a+g] - T[a] - T[g] +
P(a, g) T[p*1] = 0: the Leibniz rows alone give the rank, and over F_2
that rank is XOR on rows held as ints (linalg.ModPSpan).

Finite rings over a Z/p^2 base are enumerated exactly.  Let I be the
relation ideal, I_1 its image mod p and U = (I : p) mod p, the u with
p u~ in I; an element has a unique canonical form r + p*h with r
supported on the standard monomials of I_1 and h reduced modulo U.
groebner over Z/p^2 returns G in I whose images G_1 are a Groebner basis
of I_1, and the torsion T: the h of every input or S-pair that reduced
to p*h.  Then U = I_1 + (T).  The inputs lie in (G) + p(T), so p u~ in I
reads p u~ = sum a_i g_i + p(an element of (T)), and mod p the a_i give
a syzygy of G_1.  Write sigma(s) = (sum s~_i g_i)/p mod p for a syzygy s
of G_1; changing the lifts s~_i changes it by an element of I_1, so u
lies in I_1 + (T) + sigma(syzygies).  By Schreyer's theorem the syzygies
of G_1 are generated by one per pair (i, j) of G whose leading term is
that of x^(l/lm_i) e_i - x^(l/lm_j) e_j, l the lcm of the leads; any
syzygies with those leading terms will do.  For a pair groebner reduced,
take the S-pair minus its division: sigma of it is h if the S-pair
reduced to p*h, and 0 if the remainder joined G (count it in the sum
too).  For a pair skipped as coprime, take the Koszul syzygy
g_j e_i - g_i e_j: sigma of it is (g_j g_i - g_i g_j)/p = 0.  So U =
I_1 + (T), and canon reduces a polynomial modulo G, splits each
coefficient c = r + p h with r < p, and reduces the h part modulo U.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import PresentationError, SizeRefusalError
from .fwcore import FWPresentation, RingPresentation
from .linalg import ModPSpan
from .mpoly import groebner, normal_form, standard_monomials

# |A| past which a ring is refused before any element is enumerated: the
# oracle's one size limit, which --max-size can only lower.  Measured, a
# cross-check's tracemalloc peak is at most 64 n (g + d + 4) bytes + 1 MiB
# (n = |A|, g generators, d digits; 56 MiB of 145 at F_2[x]/(x^16))
MAX_RING_SIZE = 2 ** 16


def _refuse_oversized(size, cap):
    """Refuse a ring of more than cap elements, before anything of its
    size is allocated."""
    if size > cap:
        raise SizeRefusalError(f"ring has {size} elements, over the bound {cap}")


class FiniteRing:
    """A finite ring of p-power order, checked on its structure constants.

    Element i is the digit vector digits[i] over digit_basis whose base-p
    key, most significant digit first, is i; the first carrier_dim basis
    entries are the additive generators (the basis lifts).
    canon maps a polynomial to its canonical form and digits_of reads the
    digits of a canonical form, raising PresentationError on anything
    else.  canon runs only for the carries, the generator products and
    canon(1); the structure constants they give pass the check that
    makes the digit vectors a ring with identity canon(1) (module
    docstring).  The ring keeps its generator rows, mulg[u, x] = g_u x
    and addg[u, x] = x + g_u, and no table of all products or sums.
    """

    def __init__(self, p, digit_basis, ngens, canon, digits_of, label):
        self.p = p
        self.label = label
        self.digit_basis = list(digit_basis)
        self.carrier_dim = ngens
        self.canon = canon
        self.digits_of = digits_of
        d = len(self.digit_basis)
        self.size = p ** d
        self._weights = p ** np.arange(d - 1, -1, -1, dtype=np.int64)
        self.digits = np.arange(self.size)[:, None] // self._weights % p
        self.zero_idx = 0
        self.basis_idx = self._weights[:ngens].tolist()
        if ([self.index_of(b) for b in self.digit_basis[:ngens]]
                != self.basis_idx):
            raise PresentationError("basis lifts are not unit digit vectors")
        self.one_idx = self.index_of(canon(self.digit_basis[0].ring.one()))
        self._carries, prods = self._closures()
        s = self._consts = self._check_ring(prods)
        self.mulg = np.stack([self._index(self.digits @ s[u])
                              for u in range(ngens)])
        self.addg = np.stack([self._index(self.digits + self.digits[b])
                              for b in self.basis_idx])
        self.p_one_idx = int(self.int_mult_idx(p, self.one_idx))
        self.reduce_mat = self.digits[:, :ngens]

    def index_of(self, poly):
        """Index of a canonical form."""
        return int(np.dot(self.digits_of(poly), self._weights))

    def _normal(self, x):
        """N(x): the digits of sum_i x_i b_i, for integer vectors x along
        the last axis (module docstring)."""
        q = x[..., :self.carrier_dim] // self.p
        return (x + q @ self._carries) % self.p

    def _index(self, x):
        """Index of the element sum_i x_i b_i."""
        return self._normal(x) @ self._weights

    def _closures(self):
        """The carries c_u = digits(p g_u) as rows, and the digits of the
        generator products g_u g_w: the closure calls."""
        p, d = self.p, len(self.digit_basis)
        gens = self.digit_basis[:self.carrier_dim]
        carries = np.array([[0] * d if (g * p).is_zero()
                            else self.digits_of(self.canon(g * p))
                            for g in gens], dtype=np.int64).reshape(-1, d)
        if carries[:, :len(gens)].any():
            raise PresentationError(
                f"p times a generator of {self.label} has a generator digit")
        prods = np.array([[self.digits_of(self.canon(g * h)) for h in gens]
                          for g in gens], dtype=np.int64)
        return carries, prods.reshape(len(gens), len(gens), d)

    def _check_ring(self, prods):
        """The structure constants s that the generator products prods give,
        once they pass (s), (l), (a) and (1) of the module docstring."""
        p, g, d = self.p, self.carrier_dim, len(self.digit_basis)
        eye = np.eye(d, dtype=np.int64)
        # match[u, v - g]: the carry of g_u is the p-digit v
        match = (self._carries[:, None, g:] == eye[g:, g:]).all(axis=2)
        if not match.any(axis=0).all():
            raise PresentationError(
                f"a p-digit of {self.label} is not p times a generator")
        lift = np.zeros((d, g), dtype=np.int64)  # b_i over the generators
        lift[:g] = eye[:g, :g]
        lift[np.arange(g, d), match.argmax(axis=0)] = p
        s = self._normal(np.einsum("ia,jb,abk->ijk", lift, lift, prods))
        lattice = p * eye
        lattice[:g] -= self._carries
        ideal = self._normal(np.einsum("ai,ijk->ajk", lattice, s))
        triple = self._normal(np.einsum("ijl,lkm->ijkm", s, s))
        unit = self.digits[self.one_idx]
        one = self._normal(np.einsum("i,ijk->jk", unit, s))
        if not ((s == s.transpose(1, 0, 2)).all() and not ideal.any()
                and (triple == triple.transpose(1, 2, 0, 3)).all()
                and (one == eye).all()):
            raise PresentationError(
                f"the structure constants of {self.label} violate the ring "
                "axioms")
        return s

    def plus(self, i, j):
        """Index of a_i + a_j, by a digit sum."""
        return self._index(self.digits[i] + self.digits[j])

    def product(self, i, j):
        """Index of a_i a_j, through the structure constants."""
        return self._index(np.einsum("...i,...j,ijk->...k", self.digits[i],
                                     self.digits[j], self._consts))

    def int_mult_idx(self, c, i):
        """Index of c*a for an integer c."""
        return self._index(c * self.digits[i])

    def witt_carry_gen(self, i, u):
        """Index of P(a_i, g_u) = sum binom(p,k)/p a_i^k g_u^(p-k), by
        Horner's rule in g_u: a product by g_u is a step along its row,
        and binom(p,k)/p is taken mod p^2, which annihilates A."""
        p, power, total = self.p, i, i  # binom(p, 1)/p = 1
        for k in range(2, p):
            power = self.product(power, i)
            total = self._index(self.digits[self.mulg[u, total]]
                                + math.comb(p, k) // p % (p * p)
                                * self.digits[power])
        return self.mulg[u, total]

    @classmethod
    def from_presentation(cls, ring_pres: RingPresentation, max_size=None):
        """The finite ring of ring_pres, over any base.  One Groebner basis
        of the relations over the base gives the standard monomials S; in
        characteristic p it is the carrier basis the presentation keeps,
        and canon is its normal form.  Over Z/p^2 canon splits each
        coefficient c = r + p h and reduces the h part modulo U =
        I_1 + (torsion), whose standard monomials stairU carry the
        p-digits (module docstring)."""
        p = ring_pres.p
        gb = (ring_pres.carrier_basis() if ring_pres.is_charp
              else groebner(ring_pres.relations, ring=ring_pres.poly_ring))
        if gb.is_trivial():
            raise PresentationError("the presented ring is the zero ring")
        if not gb.is_finite():
            raise SizeRefusalError("the presented ring is infinite")
        cap = (MAX_RING_SIZE if max_size is None
               else min(max_size, MAX_RING_SIZE))
        # the most digits d with p^d <= cap (16 at p = 2 by default); a
        # longer staircase is refused before it is listed
        top = 0
        while p ** (top + 1) <= cap:
            top += 1
        S = standard_monomials(gb, limit=top)
        if len(S) > top:
            raise SizeRefusalError(
                f"ring has more than {p}^{top} elements, over the bound {cap}")
        canon, stairU = gb.normal_form, []
        if not ring_pres.is_charp:
            zring, cring = gb.ring, ring_pres.carrier_ring
            gbU = groebner([f.over(cring.coeff) for f in gb.polys]
                           + list(gb.torsion), ring=cring)
            stairU = standard_monomials(gbU)

            def canon(g):
                low, high = {}, {}
                for m, c in gb.normal_form(g).terms.items():
                    high[m], low[m] = divmod(c.value, p)
                for m, c in normal_form(cring.poly(high), gbU).terms.items():
                    low[m] = low.get(m, 0) + p * c.value
                return zring.poly(low)

        label = _label_of(ring_pres)
        basis, digits_of = _digit_model(gb.ring, S, stairU, label)
        _refuse_oversized(p ** len(basis), cap)
        return cls(p, basis, len(basis) - len(stairU), canon, digits_of,
                   label)

    def __repr__(self):
        return f"FiniteRing({self.label}, size={self.size})"


def _digit_model(ring, S, stairU, label):
    """The digit basis c x^m, m in S and c in the F_p-basis 1, t, ..,
    t^(e-1) of the residue field, then p x^m, m in stairU, and its reader
    digits_of: the low digits of each coefficient value and, over Z/p^2,
    its p-digit, refusing anything that is not a canonical form."""
    R = ring.coeff
    e = R.degree
    scalars = [R.one()]
    for _ in range(1, e):
        scalars.append(scalars[-1] * R.generator())
    basis = ([ring.poly({m: c}) for m in S for c in scalars]
             + [ring.poly({m: R.p}) for m in stairU])
    low = {m: j * e for j, m in enumerate(S)}
    high = {m: len(S) * e + j for j, m in enumerate(stairU)}

    def digits_of(f):
        out = [0] * len(basis)
        for m, c in f.terms.items():
            h, digits = 0, c.value
            if e == 1:
                h, r = divmod(digits, R.p)
                digits = (r,)
            if m not in low or (h and m not in high):
                raise PresentationError(f"{f} is not a canonical form of {label}")
            out[low[m]:low[m] + e] = digits
            if h:
                out[high[m]] = h
        return out
    return basis, digits_of


def _label_of(ring_pres):
    d = ring_pres.describe()
    rel = ", ".join(d["relations"])
    core = f"{d['base']}[{', '.join(d['vars'])}]" if d["vars"] else d["base"]
    return f"{core}/({rel})" if rel else core


# ---------------------------------------------------------------------------
# the universal module

def _free_symbols(ring: FiniteRing):
    """Elements whose symbols stay free: the generators, and p*1 unless it
    is 0 (it is never a generator; module docstring)."""
    return ring.basis_idx + [ring.p_one_idx] * (ring.p_one_idx
                                                != ring.zero_idx)


def _tree_coordinates(ring: FiniteRing):
    """(T, pairs): every symbol [a] in tree coordinates, and the
    (element, generator) pairs whose additive relation is not a tree row.

    T[a] lists the coefficients of [a], as element indices, on the free
    symbols (module docstring), filled a BFS level at a time; the Witt
    carries of all tree edges come in one call."""
    g, addg = ring.carrier_dim, ring.addg.tolist()
    free = _free_symbols(ring)
    edges, ends, level, seen = [], [0], [ring.zero_idx], {ring.zero_idx}
    while level:
        for y in level:
            for u, row in enumerate(addg):
                if row[y] not in seen:
                    seen.add(row[y])
                    edges.append((row[y], y, u))
        level = [z for z, _, _ in edges[ends[-1]:]]
        ends.append(len(edges))
    z, y, w = np.array(edges, dtype=np.int64).reshape(-1, 3).T
    T = np.full((ring.size, len(free)), ring.zero_idx, dtype=np.int64)
    T[free, np.arange(len(free))] = ring.one_idx
    tree = z != ring.p_one_idx  # the tree row of p*1 is the [p] row
    carry = ring.int_mult_idx(-1, ring.witt_carry_gen(y, w))
    for lo, hi in zip(ends, ends[1:]):  # T[g_u] = T[0] + e_u, as P(0, g) = 0
        at = lo + np.flatnonzero(tree[lo:hi])
        zz, yy, ww = z[at], y[at], w[at]
        T[zz] = T[yy]
        T[zz, ww] = ring.plus(T[yy, ww], ring.one_idx)
        T[zz, g:] = ring.plus(T[yy, g:], carry[at, None])  # [p], if free
    off_tree = np.ones((ring.size, g), dtype=bool)
    off_tree[y[tree], w[tree]] = False
    return T, np.nonzero(off_tree)


def _digit_coordinates(ring: FiniteRing):
    """T where p*1 = 0, read off the digits with no tree walked: T[a, u]
    is the index of a_u * 1, a_u the u-th digit of a (module docstring)."""
    return ring.int_mult_idx(np.arange(ring.p)[:, None],
                             ring.one_idx)[ring.digits]


def _frobenius_of_generators(ring: FiniteRing):
    """The indices of g_u^p, p steps from 1 along the row of each g_u."""
    rows, frob = np.arange(ring.carrier_dim), ring.one_idx
    for _ in range(ring.p):
        frob = ring.mulg[rows, frob]
    return frob


def relation_rows(ring: FiniteRing):
    """Yield numpy relation rows of the universal module, in batches.

    Columns are tree coordinates: one block of e coordinates, e = dim of
    A/pA, per free symbol.  A relation sum c [x] is its coefficient row,
    sum c T[x], and is instantiated once per A/pA-basis multiplier beta_k
    (_relation_block).  The Leibniz family runs over the generator pairs
    g <= h, then, unless p*1 = 0, the additive family over the pairs (a, g)
    off the tree, the [p] row among them; the module docstring shows that
    these span all, and the Leibniz family alone when p*1 = 0.
    """
    p_zero = ring.p_one_idx == ring.zero_idx
    if p_zero:
        T = _digit_coordinates(ring)
    else:
        T, (a_all, u_all) = _tree_coordinates(ring)
    g, cols = ring.carrier_dim, np.arange(T.shape[1])
    gens = np.array(ring.basis_idx, dtype=np.int64)
    frob = _frobenius_of_generators(ring)
    ua, ub = np.triu_indices(g)
    # c [x], x free, is c in the column of [x] and 0 (zero_idx) elsewhere
    yield _relation_block(ring, [(1, T[ring.mulg[ua, gens[ub]]]),
                                 (-1, (ua[:, None] == cols) * frob[ub, None]),
                                 (-1, (ub[:, None] == cols) * frob[ua, None])])
    if p_zero:
        return
    step = max(1, 1024 // g)
    for lo in range(0, a_all.size, step):
        a, u = a_all[lo:lo + step], u_all[lo:lo + step]
        carry = ring.witt_carry_gen(a, u)
        yield _relation_block(ring, [(1, T[ring.addg[u, a]]), (-1, T[a]),
                                     (-1, T[gens[u]]),
                                     (1, (cols == g) * carry[:, None])])


def _relation_block(ring, terms):
    """e rows per relation, one per row of the coefficient arrays: a term
    (sign, C) adds sign * (beta_k C) to every block, beta_k the generators."""
    out = sum(sign * ring.reduce_mat[ring.mulg[:, c]] for sign, c in terms)
    e, m, s, _ = out.shape
    return (out % ring.p).swapaxes(0, 1).reshape(m * e, s * e)


@dataclass
class UniversalModule:
    """The brute-force differential module of a finite ring.

    ncols and rank count tree coordinates, e per free symbol, not the
    e * n coordinates of the definition; the dimension is the same."""

    ring: FiniteRing
    dimension: int
    ncols: int
    rank: int
    span: ModPSpan = field(repr=False)


def _cokernel(ring, symbols, blocks):
    """The span of the row blocks over e * symbols columns, to full rank."""
    span = ModPSpan(ring.p, ring.carrier_dim * symbols)
    for batch in blocks:
        if span.add_rows(batch) == span.ncols:
            break
    return span


def brute_fw(ring: FiniteRing) -> UniversalModule:
    """The universal module, by one F_p rank in tree coordinates."""
    span = _cokernel(ring, len(_free_symbols(ring)), relation_rows(ring))
    return UniversalModule(ring, span.ncols - span.rank, span.ncols,
                           span.rank, span)


# ---------------------------------------------------------------------------
# cross-checking the presentation pipeline

def presented_fp_dimension(fw: FWPresentation, ring: FiniteRing) -> int:
    """Total F_p-dimension of the presented module over ring, the
    FiniteRing of fw.ring.  Column entries are normal forms modulo the
    carrier basis, which the basis lifts of ring reduce to (mod p over
    Z/p^2), so ring indexes them; the rows are their basis multiples."""
    C = np.array([[ring.index_of(u) for u in col] for col in fw.columns],
                 dtype=np.int64).reshape(len(fw.columns), fw.ngens)
    block = _relation_block(ring, [(1, C)])
    span = _cokernel(ring, fw.ngens, [block])
    return span.ncols - span.rank


def cross_check(fw: FWPresentation, max_size=None) -> dict:
    """Compare the brute-force dimension with the presented dimension."""
    fr = FiniteRing.from_presentation(fw.ring, max_size=max_size)
    um = brute_fw(fr)
    pres = presented_fp_dimension(fw, fr)
    return {
        "ring": fr.label,
        "size": fr.size,
        "brute_dim": um.dimension,
        "presented_dim": pres,
        "match": um.dimension == pres,
    }
