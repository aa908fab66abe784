"""Presentations of Frobenius-Witt differential modules.

For a ring A presented as base[X_1..X_n]/(f_1..f_m) with base one of
F_p, F_{p^e} or Z/p^2, the module FW(A) of Frobenius-Witt differentials
is p-torsion, hence a module over the carrier B_1 = (base mod p)[X]/(f_i
mod p).  Over Z/p^2[X] the module of the free algebra is free on
w(X_1)..w(X_n), w(p), and dividing by an ideal adds one relation column
w(f) per listed generator f.  The column of a polynomial f is computed
in closed form:

    w(f) = sum_j (df/dX_j)^p e_{w(X_j)}
         + [ sum_m X^(p m) w_base(c_m) - Q(f) mod p ] e_{w(p)}

where Q is the multivariate Witt carry of mpoly.witt_Q, one p-th power
over a p^3 lift.  One column routine, column_of, computes it through
one core, _w_core, on packed raw polynomials (mpoly's docstring), and
builds polynomials only at the end: w_poly is column_of on Z/p^2 alone,
present_fw and base_change_map reduce its columns modulo the carrier,
and check_axioms builds the core, with its digit splits, once per block.
Bases of characteristic p are handled by the same formula through a flat
cover over Z/p^2 (over F_q, the unramified one): the relation "p" turns
the w(p) coordinate into a unit column, so it is dropped, and what is
left is the twisted gradient of f.  column_of computes that directly,
with no Witt carry.  An FWPresentation keeps only its ring, its
generator labels and its columns; the carrier and its basis are read
from the RingPresentation, which caches them.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field, replace
from functools import cache, cached_property

from .errors import PresentationError
from .modarith import (
    GaloisField,
    PrimeField,
    PrimeSquareRing,
    _budget,
)
from .mpoly import (
    PolyRing,
    SparsePoly,
    _pack,
    _raw_mul,
    _unpack,
    _witt_P_raw,
    _witt_Q_raw,
    groebner,
)

BASE_RINGS = (PrimeField, GaloisField, PrimeSquareRing)


@dataclass(frozen=True)
class RingPresentation:
    """base[X_1..X_n]/(f_1..f_m) with the f_i over the base ring.

    The carrier basis and the module presentation depend only on the
    ring, so each instance computes them once, on first use, and keeps
    them (outside the dataclass fields: equality, hashing and
    dataclasses.replace see only base, variables and relations).
    """

    base: object
    variables: tuple
    relations: tuple

    def __post_init__(self):
        if not isinstance(self.base, BASE_RINGS):
            raise PresentationError(
                f"base ring must be Fp, Fq or Zp2, got {self.base!r}")
        ring = self.poly_ring
        for f in self.relations:
            if not isinstance(f, SparsePoly) or f.ring != ring:
                raise PresentationError(
                    "relations must be polynomials over the base in the "
                    "declared variables")

    @property
    def p(self):
        return self.base.p

    @property
    def is_charp(self):
        return self.base.is_field

    @property
    def poly_ring(self):
        return PolyRing(self.base, self.variables)

    @property
    def residue_field(self):
        return self.base.residue_field()

    @property
    def carrier_ring(self):
        """Polynomial ring of the carrier B_1 = (base mod p)[X]."""
        return PolyRing(self.residue_field, self.variables)

    def relations_mod_p(self):
        return [f.over(self.residue_field) for f in self.relations]

    def carrier_basis(self):
        return self._carrier_basis

    @cached_property
    def _carrier_basis(self):
        return groebner(self.relations_mod_p(), ring=self.carrier_ring)

    @cached_property
    def fw(self):
        """The presentation of FW(A), built by present_fw on first use."""
        return present_fw(self)

    def describe(self):
        return {
            "base": self.base.tag(),
            "vars": list(self.variables),
            "relations": [str(f) for f in self.relations],
        }


@dataclass(frozen=True)
class FWPresentation:
    """FW(A) as carrier-module: generators and one column per relation.
    The carrier and its basis are the ring's (RingPresentation caches them)."""

    ring: RingPresentation
    generators: tuple
    columns: tuple

    @property
    def ngens(self):
        return len(self.generators)

    def describe(self):
        return {
            "carrier": [str(g) for g in self.ring.carrier_basis().polys],
            "generators": list(self.generators),
            "columns": [[str(e) for e in col] for col in self.columns],
        }


def w_poly(f):
    """Coordinates of w(f) in the free module on w(X_1..X_n), w(p): the
    column of f (column_of), refused unless f has Z/p^2 coefficients."""
    if f.ring.coeff.is_field:
        raise PresentationError("w_poly needs Z/p^2 coefficients")
    return column_of(f)


def column_of(f):
    """The relation column of f, in the generator labels of present_fw:
    the coordinates of w(f) on w(X_1..X_n), and on w(p) over Z/p^2, as
    polynomials over the residue field (the module is p-torsion); over a
    field, the twisted gradient of f (module docstring), with no Witt
    carry.  Entries are returned un-normalized.

    They come from _w_core on f packed in radix B = p*d + 1, d the largest
    exponent of f: every exponent w forms, p*m, p*(m - e_j) and those of
    Q(f), is at most p*d < B, so no digit carries into the next, and each
    coordinate stays inside its slot of the core's packed vector.
    """
    R, n = f.ring.coeff, f.ring.nvars
    k = R.residue_field()
    B, (raw,) = _pack(R.p, f)
    coords = [{} for _ in range(n + (not R.is_field))]
    for key, v in _w_core(R, k, n, B)(raw).items():
        j, m = divmod(key, B**n)
        coords[j][m] = v
    kring = f.ring.with_coeff(k)
    return [_unpack(kring, v, B) for v in coords]


def _reduced_column(gb, f):
    """column_of(f), each entry in normal form modulo the carrier basis gb."""
    return tuple(gb.normal_form(e) for e in column_of(f))


def _w_core(R, k, n, B):
    """The one w core: w(raw), for packed raw polynomials over R in n
    variables whose exponents p*m stay below B, gives w as one vector packed
    raw over the residue field k, zero values kept: coordinate j at the keys
    j*K + m, K = B^n, w(p) at n*K + m; as every digit of m is below B, each
    stays inside its slot.  A term c X^m gives the twisted derivatives
    (e c mod p)^p X^(p(m - e_j)) at key p*key - shifts[j], for e = m_j prime
    to p, and w_base(c) X^(p m) on w(p), where Q mod p is then subtracted.
    Over a field (R = k) the w(p) coordinate is left out (module docstring),
    so it is computed only over Z/p^2, on ints.  w splits a key into its
    digits the first time it sees it; over F_p and Z/p^2 it computes the
    derivatives on ints inline, over F_q on tuples."""
    p, q = k.p, k.p * k.p
    ints, wp = k.degree == 1, not R.is_field
    shifts = [p * B**j - j * B**n for j in range(n)]
    at_wp = n * B**n

    @cache
    def split(key):  # (key of the derivative, e) for e = m_j prime to p
        out, rest = [], key
        for j in range(n):
            rest, e = divmod(rest, B)
            if e % p:
                out.append((p * key - shifts[j], e))
        return out

    def w(raw):
        out = {}
        for key, c in raw.items():
            for at, e in split(key):  # x^p = x on F_p
                out[at] = c * e % p if ints else \
                    k._pow(tuple([x * e % p for x in c]), p)
            if wp:  # w_base(c) = (c - c^p)/p mod p
                out[p * key + at_wp] = (c - pow(c, p, q)) // p % p
        if wp:
            for key, v in _witt_Q_raw(raw, p).items():
                key += at_wp
                out[key] = (out.get(key, 0) - v) % p
        return out
    return w


def present_fw(ring_pres: RingPresentation) -> FWPresentation:
    """Present FW(A) over the carrier of A.

    Generators are w of each variable, plus w(p) for a Z/p^2 base; there
    is exactly one column per listed relation, each entry reduced to
    normal form modulo the carrier basis.  Every call builds a new
    presentation; ring_pres.fw keeps the one the library reuses.
    """
    gb = ring_pres.carrier_basis()
    labels = tuple(f"w({v})" for v in ring_pres.variables)
    if not ring_pres.is_charp:
        labels += ("w(p)",)
    return FWPresentation(
        ring_pres, labels,
        tuple(_reduced_column(gb, f) for f in ring_pres.relations))


# ---------------------------------------------------------------------------
# derivation axioms

@dataclass
class AxiomReport:
    p: int
    nvars: int
    trials: int
    seed: int
    failures: list = field(default_factory=list)

    @property
    def passed(self):
        return not self.failures

    def describe(self):
        return {
            "p": self.p,
            "nvars": self.nvars,
            "trials": self.trials,
            "passed": self.trials - len(self.failures),
            "failures": self.failures[:10],
        }


# the support bounds of the polynomials check_axioms samples
SAMPLE_TERMS = 3
SAMPLE_DEGREE = 2


def check_axioms(p, nvars, trials=500, seed=0):
    """Randomized check of the two derivation axioms on Z/p^2[X].

    For sampled f, g the coordinates of w must satisfy, exactly, in the
    free module over F_p[X]:

        w(f+g) = w(f) + w(g) - P(f,g) e_{w(p)}
        w(fg)  = g^p w(f) + f^p w(g)

    with the scalars read mod p.  Any failure is recorded with the pair
    that produced it.

    It runs on raw values through _w_core, the core of column_of, built once
    for the block, with one radix B = 2pD + 1, D = SAMPLE_DEGREE.  f and g
    have exponents at most D, f + g at most D and fg at most 2D, so w(fg)
    and Q(fg) form exponents at most 2pD and P(f, g) at most pD; the
    twisted products add pD to the exponents of w(f) and w(g), at most pD.
    So every digit is below B and each coordinate of a packed w vector
    stays inside its slot: an identity is one accumulation of its other
    terms into the fresh vector w(f+g) or w(fg), P entering at the w(p)
    slot, tested to vanish mod p.  Sums and products are taken on integers
    and read mod p^2 or p, through the ring maps Z -> Z/p^2 -> F_p;
    polynomials are built only to report a failure.  About half the pairs
    have f = 0 or g = 0, where both identities hold by construction
    (w(0) = 0 and P(0, h) = 0): they pass without the core.  Keys grow as
    trials * nvars^2, spent first as key digits, with nvars read as 1 when
    it is 0 so that trials stay bounded: 500 trials allow 44 variables.
    """
    rng = random.Random(seed)
    draw = rng.randrange
    base = PrimeSquareRing(p)
    _budget("checking the axioms on {} trials in {} variables", trials,
            nvars, unit="key digits")(trials * max(nvars, 1) ** 2)
    q = p * p
    B = 2 * p * SAMPLE_DEGREE + 1
    radix = [B**i for i in range(nvars)]
    w_core = _w_core(base, base.residue_field(), nvars, B)
    at_wp = nvars * B**nvars  # the w(p) slot

    def sample():  # the draws of random_poly in tests/routes.py, packed
        terms = {}
        for _ in range(draw(SAMPLE_TERMS + 1)):  # = randint(0, SAMPLE_TERMS)
            m = 0
            for b in radix:
                m += draw(SAMPLE_DEGREE + 1) * b
            terms[m] = draw(q)
        return {m: c for m, c in terms.items() if c}

    def w(h):  # the coordinates of w(h mod q), a fresh dict; w(0) = 0
        h = {m: c % q for m, c in h.items() if c % q}
        return w_core(h) if h else {}

    report = AxiomReport(p=p, nvars=nvars, trials=trials, seed=seed)
    for t in range(trials):
        f, g = sample(), sample()
        if not (f and g):
            continue
        wf, wg = w_core(f), w_core(g)  # sampled reduced mod q
        # additivity: w(f+g) - w(f) - w(g) + P(f,g) e_{w(p)} vanishes
        s = dict(f)
        for m, c in g.items():
            s[m] = s.get(m, 0) + c
        acc = w(s)
        get = acc.get
        for wh in (wf, wg):
            for key, v in wh.items():
                acc[key] = get(key, 0) - v
        for key, v in _witt_P_raw(f, g, p, q).items():
            key += at_wp
            acc[key] = get(key, 0) + v
        ok_add = not any(c % p for c in acc.values())
        # Leibniz with twisted scalars, f^(p) = sum c X^(pm) as c^p = c in
        # F_p: w(fg) plus (q - f^(p)) w(g) plus (q - g^(p)) w(f) vanishes
        ftw = {p * m: q - c for m, c in f.items()}
        gtw = {p * m: q - c for m, c in g.items()}
        acc = _raw_mul(ftw, wg, _raw_mul(gtw, wf, w(_raw_mul(f, g))))
        ok_mul = not any(c % p for c in acc.values())
        if not (ok_add and ok_mul):
            ring = PolyRing(base, tuple(f"x{i+1}" for i in range(nvars)))
            report.failures.append({
                "trial": t,
                "f": str(_unpack(ring, f, B)),
                "g": str(_unpack(ring, g, B)),
                "additivity": ok_add,
                "leibniz": ok_mul,
            })
    return report


# ---------------------------------------------------------------------------
# base change and relative cokernel

@dataclass(frozen=True)
class PresentationMorphism:
    """A -> B given by images of A's variables as polynomials in B.

    Covers surjections and compositions with localizations (present the
    inverted element of B as an extra variable with relation t*u - 1).
    The morphism must preserve relations; this is enforced on the carrier
    (the mod-p level), and the Z/p^2-level identity is the caller's
    responsibility for mixed bases.  The coefficients move along
    SparsePoly.over, so its refusals are the morphism's: a change of p,
    F_p or F_q into Z/p^2, F_q into F_p, even with no relation to push.
    """

    source: RingPresentation
    target: RingPresentation
    images: tuple

    def __post_init__(self):
        self.source.poly_ring.one().over(self.target.base)  # relations or not
        if len(self.images) != len(self.source.variables):
            raise PresentationError("one image per source variable required")
        tring = self.target.poly_ring
        for g in self.images:
            if not isinstance(g, SparsePoly) or g.ring != tring:
                raise PresentationError("images must be polynomials in the target")
        gb = self.target.carrier_basis()
        k = self.target.residue_field
        for f in self.source.relations:
            if not gb.normal_form(self.push(f).over(k)).is_zero():
                raise PresentationError(
                    f"relation {f} is not preserved by the morphism")

    def push(self, f):
        """Image of a source polynomial under the morphism."""
        return f.over(self.target.base)._substitute(
            self.images, self.target.poly_ring.constant)


def base_change_map(morph: PresentationMorphism) -> tuple:
    """The columns of FW(A) tensor B -> FW(B) over B's carrier, one per
    source generator: w(X_j) goes to the column of its image in FW(B);
    w(p) goes to w(p) when the target is a Z/p^2 algebra and to zero when
    the target has characteristic p.
    """
    tgt = morph.target
    gb = tgt.carrier_basis()
    cols = [_reduced_column(gb, img) for img in morph.images]
    if not morph.source.is_charp:
        ring = tgt.carrier_ring
        cols.append((ring.zero(),) * len(tgt.variables)
                    + ((ring.one(),) if not tgt.is_charp else ()))
    return tuple(cols)


def relative_cokernel(morph: PresentationMorphism) -> FWPresentation:
    """Coker(FW(A) tensor B -> FW(B)): append the base-change columns."""
    fw = morph.target.fw
    return replace(fw, columns=fw.columns + base_change_map(morph))
