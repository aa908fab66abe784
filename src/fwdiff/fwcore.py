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
over a p^3 lift.  w_poly works on the raw coefficient values of f and
builds one polynomial per coordinate, at the end.  Bases of
characteristic p are handled by the same formula through the flat cover
Z/p^2 or GR(p^2, e): the relation "p" turns the w(p) coordinate into a
unit column, so it is dropped, and what is left is the twisted gradient
of f.  column_of computes that directly, with no Witt carry.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field, replace
from functools import cached_property

from .errors import PresentationError
from .modarith import (
    GaloisField,
    GaloisRing,
    PrimeField,
    PrimeSquareRing,
    Residue,
    reduce_mod_p,
    residue_field_of,
    w_base,
)
from .mpoly import (
    GroebnerBasis,
    PolyRing,
    SparsePoly,
    _raw_poly,
    frobenius_twist,
    groebner,
    witt_P_pair,
    witt_Q,
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
        return residue_field_of(self.base)

    @property
    def carrier_ring(self):
        """Polynomial ring of the carrier B_1 = (base mod p)[X]."""
        return PolyRing(self.residue_field, self.variables)

    def relations_mod_p(self):
        if self.is_charp:
            return list(self.relations)
        k = self.residue_field
        return [f.map_coeffs(k, reduce_mod_p) for f in self.relations]

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
    """FW(A) as carrier-module: generators and one column per relation."""

    ring: RingPresentation
    carrier_ring: PolyRing
    carrier: GroebnerBasis
    generators: tuple
    columns: tuple
    has_wp: bool

    @property
    def ngens(self):
        return len(self.generators)

    def describe(self):
        return {
            "carrier": [str(g) for g in self.carrier.polys],
            "generators": list(self.generators),
            "columns": [[str(e) for e in col] for col in self.columns],
        }


def w_poly(f):
    """Coordinates of w(f) in the free module on w(X_1..X_n), w(p).

    f has coefficients in Z/p^2 or GR(p^2, e); the coordinates are
    polynomials over the residue field k (the module is p-torsion).  On
    raw values, the terms c X^m of f give the twisted derivatives
    (e c mod p)^p X^(p(m - e_j)) for e = m_j and the w(p) terms
    w_base(c) X^(p m); Q(f) is then read mod p.
    """
    R = f.ring.coeff
    if not isinstance(R, (PrimeSquareRing, GaloisRing)):
        raise PresentationError("w_poly needs Z/p^2 or GR(p^2,e) coefficients")
    p = R.p
    k = residue_field_of(R)
    if isinstance(R, PrimeSquareRing):
        def mod_p(a):
            return a % p
    else:
        def mod_p(a):
            return tuple([x % p for x in a])
    grads = _twisted_gradient(f, k)
    wp = {tuple([p * e for e in m]): w_base(c).value
          for m, c in f.terms.items()}
    zero = k._of_int(0)
    for m, q in witt_Q(f).terms.items():
        wp[m] = k._sub(wp.get(m, zero), mod_p(q.value))
    kring = f.ring.with_coeff(k)
    return [_raw_poly(kring, raw) for raw in grads + [wp]]


def _twisted_gradient(f, k):
    """The raw twisted derivatives of f, one dict per variable: the term
    (e c mod p)^p X^(p(m - e_j)) for each term c X^m of f with p not
    dividing e = m_j, valued in the residue field k."""
    p = k.p
    if isinstance(k, PrimeField):
        def twisted(a, e):  # x^p = x on F_p
            return a * e % p
    else:
        def twisted(a, e):
            return k._pow(tuple([x * e % p for x in a]), p)
    grads = [{} for _ in f.ring.variables]
    for m, c in f.terms.items():
        pm = [p * e for e in m]
        for j, e in enumerate(m):
            if e % p:
                dm = list(pm)
                dm[j] -= p
                grads[j][tuple(dm)] = twisted(c.value, e)
    return grads


def column_of(ring_pres: RingPresentation, f):
    """The relation column of f, in the generator labels of present_fw.

    For characteristic-p bases the column is the twisted gradient of f
    (module docstring), with no Witt carry; entries are returned
    un-normalized.
    """
    if ring_pres.is_charp:
        return [_raw_poly(f.ring, raw)
                for raw in _twisted_gradient(f, f.ring.coeff)]
    return w_poly(f)


def present_fw(ring_pres: RingPresentation) -> FWPresentation:
    """Present FW(A) over the carrier of A.

    Generators are w of each variable, plus w(p) for a Z/p^2 base; there
    is exactly one column per listed relation, each entry reduced to
    normal form modulo the carrier basis.  Every call builds a new
    presentation; ring_pres.fw keeps the one the library reuses.
    """
    gb = ring_pres.carrier_basis()
    labels = tuple(f"w({v})" for v in ring_pres.variables)
    has_wp = not ring_pres.is_charp
    if has_wp:
        labels = labels + ("w(p)",)
    cols = []
    for f in ring_pres.relations:
        vec = column_of(ring_pres, f)
        cols.append(tuple(gb.normal_form(e) for e in vec))
    return FWPresentation(
        ring=ring_pres,
        carrier_ring=ring_pres.carrier_ring,
        carrier=gb,
        generators=labels,
        columns=tuple(cols),
        has_wp=has_wp,
    )


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


def random_scalar(rng, R):
    if isinstance(R, (GaloisField, GaloisRing)):
        return Residue(R, tuple(rng.randrange(R.modulus) for _ in range(R.degree)))
    return R.of_int(rng.randrange(R.modulus))


# the support bounds of the polynomials check_axioms samples
SAMPLE_TERMS = 3
SAMPLE_DEGREE = 2


def random_poly(rng, ring, max_terms=SAMPLE_TERMS, max_degree=SAMPLE_DEGREE):
    """A random sparse polynomial with bounded support, for fuzzing."""
    nterms = rng.randint(0, max_terms)
    terms = {}
    for _ in range(nterms):
        m = tuple(rng.randint(0, max_degree) for _ in range(ring.nvars))
        terms[m] = random_scalar(rng, ring.coeff)
    return ring.poly(terms)


def check_axioms(p, nvars, trials=500, seed=0):
    """Randomized check of the two derivation axioms on Z/p^2[X].

    For sampled f, g the vectors of w_poly must satisfy, exactly, in the
    free module over F_p[X]:

        w(f+g) = w(f) + w(g) - P(f,g) e_{w(p)}
        w(fg)  = g^p w(f) + f^p w(g)

    with the scalars read mod p.  Any failure is recorded with the pair
    that produced it.
    """
    rng = random.Random(seed)
    base = PrimeSquareRing(p)
    names = tuple(f"x{i+1}" for i in range(nvars))
    ring = PolyRing(base, names)
    k = residue_field_of(base)
    report = AxiomReport(p=p, nvars=nvars, trials=trials, seed=seed)
    for t in range(trials):
        f = random_poly(rng, ring)
        g = random_poly(rng, ring)
        wf, wg = w_poly(f), w_poly(g)
        # additivity, with the Witt carry on the w(p) coordinate
        ws = w_poly(f + g)
        expect = [wf[i] + wg[i] for i in range(nvars + 1)]
        expect[nvars] = expect[nvars] - witt_P_pair(f, g).map_coeffs(k, reduce_mod_p)
        ok_add = ws == expect
        # Leibniz with twisted scalars
        wm = w_poly(f * g)
        ftw = frobenius_twist(f.map_coeffs(k, reduce_mod_p))
        gtw = frobenius_twist(g.map_coeffs(k, reduce_mod_p))
        ok_mul = all(
            wm[i] == gtw * wf[i] + ftw * wg[i] for i in range(nvars + 1)
        )
        if not (ok_add and ok_mul):
            report.failures.append({
                "trial": t,
                "f": str(f),
                "g": str(g),
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
    responsibility for mixed bases.
    """

    source: RingPresentation
    target: RingPresentation
    images: tuple

    def __post_init__(self):
        if self.source.p != self.target.p:
            raise PresentationError("morphism must preserve the prime p")
        if self.source.is_charp and not self.target.is_charp:
            raise PresentationError(
                "no ring map from a characteristic-p ring to a Z/p^2 algebra")
        if len(self.images) != len(self.source.variables):
            raise PresentationError("one image per source variable required")
        tring = self.target.poly_ring
        for g in self.images:
            if not isinstance(g, SparsePoly) or g.ring != tring:
                raise PresentationError("images must be polynomials in the target")
        gb = self.target.carrier_basis()
        k = self.target.residue_field
        for f in self.source.relations:
            h = self.push(f).map_coeffs(k, reduce_mod_p) \
                if not self.target.is_charp else self.push(f)
            if not gb.normal_form(h).is_zero():
                raise PresentationError(
                    f"relation {f} is not preserved by the morphism")

    def push(self, f):
        """Image of a source polynomial under the morphism."""
        tring = self.target.poly_ring
        total = tring.zero()
        for m, c in f.terms.items():
            part = tring.constant(self._push_constant(c))
            for img, e in zip(self.images, m):
                if e:
                    part = part * img**e
            total = total + part
        return total

    def _push_constant(self, c: Residue):
        tb = self.target.base
        if c.ring == tb:
            return c
        if isinstance(c.ring, PrimeSquareRing) and tb.is_field:
            return tb.of_int(c.value)
        if isinstance(c.ring, PrimeField):
            return tb.of_int(c.value)
        raise PresentationError(
            f"no coefficient map {c.ring.tag()} -> {tb.tag()}")


@dataclass(frozen=True)
class BaseChangeMap:
    """Matrix of FW(A) tensor B -> FW(B) over B's carrier."""

    morphism: PresentationMorphism
    source_fw: FWPresentation
    target_fw: FWPresentation
    columns: tuple  # one per source generator, entries over target carrier


def base_change_map(morph: PresentationMorphism) -> BaseChangeMap:
    """Send each source generator to the column of its image in FW(B).

    w(X_j) goes to w(image_j); w(p) goes to w(p) when the target is a
    Z/p^2 algebra and to zero when the target has characteristic p.
    """
    src_fw = morph.source.fw
    tgt_fw = morph.target.fw
    gb = tgt_fw.carrier
    cols = []
    for img in morph.images:
        vec = column_of(morph.target, img)
        cols.append(tuple(gb.normal_form(e) for e in vec))
    if src_fw.has_wp:
        zero = tgt_fw.carrier_ring.zero()
        unit = [zero] * tgt_fw.ngens
        if tgt_fw.has_wp:
            unit[-1] = tgt_fw.carrier_ring.one()
        cols.append(tuple(unit))
    return BaseChangeMap(morph, src_fw, tgt_fw, tuple(cols))


def relative_cokernel(morph: PresentationMorphism) -> FWPresentation:
    """Coker(FW(A) tensor B -> FW(B)): append the base-change columns."""
    bc = base_change_map(morph)
    return replace(bc.target_fw, columns=bc.target_fw.columns + bc.columns)
