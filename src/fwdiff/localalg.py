"""Fibers of the differential module, local dimension, regularity.

The rank criterion: a local ring in the supported class is regular
exactly when the fiber dimension of its module of Frobenius-Witt
differentials equals d + r, with d the local Krull dimension and r the
imperfection exponent [k : k^p] = p^r of the residue field.  At closed
points r = 0; at a prime P the residue field is a function field and r
is its transcendence degree.

A locus, a PointSpec or a PrimeSpec, answers the criterion's questions
itself: its kind, fiber(M) (the fiber dimension with the matrix it was
read from), residue_p_rank() and local_dim() (d and whether it is
exact); regularity and fiber_dim ask it and never test its class.  Both
fibers are ranked by rank_fraction_free, over the residue field at a
point and over the fraction field of carrier/P at a prime, with no
numpy.

Local dimension at a point is computed through the tangent cone: the
relations are translated so the point is the origin, homogenized with a
leading extra variable, and a Groebner basis under the homogenized-local
order is taken; the x-parts of its leading monomials generate the lead
ideal of the tangent cone, whose staircase dimension is dim of the local
ring.  A prime cutting out a rational point reuses that route.  Any
other prime P uses dim(carrier) - dim(carrier/P), an upper bound that
is exact when the ambient is equidimensional along P; a Regular verdict
is only issued when equidimensionality is certified (polynomial ring,
hypersurface, or proper complete intersection), since the general value
is the max dimension of the components through the locus and computing
it would need a primary decomposition.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from .errors import (
    OffSchemeError,
    PresentationError,
    SizeRefusalError,
    UnsupportedClassError,
    ZeroDivisorError,
)
from .fwcore import FWPresentation, RingPresentation
from .modarith import Residue, _budget, embed
from .mpoly import (
    PolyRing,
    SparsePoly,
    groebner,
    homogenize,
    krull_dim,
    normal_form,
    staircase_dim,
)


def _common_field(kbase, kcoord):
    """The one of the two that the other embeds into, if it is a field."""
    if kbase.p != kcoord.p:
        raise PresentationError("coordinate field has the wrong characteristic")
    for small, big in ((kbase, kcoord), (kcoord, kbase)):
        if big.is_field and small.embeds_into(big):
            return big
    raise PresentationError(
        f"no embedding between {kbase.tag()} and {kcoord.tag()}; "
        "extension points of extension-field bases must reuse the base field")


@dataclass(frozen=True, slots=True)
class PointSpec:
    """A rational point of the carrier, coordinates in a finite field."""

    ring: RingPresentation
    coordinates: tuple
    kind = "point"

    def __post_init__(self):
        if len(self.coordinates) != len(self.ring.variables):
            raise PresentationError("one coordinate per variable required")
        fld = self.field
        for c in self.coordinates:
            if c.ring != fld:
                raise PresentationError("coordinates must share one field")
        for f in self.ring.relations_mod_p():
            if not f.evaluate(self.coordinates, fld).is_zero():
                raise OffSchemeError(
                    f"point {self.describe()} does not satisfy {f}")

    @classmethod
    def of(cls, ring_pres, values):
        coords = []
        fld = ring_pres.residue_field
        for v in values:
            if isinstance(v, Residue):
                fld = _common_field(fld, v.ring)
        for v in values:
            if isinstance(v, int):
                coords.append(fld.of_int(v))
            else:
                coords.append(embed(v, fld))
        return cls(ring_pres, tuple(coords))

    @classmethod
    def _checked(cls, ring_pres, coordinates):
        """A point whose coordinates are known to share one field and to
        satisfy every relation, built without checking them again."""
        point = object.__new__(cls)
        object.__setattr__(point, "ring", ring_pres)
        object.__setattr__(point, "coordinates", coordinates)
        return point

    @property
    def field(self):
        if self.coordinates:
            return self.coordinates[0].ring
        return self.ring.residue_field

    def describe(self):
        return "(" + ",".join(str(c) for c in self.coordinates) + ")"

    def fiber(self, M: FWPresentation):
        """(dim over k(x) of the fiber, the evaluated matrix it was read
        from)."""
        _same_ring(M.ring, self)
        mat = _point_matrix(M, self)
        return M.ngens - rank_fraction_free(mat, lambda e: e), mat

    def residue_p_rank(self):
        return 0  # a finite field is perfect

    def local_dim(self):
        """(dim of the carrier's local ring at x, True): the tangent cone."""
        k = self.field
        hring = PolyRing(k, ("_h",) + tuple(self.ring.variables), "homoglocal")
        gb = groebner([homogenize(f.over(k).shift(self.coordinates), hring)
                       for f in self.ring.relations], ring=hring)
        xparts = [m[1:] for m in gb.lead_monomials()]
        return staircase_dim(xparts, len(self.ring.variables)), True


def _linear_polys(ring, var_idxs):
    """Degree-1 polynomials in the given variables, first coeff 1."""
    k = ring.coeff
    n = ring.nvars
    elems = list(k.elements())
    monos = [tuple(1 if t == i else 0 for t in range(n)) for i in var_idxs]
    monos.append((0,) * n)
    for lead in range(len(monos) - 1):
        # first nonzero coefficient (in variable order) normalized to 1
        for tail in itertools.product(elems, repeat=len(monos) - lead - 1):
            terms = {monos[lead]: k.one()}
            for m, c in zip(monos[lead + 1:], tail):
                terms[m] = c
            yield ring.poly(terms)


# trial divisions a primality certificate may take, counted in advance
LINEAR_FACTOR_CANDIDATES = 10**4


def _has_linear_factor(f):
    # a divisor can only involve variables of f
    var_idxs = sorted({i for m in f.terms for i, e in enumerate(m) if e})
    # _linear_polys yields q^(k - lead) candidates for each leading variable
    q = f.ring.coeff.order()
    count = sum(q ** j for j in range(1, len(var_idxs) + 1))
    if count > LINEAR_FACTOR_CANDIDATES:
        raise SizeRefusalError(
            f"certifying the prime takes {count} trial divisions, over the "
            f"bound {LINEAR_FACTOR_CANDIDATES}")
    for lin in _linear_polys(f.ring, var_idxs):
        if normal_form(f, [lin]).is_zero():
            return True
    return False


def _certify_prime(gb):
    """Primality of the reduced basis of carrier ideal + P.

    In a reduced basis the degree-1 members have distinct single-variable
    leads and no other member mentions those variables, so the quotient
    by the linear members is a polynomial ring in the complementary
    variables and any remaining member literally lives there.  The ideal
    is therefore prime when nothing remains (an affine subspace), and
    when exactly one polynomial of degree <= 3 remains it is prime iff
    that polynomial is irreducible, decided by linear trial division (a
    reducible quadratic or cubic always has a degree-1 factor).

    Returns True (certified prime), False (a factor was found, provably
    not prime), or None (outside the decidable class).
    """
    nonlinear = [g for g in gb.polys if g.total_degree() > 1]
    if not nonlinear:
        return True
    if len(nonlinear) > 1:
        return None
    g = nonlinear[0]
    if g.total_degree() > 3:
        return None
    return False if _has_linear_factor(g) else True


@dataclass(frozen=True)
class PrimeSpec:
    """A prime of the carrier, by generators over the carrier ring.

    Primality is a statement about carrier ideal + P together, so the
    certification runs on their combined Groebner basis, kept in
    total_basis.  Outside the decidable class the constructor refuses
    unless assert_prime is set; an asserted non-prime is still caught at
    elimination time as a zero-divisor counterexample.
    """

    ring: RingPresentation
    generators: tuple
    assert_prime: bool = False
    total_basis: object = field(init=False, repr=False, compare=False)
    kind = "prime"

    def __post_init__(self):
        cring = self.ring.carrier_ring
        for g in self.generators:
            if not isinstance(g, SparsePoly) or g.ring != cring:
                raise PresentationError(
                    "prime generators must be polynomials over the carrier")
        gens = self.ring.relations_mod_p() + list(self.generators)
        gb = groebner(gens, ring=cring)
        object.__setattr__(self, "total_basis", gb)
        if gb.is_trivial():
            raise PresentationError("the locus is empty (unit ideal)")
        verdict = _certify_prime(gb)
        if verdict is False:
            raise PresentationError(
                "the ideal is not prime: its nonlinear part factors")
        if verdict is None and not self.assert_prime:
            raise UnsupportedClassError(
                "primality not decidable for this ideal class; construct "
                "with assert_prime=True to take responsibility")

    def describe(self):
        return "(" + "; ".join(str(g) for g in self.generators) + ")"

    def fiber(self, M: FWPresentation):
        """(rank of the module over k(P), the reduced matrix it was read
        from): the matrix is read modulo carrier + P and eliminated
        fraction-freely, and any zero divisor the elimination trips over
        is reported as a primality counterexample."""
        _same_ring(M.ring, self)
        nf = self.total_basis.normal_form
        rows = [[nf(col[i]) for col in M.columns] for i in range(M.ngens)]
        return M.ngens - rank_fraction_free(rows, nf), rows

    def residue_p_rank(self):
        """The transcendence degree of the function field at P, the Krull
        dimension of the quotient by P."""
        return krull_dim(self.total_basis)

    def local_dim(self):
        """(dim of the carrier's local ring at P, exactness flag): a
        rational point's tangent cone, else dim(carrier) - dim(carrier/P),
        an upper bound that is exact on a certified equidimensional carrier
        (the true value maximizes over the components through P only)."""
        x = _prime_as_rational_point(self)
        if x is not None:
            return x.local_dim()
        d = krull_dim(self.ring.carrier_basis()) - krull_dim(self.total_basis)
        return d, _ambient_equidimensional(self.ring)


# ---------------------------------------------------------------------------
# fibers

def _same_ring(ring_pres: RingPresentation, locus):
    if ring_pres != locus.ring:
        raise PresentationError("the locus belongs to a different presentation")


def _point_matrix(M: FWPresentation, x: PointSpec):
    """The relation matrix evaluated at x, one row per generator."""
    fld = x.field
    return [[col[i].evaluate(x.coordinates, fld) for col in M.columns]
            for i in range(M.ngens)]


def rank_fraction_free(rows, nf):
    """Rank over the fraction field of a quotient domain.

    Entries are polynomials read modulo a Groebner basis through nf and
    must already be normal forms under nf; the rows passed in are left as
    they are.  A residue is treated as zero exactly when it vanishes, and
    as invertible otherwise.  Elimination is by cross-multiplication, so
    no inverses are ever formed.  If two nonzero residues multiply to
    zero, the quotient was not a domain and ZeroDivisorError names them.
    Over a field, pass the identity as nf: cross-multiplication is exact
    there and no zero divisor exists.
    """
    rows = [list(r) for r in rows]
    if not rows:
        return 0
    ncols = len(rows[0])
    rank = 0

    def checked_mul(a, b):
        v = nf(a * b)
        if v.is_zero() and not a.is_zero() and not b.is_zero():
            raise ZeroDivisorError(a, b)
        return v

    for col in range(ncols):
        pivot = None
        for r in range(rank, len(rows)):
            if not rows[r][col].is_zero():
                pivot = r
                break
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        a = rows[rank][col]
        for r in range(rank + 1, len(rows)):
            b = rows[r][col]
            if b.is_zero():
                continue
            rows[r] = [
                nf(checked_mul(a, rows[r][j]) - checked_mul(b, rows[rank][j]))
                for j in range(ncols)
            ]
            assert rows[r][col].is_zero()  # internal invariant, not input
        rank += 1
        if rank == len(rows):
            break
    return rank


def fiber_dim(M: FWPresentation, locus) -> int:
    """dim over the residue field at the locus of the module fiber."""
    return locus.fiber(M)[0]


def residue_p_rank(ring_pres: RingPresentation, locus) -> int:
    """The exponent r with [k : k^p] = p^r for the residue field at the locus.

    Finite fields are perfect (r = 0); the function field at a prime has
    r equal to its transcendence degree, the Krull dimension of the
    quotient by the prime.
    """
    _same_ring(ring_pres, locus)
    return locus.residue_p_rank()


# ---------------------------------------------------------------------------
# local dimension

def _prime_as_rational_point(P: PrimeSpec):
    """The PointSpec a maximal PrimeSpec cuts out, if rational.

    The reduced basis of the maximal ideal of a rational point is
    exactly { x_i - a_i }: n monic members of degree 1 whose constant
    tails are forced because the leads cover every variable.
    """
    gb = P.total_basis
    ring = P.ring.carrier_ring
    n = ring.nvars
    if len(gb.polys) != n:
        return None
    k = ring.coeff
    coords = [None] * n
    for g in gb.polys:
        if g.total_degree() != 1:
            return None
        coords[g.lead_monomial().index(1)] = -g.terms.get((0,) * n, k.zero())
    return PointSpec(P.ring, tuple(coords))


def _ambient_equidimensional(ring_pres: RingPresentation) -> bool:
    """Certified sufficient conditions for an equidimensional carrier.

    A polynomial ring, a hypersurface, or a proper complete intersection
    (as many relations as the codimension: unmixedness) qualifies; other
    presentations may still be equidimensional but are not certified.
    """
    rels = [f for f in ring_pres.relations_mod_p() if not f.is_zero()]
    if len(rels) <= 1:
        return True
    n = len(ring_pres.variables)
    codim = n - krull_dim(ring_pres.carrier_basis())
    return len(rels) == codim


# ---------------------------------------------------------------------------
# regularity

@dataclass(frozen=True)
class RegularityVerdict:
    verdict: str  # Regular | NotRegular | Unknown
    fiber_dim: int
    d: object  # int, or None when undetermined
    r: int
    flatness_mode: object  # "charP" | "flatness-asserted" | None
    certificate: dict
    explanation: str = ""

    def describe(self):
        out = {
            "verdict": self.verdict,
            "fiber_dim": self.fiber_dim,
            "d": self.d,
            "r": self.r,
            "flatness_mode": self.flatness_mode,
            "certificate": self.certificate,
        }
        if self.explanation:
            out["explanation"] = self.explanation
        return out


def regularity(ring_pres: RingPresentation, locus, flat=False) -> RegularityVerdict:
    """The rank criterion: regular iff the fiber has dimension d + r.

    Characteristic-p inputs satisfy the criterion's hypotheses outright
    (finitely presented over a perfect field).  A Z/p^2 base needs the
    user-asserted flatness flag; without it the verdict is Unknown, since
    the mod-p^2 presentation cannot distinguish flat lifts.
    """
    fw = ring_pres.fw
    fiber, mat = locus.fiber(fw)
    key = "evaluated_matrix" if locus.kind == "point" else "reduced_matrix"
    cert = {"generators": list(fw.generators),
            key: [[str(e) for e in row] for row in mat],
            "rank": fw.ngens - fiber}
    r = locus.residue_p_rank()
    if not ring_pres.is_charp and not flat:
        return RegularityVerdict(
            "Unknown", fiber, None, r, None, cert,
            explanation="local dimension over a Z/p^2 base needs the "
                        "flatness assertion (--flat): it is not determined "
                        "by the mod-p^2 presentation")
    d, exact = locus.local_dim()
    if not ring_pres.is_charp:
        d += 1
    mode = "charP" if ring_pres.is_charp else "flatness-asserted"
    if fiber == d + r:
        if exact:
            return RegularityVerdict("Regular", fiber, d, r, mode, cert)
        return RegularityVerdict(
            "Unknown", fiber, d, r, mode, cert,
            explanation="fiber matches d + r, but d is only an upper bound "
                        "here: the carrier is not certified equidimensional "
                        "along the prime")
    if fiber > d + r:
        # d never underestimates, so exceeding it is conclusive
        return RegularityVerdict("NotRegular", fiber, d, r, mode, cert)
    # where d is exact a flat lift has fiber (the embedding dimension) at
    # least d + r, so only the flatness assertion can fail
    return RegularityVerdict(
        "Unknown", fiber, d, r, mode, cert,
        explanation="fiber dimension below d + r: " + (
            f"the flatness assertion (--flat) cannot hold at this {locus.kind}"
            if exact else "the locus is outside the guaranteed class "
            "(non-equidimensional ambient at a prime)"))


# ---------------------------------------------------------------------------
# point enumeration (sweeps and oracles)

def rational_points(ring_pres: RingPresentation, field=None):
    """All points of the carrier with coordinates in the given field.

    Candidates run through k^n in itertools.product order.  The relations
    are carried into k once (SparsePoly.over), and every monomial is read
    off a table of the powers x^e of each element x, up to the largest
    exponent any relation uses; a candidate is dropped at its first nonzero relation.
    A kept candidate has passed every check of PointSpec, so it is not
    checked again.  Each candidate takes at least one value product, so
    q^n candidates past PRODUCT_BOUND are refused with
    SizeRefusalError before the first.
    """
    k = field if field is not None else ring_pres.residue_field
    count = k.order() ** len(ring_pres.variables)
    _budget("enumerating {} candidates over {}", count, k,
            unit="candidates")(count)
    rels = [[(c, [(i, e) for i, e in enumerate(m) if e])
             for m, c in f.over(k).terms.items()]
            for f in ring_pres.relations]
    top = max((e for f in rels for _c, m in f for _i, e in m), default=0)
    elems = list(k.elements())
    powers = []
    for x in elems:
        row = [k.one()]
        for _ in range(top):
            row.append(row[-1] * x)
        powers.append(row)

    def vanishes(f, idx):
        total = k.zero()
        for c, mono in f:
            for i, e in mono:
                c = c * powers[idx[i]][e]
            total = total + c
        return total.is_zero()

    out = []
    for idx in itertools.product(range(len(elems)),
                                 repeat=len(ring_pres.variables)):
        if all(vanishes(f, idx) for f in rels):
            out.append(PointSpec._checked(ring_pres,
                                          tuple(elems[i] for i in idx)))
    return out
