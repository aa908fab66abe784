"""Ground truth for the fibers that decide the verdicts, on derandomized
rings over F_2, F_3, F_4, F_9, Z/4 and Z/9.

At rational points the fiber is checked against enumeration: the oracle
on A/m^2 (routes.brute_fiber_at_point).  The verdict, fiber and local
dimension must not move under changes that keep the local ring: an affine
change of coordinates, a graph variable w with relation w - g, and an
F_p-point read over F_{p^2}.  At primes of _certify_prime's class two
facts that need no oracle are checked at every rational point x of V(P):
the fiber is upper semicontinuous, fiber(x) >= fiber(P), and a
localization of a regular local ring is regular, so Regular at x never
comes with NotRegular at P.  Every case is kept; a disagreement fails.
"""

import random
import warnings
from dataclasses import replace

from fwdiff.errors import PresentationError, UnsupportedClassError
from fwdiff.fwcore import PresentationMorphism, RingPresentation
from fwdiff.localalg import PointSpec, PrimeSpec, rational_points, regularity
from fwdiff.modarith import (
    GaloisField,
    PrimeField,
    PrimeSquareRing,
    Residue,
    embed,
)
from fwdiff.mpoly import PolyRing, SparsePoly
from routes import brute_fiber_at_point, field_rank, random_scalar

VARS = ("x", "y", "z")
POINT_BASES = [PrimeField(2), PrimeField(3), GaloisField(2, 2),
               PrimeSquareRing(2), PrimeSquareRing(3)]
PRIME_BASES = [PrimeField(2), PrimeField(3), GaloisField(2, 2),
               GaloisField(3, 2)]


def _poly(rng, ring, nterms, degree):
    """At most nterms random terms of total degree at most degree."""
    terms = {}
    for _ in range(nterms):
        m, left = [], degree
        for _ in range(ring.nvars):
            m.append(rng.randint(0, left))
            left -= m[-1]
        rng.shuffle(m)
        terms[tuple(m)] = random_scalar(rng, ring.coeff)
    return ring.poly(terms)


def _relation(rng, ring):
    """A nonzero relation of degree at most 3: half of them products, which
    are singular where their factors meet."""
    while True:
        f = (_poly(rng, ring, 2, 1) * _poly(rng, ring, 3, 2)
             if rng.random() < 0.5 else _poly(rng, ring, 4, 3))
        if not f.is_zero():
            return f


def _point_cases(seed, per):
    """(rng, A, x) for every rational point x of per hypersurfaces and
    complete intersections of two relations, for each base and 1-3
    variables."""
    rng = random.Random(seed)
    for base in POINT_BASES:
        for n in (1, 2, 3):
            ring = PolyRing(base, VARS[:n])
            for _ in range(per):
                rels = tuple(_relation(rng, ring)
                             for _ in range(rng.randint(1, min(n, 2))))
                A = RingPresentation(base, VARS[:n], rels)
                for x in rational_points(A):
                    yield rng, A, x


def test_fibers_at_points_match_the_oracle_on_A_mod_m_squared():
    seen, wrong = {}, []
    for _, A, x in _point_cases(seed=6, per=4):
        brute, fiber = brute_fiber_at_point(A, x), x.fiber(A.fw)[0]
        seen[A.base.tag()] = seen.get(A.base.tag(), 0) + 1
        if brute != fiber:
            wrong.append(f"{A.describe()} at {x.describe()}: oracle {brute}, "
                         f"presentation {fiber}")
    assert not wrong, "\n".join(wrong)
    assert sum(seen.values()) >= 200 and len(seen) == len(POINT_BASES), seen


def _seen(A, x):
    """What the criterion reads at x; a Z/p^2 ring is asserted flat, so
    that d is read there too."""
    v = regularity(A, x, flat=True)
    return v.verdict, v.fiber_dim, v.d


def _affine(rng, A, x):
    """A with x = M y + b substituted, M invertible over F_p and b over the
    base, through a morphism's push, and the point y0 with x = M y0 + b."""
    p, n, k = A.p, len(A.variables), x.field
    while True:
        M = [[rng.randrange(p) for _ in range(n)] for _ in range(n)]
        if field_rank([[PrimeField(p).of_int(v) for v in row]
                       for row in M]) == n:
            break
    y0 = [rng.randrange(p) for _ in range(n)]
    b = [c - sum((M[i][j] * y0[j] for j in range(n)), k.zero())
         for i, c in enumerate(x.coordinates)]
    ring, gens = A.poly_ring, A.poly_ring.gens()
    images = tuple(
        sum((gens[j] * M[i][j] for j in range(n)),
            ring.constant(Residue(A.base, b[i].value)))  # a lift over Z/p^2
        for i in range(n))
    free = replace(A, relations=())
    push = PresentationMorphism(free, free, images).push
    B = replace(A, relations=tuple(push(f) for f in A.relations))
    return B, PointSpec.of(B, y0)


def _graph(rng, A, x):
    """A[w]/(w - g) for a random g, at (x, g(x))."""
    g = _poly(rng, A.poly_ring, 2, 2)
    ring = PolyRing(A.base, A.variables + ("w",))

    def up(f):
        return SparsePoly(ring, {m + (0,): c for m, c in f.terms.items()})
    B = RingPresentation(A.base, ring.variables, tuple(map(up, A.relations))
                         + (ring.gen(len(A.variables)) - up(g),))
    gx = g.over(x.field).evaluate(x.coordinates, x.field)
    return B, PointSpec(B, x.coordinates + (gx,))


def _wider(rng, A, x):
    """The F_p-point x read over F_{p^2}."""
    K = GaloisField(A.p, 2)
    return A, PointSpec.of(A, [embed(c, K) for c in x.coordinates])


def test_verdicts_and_fibers_are_invariant():
    """The affine and graph moves are tried at every case, so the graph
    variable's tangent cone has up to four variables; the wider field at
    every F_p-point."""
    count, wrong = 0, []
    for rng, A, x in _point_cases(seed=7, per=4):
        moves = [_affine, _graph] + [_wider] * (A.residue_field.degree == 1)
        expect = _seen(A, x)
        for move in moves:
            B, y = move(rng, A, x)
            count += 1
            got = _seen(B, y)
            if got != expect:
                wrong.append(f"{move.__name__}: {A.describe()} at "
                             f"{x.describe()} reads {expect}, "
                             f"{B.describe()} at {y.describe()} reads {got}")
    assert not wrong, "\n".join(wrong)
    assert count >= 500, count


def _prime_cases(seed, per):
    """(A, P): per certified primes for each base in 1-3 variables.  P has
    up to n - 1 linear generators and, mostly, one of degree 2 or 3; the
    carrier has no relation, one in P, or one in P^2, singular along V(P).
    A draw that _certify_prime refuses is not a prime of its class and is
    drawn again."""
    rng = random.Random(seed)
    for base in PRIME_BASES:
        for n in (1, 2, 3):
            ring = PolyRing(base, VARS[:n])
            made = 0
            while made < per:
                gens = [_poly(rng, ring, 3, 1)
                        for _ in range(rng.randint(0, n - 1))]
                if rng.random() < 0.7:
                    gens.append(_poly(rng, ring, 3, rng.randint(2, 3)))
                gens = [g for g in gens if not g.is_zero()]
                if not gens:
                    continue
                power = rng.randint(0, 2)
                terms = gens if power == 1 else [
                    g * h for i, g in enumerate(gens) for h in gens[i:]]
                rel = sum((_poly(rng, ring, 2, 1) * t for t in terms),
                          ring.zero()) if power else ring.zero()
                A = RingPresentation(base, VARS[:n],
                                     () if rel.is_zero() else (rel,))
                try:
                    P = PrimeSpec(A, tuple(gens))
                except (PresentationError, UnsupportedClassError):
                    continue
                made += 1
                yield A, P


def test_fibers_at_primes_are_semicontinuous_and_generize():
    """At every rational point x of V(P), over the base and, for F_p, over
    F_{p^2}: fiber(x) >= fiber(P), and Regular at x rules out NotRegular
    at P.  Equality holds on a dense open subset of V(P), which may have
    no small-field point, so a prime with points none of which reach
    fiber(P) is reported in a warning, not failed.  A prime with no
    rational point (a closed point of degree > 1, say) has nothing to
    check; at least 100 primes have points."""
    with_points, points, wrong, unreached = 0, 0, [], []
    for A, P in _prime_cases(seed=3, per=10):
        at_P = regularity(A, P)
        V = RingPresentation(A.base, A.variables, A.relations + P.generators)
        fields = [A.base] + [GaloisField(A.p, 2)] * (A.base.degree == 1)
        fibers = []
        for x in (x for k in fields for x in rational_points(V, k)):
            at_x = regularity(A, PointSpec(A, x.coordinates))
            fibers.append(at_x.fiber_dim)
            if at_x.fiber_dim < at_P.fiber_dim or (
                    at_x.verdict == "Regular" and at_P.verdict == "NotRegular"):
                wrong.append(f"{A.describe()}, P = {P.describe()}: "
                             f"{at_P.verdict} with fiber {at_P.fiber_dim}, at "
                             f"{x.describe()} {at_x.verdict} with fiber "
                             f"{at_x.fiber_dim}")
        points += len(fibers)
        with_points += bool(fibers)
        if fibers and at_P.fiber_dim not in fibers:
            unreached.append(f"{A.describe()}, P = {P.describe()}: fiber "
                             f"{at_P.fiber_dim}, at its points {fibers}")
    assert not wrong, "\n".join(wrong)
    assert with_points >= 100, (with_points, points)
    if unreached:
        warnings.warn(f"{len(unreached)} of {with_points} primes with points "
                      "have none where the fiber is fiber(P): "
                      + "; ".join(unreached))
