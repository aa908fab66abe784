"""Exact arithmetic for the coefficient rings of the kernel.

Three rings appear: the prime field F_p, the ring Z/p^2, and the field
F_{p^e} presented as F_p[t]/(m).  Elements are stored as canonical
least-nonnegative representatives: plain ints for F_p and Z/p^2,
coefficient tuples of fixed length e >= 2 for F_{p^e}, so a ring's
degree is 1 exactly when its values are ints.  Every operation reduces eagerly.  Which ring is the residue field
of which, which maps into which, and how a base is written are answered
here, by the rings' own methods.
"""

from __future__ import annotations

from functools import cache, cached_property

from .errors import PresentationError, SizeRefusalError

# the most value products a polynomial product or power or a Witt carry
# may take, terms a division may scan and subtract, trial divisions an
# irreducibility search may make or candidates a point enumeration may
# test; _budget, the one counter, refuses a step past it before it begins
PRODUCT_BOUND = 10**6


def _budget(what, *args, unit="value products"):
    """spend(count), called with the value products of each sparse product
    of a computation (or its other units of work) before it is taken:
    SizeRefusalError once their sum would pass PRODUCT_BOUND, so no step
    past the bound is begun.  The message, what.format(*args), is made
    only then."""
    spent = 0

    def spend(count):
        nonlocal spent
        spent += count
        if spent > PRODUCT_BOUND:
            raise SizeRefusalError(f"{what.format(*args)} needs more than "
                                   f"{PRODUCT_BOUND} {unit}")
    return spend


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin test to the first 13 prime bases, exact
    below their least strong pseudoprime 3317044064679887385961981
    (Sorenson and Webster, Math. Comp. 86, 2017); from there on n is
    refused with SizeRefusalError."""
    bases = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
    bound = 3317044064679887385961981
    if n < 2:
        return False
    if n >= bound:
        raise SizeRefusalError(f"{n} is past the primality bound {bound}")
    if n in bases:
        return True
    if any(n % a == 0 for a in bases):
        return False
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in bases:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _require_prime(p):
    if not isinstance(p, int) or not is_prime(p):
        raise PresentationError(f"{p!r} is not a prime number")


def _require_degree(e):
    if not isinstance(e, int) or not 1 <= e <= 8:
        raise PresentationError("extension degree limited to 8")


class Residue:
    """An element of one of the coefficient rings: a ring tag plus value."""

    __slots__ = ("ring", "value")

    def __init__(self, ring, value):
        self.ring = ring
        self.value = value

    def __add__(self, other):
        other = self.ring.coerce(other)
        return Residue(self.ring, self.ring._add(self.value, other.value))

    __radd__ = __add__

    def __sub__(self, other):
        other = self.ring.coerce(other)
        return Residue(self.ring, self.ring._sub(self.value, other.value))

    def __rsub__(self, other):
        return self.ring.coerce(other) - self

    def __mul__(self, other):
        other = self.ring.coerce(other)
        return Residue(self.ring, self.ring._mul(self.value, other.value))

    __rmul__ = __mul__

    def __neg__(self):
        return Residue(self.ring, self.ring._neg(self.value))

    def __pow__(self, n):
        if not isinstance(n, int) or n < 0:
            raise PresentationError(
                f"exponent must be a nonnegative integer, not {n!r}")
        return Residue(self.ring, self.ring._pow(self.value, n))

    def inv(self):
        return Residue(self.ring, self.ring._inv(self.value))

    def is_zero(self):
        return self.ring._is_zero(self.value)

    def __eq__(self, other):
        if isinstance(other, int):
            other = self.ring.of_int(other)
        if not isinstance(other, Residue):
            return NotImplemented
        return self.ring == other.ring and self.value == other.value

    def __hash__(self):
        return hash((self.ring, self.value))

    def __str__(self):
        return self.ring._to_str(self.value)

    def __repr__(self):
        return f"{self.ring.tag()}:{self.ring._to_str(self.value)}"


class _BaseRing:
    """Common plumbing shared by the concrete coefficient rings."""

    def of_int(self, n: int) -> Residue:
        return Residue(self, self._of_int(n))

    def coerce(self, x) -> Residue:
        if isinstance(x, Residue):
            if x.ring != self:
                raise PresentationError(
                    f"cannot mix elements of {x.ring.tag()} and {self.tag()}"
                )
            return x
        if isinstance(x, int):
            return self.of_int(x)
        raise PresentationError(f"cannot coerce {x!r} into {self.tag()}")

    def zero(self):
        return self.of_int(0)

    def one(self):
        return self.of_int(1)

    def _pow(self, a, n):
        # square and multiply
        r = self._of_int(1)
        b = a
        while n:
            if n & 1:
                r = self._mul(r, b)
            n >>= 1
            if n:
                b = self._mul(b, b)
        return r

    def residue_field(self):
        """The residue field: a field is its own; Z/p^2 builds F_p on
        first use and keeps it."""
        return self if self.is_field else self._residue_field

    def embeds_into(self, target):
        """Whether embed maps this ring into target: every ring maps into
        itself, and a ring of degree 1 into a ring of the same p and
        modulus (F_p into F_q), reading its int value there.  That is a ring map; F_p into
        Z/p^2 would not be (2 + 2 = 1 in F_3, but 2 + 2 = 4 in Z/9)."""
        return self == target or (self.degree == 1 and target.p == self.p
                                  and target.modulus == self.modulus)

    def __repr__(self):
        return self.tag()


class _ModRing(_BaseRing):
    """Z/m for m = p or p^2: the rings of degree 1, on int values."""

    degree = 1

    def __init__(self, p):
        _require_prime(p)
        self.p = p
        self.modulus = p if self.is_field else p * p

    def _of_int(self, n):
        return n % self.modulus

    def _add(self, a, b):
        return (a + b) % self.modulus

    def _sub(self, a, b):
        return (a - b) % self.modulus

    def _mul(self, a, b):
        return (a * b) % self.modulus

    def _neg(self, a):
        return (-a) % self.modulus

    def _is_zero(self, a):
        return a == 0

    def _is_unit(self, a):
        return a % self.p != 0

    def _to_str(self, a):
        return str(a)

    def elements(self):
        for v in range(self.modulus):
            yield Residue(self, v)

    def __eq__(self, other):
        return type(other) is type(self) and other.p == self.p

    def __hash__(self):
        return hash((type(self).__name__, self.p))


class PrimeField(_ModRing):
    """The prime field F_p."""

    is_field = True

    def tag(self):
        return f"Fp({self.p})"

    def _inv(self, a):
        if a % self.p == 0:
            raise ZeroDivisionError(f"0 is not invertible in F_{self.p}")
        return pow(a, -1, self.p)

    def order(self):
        return self.p


class PrimeSquareRing(_ModRing):
    """The ring Z/p^2; p generates its nilradical."""

    is_field = False

    def tag(self):
        return f"Zp2({self.p})"

    def _inv(self, a):
        if a % self.p == 0:
            raise ZeroDivisionError(f"{a} is not a unit in Z/{self.modulus}")
        return pow(a, -1, self.modulus)

    @cached_property
    def _residue_field(self):
        return PrimeField(self.p)


# ---------------------------------------------------------------------------
# dense univariate helpers over Z/m, used for F_q arithmetic and for the
# irreducibility search; polynomials are coefficient sequences, low
# degree first

def _upoly_mul(a, b):
    """The product of a and b, its coefficients unreduced."""
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] += ai * bj
    return out


def _upoly_rem(a, b, m):
    """The remainder of a, of length at least len(b) - 1, by the monic b,
    as exactly len(b) - 1 coefficients reduced mod m."""
    a, db = list(a), len(b) - 1
    for top in range(len(a) - 1, db - 1, -1):
        q = a[top] % m
        if q:
            for i in range(db):
                a[top - db + i] -= q * b[i]
    return [c % m for c in a[:db]]


def _base_p_digits(n, p, count):
    """The count lowest base-p digits of n, least significant first."""
    out = []
    for _ in range(count):
        n, r = divmod(n, p)
        out.append(r)
    return out


def _factor_search(p, what):
    """reducible(coeffs): whether a monic polynomial over F_p has a monic
    factor of degree at most half its own, found by trial division.  The
    divisions of all calls spend one _budget, so the one that would pass
    PRODUCT_BOUND is refused with SizeRefusalError instead."""
    spend = _budget(what, unit="trial divisions")

    def reducible(coeffs):
        for d in range(1, (len(coeffs) - 1) // 2 + 1):
            for k in range(p**d):
                spend(1)
                if not any(_upoly_rem(coeffs, _base_p_digits(k, p, d) + [1],
                                      p)):
                    return True
        return False
    return reducible


@cache
def default_minpoly(p, e):
    """The first monic irreducible of degree e over F_p.

    Candidates are enumerated by the integer whose little-endian base-p
    digits are the non-leading coefficients, so the choice is deterministic
    and documented.  The search is one _factor_search, so it is refused
    past PRODUCT_BOUND trial divisions, and its result is kept.
    """
    _require_prime(p)
    _require_degree(e)
    reducible = _factor_search(
        p, f"finding an irreducible polynomial of degree {e} over F_{p}")
    for k in range(p**e):
        coeffs = _base_p_digits(k, p, e) + [1]
        if not reducible(coeffs):
            return tuple(coeffs)
    raise AssertionError("no irreducible polynomial found")  # unreachable


class GaloisField(_BaseRing):
    """F_{p^e} = F_p[t]/(m) with m monic irreducible, e >= 2, on
    coefficient tuples of length e."""

    is_field = True

    def __init__(self, p, e, minpoly=None):
        _require_prime(p)
        _require_degree(e)
        if e == 1:  # each ring has one representation, and degree 1 is ints
            raise PresentationError("an extension of degree 1 is Fp(p)")
        self.p = self.modulus = p
        self.degree = e
        if minpoly is None:
            minpoly = default_minpoly(p, e)
        else:
            minpoly = tuple(c % p for c in minpoly)
            if len(minpoly) != e + 1 or minpoly[-1] != 1:
                raise PresentationError(
                    f"minimal polynomial must be monic of degree {e}"
                )
            if _factor_search(p, f"checking {list(minpoly)}")(list(minpoly)):
                raise PresentationError(
                    f"{list(minpoly)} is not irreducible over F_{p}"
                )
        self.minpoly = minpoly
        self._tag = None  # tag() fills it: the instance keeps its attributes

    def _of_int(self, n):
        return (n % self.p,) + (0,) * (self.degree - 1)

    def _add(self, a, b):
        p = self.p
        return tuple((x + y) % p for x, y in zip(a, b))

    def _sub(self, a, b):
        p = self.p
        return tuple((x - y) % p for x, y in zip(a, b))

    def _neg(self, a):
        p = self.p
        return tuple((-x) % p for x in a)

    def _mul(self, a, b):
        return tuple(_upoly_rem(_upoly_mul(a, b), self.minpoly, self.p))

    def _is_zero(self, a):
        return not any(a)

    def _to_str(self, a):
        parts = []
        for i in range(self.degree - 1, -1, -1):
            c = a[i]
            if c == 0:
                continue
            if i == 0:
                parts.append(str(c))
            elif i == 1:
                parts.append("t" if c == 1 else f"{c}*t")
            else:
                parts.append(f"t^{i}" if c == 1 else f"{c}*t^{i}")
        return " + ".join(parts) if parts else "0"

    def generator(self):
        return Residue(self, (0, 1) + (0,) * (self.degree - 2))

    def __eq__(self, other):
        return (
            type(other) is type(self)
            and other.p == self.p
            and other.minpoly == self.minpoly
        )

    def __hash__(self):
        return hash((type(self).__name__, self.p, self.minpoly))

    def tag(self):
        """Fq(p,e) in the ring-file syntax, with the minimal polynomial as
        a third argument when it is not default_minpoly(p, e).  A default
        past the search bound is taken as different: Fq(p,e) would then be
        refused on reading.  Made on first use, kept in _tag."""
        if self._tag is None:
            p, e = self.p, self.degree
            try:
                default = self.minpoly == default_minpoly(p, e)
            except SizeRefusalError:
                default = False
            low = self._to_str(self.minpoly[:e]).replace(" ", "")
            self._tag = (f"Fq({p},{e})" if default
                         else f"Fq({p},{e},t^{e}+{low})")
        return self._tag

    def order(self):
        return self.p**self.degree

    def _inv(self, a):
        if self._is_zero(a):
            raise ZeroDivisionError("0 is not invertible")
        return self._pow(a, self.order() - 2)

    def elements(self):
        e, p = self.degree, self.p
        for k in range(p**e):
            yield Residue(self, tuple(_base_p_digits(k, p, e)))


def reduce_mod_p(a: Residue) -> Residue:
    """Push an element of Z/p^2 to the residue field F_p."""
    ring = a.ring
    if ring.is_field:
        return a
    return Residue(ring.residue_field(), a.value % ring.p)


def embed(a: Residue, target) -> Residue:
    """Embed a into the target ring along _BaseRing.embeds_into."""
    if a.ring == target:
        return a
    if not a.ring.embeds_into(target):
        raise PresentationError(
            f"no embedding of {a.ring.tag()} into {target.tag()}")
    return target.of_int(a.value)


# ---------------------------------------------------------------------------
# Witt data

def w_base(a: Residue) -> Residue:
    """The derivation constant of the base ring: w(a) = w_base(a) * w(p).

    Over Z/p^2 this is (a~ - a~^p)/p mod p for any integer lift a~, a
    quantity independent of the lift; a~^p mod p^2 stands in for a~^p, as
    they differ by a multiple of p^2.
    """
    ring, v, p = a.ring, a.value, a.ring.p
    if ring.is_field:
        raise PresentationError(
            f"w_base needs a p^2-torsion ring, got {ring.tag()}")
    return Residue(ring.residue_field(), (v - pow(v, p, p * p)) // p % p)
