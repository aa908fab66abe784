"""Expected outputs computed apart from fwdiff.

Nothing here calls into the program except to feed it inputs
(`axiom_pair_ok` asks `w_poly` for the vectors it then checks).  Ring
files are read with sympy, polynomials are integer dicts
{exponent tuple: int}, and F_q / GR(p^2, 2) arithmetic is done on
coefficient tuples here.
"""

from __future__ import annotations

import itertools
import math
import re

import sympy

# ---------------------------------------------------------------------------
# ring files


def read_ring(path):
    """(base, variables, relations) of a ring file, read with sympy.

    base is (kind, p, e) with kind "F" (the field F_{p^e}) or "Z" (Z/p^2);
    relations are dicts {exponents: coefficient}, the coefficient an int,
    or a sympy expression in t for F_q bases.
    """
    base, names, rels = None, (), []
    with open(path, encoding="utf-8") as fh:
        for raw in fh:
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            key, _, val = line.partition(":")
            val = val.strip()
            if key == "base":
                m = re.fullmatch(r"(Fp|Fq|Zp2)\((\d+)(?:,\s*(\d+))?\)", val)
                kind, p, e = m.group(1), int(m.group(2)), int(m.group(3) or 1)
                base = ("Z" if kind == "Zp2" else "F", p, e)
            elif key == "vars":
                names = tuple(v.strip() for v in val.split(",") if v.strip())
            elif key == "rel":
                syms = sympy.symbols(names) if names else ()
                expr = sympy.sympify(val.replace("^", "**"),
                                     locals={n: s for n, s in zip(names, syms)}
                                     | {"t": sympy.Symbol("t")})
                poly = sympy.Poly(expr, *syms) if syms else None
                terms = {}
                for mono, c in (poly.terms() if poly else [((), expr)]):
                    terms[tuple(mono)] = int(c) if c.is_Integer else c
                rels.append(terms)
    return base, names, rels


def _is_monomial(rel):
    return len(rel) == 1 and next(iter(rel.values())) == 1


def _divides(a, b):
    return all(x <= y for x, y in zip(a, b))


def _staircase(gens, n):
    bound = [max(g[i] for g in gens if sum(g) == g[i]) for i in range(n)]
    box = itertools.product(*(range(b) for b in bound))
    return [m for m in box if not any(_divides(g, m) for g in gens)]


def _triangular_degrees(rels, n):
    """Degrees d_i when relation i is monic in x_i over x_1..x_i, else None."""
    if len(rels) != n:
        return None
    degs = []
    for i, rel in enumerate(rels):
        d = max(m[i] for m in rel)
        lead = tuple(d if j == i else 0 for j in range(n))
        if d == 0 or rel.get(lead) != 1:
            return None
        for m, _ in rel.items():
            if m != lead and (m[i] >= d or any(m[j] for j in range(i + 1, n))):
                return None
        degs.append(d)
    return degs


def _fp_gcd_degree(f, g, p):
    """Degree of gcd over F_p of univariate polys as coefficient lists."""
    def trim(a):
        a = [c % p for c in a]
        while a and a[-1] == 0:
            a.pop()
        return a

    a, b = trim(f), trim(g)
    while b:
        inv = pow(b[-1], -1, p)
        while len(a) >= len(b):
            c = a[-1] * inv % p
            shift = len(a) - len(b)
            for i, bc in enumerate(b):
                a[shift + i] = (a[shift + i] - c * bc) % p
            a = trim(a)
        a, b = b, a
    return len(a) - 1


def oracle_expectation(path):
    """(ring size, closed-form brute dimension or None) of an oracle ring.

    The size is counted on the ring's additive structure: a monomial
    quotient is free on its staircase S, and a triangular monic system
    (relation i monic of degree d_i in x_i over x_1..x_i) is free on
    prod d_i monomials.  Closed forms for the module's F_p-dimension:
      * F_q -> 0 and Z/p^2 -> 1;
      * a monomial quotient whose twisted partials (p * (a - e_j) for
        every generator x^a with p not dividing a_j) lie in the ideal has
        zero relation columns, so the module is free over A/pA on
        w(x_1..x_n), plus w(p) over Z/p^2: n * e * |S|, or (n + 1) * |S|;
      * F_q[x]/(f) with integer coefficients and f squarefree mod p is
        reduced, a product of finite fields, hence perfect: 0;
        Z/p^2[x]/(f) with f squarefree mod p is etale over Z/p^2, a
        product of W_2(k_i), whose module is free on w(p): deg f.
    """
    (kind, p, e), names, rels = read_ring(path)
    n = len(names)
    order = p ** e if kind == "F" else p * p
    if n == 0:
        return order, (0 if kind == "F" else 1)
    if rels and all(_is_monomial(r) for r in rels):
        gens = [next(iter(r)) for r in rels]
        stair = _staircase(gens, n)
        closed = None
        if all(any(_divides(g, tuple(p * (a - (k == j)) for k, a in enumerate(m)))
                   for g in gens)
               for m in gens for j in range(n) if m[j] % p):
            closed = n * e * len(stair) if kind == "F" else (n + 1) * len(stair)
        return order ** len(stair), closed
    degs = _triangular_degrees(rels, n)
    if degs is None:
        raise ValueError(f"{path}: ring size not countable by the benchmark")
    closed = None
    if n == 1 and all(isinstance(c, int) for c in rels[0].values()):
        coeffs = [0] * (degs[0] + 1)
        for (k,), c in rels[0].items():
            coeffs[k] = c
        deriv = [k * c for k, c in enumerate(coeffs)][1:]
        if _fp_gcd_degree(coeffs, deriv, p) == 0:
            closed = 0 if kind == "F" else degs[0]
    return order ** math.prod(degs), closed


# ---------------------------------------------------------------------------
# F_q and GR(p^2, e): tuples of e coefficients modulo m = p or p^2


class Ext:
    """(Z/m)[t]/(minpoly) on coefficient tuples, minpoly monic of degree e."""

    def __init__(self, m, minpoly):
        self.m = m
        self.e = len(minpoly) - 1
        self.minpoly = minpoly

    def elements(self):
        return list(itertools.product(range(self.m), repeat=self.e))

    def const(self, c):
        return (c % self.m,) + (0,) * (self.e - 1)

    def add(self, a, b):
        return tuple((x + y) % self.m for x, y in zip(a, b))

    def sub(self, a, b):
        return tuple((x - y) % self.m for x, y in zip(a, b))

    def mul(self, a, b):
        prod = [0] * (2 * self.e - 1)
        for i, x in enumerate(a):
            for j, y in enumerate(b):
                prod[i + j] += x * y
        for k in range(len(prod) - 1, self.e - 1, -1):
            c = prod[k]
            for i, mc in enumerate(self.minpoly[:-1]):
                prod[k - self.e + i] -= c * mc
        return tuple(c % self.m for c in prod[:self.e])

    def power(self, a, k):
        out = self.const(1)
        for _ in range(k):
            out = self.mul(out, a)
        return out

    def inv(self, a):
        """Inverse in a field (m prime): a^(q - 2)."""
        return self.power(a, self.m ** self.e - 2)

    def is_zero(self, a):
        return not any(a)


def field_for(p, minpoly):
    """F_{p^e} from the program's minimal polynomial, checked irreducible."""
    if len(minpoly) == 3 and any(
            (r * r + minpoly[1] * r + minpoly[0]) % p == 0 for r in range(p)):
        raise ValueError(f"minimal polynomial {minpoly} has a root mod {p}")
    return Ext(p, tuple(minpoly))


def evaluate(rel, k, point):
    total = k.const(0)
    for mono, c in rel.items():
        term = k.const(c)
        for x, a in zip(point, mono):
            term = k.mul(term, k.power(x, a))
        total = k.add(total, term)
    return total


def derivative(rel, j):
    out = {}
    for mono, c in rel.items():
        if mono[j]:
            m = list(mono)
            m[j] -= 1
            out[tuple(m)] = out.get(tuple(m), 0) + c * mono[j]
    return out


def rank(k, rows):
    rows = [list(r) for r in rows]
    r = 0
    for col in range(len(rows[0]) if rows else 0):
        piv = next((i for i in range(r, len(rows)) if not k.is_zero(rows[i][col])),
                   None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        inv = k.inv(rows[r][col])
        rows[r] = [k.mul(inv, x) for x in rows[r]]
        for i in range(len(rows)):
            if i != r and not k.is_zero(rows[i][col]):
                c = rows[i][col]
                rows[i] = [k.sub(x, k.mul(c, y)) for x, y in zip(rows[i], rows[r])]
        r += 1
    return r


def sweep_expectation(path, minpoly, dim, flat):
    """{point: (verdict, fiber dimension)} over F_q, q = p^len(minpoly)-1.

    A point is regular exactly when the Jacobian rank there equals
    ambient - dim, with ambient = n over F_p and n + 1 over Z/p^2, where
    the Z/p^2 row of f is (f(x~)/p, grad f(x)) for the verbatim lift x~
    into GR(p^2, e); the cotangent space, hence the fiber, has dimension
    ambient - rank.  dim is the ring's stated (equidimensional) dimension,
    carrier dimension + 1 over Z/p^2 under the flatness assertion.
    """
    (kind, p, _), names, rels = read_ring(path)
    n = len(names)
    k = field_for(p, minpoly)
    cover = Ext(p * p, tuple(minpoly)) if kind == "Z" else None
    grads = [[derivative(r, j) for j in range(n)] for r in rels]
    ambient = n + 1 if kind == "Z" else n
    if kind == "Z" and not flat:
        raise ValueError(f"{path}: a Z/p^2 ring is swept with --flat only")
    out = {}
    for point in itertools.product(k.elements(), repeat=n):
        if not all(k.is_zero(evaluate(r, k, point)) for r in rels):
            continue
        rows = []
        for r, grad in zip(rels, grads):
            row = [evaluate(g, k, point) for g in grad]
            if cover is not None:
                val = evaluate(r, cover, point)
                if any(v % p for v in val):
                    raise ArithmeticError(f"{point} is not on the carrier")
                row = [tuple((v // p) % p for v in val)] + row
            rows.append(row)
        rk = rank(k, rows)
        verdict = "Regular" if rk == ambient - dim else "NotRegular"
        out[point] = (verdict, ambient - rk)
    return out


# ---------------------------------------------------------------------------
# the derivation axioms, with integer polynomial arithmetic


def _padd(*polys, m=None):
    out = {}
    for f in polys:
        for mono, c in f.items():
            out[mono] = out.get(mono, 0) + c
    return {a: (c % m if m else c) for a, c in out.items() if (c % m if m else c)}


def _pscale(f, s):
    return {a: c * s for a, c in f.items()}


def _pmul(f, g, m=None):
    out = {}
    for a, c in f.items():
        for b, d in g.items():
            mono = tuple(x + y for x, y in zip(a, b))
            out[mono] = out.get(mono, 0) + c * d
    return _padd(out, m=m)


def _ppow(f, k, n):
    out = {(0,) * n: 1}
    for _ in range(k):
        out = _pmul(out, f)
    return out


def witt_carry(f, g, p, n):
    """P(f, g) = ((F + G)^p - F^p - G^p) / p over Z, reduced mod p."""
    s = _padd(_ppow(_padd(f, g), p, n), _pscale(_ppow(f, p, n), -1),
              _pscale(_ppow(g, p, n), -1))
    if any(c % p for c in s.values()):
        raise ArithmeticError("(F+G)^p - F^p - G^p not divisible by p")
    return _padd({a: c // p for a, c in s.items()}, m=p)


def twist(f, p):
    """f^(p) mod p: sum of c X^(p m); c^p = c for c in F_p."""
    return {tuple(p * e for e in a): c % p for a, c in f.items() if c % p}


def random_pair(rng, p, n):
    """Two random polynomials over Z/p^2 with at most three terms each."""
    def one():
        return _padd({tuple(rng.randint(0, 2) for _ in range(n)):
                      rng.randrange(p * p) for _ in range(rng.randint(0, 3))},
                     m=p * p)
    return one(), one()


def axiom_pair_ok(w_vector, f, g, p, n):
    """Both derivation identities for one pair, on w_vector's output.

    w_vector(h) must return the n + 1 coordinates of w(h), as integer
    dicts mod p, for h an integer dict over Z/p^2.
    """
    q = p * p
    wf, wg = w_vector(f), w_vector(g)
    ws, wm = w_vector(_padd(f, g, m=q)), w_vector(_pmul(f, g, m=q))
    carry = witt_carry(f, g, p, n)
    add_ok = all(ws[i] == _padd(wf[i], wg[i], m=p) for i in range(n)) and \
        ws[n] == _padd(wf[n], wg[n], _pscale(carry, -1), m=p)
    ftw, gtw = twist(f, p), twist(g, p)
    mul_ok = all(wm[i] == _padd(_pmul(gtw, wf[i]), _pmul(ftw, wg[i]), m=p)
                 for i in range(n + 1))
    return add_ok and mul_ok
