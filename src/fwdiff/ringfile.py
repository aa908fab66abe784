"""The line-oriented ring description format.

A ring file is a sequence of lines:

    base: Fp(5)          # or Fq(p,e), Fq(p,e,minpoly), Zp2(p)
    vars: x, y
    rel: y^2 - x^3
    rel: ...

`#` starts a comment, blank lines are skipped, the base line comes
first, then the single vars line, then any number of rel lines.
Polynomial expressions use ^ for powers (tightest), then unary minus,
then *, then binary + and -; there is no implicit multiplication.
Integer literals reduce into the base ring.  Over an Fq base the name
`t` denotes the field generator.  Every parse error carries a
line/column position.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import RingFileError, SizeRefusalError
from .fwcore import RingPresentation
from .modarith import (
    GaloisField,
    PrimeField,
    PrimeSquareRing,
    default_minpoly,
)
from .mpoly import PolyRing

_BASE_TAGS = ("Fp", "Fq", "Zp2")


# ---------------------------------------------------------------------------
# tokens

@dataclass(frozen=True)
class _Token:
    kind: str  # "int" | "name" | one of + - * ^ ( ) , | "end"
    text: str
    line: int
    col: int


def _tokenize(text, line, start_col):
    """Tokens of one expression fragment, positions 1-based in the file."""
    toks = []
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch in " \t":
            i += 1
            continue
        col = start_col + i
        if ch.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            toks.append(_Token("int", text[i:j], line, col))
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            toks.append(_Token("name", text[i:j], line, col))
            i = j
            continue
        if ch in "+-*^(),":
            toks.append(_Token(ch, ch, line, col))
            i += 1
            continue
        raise RingFileError(f"unexpected character {ch!r}", line, col)
    toks.append(_Token("end", "", line, start_col + n))
    return toks


class _ExprParser:
    """Recursive descent over a token list, producing a SparsePoly."""

    def __init__(self, tokens, ring, names):
        self.toks = tokens
        self.pos = 0
        self.ring = ring
        self.names = names  # name -> SparsePoly

    def peek(self):
        return self.toks[self.pos]

    def take(self):
        t = self.toks[self.pos]
        self.pos += 1
        return t

    def fail(self, message, tok=None):
        tok = tok or self.peek()
        raise RingFileError(message, tok.line, tok.col)

    def parse(self):
        f = self.expr()
        t = self.peek()
        if t.kind != "end":
            self.fail(f"unexpected {t.text!r}")
        return f

    def expr(self):
        f = self.term()
        while self.peek().kind in "+-":
            op = self.take()
            g = self.term()
            f = f + g if op.kind == "+" else f - g
        return f

    def term(self):
        f = self.unary()
        while self.peek().kind == "*":
            self.take()
            f = f * self.unary()
        return f

    def unary(self):
        if self.peek().kind == "-":
            self.take()
            return -self.unary()
        return self.power()

    def power(self):
        f = self.atom()
        if self.peek().kind == "^":
            self.take()
            t = self.peek()
            if t.kind != "int":
                self.fail("exponent must be a nonnegative integer")
            self.take()
            f = f ** int(t.text)
        return f

    def atom(self):
        t = self.take()
        if t.kind == "int":
            return self.ring.constant(self.ring.coeff.of_int(int(t.text)))
        if t.kind == "name":
            f = self.names.get(t.text)
            if f is None:
                self.fail(f"unknown variable {t.text}", t)
            return f
        if t.kind == "(":
            f = self.expr()
            closing = self.take()
            if closing.kind != ")":
                self.fail("expected ')'", closing)
            return f
        self.fail(f"unexpected {t.text!r}" if t.text else "unexpected end of expression", t)


def parse_poly(text, ring, names, line=1, col=1):
    """Parse one polynomial expression over `ring` with symbols `names`."""
    return _ExprParser(_tokenize(text, line, col), ring, names).parse()


def _symbol_table(ring):
    names = {v: ring.gen(j) for j, v in enumerate(ring.variables)}
    coeff = ring.coeff
    if isinstance(coeff, GaloisField) and "t" not in names:
        names["t"] = ring.constant(coeff.generator())
    return names


# ---------------------------------------------------------------------------
# the file format

def _parse_base(text, line, col):
    toks = _tokenize(text, line, col)
    pos = 0

    def take(kind, what):
        nonlocal pos
        t = toks[pos]
        if t.kind != kind:
            raise RingFileError(f"expected {what}", t.line, t.col)
        pos += 1
        return t

    name = take("name", "a base tag (Fp, Fq, or Zp2)")
    if name.text not in _BASE_TAGS:
        raise RingFileError(
            f"unknown base tag {name.text!r} (expected Fp, Fq, or Zp2)",
            name.line, name.col)
    take("(", "'('")
    args = [[]]
    depth = 0
    while True:
        t = toks[pos]
        if t.kind == "end":
            raise RingFileError("expected ')'", t.line, t.col)
        if t.kind == ")" and depth == 0:
            pos += 1
            break
        if t.kind == "," and depth == 0:
            args.append([])
            pos += 1
            continue
        if t.kind == "(":
            depth += 1
        elif t.kind == ")":
            depth -= 1
        args[-1].append(t)
        pos += 1
    t = toks[pos]
    if t.kind != "end":
        raise RingFileError(f"unexpected {t.text!r} after base", t.line, t.col)
    if args == [[]]:
        args = []

    def int_arg(i, what):
        a = args[i]
        if len(a) != 1 or a[0].kind != "int":
            where = a[0] if a else name
            raise RingFileError(f"expected {what}", where.line, where.col)
        return int(a[0].text)

    try:
        if name.text == "Fp":
            if len(args) != 1:
                raise RingFileError("Fp takes one argument: Fp(p)",
                                    name.line, name.col)
            return PrimeField(int_arg(0, "a prime"))
        if name.text == "Zp2":
            if len(args) != 1:
                raise RingFileError("Zp2 takes one argument: Zp2(p)",
                                    name.line, name.col)
            return PrimeSquareRing(int_arg(0, "a prime"))
        if len(args) not in (2, 3):
            raise RingFileError(
                "Fq takes two or three arguments: Fq(p,e[,minpoly])",
                name.line, name.col)
        p = int_arg(0, "a prime")
        e = int_arg(1, "an extension degree")
        minpoly = None
        if len(args) == 3:
            minpoly = _parse_minpoly(args[2], p, e, name)
        return GaloisField(p, e, minpoly)
    except (RingFileError, SizeRefusalError):  # p past the primality bound
        raise
    except Exception as exc:  # non-prime p, bad degree, reducible minpoly
        raise RingFileError(str(exc), name.line, name.col) from exc


def _parse_minpoly(tokens, p, e, where):
    ring = PolyRing(PrimeField(p), ("t",))
    parser = _ExprParser(tokens + [_Token("end", "", where.line, where.col)],
                         ring, {"t": ring.gen(0)})
    f = parser.parse()
    coeffs = [0] * (e + 1)
    for (d,), c in f.terms.items():
        if d > e:
            raise RingFileError(
                f"minimal polynomial must have degree {e}",
                where.line, where.col)
        coeffs[d] = c.value
    return tuple(coeffs)


def parse_ring(text) -> RingPresentation:
    """Parse a ring file into a validated presentation."""
    base = None
    variables = None
    rel_lines = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0]
        if not line.strip():
            continue
        stripped = line.lstrip()
        col = len(line) - len(stripped) + 1
        head, sep, rest = stripped.partition(":")
        if not sep or head not in ("base", "vars", "rel"):
            raise RingFileError(
                "expected a 'base:', 'vars:', or 'rel:' line", lineno, col)
        rest_col = col + len(head) + 1
        pad = len(rest) - len(rest.lstrip())
        rest_col += pad
        rest = rest.strip()
        if head == "base":
            if base is not None:
                raise RingFileError("duplicate base line", lineno, col)
            if variables is not None or rel_lines:
                raise RingFileError("base line must come first", lineno, col)
            base = _parse_base(rest, lineno, rest_col)
        elif head == "vars":
            if base is None:
                raise RingFileError("vars line before base line", lineno, col)
            if variables is not None:
                raise RingFileError("duplicate vars line", lineno, col)
            variables = _parse_vars(rest, base, lineno, rest_col)
        else:
            if variables is None:
                raise RingFileError("rel line before vars line", lineno, col)
            rel_lines.append((rest, lineno, rest_col))
    if base is None:
        raise RingFileError("missing base line")
    if variables is None:
        raise RingFileError("missing vars line")
    ring = PolyRing(base, variables)
    names = _symbol_table(ring)
    rels = []
    for rest, lineno, rest_col in rel_lines:
        f = parse_poly(rest, ring, names, lineno, rest_col)
        if not f.is_zero():
            rels.append(f)
    return RingPresentation(base, variables, tuple(rels))


def _parse_vars(text, base, line, col):
    if not text:
        return ()
    toks = _tokenize(text, line, col)
    out = []
    expect_name = True
    for t in toks:
        if t.kind == "end":
            break
        if expect_name:
            if t.kind != "name":
                raise RingFileError("expected a variable name", t.line, t.col)
            if t.text.startswith("_"):
                raise RingFileError(
                    f"variable name {t.text!r} is reserved", t.line, t.col)
            if isinstance(base, GaloisField) and t.text == "t":
                raise RingFileError(
                    "variable name 't' collides with the field generator",
                    t.line, t.col)
            if t.text in out:
                raise RingFileError(
                    f"duplicate variable {t.text}", t.line, t.col)
            out.append(t.text)
            expect_name = False
        else:
            if t.kind != ",":
                raise RingFileError("expected ','", t.line, t.col)
            expect_name = True
    if expect_name:
        raise RingFileError("trailing comma in vars line", line,
                            col + len(text) - 1)
    return tuple(out)


# ---------------------------------------------------------------------------
# canonical printing

def render_base(base) -> str:
    if isinstance(base, PrimeField):
        return f"Fp({base.p})"
    if isinstance(base, PrimeSquareRing):
        return f"Zp2({base.p})"
    if isinstance(base, GaloisField):
        p, e = base.p, base.degree
        if base.minpoly == default_minpoly(p, e):
            return f"Fq({p},{e})"
        return f"Fq({p},{e},{_minpoly_str(base.minpoly)})"
    raise RingFileError(f"cannot render base {base!r}")


def _minpoly_str(minpoly):
    parts = []
    for d in range(len(minpoly) - 1, -1, -1):
        c = minpoly[d]
        if c == 0:
            continue
        if d == 0:
            parts.append(str(c))
        else:
            head = "" if c == 1 else f"{c}*"
            parts.append(f"{head}t" if d == 1 else f"{head}t^{d}")
    return "+".join(parts)


def render_ring(ring_pres: RingPresentation) -> str:
    lines = [f"base: {render_base(ring_pres.base)}"]
    if ring_pres.variables:
        lines.append("vars: " + ", ".join(ring_pres.variables))
    else:
        lines.append("vars:")
    for f in ring_pres.relations:
        lines.append(f"rel: {f}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# loci given on the command line

def parse_point_coords(text, ring_pres):
    """Comma-separated constant expressions, one per variable; empty text
    is the point of a ring without variables."""
    if not text.strip():
        return []
    ring = ring_pres.carrier_ring
    names = {}
    if isinstance(ring.coeff, GaloisField):
        names["t"] = ring.constant(ring.coeff.generator())
    parts = text.split(",")
    coords = []
    col = 1
    for part in parts:
        f = parse_poly(part, ring, names, 1, col)
        col += len(part) + 1
        coords.append(f.terms.get((0,) * ring.nvars, ring.coeff.zero()))
    return coords


def parse_prime_gens(text, ring_pres):
    """Semicolon-separated polynomials over the mod-p carrier."""
    ring = ring_pres.carrier_ring
    names = _symbol_table(ring)
    gens = []
    col = 1
    for part in text.split(";"):
        f = parse_poly(part, ring, names, 1, col)
        col += len(part) + 1
        gens.append(f)
    return gens
