"""The line-oriented ring description format and the command-line loci.

A ring file is a sequence of lines:

    base: Fp(5)          # or Fq(p,e), Fq(p,e,minpoly) for e >= 2, Zp2(p)
    vars: x, y
    rel: y^2 - x^3
    rel: ...

`#` starts a comment, blank lines are skipped, the base line comes
first, then the single vars line, then any number of rel lines.
Polynomial expressions use ^ for powers (tightest), then unary minus,
then *, then binary + and -; there is no implicit multiplication.
Integer literals are ASCII digits and reduce into the base ring.  Over
an Fq base the name `t` denotes the field generator; the minimal
polynomial of Fq(p,e,minpoly) is an expression in t over F_p.  A point
(--point) is a list of constant expressions separated by `,`, a prime
(--prime) a list of polynomials separated by `;`.  All of it is read by
one tokenizer and one recursive-descent parser, and every parse error
carries a line/column position.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import PresentationError, RingFileError
from .fwcore import RingPresentation
from .modarith import GaloisField, PrimeField, PrimeSquareRing, _require_degree
from .mpoly import PolyRing

# base tag -> (its ring, its usage)
_BASES = {
    "Fp": (PrimeField, "Fp takes one argument: Fp(p)"),
    "Zp2": (PrimeSquareRing, "Zp2 takes one argument: Zp2(p)"),
    "Fq": (GaloisField, "Fq takes two or three arguments: Fq(p,e[,minpoly])"),
}
_DIGITS = "0123456789"
_MAX_DEPTH = 100  # nested parentheses, well inside the recursion limit


# ---------------------------------------------------------------------------
# tokens

@dataclass(frozen=True)
class _Token:
    kind: str  # "int" | "name" | one of + - * ^ ( ) , ; | "end"
    text: str
    line: int
    col: int


def _tokenize(text, line, col):
    """Tokens of one line fragment starting at column col, positions
    1-based in the file."""
    toks = []
    i, n = 0, len(text)
    while i < n:
        ch, j = text[i], i + 1
        if ch in " \t":
            i = j
            continue
        if ch in _DIGITS:
            kind = "int"
            while j < n and text[j] in _DIGITS:
                j += 1
        elif ch.isalpha() or ch == "_":
            kind = "name"
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
        elif ch in "+-*^(),;":
            kind = ch
        else:
            raise RingFileError(f"unexpected character {ch!r}", line, col + i)
        toks.append(_Token(kind, text[i:j], line, col + i))
        i = j
    toks.append(_Token("end", "", line, col + n))
    return toks


class _Parser:
    """Recursive descent over the tokens of one line fragment.  Expressions
    are SparsePolys of ring, over the symbols of names."""

    def __init__(self, text, line=1, col=1, ring=None, names=None):
        self.toks = _tokenize(text, line, col)
        self.pos = 0
        self.depth = 0  # open parentheses
        self.ring = ring
        self.names = names

    def peek(self):
        return self.toks[self.pos]

    def take(self):
        t = self.toks[self.pos]
        self.pos += 1
        return t

    def accept(self, kind):
        """The next token if it is of this kind, taken; else None."""
        return self.take() if self.peek().kind == kind else None

    def fail(self, message, tok=None):
        tok = tok or self.peek()
        raise RingFileError(message, tok.line, tok.col)

    def expect(self, kind, what):
        if self.peek().kind != kind:
            self.fail(f"expected {what}")
        return self.take()

    def end(self):
        t = self.peek()
        if t.kind != "end":
            self.fail(f"unexpected {t.text!r}")

    def integer(self, what="an integer"):
        t = self.expect("int", what)
        try:
            return int(t.text)
        except ValueError:  # past the interpreter's digit limit
            self.fail(f"integer of {len(t.text)} digits is too long", t)

    def listed(self, item, sep):
        """item (sep item)*, up to the end of the fragment."""
        out = [item()]
        while (t := self.accept(sep)):
            if self.peek().kind == "end":
                self.fail(f"trailing {sep!r}", t)
            out.append(item())
        self.end()
        return out

    def expr(self):
        f = self.term()
        while self.peek().kind in "+-":
            op = self.take()
            g = self.term()
            f = f + g if op.kind == "+" else f - g
        return f

    def term(self):
        f = self.unary()
        while self.accept("*"):
            f = f * self.unary()
        return f

    def unary(self):
        negate = False
        while self.accept("-"):
            negate = not negate
        f = self.atom()
        if self.accept("^"):
            f = f ** self.integer("a nonnegative integer exponent")
        return -f if negate else f

    def atom(self):
        if self.peek().kind == "int":
            coeff = self.ring.coeff
            return self.ring.constant(coeff.of_int(self.integer()))
        t = self.take()
        if t.kind == "name":
            f = self.names.get(t.text)
            if f is None:
                self.fail(f"unknown variable {t.text}", t)
            return f
        if t.kind == "(":
            if self.depth == _MAX_DEPTH:  # each level takes four frames
                self.fail(f"parentheses nested deeper than {_MAX_DEPTH}", t)
            self.depth += 1
            f = self.expr()
            self.expect(")", "')'")
            self.depth -= 1
            return f
        self.fail(f"unexpected {t.text!r}" if t.text
                  else "unexpected end of expression", t)

    def base(self):
        """tag(p), Fq(p,e) or Fq(p,e,minpoly), to the end: the ring it
        names.  A bad p, e or minimal polynomial is reported at the tag."""
        tag = self.expect("name", "a base tag (Fp, Fq, or Zp2)")
        if tag.text not in _BASES:
            self.fail(f"unknown base tag {tag.text!r} "
                      "(expected Fp, Fq, or Zp2)", tag)
        make, usage = _BASES[tag.text]
        self.expect("(", "'('")
        try:
            args = [self.integer("a prime")]
            if tag.text == "Fq":
                if not self.accept(","):
                    self.fail(usage, tag)
                args.append(self.integer("an extension degree"))
                if self.accept(","):
                    args.append(self.minpoly(*args, tag))
            if self.peek().kind == ",":
                self.fail(usage, tag)
            self.expect(")", "')'")
            self.end()
            return make(*args)
        except PresentationError as exc:
            raise RingFileError(str(exc), tag.line, tag.col) from exc

    def minpoly(self, p, e, tag):
        """An expression in t over F_p: its coefficients, constant first."""
        self.ring = PolyRing(PrimeField(p), ("t",))
        _require_degree(e)  # before e + 1 coefficients are made
        self.names = _symbol_table(self.ring)
        f = self.expr()
        coeffs = [0] * (e + 1)
        for (d,), c in f.terms.items():
            if d > e:
                self.fail(f"minimal polynomial must have degree {e}", tag)
            coeffs[d] = c.value
        return tuple(coeffs)


def parse_poly(text, ring, names, line=1, col=1):
    """Parse one polynomial expression over `ring` with symbols `names`."""
    parser = _Parser(text, line, col, ring, names)
    f = parser.expr()
    parser.end()
    return f


def _symbol_table(ring):
    """The variables of ring and, over F_q, the generator t."""
    names = {v: ring.gen(j) for j, v in enumerate(ring.variables)}
    if ring.coeff.degree > 1:
        names.setdefault("t", ring.constant(ring.coeff.generator()))
    return names


# ---------------------------------------------------------------------------
# the file format

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
        rest_col = col + len(head) + 1 + len(rest) - len(rest.lstrip())
        rest = rest.strip()
        if head == "base":
            if base is not None:
                raise RingFileError("duplicate base line", lineno, col)
            base = _Parser(rest, lineno, rest_col).base()
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
    parser = _Parser(text, line, col)
    out = []

    def name():
        t = parser.expect("name", "a variable name")
        if t.text.startswith("_"):
            parser.fail(f"variable name {t.text!r} is reserved", t)
        if base.degree > 1 and t.text == "t":
            parser.fail("variable name 't' collides with the field generator",
                        t)
        if t.text in out:
            parser.fail(f"duplicate variable {t.text}", t)
        out.append(t.text)

    if text:
        parser.listed(name, ",")
    return tuple(out)


# ---------------------------------------------------------------------------
# canonical printing

def render_ring(ring_pres: RingPresentation) -> str:
    lines = [f"base: {ring_pres.base.tag()}"]
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
    ring = PolyRing(ring_pres.carrier_ring.coeff, ())
    parser = _Parser(text, ring=ring, names=_symbol_table(ring))
    zero = ring.coeff.zero()
    return [f.terms.get((), zero) for f in parser.listed(parser.expr, ",")]


def parse_prime_gens(text, ring_pres):
    """Semicolon-separated polynomials over the mod-p carrier."""
    ring = ring_pres.carrier_ring
    parser = _Parser(text, ring=ring, names=_symbol_table(ring))
    return parser.listed(parser.expr, ";")
