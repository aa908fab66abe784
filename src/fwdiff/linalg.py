"""Exact linear algebra: fraction-free elimination over fields and
quotient domains, and a row space mod p for the brute-force oracle, on
int rows by XOR over F_2 and on int64 numpy rows over odd p.  numpy is
imported by ModPSpan alone, so the verdict path never loads it."""

from __future__ import annotations

from .errors import SizeRefusalError, ZeroDivisorError


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


class ModPSpan:
    """A growing row space over F_p, read as its reduced row-echelon
    basis, one row per pivot column, pivots ascending.

    Over F_2 a row is a Python int, bit j its entry in column j; a new row
    is reduced by XOR with the kept row whose lowest set bit is its own,
    and pivots and basis are read off the kept rows when asked for.  Over
    odd p the basis is kept as int64 numpy rows with entries in [0, p)
    (_gauss_jordan).  Elimination forms one product of two entries at a
    time before reducing mod p; for p < 2^31 such a product is below
    2^62, so every step is exact, and larger primes are refused."""

    def __init__(self, p, ncols):
        if p >= 1 << 31:
            raise SizeRefusalError(f"F_p row spaces need p < 2^31, not {p}")
        import numpy as np

        self.p = p
        self.ncols = ncols
        self._bits = {}  # over F_2: the kept rows by their lowest set bit
        self._basis = np.zeros((0, ncols), dtype=np.int64)
        self._pivots = []

    @property
    def rank(self):
        return len(self._bits) if self.p == 2 else len(self._pivots)

    @property
    def pivots(self):
        return sorted(self._bits) if self.p == 2 else self._pivots

    @property
    def basis(self):
        if self.p != 2:
            return self._basis
        import numpy as np

        rows = {}
        for col in sorted(self._bits, reverse=True):  # clear later pivots
            row = self._bits[col]
            for later, kept in rows.items():
                if row >> later & 1:
                    row ^= kept
            rows[col] = row
        return np.array([[r >> j & 1 for j in range(self.ncols)]
                         for r in reversed(rows.values())],
                        dtype=np.int64).reshape(-1, self.ncols)

    def add_rows(self, rows):
        """Insert rows, stopping once the rank is full; returns the new
        rank."""
        if self.rank == self.ncols:
            return self.rank
        import numpy as np

        rows = np.asarray(rows, dtype=np.int64).reshape(-1, self.ncols) % self.p
        if self.p != 2:
            self._basis, self._pivots = _gauss_jordan(
                np.vstack([self._basis, rows]), self.p)
            return self.rank
        kept = self._bits
        for row in np.packbits(rows, axis=1, bitorder="little").tolist():
            row = int.from_bytes(row, "little")
            while row:
                low = (row & -row).bit_length() - 1
                if low not in kept:
                    kept[low] = row
                    break
                row ^= kept[low]
            if len(kept) == self.ncols:
                break
        return self.rank


def _gauss_jordan(m, p):
    """(basis, pivots): the reduced row-echelon form of the int64 matrix m,
    entries in [0, p), by Gauss-Jordan one pivot column at a time, touching
    only the rows nonzero in it.  m is overwritten."""
    import numpy as np

    pivots = []
    for col in np.flatnonzero(m.any(axis=0)):
        r = len(pivots)
        below = np.flatnonzero(m[r:, col])
        if below.size == 0:
            continue
        m[[r, r + below[0]]] = m[[r + below[0], r]]
        m[r, col:] = m[r, col:] * pow(int(m[r, col]), -1, p) % p
        hit = np.flatnonzero(m[:, col])
        hit = hit[hit != r]
        m[hit, col:] = (m[hit, col:] - np.outer(m[hit, col], m[r, col:])) % p
        pivots.append(int(col))
    return m[:len(pivots)].copy(), pivots
