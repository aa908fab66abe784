"""The brute-force oracle's row space mod p: int rows reduced by XOR
over F_2, and int64 numpy rows in reduced row-echelon form over odd p.
Only the oracle imports this module, so the verdict path never loads
numpy."""

from __future__ import annotations

import numpy as np

from .errors import SizeRefusalError


class ModPSpan:
    """A growing row space over F_p, read as its rank.

    Over F_2 a row is a Python int, bit j its entry in column j; a new row
    is reduced by XOR with the kept row whose lowest set bit is its own.
    Over odd p the reduced row-echelon basis is kept as int64 numpy rows
    with entries in [0, p), with its pivot columns (_gauss_jordan).
    Elimination forms one product of two entries at a time before
    reducing mod p; for p < 2^31 such a product is below 2^62, so every
    step is exact, and larger primes are refused."""

    def __init__(self, p, ncols):
        if p >= 1 << 31:
            raise SizeRefusalError(f"F_p row spaces need p < 2^31, not {p}")
        self.p = p
        self.ncols = ncols
        self._bits = {}  # over F_2: the kept rows by their lowest set bit
        self._basis = np.zeros((0, ncols), dtype=np.int64)
        self._pivots = []

    @property
    def rank(self):
        return len(self._bits) if self.p == 2 else len(self._pivots)

    def add_rows(self, rows):
        """Insert rows, stopping once the rank is full; returns the new
        rank."""
        if self.rank == self.ncols:
            return self.rank
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
