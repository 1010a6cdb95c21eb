"""GF(2) rank and linear solving over word-packed bit rows.

Vectors and matrix rows are Python integers used as bitsets: bit i of a row
is the entry in column i.  Everything a caller can observe is immutable;
elimination always runs on a working copy.
"""
from __future__ import annotations

from typing import Iterable, Optional

from ._record import Record, _set

__all__ = [
    "BitVector",
    "BitMatrix",
    "rank",
    "solve",
]


class BitVector(Record):
    """Fixed-length bit vector packed into a single integer.

    Invariant: bits above `length` are zero.
    """

    __slots__ = ("bits", "length")
    bits: int
    length: int

    def __init__(self, bits: int, length: int) -> None:
        if length < 0:
            raise ValueError(f"negative length {length}")
        if bits < 0 or bits >> length:
            raise ValueError("bits outside declared length")
        _set(self, "bits", bits)
        _set(self, "length", length)

    @classmethod
    def from_bits(cls, values: Iterable[int]) -> "BitVector":
        bits = 0
        n = 0
        for v in values:
            if v not in (0, 1):
                raise ValueError(f"bit value {v!r} is not 0 or 1")
            bits |= v << n
            n += 1
        return cls(bits, n)

    @classmethod
    def zeros(cls, length: int) -> "BitVector":
        return cls(0, length)

    @classmethod
    def ones(cls, length: int) -> "BitVector":
        return cls((1 << length) - 1, length)

    def __len__(self) -> int:
        return self.length

    def __getitem__(self, i: int) -> int:
        if not 0 <= i < self.length:
            raise IndexError(i)
        return (self.bits >> i) & 1

    def __xor__(self, other: "BitVector") -> "BitVector":
        if self.length != other.length:
            raise ValueError("length mismatch in xor")
        return BitVector(self.bits ^ other.bits, self.length)

    def weight(self) -> int:
        return self.bits.bit_count()

    def to_list(self) -> list[int]:
        return [(self.bits >> i) & 1 for i in range(self.length)]


class BitMatrix(Record):
    """GF(2) matrix stored as a tuple of integer rows, n_cols wide."""

    __slots__ = ("rows", "n_cols")
    rows: tuple[int, ...]
    n_cols: int

    def __init__(self, rows: tuple[int, ...], n_cols: int) -> None:
        if n_cols < 0:
            raise ValueError(f"negative n_cols {n_cols}")
        for i, r in enumerate(rows):
            if r < 0 or r >> n_cols:
                raise ValueError(f"row {i} has bits outside {n_cols} columns")
        _set(self, "rows", rows)
        _set(self, "n_cols", n_cols)

    @property
    def n_rows(self) -> int:
        return len(self.rows)

    @classmethod
    def from_rows(cls, rows: Iterable[BitVector]) -> "BitMatrix":
        rs = list(rows)
        if not rs:
            return cls((), 0)
        width = rs[0].length
        for r in rs:
            if r.length != width:
                raise ValueError("rows of unequal length")
        return cls(tuple(r.bits for r in rs), width)

    @classmethod
    def identity(cls, n: int) -> "BitMatrix":
        return cls(tuple(1 << i for i in range(n)), n)

    @classmethod
    def zeros(cls, n_rows: int, n_cols: int) -> "BitMatrix":
        return cls((0,) * n_rows, n_cols)

    def row(self, i: int) -> BitVector:
        return BitVector(self.rows[i], self.n_cols)

    def entry(self, i: int, j: int) -> int:
        if not 0 <= j < self.n_cols:
            raise IndexError(j)
        return (self.rows[i] >> j) & 1


def _eliminate(rows: list[int], n_cols: int) -> tuple[int, list[int]]:
    """In-place Gauss-Jordan with leftmost-pivot selection.

    Returns (rank, pivot_columns).  After the call `rows` is fully reduced:
    pivot rows come first in pivot-column order and every non-pivot row is
    zero in all n_cols matrix columns (bits above n_cols, if any, survive
    and carry augmented data).
    """
    pivot_cols: list[int] = []
    r = 0
    for col in range(n_cols):
        sel = None
        for i in range(r, len(rows)):
            if (rows[i] >> col) & 1:
                sel = i
                break
        if sel is None:
            continue
        rows[r], rows[sel] = rows[sel], rows[r]
        for i in range(len(rows)):
            if i != r and (rows[i] >> col) & 1:
                rows[i] ^= rows[r]
        pivot_cols.append(col)
        r += 1
    return r, pivot_cols


def rank(m: BitMatrix) -> int:
    """GF(2) rank of m.  Empty matrices have rank 0."""
    work = list(m.rows)
    rk, _ = _eliminate(work, m.n_cols)
    return rk


def solve(m: BitMatrix, b: BitVector) -> Optional[BitVector]:
    """Solve m @ x = b over GF(2).

    Returns the canonical solution with every free variable fixed to 0
    under leftmost-pivot Gauss-Jordan elimination, or None when the system
    is inconsistent.  The output is deterministic for a given (m, b).
    """
    if b.length != m.n_rows:
        raise ValueError(
            f"right-hand side has length {b.length}, matrix has {m.n_rows} rows"
        )
    nc = m.n_cols
    work = [m.rows[i] | (((b.bits >> i) & 1) << nc) for i in range(m.n_rows)]
    rk, pivot_cols = _eliminate(work, nc)
    for i in range(rk, len(work)):
        # non-pivot rows are zero in the matrix columns; leftover bits mean
        # the augmented column is outside the column space
        if work[i]:
            return None
    x = 0
    for i, col in enumerate(pivot_cols):
        x |= ((work[i] >> nc) & 1) << col
    return BitVector(x, nc)

