"""GF(2) rank and linear solving over word-packed bit rows.

Vectors and matrix rows are Python integers used as bitsets: bit i of a row
is the entry in column i.  Everything a caller can observe is immutable.
_reduce is wodkit's one elimination routine: rank, solve, wod.pi and the
solvers' cut search (_find_cut, _unit_sources) all run on it.
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


def _reduce(basis: list[tuple[int, int]], row: int, width: int) -> int:
    """Reduce row against basis; it joins basis if nonzero below bit width.

    basis holds (pivot bit, row) pairs, each pivot the low bit of its row
    and in no other row.  A joining row's pivot is cleared from the rest.
    Bits from width up ride along as tags or as the augmented column.
    Returns the reduced row.
    """
    for bit, prow in basis:
        if row & bit:
            row ^= prow
    if row & ((1 << width) - 1):
        bit = row & -row
        for i, (b, prow) in enumerate(basis):
            if prow & bit:
                basis[i] = (b, prow ^ row)
        basis.append((bit, row))
    return row


def rank(m: BitMatrix) -> int:
    """GF(2) rank of m.  Empty matrices have rank 0."""
    basis: list[tuple[int, int]] = []
    for row in m.rows:
        _reduce(basis, row, m.n_cols)
    return len(basis)


def solve(m: BitMatrix, b: BitVector) -> Optional[BitVector]:
    """Solve m @ x = b over GF(2).

    Returns the canonical solution, zero on every free column (one in the
    span of the columns before it), or None when the system is
    inconsistent: some row [m_i | b_i] reduces to the augmented bit alone.
    The basis is then the unique reduced echelon form of m's row space,
    and x is the pivot bits of the rows with the augmented bit set.
    """
    if b.length != m.n_rows:
        raise ValueError(
            f"right-hand side has length {b.length}, matrix has {m.n_rows} rows"
        )
    nc = m.n_cols
    aug = 1 << nc
    basis: list[tuple[int, int]] = []
    for i, row in enumerate(m.rows):
        if _reduce(basis, row | ((b.bits >> i) & 1) << nc, nc) == aug:
            return None
    x = 0
    for bit, row in basis:
        if row & aug:
            x |= bit
    return BitVector(x, nc)
