"""Simple undirected graphs on at most 62 vertices.

Vertices are 0-based integers.  Neighborhoods and vertex sets are packed
into machine-word bitmasks, which keeps every subset operation O(1) words
and makes exhaustive subset enumeration practical.  The order cap of 62
matches the single-byte size range of the graph6 format.

The graph6 codec follows the published format: one size byte (n + 63)
followed by the upper triangle of the adjacency matrix in column-major
order, six bits per byte, each byte offset by 63.
"""
from __future__ import annotations

import random
from typing import Iterable, Iterator

from ._record import Record, _set
from .gf2 import BitMatrix

__all__ = [
    "MAX_ORDER",
    "VertexSet",
    "Graph",
    "Graph6Error",
    "odd_neighborhood",
    "closed_odd_neighborhood",
    "is_odd_dominating_set",
    "complement",
    "disjoint_union",
    "power",
    "complete_multipartite",
    "random_graph",
    "cut_matrix",
    "max_degree",
    "min_degree",
    "parse_graph6",
    "write_graph6",
]

MAX_ORDER = 62


class VertexSet(Record):
    """Subset of {0, ..., universe-1} as a bitmask."""

    __slots__ = ("mask", "universe")
    mask: int
    universe: int

    def __init__(self, mask: int, universe: int) -> None:
        if not 0 <= universe <= MAX_ORDER:
            raise ValueError(f"universe {universe} outside [0, {MAX_ORDER}]")
        if mask < 0 or mask >> universe:
            raise ValueError("mask has bits outside the universe")
        _set(self, "mask", mask)
        _set(self, "universe", universe)

    @classmethod
    def empty(cls, universe: int) -> "VertexSet":
        return cls(0, universe)

    @classmethod
    def full(cls, universe: int) -> "VertexSet":
        return cls((1 << universe) - 1, universe)

    @classmethod
    def from_indices(cls, universe: int, indices: Iterable[int]) -> "VertexSet":
        mask = 0
        for v in indices:
            if not 0 <= v < universe:
                raise ValueError(f"vertex {v} outside universe {universe}")
            mask |= 1 << v
        return cls(mask, universe)

    def _check(self, other: "VertexSet") -> None:
        if self.universe != other.universe:
            raise ValueError("vertex sets over different universes")

    def __len__(self) -> int:
        return self.mask.bit_count()

    def __contains__(self, v: int) -> bool:
        return 0 <= v < self.universe and (self.mask >> v) & 1 == 1

    def __iter__(self) -> Iterator[int]:
        m = self.mask
        while m:
            low = m & -m
            yield low.bit_length() - 1
            m ^= low

    def __or__(self, other: "VertexSet") -> "VertexSet":
        self._check(other)
        return VertexSet(self.mask | other.mask, self.universe)

    def __and__(self, other: "VertexSet") -> "VertexSet":
        self._check(other)
        return VertexSet(self.mask & other.mask, self.universe)

    def __sub__(self, other: "VertexSet") -> "VertexSet":
        self._check(other)
        return VertexSet(self.mask & ~other.mask, self.universe)

    def __xor__(self, other: "VertexSet") -> "VertexSet":
        self._check(other)
        return VertexSet(self.mask ^ other.mask, self.universe)

    def __invert__(self) -> "VertexSet":
        return VertexSet(~self.mask & ((1 << self.universe) - 1), self.universe)

    def __le__(self, other: "VertexSet") -> bool:
        self._check(other)
        return self.mask & ~other.mask == 0

    def isdisjoint(self, other: "VertexSet") -> bool:
        self._check(other)
        return self.mask & other.mask == 0

    def to_sorted_list(self) -> list[int]:
        return list(self)


class Graph(Record):
    """Simple undirected graph: adj[v] is the neighborhood bitmask of v."""

    __slots__ = ("n", "adj")
    n: int
    adj: tuple[int, ...]

    def __init__(self, n: int, adj: tuple[int, ...]) -> None:
        if not 0 <= n <= MAX_ORDER:
            raise ValueError(f"order {n} outside [0, {MAX_ORDER}]")
        if len(adj) != n:
            raise ValueError("adjacency length does not match order")
        for v, row in enumerate(adj):
            if row < 0 or row >> n:
                raise ValueError(f"adjacency row {v} has bits outside the graph")
            if (row >> v) & 1:
                raise ValueError(f"loop at vertex {v}")
        for u in range(n):
            for v_ in range(u + 1, n):
                if ((adj[u] >> v_) & 1) != ((adj[v_] >> u) & 1):
                    raise ValueError(f"asymmetric adjacency between {u} and {v_}")
        _set(self, "n", n)
        _set(self, "adj", adj)

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[tuple[int, int]]) -> "Graph":
        adj = [0] * n
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u},{v}) outside graph of order {n}")
            if u == v:
                raise ValueError(f"loop at vertex {u}")
            adj[u] |= 1 << v
            adj[v] |= 1 << u
        return cls(n, tuple(adj))

    @classmethod
    def empty(cls, n: int) -> "Graph":
        return cls(n, (0,) * n)

    def degree(self, v: int) -> int:
        return self.adj[v].bit_count()

    def neighbors(self, v: int) -> VertexSet:
        return VertexSet(self.adj[v], self.n)

    def vertex_set(self) -> VertexSet:
        return VertexSet.full(self.n)

    def edges(self) -> list[tuple[int, int]]:
        out = []
        for u in range(self.n):
            m = self.adj[u] >> (u + 1)
            v = u + 1
            while m:
                if m & 1:
                    out.append((u, v))
                m >>= 1
                v += 1
        return out

    def edge_count(self) -> int:
        return sum(r.bit_count() for r in self.adj) // 2

    def has_edge(self, u: int, v: int) -> bool:
        return (self.adj[u] >> v) & 1 == 1

    def is_regular(self) -> bool:
        if self.n == 0:
            return True
        d = self.degree(0)
        return all(self.degree(v) == d for v in range(self.n))

    def degree_sequence(self) -> list[int]:
        return sorted(self.degree(v) for v in range(self.n))


def _require_same_universe(g: Graph, s: VertexSet) -> None:
    if s.universe != g.n:
        raise ValueError(
            f"vertex set over universe {s.universe} used with graph of order {g.n}"
        )


def _odd_mask(adj: tuple[int, ...], mask: int) -> int:
    """Odd(C) as a bitmask: the XOR of adj[v] over the bits v of mask."""
    acc = 0
    m = mask
    while m:
        low = m & -m
        acc ^= adj[low.bit_length() - 1]
        m ^= low
    return acc


def _neighbor_prefix(adj: tuple[int, ...]) -> list[int]:
    # pre[r] = adj[0] ^ ... ^ adj[r]; stepping mask i-1 -> i flips the low
    # run of i, so Odd updates by exactly pre[trailing_zeros(i)]
    pre = []
    acc = 0
    for a in adj:
        acc ^= a
        pre.append(acc)
    return pre


def odd_neighborhood(g: Graph, c: VertexSet) -> VertexSet:
    """Odd(C): vertices with an odd number of neighbors in C.

    Equals the symmetric difference of N(v) over v in C.
    """
    _require_same_universe(g, c)
    return VertexSet(_odd_mask(g.adj, c.mask), g.n)


def closed_odd_neighborhood(g: Graph, c: VertexSet) -> VertexSet:
    """Odd[C]: vertices v with |N[v] n C| odd, N[v] the closed neighborhood.

    Equals Odd(C) xor C, since each member of C contributes itself once.
    """
    _require_same_universe(g, c)
    return VertexSet(odd_neighborhood(g, c).mask ^ c.mask, g.n)


def is_odd_dominating_set(g: Graph, c: VertexSet) -> bool:
    """True when Odd[C] covers every vertex."""
    return closed_odd_neighborhood(g, c).mask == (1 << g.n) - 1


def complement(g: Graph) -> Graph:
    full = (1 << g.n) - 1
    return Graph(g.n, tuple((~g.adj[v] & full) & ~(1 << v) for v in range(g.n)))


def disjoint_union(g: Graph, h: Graph) -> Graph:
    n = g.n + h.n
    if n > MAX_ORDER:
        raise ValueError(f"combined order {n} exceeds {MAX_ORDER}")
    adj = list(g.adj) + [row << g.n for row in h.adj]
    return Graph(n, tuple(adj))


def power(g: Graph, r: int) -> Graph:
    """Disjoint union of r copies of g."""
    if r < 1:
        raise ValueError(f"power requires r >= 1, got {r}")
    out = g
    for _ in range(r - 1):
        out = disjoint_union(out, g)
    return out


def complete_multipartite(p: int, q: int) -> Graph:
    """G_{p,q}: q independent parts of size p, all cross-part edges present.

    Part i occupies vertex indices [i*p, (i+1)*p).
    """
    if p < 1 or q < 1:
        raise ValueError(f"parts require p >= 1 and q >= 1, got p={p} q={q}")
    n = p * q
    if n > MAX_ORDER:
        raise ValueError(f"order {n} exceeds {MAX_ORDER}")
    full = (1 << n) - 1
    adj = []
    for v in range(n):
        part = v // p
        part_mask = ((1 << p) - 1) << (part * p)
        adj.append(full & ~part_mask)
    return Graph(n, tuple(adj))


def random_graph(n: int, seed: int) -> Graph:
    """Erdos-Renyi G(n, 1/2) from a deterministic seeded generator.

    Each unordered pair (i, j), i < j, taken in ascending (i, j) order,
    draws one bit from random.Random(seed).getrandbits(1).  The generator
    and the draw order are part of the contract: same (n, seed) always
    yields the same graph.
    """
    if not 0 <= n <= MAX_ORDER:
        raise ValueError(f"order {n} outside [0, {MAX_ORDER}]")
    rng = random.Random(seed)
    adj = [0] * n
    for i in range(n):
        for j in range(i + 1, n):
            if rng.getrandbits(1):
                adj[i] |= 1 << j
                adj[j] |= 1 << i
    return Graph(n, tuple(adj))


def cut_matrix(g: Graph, b: VertexSet) -> BitMatrix:
    """Cut matrix of B: rows are V \\ B ascending, columns are B ascending.

    Entry (u, v) = 1 iff uv is an edge.  The cut matrix of V \\ B is the
    transpose of the cut matrix of B.
    """
    _require_same_universe(g, b)
    cols = b.to_sorted_list()
    rows = []
    outside = ~b.mask & ((1 << g.n) - 1)
    m = outside
    while m:
        low = m & -m
        u = low.bit_length() - 1
        m ^= low
        row = 0
        for j, v in enumerate(cols):
            row |= ((g.adj[u] >> v) & 1) << j
        rows.append(row)
    return BitMatrix(tuple(rows), len(cols))


def max_degree(g: Graph) -> int:
    if g.n == 0:
        raise ValueError("degree of the empty graph is undefined")
    return max(r.bit_count() for r in g.adj)


def min_degree(g: Graph) -> int:
    if g.n == 0:
        raise ValueError("degree of the empty graph is undefined")
    return min(r.bit_count() for r in g.adj)


class Graph6Error(ValueError):
    """Malformed graph6 input; `offset` is the byte position of the fault."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (byte offset {offset})")
        self.offset = offset


def _triangle_pairs(n: int) -> Iterator[tuple[int, int]]:
    # upper triangle, column-major: (0,1), (0,2), (1,2), (0,3), ...
    for j in range(1, n):
        for i in range(j):
            yield i, j


def parse_graph6(text: str) -> Graph:
    """Decode one graph6-encoded graph of order at most 62.

    Trailing line breaks are stripped, any run of "\\n" and "\\r", since a
    file may end in blank lines.  Any other deviation, trailing spaces
    included, raises Graph6Error naming the byte offset of the offending
    byte.
    """
    s = text
    while s.endswith("\n") or s.endswith("\r"):
        s = s[:-1]
    if not s:
        raise Graph6Error("empty graph6 input", 0)
    c0 = ord(s[0])
    if c0 == 126:
        raise Graph6Error("multi-byte order encoding exceeds the 62-vertex cap", 0)
    if not 63 <= c0 <= 63 + MAX_ORDER:
        raise Graph6Error(f"invalid size byte {s[0]!r}", 0)
    n = c0 - 63
    nbits = n * (n - 1) // 2
    nbytes = (nbits + 5) // 6
    if len(s) - 1 < nbytes:
        raise Graph6Error(
            f"truncated bit stream, expected {nbytes} data bytes", len(s)
        )
    if len(s) - 1 > nbytes:
        raise Graph6Error("trailing data after graph encoding", 1 + nbytes)
    adj = [0] * n
    pairs = _triangle_pairs(n)
    k = 0
    for idx in range(nbytes):
        c = ord(s[1 + idx])
        if not 63 <= c <= 126:
            raise Graph6Error(f"invalid data byte {s[1 + idx]!r}", 1 + idx)
        group = c - 63
        for bitpos in range(5, -1, -1):
            bit = (group >> bitpos) & 1
            if k < nbits:
                if bit:
                    i, j = next(pairs)
                    adj[i] |= 1 << j
                    adj[j] |= 1 << i
                else:
                    next(pairs)
            elif bit:
                raise Graph6Error("nonzero padding bits", 1 + idx)
            k += 1
    return Graph(n, tuple(adj))


def write_graph6(g: Graph) -> str:
    """Encode a graph in canonical graph6 form (no trailing newline)."""
    out = [chr(g.n + 63)]
    group = 0
    filled = 0
    for i, j in _triangle_pairs(g.n):
        group = (group << 1) | ((g.adj[i] >> j) & 1)
        filled += 1
        if filled == 6:
            out.append(chr(group + 63))
            group = 0
            filled = 0
    if filled:
        group <<= 6 - filled
        out.append(chr(group + 63))
    return "".join(out)
