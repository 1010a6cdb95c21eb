"""Weak odd domination membership, certificates, and verification.

A set B is weakly odd dominated (WOD) when some C disjoint from B puts
every vertex of B in Odd(C).  Membership is polynomial: B is WOD exactly
when the GF(2) system  cut_matrix(V\\B) . x = 1  is solvable, where the
rows of that matrix are indexed by B and the columns by V\\B.  The
complementary characterization says B is non-WOD exactly when some odd-
cardinality D inside B keeps Odd(D) inside B; such a D falls out of the
stacked system (all-ones row over cut_matrix(B)) . d = (1, 0, ..., 0).

The two outcomes are mutually exclusive and exhaustive, and the rank
increment pi(B) in {0, 1} decides between them: one elimination of
cut_matrix(B) tells whether the all-ones row lies outside its row space.
"""
from __future__ import annotations

from typing import Optional

from .gf2 import BitMatrix, BitVector, _reduce, solve
from .graph import Graph, VertexSet, _odd_mask, _require_same_universe, cut_matrix

__all__ = [
    "is_wod",
    "pi",
    "wod_certificate",
    "non_wod_certificate",
    "verify_wod_certificate",
    "verify_non_wod_certificate",
    "is_wod_bruteforce",
    "BRUTEFORCE_LIMIT",
]

BRUTEFORCE_LIMIT = 25


def _wod_system(g: Graph, b: VertexSet) -> tuple[BitMatrix, BitVector, list[int]]:
    # cut matrix of V\B has rows indexed by B and columns by V\B
    outside = (~b).to_sorted_list()
    m = cut_matrix(g, ~b)
    return m, BitVector.ones(len(b)), outside


def _non_wod_system(g: Graph, b: VertexSet) -> BitMatrix:
    # all-ones row over cut_matrix(B); the top row sums |D|
    m = cut_matrix(g, b)
    return BitMatrix(((1 << m.n_cols) - 1,) + m.rows, m.n_cols)


def is_wod(g: Graph, b: VertexSet) -> bool:
    """True when some C disjoint from B has B inside Odd(C).

    Decided by solvability of the GF(2) cut system; the empty set is WOD
    and the full vertex set is not (for n >= 1).
    """
    _require_same_universe(g, b)
    m, ones, _ = _wod_system(g, b)
    return solve(m, ones) is not None


def pi(g: Graph, b: VertexSet) -> int:
    """Rank increment of stacking B's all-ones indicator row on cut_matrix(B).

    Always 0 or 1; equals 0 exactly when B is WOD.
    """
    _require_same_universe(g, b)
    m = cut_matrix(g, b)
    basis: list[tuple[int, int]] = []
    for row in m.rows:
        _reduce(basis, row, m.n_cols)
    return int(_reduce(basis, (1 << m.n_cols) - 1, m.n_cols) != 0)


def wod_certificate(g: Graph, b: VertexSet) -> Optional[VertexSet]:
    """Canonical dominating witness C for a WOD set B, else None.

    C is the solver's canonical solution (free variables zero) mapped back
    to vertex indices, so repeated runs return the same set.
    """
    _require_same_universe(g, b)
    m, ones, outside = _wod_system(g, b)
    x = solve(m, ones)
    if x is None:
        return None
    return VertexSet.from_indices(g.n, (outside[j] for j in range(len(outside)) if x[j]))


def non_wod_certificate(g: Graph, b: VertexSet) -> Optional[VertexSet]:
    """Canonical odd witness D for a non-WOD set B, else None.

    Solves the stacked system (all-ones row over cut_matrix(B)) . d = (1, 0...):
    the first row forces |D| odd, the rest force Odd(D) inside B.
    """
    _require_same_universe(g, b)
    members = b.to_sorted_list()
    stacked = _non_wod_system(g, b)
    x = solve(stacked, BitVector(1, stacked.n_rows))
    if x is None:
        return None
    return VertexSet.from_indices(g.n, (members[j] for j in range(len(members)) if x[j]))


def verify_wod_certificate(g: Graph, b: VertexSet, c: VertexSet) -> bool:
    """Pure predicate: C disjoint from B and every v in B sees C oddly.

    Recomputes neighbor parities vertex by vertex; shares no code with the
    solver path.
    """
    _require_same_universe(g, b)
    _require_same_universe(g, c)
    if b.mask & c.mask:
        return False
    for v in b:
        if (g.adj[v] & c.mask).bit_count() % 2 == 0:
            return False
    return True


def verify_non_wod_certificate(g: Graph, b: VertexSet, d: VertexSet) -> bool:
    """Pure predicate: D inside B, |D| odd, and Odd(D) inside B."""
    _require_same_universe(g, b)
    _require_same_universe(g, d)
    if d.mask & ~b.mask:
        return False
    if len(d) % 2 == 0:
        return False
    outside = ~b
    for u in outside:
        if (g.adj[u] & d.mask).bit_count() % 2 == 1:
            return False
    return True


def is_wod_bruteforce(g: Graph, b: VertexSet) -> bool:
    """Reference oracle: exhaust all C inside V\\B.

    Guarded to |V\\B| <= BRUTEFORCE_LIMIT since the scan is exponential.
    Used by tests to cross-check the linear-algebra path.
    """
    _require_same_universe(g, b)
    comp = ~b.mask & ((1 << g.n) - 1)
    free = comp.bit_count()
    if free > BRUTEFORCE_LIMIT:
        raise ValueError(
            f"complement has {free} vertices, brute force capped at {BRUTEFORCE_LIMIT}"
        )
    target = b.mask
    sub = comp
    while True:
        if target & ~_odd_mask(g.adj, sub) == 0:
            return True
        if sub == 0:
            return False
        sub = (sub - 1) & comp
