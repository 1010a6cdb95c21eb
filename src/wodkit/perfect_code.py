"""Perfect codes and their ties to the extremal WOD quantities.

A perfect code is an independent set C such that every vertex outside C
has exactly one neighbor in C; equivalently, the closed neighborhoods
N[c] = N(c) | {c} of its members partition the vertex set.  One exact-cover
search over closed neighborhoods finds the smallest code, optionally with
its members restricted to a vertex subset.  Two equivalences connect codes
to the solvers: kappa(G) meets its degree upper bound n*Delta/(Delta+1)
exactly when G has a perfect code of maximum-degree vertices, and for a
delta-regular graph with n/(n-delta) odd, kappa'(G) meets its lower bound
n/(n-delta) exactly when the complement graph has a perfect code.  The K4
gadget turns perfect-code existence in a cubic graph into a kappa' target
on a complement graph.
"""
from __future__ import annotations

from typing import Optional

from ._record import Record, _set
from .graph import (
    Graph,
    VertexSet,
    _require_same_universe,
    complement,
    complete_multipartite,
    disjoint_union,
    max_degree,
    min_degree,
)
from .solvers import DEFAULT_CAP, _check_cap, kappa, kappa_prime

__all__ = [
    "PerfectCode",
    "PreconditionError",
    "is_perfect_code",
    "find_perfect_code",
    "check_kappa_equality",
    "check_kappa_prime_equality",
    "k4_gadget_reduction",
]


class PreconditionError(ValueError):
    """An operation's structural precondition does not hold for this graph."""


class PerfectCode(Record):
    __slots__ = ("code",)
    code: VertexSet

    def __init__(self, code: VertexSet) -> None:
        _set(self, "code", code)


def is_perfect_code(g: Graph, c: VertexSet) -> bool:
    """True when c is independent and covers every outside vertex exactly once."""
    _require_same_universe(g, c)
    for v in c:
        if g.adj[v] & c.mask:
            return False
    for v in ~c:
        if (g.adj[v] & c.mask).bit_count() != 1:
            return False
    return True


def _smallest_code(g: Graph, allowed: int) -> Optional[int]:
    """Mask of the smallest perfect code with every member in allowed, or None.

    C is a perfect code exactly when the closed neighborhoods N[c] =
    N(c) | {c} of its members partition V: disjoint closed neighborhoods
    make C independent and give each outside vertex at most one neighbor
    in C, and covering V gives it at least one.  So the search is an exact
    cover by closed neighborhoods.  The lowest vertex u that the chosen
    members do not cover yet must be covered by exactly one member c of
    N[u] & allowed whose N[c] misses everything already covered; the search
    branches on each such c in ascending order.  Every code in allowed is
    reached along exactly one branch, because each choice is forced by u.

    A partial code only gains bits further down, so every code that extends
    it is at least its mask.  A branch whose partial mask is already at
    least the best complete code cannot lead to a smaller one and is cut,
    and the code left in best at the end is the smallest.  Each level adds
    one member, so the recursion is at most |C| <= n <= 62 deep.
    """
    full = (1 << g.n) - 1
    closed = [g.adj[v] | 1 << v for v in range(g.n)]
    best: Optional[int] = None

    def extend(code: int, covered: int) -> None:
        nonlocal best
        if covered == full:
            best = code
            return
        u = ((covered + 1) & ~covered).bit_length() - 1  # lowest uncovered
        cands = closed[u] & allowed & ~covered
        while cands:
            low = cands & -cands
            cands ^= low
            c = low.bit_length() - 1
            # c is uncovered, so not in code, and code | low grows with c
            if best is not None and code | low >= best:
                return
            if not closed[c] & covered:
                extend(code | low, covered | closed[c])

    extend(0, 0)
    return best


def find_perfect_code(g: Graph, *, cap: int = DEFAULT_CAP) -> Optional[PerfectCode]:
    """Lexicographically smallest perfect code, or None.

    The code is the smallest set of vertices whose closed neighborhoods
    partition V, found by `_smallest_code` with every vertex allowed.
    """
    _check_cap(g.n, cap)
    mask = _smallest_code(g, (1 << g.n) - 1)
    return None if mask is None else PerfectCode(VertexSet(mask, g.n))


def check_kappa_equality(g: Graph, *, cap: int = DEFAULT_CAP) -> bool:
    """Evaluate both sides of the kappa upper-bound equality independently.

    Left side: kappa(G) == n*Delta/(Delta+1) (as exact rationals).  Right
    side: G has a perfect code whose members all have degree Delta, that
    is, the closed neighborhoods of some degree-Delta vertices partition V.
    The two sides are computed by unrelated search routines; the function
    reports whether the biconditional holds, which it must for every graph.
    """
    if g.n < 1:
        raise ValueError("equality check requires at least one vertex")
    _check_cap(g.n, cap)
    delta = max_degree(g)
    lhs = kappa(g, cap=cap).value * (delta + 1) == g.n * delta
    full_degree = sum(1 << v for v in range(g.n) if g.degree(v) == delta)
    rhs = _smallest_code(g, full_degree) is not None
    return lhs == rhs


def check_kappa_prime_equality(g: Graph, *, cap: int = DEFAULT_CAP) -> bool:
    """Evaluate both sides of the kappa' lower-bound equality independently.

    Requires a delta-regular graph with n/(n-delta) an odd integer; other
    inputs raise PreconditionError.  Left side: kappa'(G) == n/(n-delta).
    Right side: the complement graph has a perfect code.
    """
    if g.n < 1:
        raise ValueError("equality check requires at least one vertex")
    _check_cap(g.n, cap)
    if not g.is_regular():
        raise PreconditionError("graph is not regular")
    delta = min_degree(g)
    if g.n % (g.n - delta) != 0:
        raise PreconditionError(
            f"n/(n-delta) = {g.n}/{g.n - delta} is not an integer"
        )
    ratio = g.n // (g.n - delta)
    if ratio % 2 == 0:
        raise PreconditionError(f"n/(n-delta) = {ratio} is even")
    lhs = kappa_prime(g, cap=cap).value == ratio
    rhs = find_perfect_code(complement(g), cap=cap) is not None
    return lhs == rhs


def k4_gadget_reduction(g: Graph) -> tuple[Graph, int]:
    """Reduce perfect-code existence in a cubic graph to a kappa' target.

    Returns (H, t) such that g has a perfect code iff kappa'(H) = t.  When
    n/4 is odd, H is the plain complement and t = n/4; when n/4 is even, a
    disjoint K4 is added first (it always carries a perfect code and flips
    the parity of the count), giving t = n/4 + 1.  Cubic graphs with n not
    divisible by 4 cannot have a perfect code at all, so they are rejected
    instead of being given a meaningless target.
    """
    if g.n < 1:
        raise PreconditionError("empty graph is not 3-regular")
    if any(g.degree(v) != 3 for v in range(g.n)):
        raise PreconditionError("graph is not 3-regular")
    if g.n % 4 != 0:
        raise PreconditionError(
            f"a perfect code in a cubic graph has size n/4, impossible for n={g.n}"
        )
    quarter = g.n // 4
    if quarter % 2 == 1:
        return complement(g), quarter
    k4 = complete_multipartite(1, 4)
    return complement(disjoint_union(g, k4)), quarter + 1
