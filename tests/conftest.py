"""Shared set-based reference oracles, and graphs full of twins.

The oracles recompute definitions with plain Python sets and itertools
enumeration, deliberately sharing no representation tricks with the
package (no bitmask XOR, no incremental updates), so agreement is a
genuine cross-check rather than the same code twice.  twin_blowup builds
graphs whose twin classes interleave in the labels, and full_width runs
the package's own kernels on every vertex, the reference for the scans
that cover one vertex per twin class.
"""
from __future__ import annotations

from functools import cache
from itertools import combinations

from wodkit import Graph, _table, kappa_bounds, solvers


def neighbor_sets(g: Graph) -> list[set[int]]:
    return [{u for u in range(g.n) if g.has_edge(u, v)} for v in range(g.n)]


def odd_set(g: Graph, c: set[int]) -> set[int]:
    nbrs = neighbor_sets(g)
    return {u for u in range(g.n) if len(nbrs[u] & c) % 2 == 1}


def closed_odd_set(g: Graph, c: set[int]) -> set[int]:
    nbrs = neighbor_sets(g)
    return {u for u in range(g.n) if len((nbrs[u] | {u}) & c) % 2 == 1}


def is_wod_oracle(g: Graph, b: set[int]) -> bool:
    rest = sorted(set(range(g.n)) - b)
    for r in range(len(rest) + 1):
        for c in combinations(rest, r):
            if b <= odd_set(g, set(c)):
                return True
    return False


def kappa_oracle(g: Graph) -> tuple[int, int]:
    """(value, smallest attaining mask) by ascending full enumeration."""
    best_v, best_m = -1, 0
    for m in range(1 << g.n):
        c = {i for i in range(g.n) if m >> i & 1}
        v = len(odd_set(g, c) - c)
        if v > best_v:
            best_v, best_m = v, m
    return best_v, best_m


def kappa_prime_oracle(g: Graph) -> tuple[int, int]:
    """(value, smallest attaining mask) over odd-cardinality D."""
    best_v, best_m = g.n + 1, 0
    for m in range(1, 1 << g.n):
        d = {i for i in range(g.n) if m >> i & 1}
        if len(d) % 2 == 0:
            continue
        v = len(d | odd_set(g, d))
        if v < best_v:
            best_v, best_m = v, m
    return best_v, best_m


@cache
def profile_oracle(g: Graph) -> tuple[int, int, int, int, int, int]:
    """The parity profile of g by ascending full enumeration.

    (even max, mask, odd max, mask, odd min, mask): the largest
    |Odd(C) \\ C| over even |C|, the empty set included, and over odd |C|,
    and the smallest |C u Odd(C)| over odd |C|, each with its smallest
    attaining mask.  Cached, as TestLayeredScan asks twice for each graph.
    """
    nbrs = neighbor_sets(g)
    ev, em, ov, om, wv, wm = -1, 0, -1, 0, g.n + 1, 0
    for m in range(1 << g.n):
        c = {i for i in range(g.n) if m >> i & 1}
        odd = {u for u in range(g.n) if len(nbrs[u] & c) % 2 == 1}
        v = len(odd - c)
        if len(c) % 2 == 0:
            if v > ev:
                ev, em = v, m
            continue
        if v > ov:
            ov, om = v, m
        if len(c | odd) < wv:
            wv, wm = len(c | odd), m
    return ev, em, ov, om, wv, wm


def all_labeled_graphs(n: int):
    pairs = list(combinations(range(n), 2))
    for mask in range(1 << len(pairs)):
        yield Graph.from_edges(
            n, (pairs[i] for i in range(len(pairs)) if mask >> i & 1)
        )


def twin_blowup(g: Graph, sizes, true_twins, order) -> Graph:
    """g with vertex v replaced by a class of sizes[v] twins.

    The class is a clique of true twins where true_twins[v] holds, else an
    independent set of false twins.  Class members of g's vertices take the
    labels order[0], order[1], ... in turn, so classes interleave.
    """
    members, k = [], 0
    for size in sizes:
        members.append([order[k + i] for i in range(size)])
        k += size
    edges = set()
    for v in range(g.n):
        if true_twins[v]:
            edges.update(combinations(members[v], 2))
        for u in range(v):
            if g.has_edge(u, v):
                edges.update((a, b) for a in members[u] for b in members[v])
    return Graph.from_edges(k, edges)


def full_width(g: Graph) -> tuple[int, int, int, int]:
    """(kappa, its witness mask, kappa', its witness mask) of g.

    They come from kernel calls on every row of g, and the layered pure
    pass and the table kernel must agree on them.
    """
    ub = kappa_bounds(g)[1]
    got = solvers._layered_scan(g.adj, g.n, ub, True)
    assert _table._table_scan(g.adj, g.n, ub, True, None) == got
    return got
