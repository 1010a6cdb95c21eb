"""Checks of the benchmark's oracle and inputs.

Run from the repository root:

    python3 -m pytest perfbench/tests -q

The oracle is checked against the definitions of kappa and kappa' by
double enumeration at n <= 8, against the paper's closed forms for the
complete multipartite graphs G_{p,q}, and against kappa(r.G) = r.kappa(G)
on disjoint copies.  The last tests pin the cache and the input generators
to what wodkit itself produces.
"""
from __future__ import annotations

import sys
from itertools import combinations
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import corpus  # noqa: E402
import oracle  # noqa: E402


def ones(x: int) -> int:
    return bin(x).count("1")


def odd(adj, c: int) -> int:
    return sum(1 << u for u in range(len(adj)) if ones(adj[u] & c) % 2)


def is_wod(adj, b: int) -> bool:
    """Some C outside B gives every vertex of B an odd number of C-neighbours."""
    rest = ((1 << len(adj)) - 1) & ~b
    c = rest
    while True:
        if odd(adj, c) & b == b:
            return True
        if c == 0:
            return False
        c = (c - 1) & rest


def definitional(adj) -> tuple[int, int]:
    """kappa = largest WOD set, kappa' = smallest non-WOD set."""
    sizes = {True: [], False: []}
    for b in range(1 << len(adj)):
        sizes[is_wod(adj, b)].append(ones(b))
    return max(sizes[True]), min(sizes[False])


def first_attainers(adj) -> tuple[int, int]:
    """Smallest C maximising |Odd(C) - C|; smallest odd D minimising |D + Odd(D)|."""
    n = len(adj)
    score = [ones(odd(adj, c) & ~c) for c in range(1 << n)]
    cover = [ones(odd(adj, d) | d) if ones(d) % 2 else n + 1 for d in range(1 << n)]
    return score.index(max(score)), cover.index(min(cover))


def from_edges(n, edges):
    adj = [0] * n
    for u, v in edges:
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    return tuple(adj)


def all_graphs(n):
    pairs = list(combinations(range(n), 2))
    for m in range(1 << len(pairs)):
        yield from_edges(n, [pairs[i] for i in range(len(pairs)) if m >> i & 1])


def cycle(n):
    return from_edges(n, [(i, (i + 1) % n) for i in range(n)])


SMALL = (
    [g for n in range(1, 5) for g in all_graphs(n)]
    + [corpus.gnp_half(n, seed) for n in range(5, 9) for seed in range(6)]
    + [cycle(n) for n in range(3, 9)]
    + [corpus.complete_multipartite(p, q) for p, q in ((2, 3), (3, 2), (2, 4), (4, 2))]
)


@pytest.mark.parametrize("adj", SMALL)
def test_values_match_the_definitions(adj):
    k, _, kp, _ = oracle.extremes(adj)
    assert (k, kp) == definitional(adj)


@pytest.mark.parametrize("adj", SMALL)
def test_witnesses_are_the_smallest_attainers(adj):
    _, km, _, kpm = oracle.extremes(adj)
    assert (km, kpm) == first_attainers(adj)


@pytest.mark.parametrize("p,q", [(p, q) for p in range(1, 9) for q in range(1, 9) if p * q <= 18])
def test_gpq_closed_forms(p, q):
    n = p * q
    want = (n - p, q) if q % 2 else (max(n - p, n - q), p + q - 1)
    k, _, kp, _ = oracle.extremes(corpus.complete_multipartite(p, q))
    assert (k, kp) == want


@pytest.mark.parametrize("adj", [cycle(5), corpus.complete_multipartite(1, 4),
                                 corpus.complete_multipartite(2, 3), corpus.gnp_half(6, 3)])
@pytest.mark.parametrize("r", [2, 3])
def test_kappa_adds_over_copies(adj, r):
    k, _, kp, _ = oracle.extremes(adj)
    rk, _, rkp, _ = oracle.extremes(corpus.disjoint_copies(adj, r))
    assert (rk, rkp) == (r * k, kp)


@pytest.mark.parametrize("adj", [corpus.gnp_half(n, s) for n in (4, 5, 6) for s in range(4)])
def test_parity_checks_split_every_set(adj):
    """Every B has a valid WOD certificate or a valid non-WOD one, never both."""
    n = len(adj)
    for b in range(1 << n):
        c_ok = any(oracle.wod_certificate_ok(adj, b, c) for c in range(1 << n))
        d_ok = any(oracle.non_wod_certificate_ok(adj, b, d) for d in range(1 << n))
        assert c_ok != d_ok
        assert c_ok == is_wod(adj, b)


def test_degree_bounds_bracket_the_values():
    for adj in SMALL:
        if not any(adj):
            continue
        k, _, kp, _ = oracle.extremes(adj)
        (klo, khi), (kplo, kphi) = oracle.degree_bounds(adj)
        assert klo <= k <= khi and kplo <= kp <= kphi


def test_cache_is_current_and_matches_a_fresh_build():
    cache = oracle.load_cache()
    fresh = oracle.build_cache()
    assert cache == fresh


def test_generators_reproduce_wodkit():
    from wodkit import graph, search

    for n, seed in ((18, 5), (24, 24_000), (48, 2**63 + 1)):
        assert corpus.gnp_half(n, seed) == graph.random_graph(n, seed).adj
    assert corpus.trial_seed(12345, 6) == search.trial_seed(12345, 6)
    for g6, _ in corpus.certify_inputs(1, graphs=3):
        g = graph.parse_graph6(g6)
        assert g.adj == corpus.from_graph6(g6)
        assert graph.write_graph6(g) == g6
