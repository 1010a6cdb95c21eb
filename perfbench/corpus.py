"""Deterministic inputs for the benchmark workloads, built without wodkit.

A graph here is a tuple of neighbour bitmasks (bit u of adj[v] set when uv
is an edge), the same layout wodkit uses, so inputs pass between the two
as graph6 text.  Everything the benchmark checks wodkit against starts in
this file or in oracle.py; neither imports solvers.py.

The G(n, 1/2) generator and trial_seed follow the behaviour documented in
wodkit.graph.random_graph and wodkit.search.trial_seed, so the benchmark
can rebuild the graph behind any search trial on its own.
"""
from __future__ import annotations

import random

MASK64 = (1 << 64) - 1

SEARCH_N = 18
CERTIFY_N = 48
CERTIFY_GRAPHS = 32
CERTIFY_QUERIES = 48
EXACT_N = 24
EXACT_RANDOM_SEEDS = tuple(24_000 + i for i in range(8))
CLI_RANDOM_ORDERS = (12, 14, 16)
# seeds of the untimed warm-up inputs; no --seed reaches them
WARMUP_SEED = 1 << 40


def trial_seed(base_seed: int, index: int) -> int:
    z = (base_seed * 0x9E3779B97F4A7C15 + index * 0xBF58476D1CE4E5B9) & MASK64
    z ^= z >> 30
    z = (z * 0xBF58476D1CE4E5B9) & MASK64
    z ^= z >> 27
    z = (z * 0x94D049BB133111EB) & MASK64
    z ^= z >> 31
    return z


def gnp_half(n: int, seed: int) -> tuple[int, ...]:
    """G(n, 1/2): one getrandbits(1) per pair (i, j), i < j, ascending."""
    rng = random.Random(seed)
    adj = [0] * n
    for i in range(n):
        for j in range(i + 1, n):
            if rng.getrandbits(1):
                adj[i] |= 1 << j
                adj[j] |= 1 << i
    return tuple(adj)


def complete_multipartite(p: int, q: int) -> tuple[int, ...]:
    """q independent parts of size p, every cross-part pair an edge."""
    n = p * q
    full = (1 << n) - 1
    return tuple(full & ~(((1 << p) - 1) << (v // p * p)) for v in range(n))


def disjoint_copies(adj: tuple[int, ...], r: int) -> tuple[int, ...]:
    n = len(adj)
    return tuple(row << (k * n) for k in range(r) for row in adj)


def complement(adj: tuple[int, ...]) -> tuple[int, ...]:
    full = (1 << len(adj)) - 1
    return tuple(full & ~row & ~(1 << v) for v, row in enumerate(adj))


def _pairs(n: int):
    # graph6 bit order: upper triangle, column by column
    for j in range(1, n):
        for i in range(j):
            yield i, j


def to_graph6(adj: tuple[int, ...]) -> str:
    n = len(adj)
    bits = [(adj[i] >> j) & 1 for i, j in _pairs(n)]
    bits += [0] * (-len(bits) % 6)
    out = [chr(n + 63)]
    for k in range(0, len(bits), 6):
        group = 0
        for b in bits[k:k + 6]:
            group = (group << 1) | b
        out.append(chr(group + 63))
    return "".join(out)


def from_graph6(text: str) -> tuple[int, ...]:
    n = ord(text[0]) - 63
    bits = []
    for ch in text[1:]:
        group = ord(ch) - 63
        bits.extend((group >> s) & 1 for s in range(5, -1, -1))
    adj = [0] * n
    for (i, j), b in zip(_pairs(n), bits):
        if b:
            adj[i] |= 1 << j
            adj[j] |= 1 << i
    return tuple(adj)


def search_base_seed(seed: int, index: int) -> int:
    """Base seed of the index-th search-n18 operation of a run."""
    return trial_seed(seed, 1_000_000 + index)


def exact_family_graphs(cubic8: list[str]) -> list[tuple[str, tuple[int, ...]]]:
    """The structured part of the exact-n24 corpus, complements included.

    cubic8 holds the graph6 of the cubic order-8 fixtures.  Graphs that
    appear twice (the complement of K24 is G_{24,1}) are kept once.
    """
    base = [(f"G_{p},{EXACT_N // p}", complete_multipartite(p, EXACT_N // p))
            for p in (1, 2, 3, 4, 6, 8, 12, 24)]
    base += [(f"3x{g6}", disjoint_copies(from_graph6(g6), 3)) for g6 in cubic8]
    out, seen = [], set()
    for name, adj in base + [("co-" + nm, complement(a)) for nm, a in base]:
        if adj not in seen:
            seen.add(adj)
            out.append((name, adj))
    return out


def exact_random_graphs() -> list[tuple[str, tuple[int, ...]]]:
    return [(f"G(24,1/2)#{s}", gnp_half(EXACT_N, s)) for s in EXACT_RANDOM_SEEDS]


def round_order(size: int, seed: int, rnd: int) -> list[int]:
    """Seeded visiting order of a fixed corpus in round rnd."""
    order = list(range(size))
    random.Random(trial_seed(seed, rnd)).shuffle(order)
    return order


def certify_inputs(seed: int, graphs: int = CERTIFY_GRAPHS) -> list[tuple[str, list[int]]]:
    """(graph6 of a G(48, 1/2), query masks B) per operation of one round.

    Each B has a size drawn uniformly from 1..47, then a uniform subset of
    that size, so about half the queries are WOD.
    """
    rng = random.Random(trial_seed(seed, 7))
    out = []
    for _ in range(graphs):
        adj = gnp_half(CERTIFY_N, rng.getrandbits(64))
        queries = []
        for _ in range(CERTIFY_QUERIES):
            size = rng.randint(1, CERTIFY_N - 1)
            mask = 0
            for v in rng.sample(range(CERTIFY_N), size):
                mask |= 1 << v
            queries.append(mask)
        out.append((to_graph6(adj), queries))
    return out


def cli_random_graph(seed: int, rnd: int) -> tuple[int, ...]:
    """The seeded small random graph of cli-small round rnd."""
    n = CLI_RANDOM_ORDERS[rnd % len(CLI_RANDOM_ORDERS)]
    return gnp_half(n, trial_seed(seed, 2_000_000 + rnd))
