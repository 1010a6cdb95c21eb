"""Property tests on graphs drawn by hypothesis.

The graphs are arbitrary ones of order at most 10, and seeded G(n, 1/2)
of order at most 14.  derandomize=True makes every run draw the same
examples, so these tests are as deterministic as the rest of the suite.
Half of the arbitrary graphs are twin blow-ups, where the scans cover
fewer vertices than the graph has.  Disjoint unions of two of them are
what the default engine solves part by part.  Graphs of even order with
an invertible balanced cut check the information-set kernel against the
whole-graph ones.  Local complementation is deliberately
not among the properties: kappa, kappa' and kappa_Q all change under it.
"""
from __future__ import annotations

import networkx as nx
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import full_width, odd_set, twin_blowup
from wodkit import (
    Graph,
    complement,
    disjoint_union,
    kappa,
    kappa_bounds,
    kappa_prime,
    kappa_q,
    parse_graph6,
    power,
    random_graph,
    write_graph6,
)
from wodkit import solvers

DETERMINISTIC = settings(derandomize=True, database=None, deadline=None)


@st.composite
def plain_graphs(draw, min_n=1, max_n=10):
    n = draw(st.integers(min_n, max_n))
    pairs = [(i, j) for j in range(n) for i in range(j)]
    edges = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return Graph.from_edges(n, [e for e, on in zip(pairs, edges) if on])


@st.composite
def blowups(draw):
    base = draw(plain_graphs(max_n=6))
    sizes = draw(st.lists(st.integers(1, 3), min_size=base.n, max_size=base.n))
    assume(sum(sizes) <= 10)
    true_twins = draw(st.lists(st.booleans(), min_size=base.n, max_size=base.n))
    order = draw(st.permutations(range(sum(sizes))))
    return twin_blowup(base, sizes, true_twins, order)


graphs = st.one_of(plain_graphs(), blowups())
seeded_graphs = st.builds(random_graph, st.integers(1, 14), st.integers(0, 10**6))


def solved(res):
    """(kappa, its witness mask, kappa', its witness mask) of a kappa_q result."""
    return (res.kappa.value, res.kappa.witness.mask,
            res.kappa_prime.value, res.kappa_prime.witness.mask)


@DETERMINISTIC
@given(graphs)
def test_engines_agree_on_values_and_witnesses(g):
    # order <= 10 fits in one table block, so workers=2 starts no pool
    want = full_width(g)
    for kwargs in ({"engine": "pure"}, {"engine": "numpy"},
                   {"engine": "numpy", "workers": 2}):
        assert solved(kappa_q(g, **kwargs)) == want, kwargs


@DETERMINISTIC
@given(seeded_graphs)
def test_pure_matches_numpy_on_seeded_graphs(g):
    # the fused layered pass, and kappa and kappa' each on their own
    pure, table = kappa_q(g, engine="pure"), kappa_q(g, engine="numpy")
    assert solved(pure) == solved(table)
    assert kappa(g, engine="pure") == table.kappa
    assert kappa_prime(g, engine="pure") == table.kappa_prime


even_graphs = st.one_of(
    st.integers(1, 5).flatmap(lambda h: plain_graphs(min_n=2 * h, max_n=2 * h)),
    st.builds(random_graph, st.sampled_from((8, 10, 12, 14)), st.integers(0, 10**6)),
)


@DETERMINISTIC
@given(even_graphs)
def test_infoset_scan_matches_the_whole_graph_kernels(g):
    # over the cut _find_cut finds, where it finds one
    cut = solvers._find_cut(g.adj)
    assume(cut)
    ub = kappa_bounds(g)[1]
    assert solvers._infoset_scan(g.adj, g.n, ub, True, cut, g.n // 2) == full_width(g)


@DETERMINISTIC
@given(graphs, st.integers(2, 3))
def test_copies_scale_kappa_and_keep_kappa_prime(g, r):
    assume(r * g.n <= 20)
    gr = power(g, r)
    assert kappa(gr, engine="numpy").value == r * kappa(g).value
    assert kappa_prime(gr, engine="numpy").value == kappa_prime(g).value


@DETERMINISTIC
@given(graphs)
def test_kappa_prime_plus_complement_kappa_at_least_n(g):
    assert kappa_prime(g).value + kappa(complement(g)).value >= g.n


def relabel(g, perm):
    return Graph.from_edges(g.n, [(perm[u], perm[v]) for u, v in g.edges()])


@DETERMINISTIC
@given(st.data())
def test_relabelling_keeps_values(data):
    g = data.draw(graphs)
    h = relabel(g, data.draw(st.permutations(range(g.n))))
    assert kappa(h).value == kappa(g).value
    assert kappa_prime(h).value == kappa_prime(g).value


@DETERMINISTIC
@given(st.data())
def test_union_adds_kappa_and_keeps_the_least_kappa_prime(data):
    # auto solves the union part by part; the parts' own solves may not
    g, h = data.draw(graphs), data.draw(graphs)
    assume(g.n + h.n <= 16)
    u = relabel(disjoint_union(g, h), data.draw(st.permutations(range(g.n + h.n))))
    assert kappa(u).value == kappa(g).value + kappa(h).value
    assert kappa_prime(u).value == min(kappa_prime(g).value, kappa_prime(h).value)


@DETERMINISTIC
@given(plain_graphs(max_n=8))
def test_kappa_prime_is_n_minus_the_complements_odd_maximum(g):
    # for odd C, |C u Odd(C)| = n - |Odd'(C) \ C| with Odd' in the
    # complement; checked against a set-based scan of every odd C
    co = complement(g)
    odd_max = max(
        len(odd_set(co, c) - c)
        for c in ({v for v in range(g.n) if m >> v & 1} for m in range(1 << g.n))
        if len(c) % 2
    )
    assert kappa_prime(g).value == g.n - odd_max


@DETERMINISTIC
@given(plain_graphs(min_n=0, max_n=62))
def test_graph6_round_trip_against_networkx(g):
    text = write_graph6(g)
    theirs = nx.from_graph6_bytes(text.encode())
    assert sorted(theirs.nodes) == list(range(g.n))
    assert sorted(tuple(sorted(e)) for e in theirs.edges) == g.edges()
    mine = nx.Graph()
    mine.add_nodes_from(range(g.n))
    mine.add_edges_from(g.edges())
    encoded = nx.to_graph6_bytes(mine, header=False)
    assert encoded == (text + "\n").encode()
    assert parse_graph6(encoded.decode()) == g
