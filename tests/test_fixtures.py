from __future__ import annotations

import pytest

from wodkit import kappa, kappa_prime, parse_graph6, write_graph6
from wodkit.fixtures import (
    CUBIC_GRAPH6,
    CUBIC_ORDERS,
    FIXTURE_NAMES,
    all_cubic_graphs,
    cubic_graphs,
    cycle,
    k4,
    k33,
    named_fixture,
    petersen,
    prism,
    q3,
)


class TestNamedGraphs:
    def test_petersen_shape(self):
        g = petersen()
        assert g.n == 10
        assert g.degree_sequence() == [3] * 10
        assert g.edge_count() == 15
        # girth 5: no triangles or squares through vertex 0
        assert kappa(g).value == 7
        assert kappa_prime(g).value == 4

    def test_q3_shape(self):
        g = q3()
        assert g.n == 8
        assert g.degree_sequence() == [3] * 8
        # hypercube adjacency: neighbors differ in exactly one bit
        for u in range(8):
            for v in range(8):
                assert g.has_edge(u, v) == (bin(u ^ v).count("1") == 1)

    def test_k4_k33_prism(self):
        assert k4().edge_count() == 6
        assert k33().degree_sequence() == [3] * 6
        assert k33().edge_count() == 9
        assert prism().degree_sequence() == [3] * 6
        assert prism().edge_count() == 9
        assert k33().adj != prism().adj

    def test_cycle(self):
        assert cycle(3).edge_count() == 3
        assert cycle(6).degree_sequence() == [2] * 6
        with pytest.raises(ValueError):
            cycle(2)


class TestCubicCorpus:
    def test_census_counts(self):
        # 3-regular graphs up to isomorphism, disconnected ones included
        assert CUBIC_ORDERS == (4, 6, 8, 10)
        assert len(CUBIC_GRAPH6[4]) == 1
        assert len(CUBIC_GRAPH6[6]) == 2
        assert len(CUBIC_GRAPH6[8]) == 6
        assert len(CUBIC_GRAPH6[10]) == 21

    def test_all_members_are_cubic(self):
        for n in CUBIC_ORDERS:
            for g in cubic_graphs(n):
                assert g.n == n
                assert g.degree_sequence() == [3] * n

    def test_no_duplicate_encodings(self):
        for n in CUBIC_ORDERS:
            assert len(set(CUBIC_GRAPH6[n])) == len(CUBIC_GRAPH6[n])

    def test_encodings_are_canonical(self):
        for n in CUBIC_ORDERS:
            for s in CUBIC_GRAPH6[n]:
                assert write_graph6(parse_graph6(s)) == s

    def test_all_cubic_graphs_flattening(self):
        pairs = all_cubic_graphs()
        assert len(pairs) == 1 + 2 + 6 + 21
        assert [n for n, _ in pairs] == sorted(n for n, _ in pairs)

    def test_invalid_order(self):
        with pytest.raises(ValueError):
            cubic_graphs(5)


class TestNamedFixtureLookup:
    def test_single_graphs(self):
        assert named_fixture("petersen")[0].adj == petersen().adj
        assert named_fixture("q3")[0].adj == q3().adj
        assert named_fixture("k4")[0].adj == k4().adj
        assert named_fixture("c5")[0].adj == cycle(5).adj

    def test_cubic_pools(self):
        assert len(named_fixture("cubic-8")) == 6
        assert len(named_fixture("cubic-10")) == 21

    def test_names_listing_is_complete(self):
        for name in FIXTURE_NAMES:
            assert named_fixture(name)

    def test_unknown_name(self):
        with pytest.raises(ValueError):
            named_fixture("dodecahedron")
        # a cubic- name whose order is no integer
        with pytest.raises(ValueError, match="unknown fixture 'cubic-x'"):
            named_fixture("cubic-x")
