from __future__ import annotations

import math
import random

import pytest

from conftest import all_labeled_graphs, closed_odd_set, odd_set
from wodkit import (
    Graph,
    Graph6Error,
    VertexSet,
    closed_odd_neighborhood,
    complement,
    complete_multipartite,
    cut_matrix,
    disjoint_union,
    is_odd_dominating_set,
    kappa,
    kappa_prime,
    max_degree,
    min_degree,
    odd_neighborhood,
    parse_graph6,
    power,
    random_graph,
    write_graph6,
)
from wodkit.fixtures import cycle, k4


def vs(universe: int, *idx: int) -> VertexSet:
    return VertexSet.from_indices(universe, idx)


class TestVertexSet:
    def test_constructors(self):
        assert VertexSet.empty(5).mask == 0
        assert VertexSet.full(5).mask == 0b11111
        assert vs(5, 0, 2).mask == 0b101
        assert len(vs(5, 0, 2)) == 2
        assert list(vs(5, 4, 0, 2)) == [0, 2, 4]
        assert vs(5, 1).to_sorted_list() == [1]

    def test_out_of_range_bits_rejected(self):
        with pytest.raises(ValueError):
            VertexSet(0b1000, 3)
        with pytest.raises(ValueError):
            vs(3, 3)
        with pytest.raises(ValueError):
            vs(3, -1)

    def test_universe_outside_range_rejected(self):
        for universe in (-1, 63):
            with pytest.raises(ValueError, match=f"universe {universe} outside"):
                VertexSet(0, universe)
        assert VertexSet(0, 62).universe == 62

    def test_algebra(self):
        a, b = vs(6, 0, 1, 2), vs(6, 2, 3)
        assert (a | b).to_sorted_list() == [0, 1, 2, 3]
        assert (a & b).to_sorted_list() == [2]
        assert (a - b).to_sorted_list() == [0, 1]
        assert (a ^ b).to_sorted_list() == [0, 1, 3]
        assert (~a).to_sorted_list() == [3, 4, 5]
        assert vs(6, 0, 1) <= a
        assert not (a <= b)
        assert a.isdisjoint(vs(6, 4, 5))
        assert not a.isdisjoint(b)
        assert 2 in a and 3 not in a

    def test_universe_mismatch_rejected(self):
        with pytest.raises(ValueError):
            vs(5, 0) | vs(6, 0)

    def test_complement_stays_in_universe(self):
        rng = random.Random(5)
        for _ in range(50):
            n = rng.randint(0, 62)
            s = VertexSet(rng.getrandbits(n) if n else 0, n)
            c = ~s
            assert c.mask & s.mask == 0
            assert (c | s).mask == (1 << n) - 1 if n else c.mask == 0


class TestGraphType:
    def test_from_edges_and_accessors(self):
        g = Graph.from_edges(4, [(0, 1), (1, 2)])
        assert g.n == 4
        assert g.degree(1) == 2 and g.degree(3) == 0
        assert g.neighbors(1).to_sorted_list() == [0, 2]
        assert g.has_edge(0, 1) and g.has_edge(1, 0)
        assert not g.has_edge(0, 2)
        assert g.edges() == [(0, 1), (1, 2)]
        assert g.edge_count() == 2
        assert g.vertex_set().to_sorted_list() == [0, 1, 2, 3]
        assert g.degree_sequence() == [0, 1, 1, 2]
        assert not g.is_regular()
        assert k4().is_regular()

    def test_validation(self):
        with pytest.raises(ValueError):
            Graph.from_edges(3, [(0, 0)])
        with pytest.raises(ValueError):
            Graph.from_edges(3, [(0, 3)])
        with pytest.raises(ValueError):
            Graph(2, (0b10, 0b00))  # asymmetric
        with pytest.raises(ValueError):
            Graph(2, (0b01,))  # row count
        with pytest.raises(ValueError):
            Graph.empty(63)
        assert Graph.empty(62).n == 62
        assert Graph.empty(0).edges() == []
        # rows given directly, past from_edges' own checks
        with pytest.raises(ValueError, match="row 0 has bits outside"):
            Graph(2, (0b110, 0b001))
        with pytest.raises(ValueError, match="row 0 has bits outside"):
            Graph(1, (-1,))
        with pytest.raises(ValueError, match="loop at vertex 1"):
            Graph(2, (0b00, 0b10))

    def test_empty_graph_is_regular(self):
        assert Graph.empty(0).is_regular()

    def test_duplicate_and_reversed_edges_collapse(self):
        g = Graph.from_edges(3, [(0, 1), (1, 0), (0, 1)])
        assert g.edge_count() == 1


class TestOddNeighborhood:
    def test_empty_set(self):
        assert odd_neighborhood(cycle(5), VertexSet.empty(5)).mask == 0

    def test_single_vertex_gives_open_neighborhood(self):
        assert odd_neighborhood(cycle(5), vs(5, 0)).to_sorted_list() == [1, 4]

    def test_three_vertex_case(self):
        got = odd_neighborhood(cycle(5), vs(5, 0, 1, 3))
        assert got.to_sorted_list() == [0, 1]

    def test_linearity(self):
        rng = random.Random(11)
        for _ in range(80):
            n = rng.randint(1, 10)
            g = random_graph(n, rng.randrange(10**6))
            a = VertexSet(rng.getrandbits(n), n)
            b = VertexSet(rng.getrandbits(n), n)
            assert odd_neighborhood(g, a ^ b) == (
                odd_neighborhood(g, a) ^ odd_neighborhood(g, b)
            )

    def test_matches_set_oracle(self):
        rng = random.Random(12)
        for _ in range(40):
            n = rng.randint(1, 8)
            g = random_graph(n, rng.randrange(10**6))
            m = rng.getrandbits(n)
            c = VertexSet(m, n)
            assert set(odd_neighborhood(g, c)) == odd_set(g, set(c))

    def test_universe_mismatch(self):
        with pytest.raises(ValueError):
            odd_neighborhood(cycle(5), VertexSet.empty(4))


class TestClosedOddNeighborhood:
    def test_empty_set(self):
        assert closed_odd_neighborhood(cycle(5), VertexSet.empty(5)).mask == 0

    def test_k2_single_vertex(self):
        g = complete_multipartite(1, 2)
        assert closed_odd_neighborhood(g, vs(2, 0)).to_sorted_list() == [0, 1]

    def test_c5_single_vertex(self):
        got = closed_odd_neighborhood(cycle(5), vs(5, 0))
        assert got.to_sorted_list() == [0, 1, 4]

    def test_definition_on_all_sets_small_orders(self):
        # Odd[C] = {u : |N[u] n C| odd} = Odd(C) xor C, including even |C|
        graphs = list(all_labeled_graphs(4))
        graphs += [random_graph(n, s) for n in (5, 6) for s in range(8)]
        for g in graphs:
            for m in range(1 << g.n):
                c = VertexSet(m, g.n)
                got = closed_odd_neighborhood(g, c)
                assert set(got) == closed_odd_set(g, set(c))
                assert got == odd_neighborhood(g, c) ^ c


class TestIsOddDominatingSet:
    def test_k2_single_vertex(self):
        g = complete_multipartite(1, 2)
        assert is_odd_dominating_set(g, vs(2, 0))

    def test_empty_set_never_dominates(self):
        assert not is_odd_dominating_set(cycle(5), VertexSet.empty(5))

    def test_c5_full_vertex_set(self):
        assert is_odd_dominating_set(cycle(5), VertexSet.full(5))


class TestComplement:
    def test_k4_complement_edgeless(self):
        assert complement(k4()).edge_count() == 0

    def test_involution(self):
        rng = random.Random(13)
        for _ in range(30):
            g = random_graph(rng.randint(0, 12), rng.randrange(10**6))
            assert complement(complement(g)).adj == g.adj

    def test_c5_self_complementary_signature(self):
        h = complement(cycle(5))
        assert h.degree_sequence() == [2, 2, 2, 2, 2]
        assert h.edge_count() == 5
        assert kappa(h).value == kappa(cycle(5)).value == 2
        assert kappa_prime(h).value == kappa_prime(cycle(5)).value == 3


class TestUnionAndPower:
    def test_power_k2(self):
        g = power(complete_multipartite(1, 2), 2)
        assert g.n == 4
        assert g.edges() == [(0, 1), (2, 3)]

    def test_union_with_empty_graph(self):
        g = cycle(5)
        assert disjoint_union(g, Graph.empty(0)).adj == g.adj
        assert disjoint_union(Graph.empty(0), g).adj == g.adj

    def test_power_c5_degrees(self):
        g = power(cycle(5), 2)
        assert g.n == 10
        assert g.degree_sequence() == [2] * 10

    def test_union_degree_sequence_is_multiset_union(self):
        rng = random.Random(14)
        for _ in range(20):
            g = random_graph(rng.randint(1, 8), rng.randrange(10**6))
            h = random_graph(rng.randint(1, 8), rng.randrange(10**6))
            u = disjoint_union(g, h)
            assert sorted(g.degree_sequence() + h.degree_sequence()) == (
                u.degree_sequence()
            )

    def test_order_overflow_rejected(self):
        with pytest.raises(ValueError):
            disjoint_union(Graph.empty(32), Graph.empty(31))
        with pytest.raises(ValueError):
            power(cycle(5), 13)

    def test_power_requires_positive_r(self):
        with pytest.raises(ValueError):
            power(cycle(5), 0)
        assert power(cycle(5), 1).adj == cycle(5).adj


class TestCompleteMultipartite:
    def test_g14_is_k4(self):
        g = complete_multipartite(1, 4)
        assert g.n == 4 and g.edge_count() == 6

    def test_gp1_edgeless(self):
        g = complete_multipartite(5, 1)
        assert g.n == 5 and g.edge_count() == 0

    def test_g23_regular_degree_4(self):
        g = complete_multipartite(2, 3)
        assert g.n == 6
        assert g.degree_sequence() == [4] * 6

    def test_part_layout(self):
        g = complete_multipartite(3, 2)
        for i in range(3):
            for j in range(3):
                assert not g.has_edge(i, j) if i != j else True
                assert g.has_edge(i, 3 + j)

    def test_preconditions(self):
        with pytest.raises(ValueError):
            complete_multipartite(0, 3)
        with pytest.raises(ValueError):
            complete_multipartite(3, 0)
        with pytest.raises(ValueError):
            complete_multipartite(9, 7)


class TestCutMatrix:
    def test_b_equals_v(self):
        m = cut_matrix(cycle(5), VertexSet.full(5))
        assert (m.n_rows, m.n_cols) == (0, 5)

    def test_k2_singleton(self):
        g = complete_multipartite(1, 2)
        m = cut_matrix(g, vs(2, 0))
        assert (m.n_rows, m.n_cols) == (1, 1)
        assert m.entry(0, 0) == 1

    def test_c4_two_vertices(self):
        g = cycle(4)
        m = cut_matrix(g, vs(4, 0, 1))
        assert (m.n_rows, m.n_cols) == (2, 2)
        # rows v2,v3; columns v0,v1
        assert [m.entry(0, 0), m.entry(0, 1)] == [0, 1]
        assert [m.entry(1, 0), m.entry(1, 1)] == [1, 0]

    def test_dimensions_and_transpose_swap(self):
        rng = random.Random(15)
        for _ in range(40):
            n = rng.randint(1, 10)
            g = random_graph(n, rng.randrange(10**6))
            b = VertexSet(rng.getrandbits(n), n)
            m = cut_matrix(g, b)
            assert m.n_rows == n - len(b)
            assert m.n_cols == len(b)
            swapped = cut_matrix(g, ~b)
            assert (swapped.n_rows, swapped.n_cols) == (m.n_cols, m.n_rows)
            for i in range(m.n_rows):
                for j in range(m.n_cols):
                    assert m.entry(i, j) == swapped.entry(j, i)


class TestRandomGraph:
    def test_zero_vertices(self):
        assert random_graph(0, 7).n == 0

    def test_determinism(self):
        assert random_graph(5, 1).adj == random_graph(5, 1).adj
        assert random_graph(12, 42).adj == random_graph(12, 42).adj

    def test_seed_changes_output(self):
        assert any(
            random_graph(10, s).adj != random_graph(10, s + 1).adj
            for s in range(5)
        )

    def test_edge_count_statistics(self):
        total = sum(random_graph(20, seed).edge_count() for seed in range(1000))
        mean = total / 1000
        # edge count ~ Binomial(190, 1/2); 3 sigma for the mean of 1000 draws
        sigma = math.sqrt(190 * 0.25 / 1000)
        assert abs(mean - 95.0) <= 3 * sigma

    def test_order_cap(self):
        with pytest.raises(ValueError):
            random_graph(63, 1)


class TestGraph6:
    def test_star_string_roundtrip(self):
        g = parse_graph6("D?{")
        assert g.n == 5
        assert write_graph6(g) == "D?{"
        # the string decodes to the 5-vertex star centered at v4
        assert sorted(g.edges()) == [(0, 4), (1, 4), (2, 4), (3, 4)]

    def test_k2_encoding(self):
        assert write_graph6(complete_multipartite(1, 2)) == "A_"
        assert parse_graph6("A_").edges() == [(0, 1)]

    def test_empty_string_rejected(self):
        with pytest.raises(Graph6Error) as ei:
            parse_graph6("")
        assert ei.value.offset == 0

    def test_roundtrip_random_corpus(self):
        rng = random.Random(16)
        for i in range(1000):
            n = rng.randint(0, 62)
            g = random_graph(n, i)
            s = write_graph6(g)
            assert parse_graph6(s).adj == g.adj
            # canonical encodings also survive the reverse composition
            assert write_graph6(parse_graph6(s)) == s

    def test_trailing_newline_accepted(self):
        assert parse_graph6("A_\n").edges() == [(0, 1)]
        # any run of line breaks goes, as a file may end in blank lines
        assert parse_graph6("C~\n\n\r\n").edges() == k4().edges()

    def test_error_offsets(self):
        cases = [
            ("~??", 0),   # multi-byte order encoding
            ("\x1f", 0),  # size byte below printable range
            ("B", 1),     # truncated data
            ("A", 1),
            ("A_X", 2),   # trailing bytes
            ("C~ \n", 2), # a space is data, not a line break
            ("A\x05", 1), # invalid data byte
            ("Aw", 1),    # nonzero padding bits for n=2
        ]
        for text, offset in cases:
            with pytest.raises(Graph6Error) as ei:
                parse_graph6(text)
            assert ei.value.offset == offset, text
            assert f"byte offset {offset}" in str(ei.value)

    def test_offsets_beyond_62_rejected_via_size_byte(self):
        with pytest.raises(Graph6Error):
            parse_graph6(chr(63 + 63))  # order 63 needs the multi-byte form


class TestDegreeExtremes:
    def test_k4(self):
        assert max_degree(k4()) == 3
        assert min_degree(k4()) == 3

    def test_g23(self):
        g = complete_multipartite(2, 3)
        assert max_degree(g) == 4 and min_degree(g) == 4

    def test_star(self):
        g = Graph.from_edges(5, [(0, 4), (1, 4), (2, 4), (3, 4)])
        assert max_degree(g) == 4 and min_degree(g) == 1

    def test_empty_graph_rejected(self):
        with pytest.raises(ValueError):
            max_degree(Graph.empty(0))
        with pytest.raises(ValueError):
            min_degree(Graph.empty(0))
