from __future__ import annotations

import random

import pytest

from conftest import all_labeled_graphs
from wodkit import (
    CapExceededError,
    Graph,
    PreconditionError,
    VertexSet,
    check_kappa_equality,
    check_kappa_prime_equality,
    complement,
    complete_multipartite,
    disjoint_union,
    find_perfect_code,
    is_perfect_code,
    k4_gadget_reduction,
    kappa,
    kappa_prime,
    max_degree,
    random_graph,
    write_graph6,
)
from wodkit.fixtures import cubic_graphs, cycle, k4, petersen, prism, q3


def vs(universe: int, *idx: int) -> VertexSet:
    return VertexSet.from_indices(universe, idx)


def random_and_small_graphs(seed: int, count: int, max_order: int):
    rng = random.Random(seed)
    for _ in range(count):
        yield random_graph(rng.randint(1, max_order), rng.randrange(10**6))
    for n in range(1, 6):
        yield from all_labeled_graphs(n)


def perfect_codes_bruteforce(g: Graph) -> list[int]:
    out = []
    for m in range(1 << g.n):
        if is_perfect_code(g, VertexSet(m, g.n)):
            out.append(m)
    return out


class TestIsPerfectCode:
    def test_k4_single_vertex(self):
        assert is_perfect_code(k4(), vs(4, 0))

    def test_c4_single_vertex_fails_coverage(self):
        assert not is_perfect_code(cycle(4), vs(4, 0))

    def test_q3_antipodal_pair(self):
        assert is_perfect_code(q3(), vs(8, 0, 7))

    def test_dependent_set_rejected(self):
        assert not is_perfect_code(k4(), vs(4, 0, 1))

    def test_double_coverage_rejected(self):
        # v1 of C5 sees both v0 and v2
        assert not is_perfect_code(cycle(5), vs(5, 0, 2))

    def test_empty_graph(self):
        assert is_perfect_code(Graph.empty(0), VertexSet.empty(0))


class TestFindPerfectCode:
    def test_k4(self):
        assert find_perfect_code(k4()).code.to_sorted_list() == [0]

    def test_petersen_has_none(self):
        assert find_perfect_code(petersen()) is None

    def test_c4_has_none(self):
        assert find_perfect_code(cycle(4)) is None

    def test_q3_lex_smallest(self):
        pc = find_perfect_code(q3())
        assert pc.code.to_sorted_list() == [3, 4]
        assert pc.code.mask == min(perfect_codes_bruteforce(q3()))

    def test_edgeless_code_is_everything(self):
        g = Graph.empty(5)
        assert find_perfect_code(g).code.mask == (1 << 5) - 1

    def test_matches_bruteforce_on_random_graphs(self):
        for g in random_and_small_graphs(51, 40, 8):
            codes = perfect_codes_bruteforce(g)
            found = find_perfect_code(g)
            if codes:
                assert found is not None
                assert found.code.mask == min(codes)
            else:
                assert found is None

    def test_star_forest_order_24(self):
        # four disjoint K_{1,5} whose centres are the last vertex of each
        # block, so the smallest code is far up the ascending mask order
        edges = [(c, v) for c in (5, 11, 17, 23) for v in range(c - 5, c)]
        g = Graph.from_edges(24, edges)
        assert find_perfect_code(g).code.to_sorted_list() == [5, 11, 17, 23]
        assert check_kappa_equality(g)

    def test_cap(self):
        with pytest.raises(CapExceededError):
            find_perfect_code(random_graph(13, 1), cap=12)


class TestKappaEquality:
    def test_named_cases(self):
        assert check_kappa_equality(k4())
        assert check_kappa_equality(q3())
        assert check_kappa_equality(cycle(4))
        assert check_kappa_equality(petersen())

    def test_star_degree_restriction_matters(self):
        # the star attains kappa*(Delta+1) = n*Delta and its center is the
        # unique all-degree-Delta perfect code
        g = Graph.from_edges(5, [(0, 4), (1, 4), (2, 4), (3, 4)])
        assert kappa(g).value * 5 == 5 * 4
        assert check_kappa_equality(g)

    def test_all_small_cubic_graphs(self):
        for n in (4, 6, 8, 10):
            for g in cubic_graphs(n):
                assert check_kappa_equality(g), write_graph6(g)

    def test_random_graphs(self):
        for g in random_and_small_graphs(52, 30, 9):
            assert check_kappa_equality(g), write_graph6(g)

    def test_regular_equality_is_biconditional(self):
        # for regular graphs the equality reduces to perfect-code existence
        pool = [k4(), q3(), petersen(), prism(), cycle(4), cycle(5), cycle(6),
                complete_multipartite(1, 5), complete_multipartite(2, 3)]
        for g in pool:
            d = max_degree(g)
            lhs = kappa(g).value * (d + 1) == g.n * d
            rhs = find_perfect_code(g) is not None
            assert lhs == rhs, write_graph6(g)


    def test_empty_graph_rejected(self):
        with pytest.raises(ValueError, match="at least one vertex"):
            check_kappa_equality(Graph.empty(0))


class TestKappaPrimeEquality:
    def test_edgeless_four(self):
        assert check_kappa_prime_equality(complement(k4()))

    def test_complete_graphs_odd_order(self):
        for n in (3, 5, 7):
            assert check_kappa_prime_equality(complete_multipartite(1, n))

    def test_multipartite_odd_parts(self):
        for p, q in [(2, 3), (3, 3), (2, 5)]:
            assert check_kappa_prime_equality(complete_multipartite(p, q))

    def test_even_ratio_rejected(self):
        with pytest.raises(PreconditionError, match="even"):
            check_kappa_prime_equality(complement(q3()))

    def test_non_integral_ratio_rejected(self):
        with pytest.raises(PreconditionError, match="not an integer"):
            check_kappa_prime_equality(complement(cycle(4)))

    def test_irregular_rejected(self):
        g = Graph.from_edges(5, [(0, 4), (1, 4), (2, 4), (3, 4)])
        with pytest.raises(PreconditionError, match="regular"):
            check_kappa_prime_equality(g)

    def test_empty_graph_rejected(self):
        with pytest.raises(ValueError, match="at least one vertex"):
            check_kappa_prime_equality(Graph.empty(0))

    def test_precondition_error_is_value_error(self):
        assert issubclass(PreconditionError, ValueError)


class TestK4GadgetReduction:
    def test_k4_quarter_odd(self):
        h, target = k4_gadget_reduction(k4())
        assert target == 1
        assert h.adj == complement(k4()).adj
        assert kappa_prime(h).value == 1
        assert find_perfect_code(k4()) is not None

    def test_two_k4_quarter_even(self):
        g = disjoint_union(k4(), k4())
        h, target = k4_gadget_reduction(g)
        assert h.n == 12
        assert target == 3
        has_code = find_perfect_code(g) is not None
        assert has_code == (kappa_prime(h).value == target)
        assert has_code

    def test_contract_on_all_divisible_cubic_graphs(self):
        for n in (4, 8):
            for g in cubic_graphs(n):
                h, target = k4_gadget_reduction(g)
                has_code = find_perfect_code(g) is not None
                assert has_code == (kappa_prime(h).value == target), write_graph6(g)

    def test_indivisible_orders_rejected(self):
        for g in (prism(), petersen()):
            with pytest.raises(PreconditionError, match="impossible"):
                k4_gadget_reduction(g)

    def test_non_cubic_rejected(self):
        with pytest.raises(PreconditionError, match="3-regular"):
            k4_gadget_reduction(cycle(5))
        with pytest.raises(PreconditionError, match="3-regular"):
            k4_gadget_reduction(Graph.empty(0))
