from __future__ import annotations

import random

import pytest

from conftest import all_labeled_graphs, is_wod_oracle
from wodkit import (
    VertexSet,
    complement,
    complete_multipartite,
    is_wod,
    is_wod_bruteforce,
    non_wod_certificate,
    odd_neighborhood,
    pi,
    random_graph,
    verify_non_wod_certificate,
    verify_wod_certificate,
    wod_certificate,
)
from wodkit.fixtures import cycle


def vs(universe: int, *idx: int) -> VertexSet:
    return VertexSet.from_indices(universe, idx)


class TestIsWod:
    def test_empty_set_is_wod(self):
        for g in (cycle(5), complete_multipartite(2, 3), random_graph(9, 3)):
            assert is_wod(g, VertexSet.empty(g.n))

    def test_open_neighborhood_is_wod(self):
        rng = random.Random(21)
        for _ in range(30):
            n = rng.randint(2, 12)
            g = random_graph(n, rng.randrange(10**6))
            for v in range(n):
                if g.degree(v):
                    assert is_wod(g, g.neighbors(v))

    def test_closed_neighborhood_is_not_wod(self):
        rng = random.Random(22)
        for _ in range(30):
            n = rng.randint(1, 12)
            g = random_graph(n, rng.randrange(10**6))
            for v in range(n):
                closed = g.neighbors(v) | vs(n, v)
                assert not is_wod(g, closed)

    def test_full_vertex_set_is_not_wod(self):
        for n in range(1, 8):
            g = random_graph(n, n)
            assert not is_wod(g, VertexSet.full(n))

    def test_c5_cases(self):
        g = cycle(5)
        assert not is_wod(g, vs(5, 0, 1, 2))
        assert not is_wod(g, vs(5, 0, 1, 2, 3))
        assert is_wod(g, vs(5, 0, 1))

    def test_universe_mismatch(self):
        with pytest.raises(ValueError):
            is_wod(cycle(5), VertexSet.empty(4))


class TestPi:
    def test_empty_set(self):
        assert pi(cycle(5), VertexSet.empty(5)) == 0

    def test_closed_neighborhood_c5(self):
        assert pi(cycle(5), vs(5, 0, 1, 4)) == 1

    def test_wod_pair_c4(self):
        assert pi(cycle(4), vs(4, 0, 1)) == 0

    def test_pi_decides_membership(self):
        rng = random.Random(23)
        for _ in range(60):
            n = rng.randint(1, 10)
            g = random_graph(n, rng.randrange(10**6))
            b = VertexSet(rng.getrandbits(n), n)
            p = pi(g, b)
            assert p in (0, 1)
            assert (p == 0) == is_wod(g, b)


class TestCertificates:
    def test_empty_b_canonical_witness(self):
        c = wod_certificate(cycle(5), VertexSet.empty(5))
        assert c.to_sorted_list() == []

    def test_c4_canonical_witness(self):
        c = wod_certificate(cycle(4), vs(4, 0, 2))
        assert c.to_sorted_list() == [1]

    def test_absent_when_not_wod(self):
        assert wod_certificate(cycle(5), vs(5, 0, 1, 2, 3)) is None
        assert non_wod_certificate(cycle(4), vs(4, 0, 1)) is None

    def test_non_wod_witness_on_closed_neighborhood(self):
        rng = random.Random(24)
        for _ in range(20):
            n = rng.randint(1, 10)
            g = random_graph(n, rng.randrange(10**6))
            v = rng.randrange(n)
            b = g.neighbors(v) | vs(n, v)
            d = non_wod_certificate(g, b)
            assert d is not None
            assert verify_non_wod_certificate(g, b, d)

    def test_k2_full_set_witness(self):
        k2 = complete_multipartite(1, 2)
        d = non_wod_certificate(k2, VertexSet.full(2))
        assert len(d) % 2 == 1
        assert verify_non_wod_certificate(k2, VertexSet.full(2), d)

    def test_certificates_deterministic(self):
        g = random_graph(10, 77)
        b = vs(10, 1, 3, 4)
        first = wod_certificate(g, b)
        for _ in range(3):
            assert wod_certificate(g, b) == first


class TestVerifyPredicates:
    def test_open_neighborhood_case(self):
        g = cycle(5)
        assert verify_wod_certificate(g, vs(5, 1, 4), vs(5, 0))

    def test_intersecting_witness_rejected(self):
        g = cycle(5)
        assert not verify_wod_certificate(g, vs(5, 1, 4), vs(5, 1))

    def test_witness_inside_b_rejected(self):
        # both vertices of K2 see C = V oddly; only C's overlap with B = V
        # rejects it
        k2 = complete_multipartite(1, 2)
        assert not verify_wod_certificate(k2, VertexSet.full(2), VertexSet.full(2))

    def test_k2_non_wod_case(self):
        k2 = complete_multipartite(1, 2)
        assert verify_non_wod_certificate(k2, VertexSet.full(2), vs(2, 0))

    def test_even_witness_rejected(self):
        k2 = complete_multipartite(1, 2)
        assert not verify_non_wod_certificate(k2, VertexSet.full(2), vs(2, 0, 1))

    def test_witness_outside_b_rejected(self):
        g = cycle(5)
        assert not verify_non_wod_certificate(g, vs(5, 0, 1), vs(5, 2))

    def test_uncovered_vertex_rejected(self):
        g = cycle(5)
        # C = {2} has Odd(C) = {1, 3}, so B = {1, 4} is not fully covered
        assert not verify_wod_certificate(g, vs(5, 1, 4), vs(5, 2))

    def test_leaking_odd_neighborhood_rejected(self):
        g = cycle(5)
        # D = {0} has Odd(D) = {1, 4} which leaks outside B = {0, 1}
        assert not verify_non_wod_certificate(g, vs(5, 0, 1), vs(5, 0))


class TestDichotomy:
    def test_exhaustive_small_orders(self):
        for n in range(5):
            for g in all_labeled_graphs(n):
                for m in range(1 << n):
                    b = VertexSet(m, n)
                    w = is_wod(g, b)
                    cert = wod_certificate(g, b)
                    anti = non_wod_certificate(g, b)
                    assert (cert is not None) == w
                    assert (anti is not None) == (not w)
                    assert pi(g, b) == (0 if w else 1)
                    assert w == is_wod_bruteforce(g, b)
                    if cert is not None:
                        assert verify_wod_certificate(g, b, cert)
                    if anti is not None:
                        assert verify_non_wod_certificate(g, b, anti)

    def test_randomized_up_to_20(self):
        rng = random.Random(25)
        for _ in range(40):
            n = rng.randint(6, 20)
            g = random_graph(n, rng.randrange(10**6))
            for _ in range(10):
                b = VertexSet(rng.getrandbits(n), n)
                w = is_wod(g, b)
                cert = wod_certificate(g, b)
                anti = non_wod_certificate(g, b)
                assert (cert is not None) == w
                assert (anti is not None) == (not w)
                assert pi(g, b) == (0 if w else 1)
                if cert is not None:
                    assert verify_wod_certificate(g, b, cert)
                else:
                    assert verify_non_wod_certificate(g, b, anti)

    def test_against_set_oracle(self):
        rng = random.Random(26)
        for _ in range(40):
            n = rng.randint(1, 7)
            g = random_graph(n, rng.randrange(10**6))
            m = rng.getrandbits(n)
            b = VertexSet(m, n)
            assert is_wod(g, b) == is_wod_oracle(g, set(b))


class TestStructuralProperties:
    def test_subsets_of_wod_are_wod(self):
        rng = random.Random(27)
        for _ in range(60):
            n = rng.randint(2, 12)
            g = random_graph(n, rng.randrange(10**6))
            b = VertexSet(rng.getrandbits(n), n)
            if is_wod(g, b):
                sub = VertexSet(b.mask & rng.getrandbits(n), n)
                assert is_wod(g, sub)
            else:
                extra = VertexSet(b.mask | rng.getrandbits(n), n)
                assert not is_wod(g, extra)

    def test_duality_into_complement(self):
        rng = random.Random(28)
        for _ in range(60):
            n = rng.randint(1, 12)
            g = random_graph(n, rng.randrange(10**6))
            b = VertexSet(rng.getrandbits(n), n)
            if not is_wod(g, b):
                assert is_wod(complement(g), ~b)


class TestBruteforce:
    def test_guard_rejects_large_complement(self):
        g = random_graph(27, 1)
        with pytest.raises(ValueError):
            is_wod_bruteforce(g, vs(27, 0))

    def test_guard_measures_complement_not_order(self):
        g = random_graph(27, 1)
        b = VertexSet(((1 << 27) - 1) ^ 0b11, 27)
        assert isinstance(is_wod_bruteforce(g, b), bool)

    def test_c5_non_wod_triple(self):
        assert not is_wod_bruteforce(cycle(5), vs(5, 0, 1, 2))

    def test_g23_all_but_one_part(self):
        g = complete_multipartite(2, 3)
        for part in range(3):
            b = ~vs(6, 2 * part, 2 * part + 1)
            assert is_wod_bruteforce(g, b)
            assert is_wod(g, b)

