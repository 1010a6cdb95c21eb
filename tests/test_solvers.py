from __future__ import annotations

import os
import random
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

from conftest import (
    all_labeled_graphs,
    full_width,
    kappa_oracle,
    kappa_prime_oracle,
    profile_oracle,
    twin_blowup,
)
from wodkit import (
    CapExceededError,
    Graph,
    Quantity,
    VertexSet,
    check_threshold_condition,
    complement,
    complete_multipartite,
    disjoint_union,
    gpq_closed_form,
    is_wod,
    kappa,
    kappa_bounds,
    kappa_prime,
    kappa_prime_bounds,
    kappa_q,
    odd_neighborhood,
    power,
    random_graph,
    verify_non_wod_certificate,
    verify_wod_certificate,
)
from wodkit import _table, solvers
from wodkit.fixtures import cycle, k4, q3
from wodkit.graph import _neighbor_prefix, min_degree


def check_kappa_witness(g, res):
    c = res.witness
    dominated = odd_neighborhood(g, c) - c
    assert len(dominated) == res.value
    assert verify_wod_certificate(g, dominated, c)


def check_kappa_prime_witness(g, res):
    d = res.witness
    assert len(d) % 2 == 1
    covered = d | odd_neighborhood(g, d)
    assert len(covered) == res.value
    assert verify_non_wod_certificate(g, covered, d)


def oracle_corpus(seed):
    """Every labelled graph of order 4 and 25 seeded graphs of order 5..8."""
    rng = random.Random(seed)
    graphs = list(all_labeled_graphs(4))
    graphs += [random_graph(rng.randint(5, 8), rng.randrange(10**6))
               for _ in range(25)]
    return graphs


def star(n):
    """K_{1,n-1} centred at vertex 0."""
    return Graph.from_edges(n, [(0, i) for i in range(1, n)])


def solved(res):
    """kappa_Q, then the value and witness mask of kappa and of kappa'."""
    return (res.value, res.kappa.value, res.kappa.witness.mask,
            res.kappa_prime.value, res.kappa_prime.witness.mask)


class TestKappa:
    def test_known_values(self):
        assert kappa(complete_multipartite(2, 3)).value == 4
        assert kappa(k4()).value == 3
        assert kappa(cycle(5)).value == 2
        assert kappa(q3()).value == 6

    def test_edgeless(self):
        res = kappa(Graph.empty(4))
        assert res.value == 0
        assert res.witness.mask == 0
        assert res.bounds_used == (0, 0)

    def test_result_fields(self):
        res = kappa(cycle(5))
        assert res.quantity is Quantity.KAPPA
        assert res.bounds_used == (2, 3)
        check_kappa_witness(cycle(5), res)

    def test_matches_oracle_with_canonical_witness(self):
        for g in oracle_corpus(31):
            want_v, want_m = kappa_oracle(g)
            for engine in ("pure", "numpy"):
                res = kappa(g, engine=engine)
                assert res.value == want_v
                assert res.witness.mask == want_m

    def test_definitional_max_over_wod_sets(self):
        rng = random.Random(32)
        for _ in range(12):
            n = rng.randint(1, 8)
            g = random_graph(n, rng.randrange(10**6))
            best = max(
                m.bit_count()
                for m in range(1 << n)
                if is_wod(g, VertexSet(m, n))
            )
            assert kappa(g).value == best

    def test_parallel_matches_sequential(self):
        for seed in (1, 2, 3):
            g = random_graph(13, seed)
            seq = kappa(g, engine="pure")
            for workers in (2, 3, 4):
                par = kappa(g, workers=workers)
                assert (par.value, par.witness.mask) == (seq.value, seq.witness.mask)

    def test_parallel_blocks_match_sequential(self):
        # two high bits: block 0 runs here, blocks 1..3 go to the pool,
        # for kappa alone and for the fused kappa_q pass
        g = random_graph(_table._LO_BITS + 2, 5)
        seq = kappa_q(g, engine="pure")
        for workers in (2, 3):
            par = kappa(g, workers=workers)
            assert (par.value, par.witness.mask) == (
                seq.kappa.value, seq.kappa.witness.mask)
            assert solved(kappa_q(g, engine="numpy", workers=workers)) == solved(seq)

    def test_no_pool_when_block_zero_settles(self, monkeypatch):
        def no_pool(*args, **kwargs):
            raise AssertionError("a process pool was started")

        monkeypatch.setattr(_table, "ProcessPoolExecutor", no_pool)
        # cycle(18) has no twins, so its table spans 4 blocks, and kappa
        # reaches its bound 12 in block 0: the other 3 need no pool
        g = cycle(18)
        rows = solvers._twin_rows(g.adj)[0]
        assert 1 << (len(rows) - _table._layout(rows, g.n)[0]) == 4
        assert kappa_bounds(g) == (2, 12)
        seq = kappa(g, engine="pure")
        par = kappa(g, engine="numpy", workers=2)
        assert (par.value, par.witness.mask) == (seq.value, seq.witness.mask)
        assert par.value == 12

    def test_no_pool_when_twin_classes_fit_one_block(self, monkeypatch):
        def no_pool(*args, **kwargs):
            raise AssertionError("a process pool was started")

        monkeypatch.setattr(_table, "ProcessPoolExecutor", no_pool)
        # order 24, but 12 classes of two false twins: the table has one
        # block, so neither kappa nor the fused kappa_q pass needs a pool
        g = complete_multipartite(2, 12)
        res = kappa(g, engine="numpy", workers=2)
        assert (res.value, res.witness.mask) == (22, 1)
        assert solved(kappa_q(g, engine="numpy", workers=2)) == solved(
            kappa_q(g, engine="pure"))

    def test_spawn_without_main_guard_names_the_guard(self, tmp_path):
        # each spawned pool process re-runs this script and dies at its
        # second set_start_method, so the pool of 2 breaks
        script = tmp_path / "unguarded.py"
        script.write_text(
            "import multiprocessing\n"
            "multiprocessing.set_start_method('spawn')\n"
            "from wodkit import kappa, random_graph\n"
            "print(kappa(random_graph(18, 1), workers=2).value)\n"
        )
        src = Path(__file__).resolve().parents[1] / "src"
        proc = subprocess.run(
            [sys.executable, str(script)],
            env={**os.environ, "PYTHONPATH": str(src)},
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert proc.returncode == 1
        last = proc.stderr.strip().splitlines()[-1]
        assert last.startswith("RuntimeError: ")
        assert 'if __name__ == "__main__":' in last
        assert "BrokenProcessPool" in proc.stderr

    def test_pool_bounded_by_core_count(self, monkeypatch):
        sizes = []

        def spy(max_workers):
            sizes.append(max_workers)
            assert max_workers <= os.cpu_count()
            return ThreadPoolExecutor(max_workers)

        monkeypatch.setattr(_table, "ProcessPoolExecutor", spy)
        # order 22 has 64 blocks: block 0 runs here, and 63 workers get
        # one block each, run by at most one thread per core
        g = random_graph(22, 1)
        assert solved(kappa_q(g, engine="numpy", workers=63)) == solved(kappa_q(g))
        assert sizes == [min(63, os.cpu_count())]

    def test_uint64_table_above_order_31(self, monkeypatch):
        g = star(34)
        seen = []
        blocks = _table._odd_blocks

        def spy(*args):
            for h, s in blocks(*args):
                seen.append(h)
                yield h, s

        monkeypatch.setattr(_table, "_odd_blocks", spy)
        res = kappa(g, cap=34, engine="numpy")
        assert (res.value, res.witness.mask) == (33, 1)
        assert seen == [0]
        check_kappa_witness(g, res)
        kp = kappa_prime(g, cap=34)
        assert kp.value == 2
        check_kappa_prime_witness(g, kp)

    def test_preconditions(self):
        with pytest.raises(ValueError):
            kappa(Graph.empty(0))
        with pytest.raises(CapExceededError):
            kappa(random_graph(13, 1), cap=12)
        assert kappa(random_graph(13, 1), cap=13).value >= 0
        with pytest.raises(ValueError):
            kappa(cycle(5), engine="magic")
        with pytest.raises(ValueError):
            kappa(cycle(5), workers=0)


class TestKappaPrime:
    def test_known_values(self):
        assert kappa_prime(complete_multipartite(2, 3)).value == 3
        assert kappa_prime(cycle(5)).value == 3
        assert kappa_prime(cycle(4)).value == 3
        assert kappa_prime(Graph.empty(3)).value == 1

    def test_result_fields(self):
        res = kappa_prime(cycle(5))
        assert res.quantity is Quantity.KAPPA_PRIME
        assert res.bounds_used == (2, 3)
        check_kappa_prime_witness(cycle(5), res)

    def test_matches_oracle_with_canonical_witness(self):
        for g in oracle_corpus(33):
            want_v, want_m = kappa_prime_oracle(g)
            for engine in ("pure", "numpy"):
                res = kappa_prime(g, engine=engine)
                assert res.value == want_v
                assert res.witness.mask == want_m

    def test_definitional_min_over_non_wod_sets(self):
        rng = random.Random(34)
        for _ in range(12):
            n = rng.randint(1, 8)
            g = random_graph(n, rng.randrange(10**6))
            best = min(
                m.bit_count()
                for m in range(1 << n)
                if not is_wod(g, VertexSet(m, n))
            )
            assert kappa_prime(g).value == best

    def test_cross_layer_tie_keeps_smallest_mask(self):
        # star: the center D={v4} and the triple D={v0,v1,v2} both cover
        # 2 and 4 vertices respectively; layered search must compare masks
        # across layers when values tie
        g = Graph.from_edges(5, [(0, 4), (1, 4), (2, 4), (3, 4)])
        res = kappa_prime(g)
        want_v, want_m = kappa_prime_oracle(g)
        assert (res.value, res.witness.mask) == (want_v, want_m)

    def test_preconditions(self):
        with pytest.raises(ValueError):
            kappa_prime(Graph.empty(0))
        with pytest.raises(CapExceededError):
            kappa_prime(random_graph(13, 1), cap=12)


class TestKappaQ:
    def test_known_values(self):
        assert kappa_q(cycle(5)).value == 2
        assert kappa_q(complete_multipartite(2, 3)).value == 4
        two_k2 = power(complete_multipartite(1, 2), 2)
        assert kappa_q(two_k2).value == 2

    def test_composition(self):
        g = random_graph(9, 41)
        res = kappa_q(g)
        assert res.value == max(res.kappa.value, g.n - res.kappa_prime.value)
        assert res.quantity is Quantity.KAPPA_Q
        check_kappa_witness(g, res.kappa)
        check_kappa_prime_witness(g, res.kappa_prime)

    def test_equals_max_over_complement(self):
        rng = random.Random(35)
        for _ in range(25):
            n = rng.randint(1, 9)
            g = random_graph(n, rng.randrange(10**6))
            res = kappa_q(g)
            assert res.value == max(kappa(g).value, kappa(complement(g)).value)


def circulant(n, offsets):
    """Vertex i adjacent to i +- d mod n for every d in offsets."""
    return Graph.from_edges(n, {tuple(sorted((i, (i + d) % n)))
                                for i in range(n) for d in offsets})


def p4_blowup():
    """P4 with each vertex replaced by 6 false twins: n = 24, r = 4."""
    return twin_blowup(path(4), [6] * 4, [False] * 4, range(24))


def three_cubic8():
    """Three copies of a connected cubic graph of order 8, and no twins."""
    g = power(q3(), 3)
    assert len(solvers._twin_rows(g.adj)[0]) == 24
    return g


def test_kernel_choice_under_auto(monkeypatch):
    # which kernels each solve runs: the table for kappa, kappa' or both in
    # one fused pass, the layered pure pass likewise, the ascending kappa
    # scan that the layered pass falls back to, and the layered pass over
    # each leaf of a split, which gives its parity profile
    calls = []
    table_scan = _table._table_scan
    layered = solvers._layered_scan
    ascending = solvers._scan_kappa

    def label(kernel, ub, prime):
        return (f"{kernel} fused" if ub >= 0 and prime
                else f"{kernel} kappa" if ub >= 0 else f"{kernel} kappa'")

    def table_spy(adj, n, ub, prime, workers):
        calls.append(label("table", ub, prime))
        return table_scan(adj, n, ub, prime, workers)

    def layered_spy(adj, n, ub, prime, parity=False):
        calls.append(f"leaf of {n}" if parity else label("layered", ub, prime))
        return layered(adj, n, ub, prime, parity)

    def ascending_spy(adj, ub):
        calls.append("ascending kappa")
        return ascending(adj, ub)

    monkeypatch.setattr(_table, "_table_scan", table_spy)
    monkeypatch.setattr(solvers, "_layered_scan", layered_spy)
    monkeypatch.setattr(solvers, "_scan_kappa", ascending_spy)
    # workers=2 below must not start processes
    monkeypatch.setattr(_table, "ProcessPoolExecutor", ThreadPoolExecutor)
    dense19 = circulant(19, range(1, 6))
    assert min_degree(random_graph(24, 1)) == 8
    assert (dense19.n, min_degree(dense19)) == (19, 10)
    # K1 + G(23, 1/2): its leaf of 2^23 masks costs more than the table
    k1_g23 = disjoint_union(Graph.empty(1), random_graph(23, 1))
    assert solvers._split(k1_g23.adj) is not None
    cases = [
        (random_graph(24, 1), {}, ["table fused"]),
        (cycle(24), {}, ["table kappa", "layered kappa'"]),
        (k1_g23, {}, ["table kappa", "layered kappa'"]),
        # 20 * (2^5 + 2^19) < 2^24: a leaf mask weighs as much as 20 table
        # masks, and a K1 leaf takes no pass at all
        (disjoint_union(cycle(5), random_graph(19, 1)), {},
         ["leaf of 5", "leaf of 19"]),
        (disjoint_union(disjoint_union(Graph.empty(1), cycle(5)),
                        random_graph(18, 1)), {},
         ["leaf of 5", "leaf of 18"]),
        # the split: one leaf scan per copy serves kappa and kappa'
        (three_cubic8(), {}, ["leaf of 8"] * 3),
        (complement(three_cubic8()), {}, ["leaf of 8"] * 3),
        (three_cubic8(), {"workers": 2}, ["leaf of 8"] * 3),
        (three_cubic8(), {"engine": "numpy"}, ["table fused"]),
        # below r = 20 the whole-graph scan is pure too, and a leaf mask
        # weighs as much as 4 of its masks: 4 * 2 * 2^5 < 2^10
        (power(cycle(5), 2), {}, ["leaf of 5"] * 2),
        # 4 * (2 + 2^17) >= 2^18: the leaf would cost more than the
        # layered pass over the whole graph
        (disjoint_union(Graph.empty(1), random_graph(17, 1)), {},
         ["layered fused"]),
        (power(cycle(5), 2), {"engine": "pure"},
         ["layered fused", "ascending kappa"]),
        # 24 vertices in 4 twin classes, connected and co-connected
        (p4_blowup(), {}, ["layered fused"]),
        (dense19, {}, ["layered kappa", "table kappa'"]),
        (random_graph(18, 1), {}, ["layered fused"]),
        (random_graph(18, 1), {"engine": "pure"}, ["layered fused"]),
        (random_graph(18, 1), {"engine": "pure", "workers": 2},
         ["table kappa", "layered kappa'"]),
        # kappa is 4 after two layers, so layers 3..14 would cover most subsets
        (cycle(18), {}, ["layered fused", "ascending kappa"]),
    ]
    for g, kwargs, want in cases:
        calls.clear()
        kappa_q(g, **kwargs)
        assert calls == want, (g.n, kwargs)


def seeded_blowup(rng, base_order):
    base = random_graph(base_order, rng.randrange(10**6))
    sizes = [rng.randint(1, 3) for _ in range(base.n)]
    order = list(range(sum(sizes)))
    rng.shuffle(order)
    return twin_blowup(base, sizes, [rng.random() < 0.5 for _ in sizes], order)


class TestTwinReduction:
    ENGINES = ({"engine": "pure"}, {"engine": "numpy"},
               {"engine": "numpy", "workers": 2})

    def check(self, g):
        want = full_width(g)
        for kwargs in self.ENGINES:
            assert solved(kappa_q(g, **kwargs))[1:] == want, (g.adj, kwargs)

    def test_twin_classes(self):
        # G_{2,3}: three classes of false twins; K4: one class of true
        # twins; P4 has no twins, so its rows stay as they are
        assert solvers._twin_rows(complete_multipartite(2, 3).adj)[1] == (0, 2, 4)
        assert solvers._twin_rows(k4().adj) == ((0b1110,), (0,))
        p4 = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
        assert solvers._twin_rows(p4.adj) == (p4.adj, (0, 1, 2, 3))
        # in the path 0-2-1, the false twin 1 moves after the
        # representatives 0 and 2, which become 0 and 1
        path = Graph.from_edges(3, [(0, 2), (1, 2)])
        assert solvers._twin_rows(path.adj) == ((0b010, 0b101), (0, 2))
        assert solvers._from_reps(0b10, (0, 2)) == 0b100

    def test_every_labelled_graph_up_to_order_6(self, monkeypatch):
        monkeypatch.setattr(_table, "ProcessPoolExecutor", ThreadPoolExecutor)
        for n in range(1, 7):
            for g in all_labeled_graphs(n):
                self.check(g)

    def test_seeded_blowups(self, monkeypatch):
        monkeypatch.setattr(_table, "ProcessPoolExecutor", ThreadPoolExecutor)
        rng = random.Random(44)
        checked = 0
        while checked < 200:
            g = seeded_blowup(rng, rng.randint(1, 7))
            if g.n <= 16:
                self.check(g)
                checked += 1

    def test_blowups_past_one_block(self, monkeypatch):
        # 18 classes over 19 to 22 vertices: two or four blocks, of which
        # workers=2 hands all but the first to a pool
        monkeypatch.setattr(_table, "ProcessPoolExecutor", ThreadPoolExecutor)
        rng = random.Random(45)
        for extra in (1, 4):
            base = random_graph(18, rng.randrange(10**6))
            sizes = [1] * 18
            for v in rng.sample(range(18), extra):
                sizes[v] = 2
            order = list(range(18 + extra))
            rng.shuffle(order)
            g = twin_blowup(base, sizes, [rng.random() < 0.5 for _ in sizes], order)
            assert len(solvers._twin_rows(g.adj)[0]) == 18
            ub = kappa_bounds(g)[1]
            want = _table._table_scan(g.adj, g.n, ub, True, None)
            for workers in (None, 2):
                assert solved(kappa_q(g, engine="numpy", workers=workers))[1:] == want

    def test_table_gets_one_row_per_twin_class(self, monkeypatch):
        rows = []
        table_scan = _table._table_scan

        def spy(adj, n, ub, prime, workers):
            rows.append(len(adj))
            return table_scan(adj, n, ub, prime, workers)

        monkeypatch.setattr(_table, "_table_scan", spy)
        # auto splits G_{2,12} and scans K24 = G_{1,24} in pure Python
        cases = [(complete_multipartite(2, 12), 12, {"engine": "numpy"}),
                 (complete_multipartite(1, 24), 1, {"engine": "numpy"}),
                 (random_graph(24, 1), 24, {})]
        for g, want, kwargs in cases:
            rows.clear()
            kappa_q(g, **kwargs)
            assert rows == [want], g.n


def path(n):
    """P_n through 0, 1, ..., n-1."""
    return Graph.from_edges(n, [(i, i + 1) for i in range(n - 1)])


def check_layered(g, rows=None):
    """_layered_scan fused, kappa only and kappa' only, against the table.

    The scans cover the rows given, or else every row of g.
    """
    adj, n = rows or g.adj, g.n
    # the degree bound, and n + 1, which never binds, so that the tie-only
    # layer n - kappa is checked apart from the stop at the bound
    for ub in (kappa_bounds(g)[1], n + 1):
        kv, km, pv, pm = _table._table_scan(adj, n, ub, True, None)
        assert solvers._layered_scan(adj, n, ub, True) == (kv, km, pv, pm), adj
        assert solvers._layered_scan(adj, n, ub, False) == (kv, km, n + 1, 0), adj
    assert solvers._layered_scan(adj, n, -1, True) == (-1, 0, pv, pm), adj


def check_profile(g):
    """_layered_scan's parity profile against the oracle's.

    The scans cover every row of g, and its twin rows where it has twins,
    at the degree bound and at n + 1.
    """
    want = profile_oracle(g)
    rows, reps = solvers._twin_rows(g.adj)
    for adj, verts in {(g.adj, tuple(range(g.n))), (rows, reps)}:
        for ub in (kappa_bounds(g)[1], g.n + 1):
            got = solvers._layered_scan(adj, g.n, ub, True, True)
            assert tuple(solvers._from_reps(x, verts) if i & 1 else x
                         for i, x in enumerate(got)) == want, (g.adj, adj, ub)


class TestLayeredScan:
    """The layered pass against the table kernel, on values and witnesses.

    Each test runs twice: with the fallback to the ascending kappa scan as
    it ships, and with it switched off, so that graphs small enough to take
    it still run every layer.
    """

    @pytest.fixture(autouse=True, params=["fallback", "no fallback"])
    def layer_cost(self, request, monkeypatch):
        if request.param == "no fallback":
            monkeypatch.setattr(solvers, "_LAYER_COST", 0)

    def test_every_labelled_graph_up_to_order_6(self):
        for n in range(1, 7):
            for g in all_labeled_graphs(n):
                check_layered(g)

    def test_seeded_blowups(self):
        rng = random.Random(46)
        for _ in range(60):
            g = seeded_blowup(rng, rng.randint(1, 6))
            check_layered(g)
            check_layered(g, solvers._twin_rows(g.adj)[0])

    def test_families(self):
        check_layered(q3())
        check_layered(Graph.empty(1))
        for n in range(3, 19):
            for g in (cycle(n), path(n), star(n)):
                check_layered(g)

    def test_parity_profile(self):
        # the profile a split leaf takes, which never falls back
        for n in range(1, 7):
            for g in all_labeled_graphs(n):
                check_profile(g)
        rng = random.Random(46)
        for _ in range(60):
            check_profile(seeded_blowup(rng, rng.randint(1, 6)))
        for n in range(3, 15):
            for g in (cycle(n), path(n), star(n)):
                check_profile(g)

    def test_seeded_graphs_of_order_13_to_20(self):
        # masks of up to 20 bits, where Gosper's carry crosses long runs of
        # ones.  The passes over G(n, 1/2) end by layer 5; a sparse graph
        # has a small kappa and a dense one a large kappa', so theirs reach
        # layer 9, whose runs hold up to 9 ones
        rng = random.Random(49)
        for n in range(13, 21):
            for seed in range(5):
                check_layered(random_graph(n, seed))
            for p in (0.12, 0.88):
                check_layered(Graph.from_edges(n, [
                    (u, v) for u in range(n) for v in range(u + 1, n)
                    if rng.random() < p
                ]))

    def test_smallest_witness_in_a_later_layer(self):
        # the path 0-3-2-1 and an isolated vertex: {2} is the first optimum
        # found, in layer 1, but {0, 1} ties it in layer 2 and is smaller;
        # kappa = 2 stays below the bound 3
        g = Graph.from_edges(5, [(0, 3), (1, 2), (2, 3)])
        assert kappa_bounds(g)[1] == 3
        for m in (0b100, 0b11):
            assert len(odd_neighborhood(g, VertexSet(m, 5)) - VertexSet(m, 5)) == 2
        assert solvers._layered_scan(g.adj, 5, 3, True)[:2] == (2, 0b11)
        check_layered(g)
        # kappa = 3 stays below the bound 4, and layer 3 = n - kappa can only
        # tie: {3} is the first optimum found, in layer 1, and the smaller
        # {0, 1, 2} ties it there, so the pass must still enter that layer
        g = Graph.from_edges(6, [(0, 3), (0, 5), (1, 3), (1, 4), (2, 3)])
        assert kappa_bounds(g)[1] == 4
        for m in (0b1000, 0b111):
            assert len(odd_neighborhood(g, VertexSet(m, 6)) - VertexSet(m, 6)) == 3
        assert solvers._layered_scan(g.adj, 6, 4, True)[:2] == (3, 0b111)
        check_layered(g)

    def test_tie_after_the_degree_bound(self):
        # the same path alone: {2} reaches the bound 2 in layer 1, and the
        # smaller {0, 1} ties it in layer 2, so the pass must not stop there
        g = Graph.from_edges(4, [(0, 3), (1, 2), (2, 3)])
        assert kappa_bounds(g)[1] == 2
        assert solvers._layered_scan(g.adj, 4, 2, False)[:2] == (2, 0b11)
        assert solvers._scan_kappa(g.adj, 2) == (2, 0b11)
        check_layered(g)


def join(g, h):
    """The join of g and h: their disjoint union plus every edge between them."""
    return complement(disjoint_union(complement(g), complement(h)))


def relabelled(g, rng):
    perm = list(range(g.n))
    rng.shuffle(perm)
    return Graph.from_edges(g.n, [(perm[u], perm[v]) for u, v in g.edges()])


def nested(rng, n):
    """A seeded graph of order n built by nested unions and joins."""
    if n <= 2 or rng.random() < 0.25:
        return random_graph(n, rng.randrange(10**6))
    k = rng.randint(1, n - 1)
    parts = nested(rng, k), nested(rng, n - k)
    return disjoint_union(*parts) if rng.random() < 0.5 else join(*parts)


class TestSplit:
    """auto's split against the whole-graph kernels, on values and witnesses.

    Each test runs twice: with the cost rule as it ships, and with every
    possible split taken, so that the small graphs the rule keeps whole
    still split.
    """

    @pytest.fixture(autouse=True, params=["cost rule", "always split"])
    def rule(self, request, monkeypatch):
        self.always = request.param == "always split"
        if self.always:
            monkeypatch.setattr(solvers, "_leaf_masks", lambda part: 0)

    def check(self, g):
        if self.always:
            split = solvers._plan(g, "auto").split
            assert (split is None) == (solvers._split(g.adj) is None)
        want = solved(kappa_q(g, engine="pure"))
        assert solved(kappa_q(g, engine="numpy")) == want, g.adj
        assert solved(kappa_q(g)) == want, g.adj
        k, kp = kappa(g), kappa_prime(g)
        assert (k.value, k.witness.mask, kp.value, kp.witness.mask) == want[1:]

    def test_every_splittable_labelled_graph_up_to_order_6(self):
        checked = 0
        for n in range(1, 7):
            for g in all_labeled_graphs(n):
                if solvers._split(g.adj) is not None:
                    self.check(g)
                    checked += 1
        assert checked == 12_782

    def test_seeded_nested_unions_and_joins(self):
        rng = random.Random(47)
        for _ in range(150):
            g = relabelled(nested(rng, rng.randint(2, 18)), rng)
            self.check(g)

    def test_families(self):
        for n in range(1, 25):
            for g in (Graph.empty(n), complete_multipartite(1, n), star(n)):
                self.check(g)

    def test_union_and_join_of_leaves(self):
        # a leaf with true twins, one with false twins, and P4, which has
        # none: every node kind of the split, under interleaved labels
        rng = random.Random(48)
        parts = [twin_blowup(path(4), [2, 1, 1, 2], [True, False, True, False],
                             rng.sample(range(6), 6)),
                 p4_blowup(), path(4), cycle(5)]
        for a in parts:
            for b in parts:
                if a.n + b.n <= 30:
                    for g in (disjoint_union(a, b), join(a, b)):
                        self.check(relabelled(g, rng))


class TestBounds:
    def test_k4_bounds_collapse(self):
        assert kappa_bounds(k4()) == (3, 3)

    def test_c5_bounds(self):
        assert kappa_bounds(cycle(5)) == (2, 3)
        assert kappa_prime_bounds(cycle(5)) == (2, 3)

    def test_q3_bounds(self):
        assert kappa_bounds(q3()) == (3, 6)

    def test_bounds_bracket_exact_values(self):
        rng = random.Random(36)
        for _ in range(40):
            n = rng.randint(1, 10)
            g = random_graph(n, rng.randrange(10**6))
            klo, khi = kappa_bounds(g)
            assert klo <= kappa(g).value <= khi
            plo, phi = kappa_prime_bounds(g)
            assert plo <= kappa_prime(g).value <= phi

    def test_empty_graph_rejected(self):
        with pytest.raises(ValueError):
            kappa_bounds(Graph.empty(0))


class TestClosedForm:
    def test_examples(self):
        assert gpq_closed_form(2, 3) == (4, 3)
        assert gpq_closed_form(1, 5) == (4, 5)
        assert gpq_closed_form(2, 2) == (2, 3)

    def test_matches_solvers(self):
        for p in range(1, 13):
            for q in range(1, 13):
                if p * q > 12:
                    continue
                g = complete_multipartite(p, q)
                want_k, want_kp = gpq_closed_form(p, q)
                assert kappa(g).value == want_k, (p, q)
                assert kappa_prime(g).value == want_kp, (p, q)

    def test_preconditions(self):
        with pytest.raises(ValueError):
            gpq_closed_form(0, 3)
        with pytest.raises(ValueError):
            gpq_closed_form(3, 0)


class TestCopies:
    def test_scaling_laws(self):
        rng = random.Random(37)
        for _ in range(10):
            n = rng.randint(2, 8)
            g = random_graph(n, rng.randrange(10**6))
            base_k = kappa(g).value
            base_kp = kappa_prime(g).value
            for r in (2, 3):
                gr = power(g, r)
                assert kappa(gr).value == r * base_k
                assert kappa_prime(gr).value == base_kp


def threshold_loop(g, k):
    """Reference: the incremental pure-Python scan over all nonempty D."""
    n = g.n
    full = (1 << n) - 1
    pre = _neighbor_prefix(g.adj)
    odd = 0
    for i in range(1, 1 << n):
        odd ^= pre[(i & -i).bit_length() - 1]
        if (i | odd).bit_count() <= n - k:
            return False
        if (i | (~odd & full)).bit_count() <= n - k:
            return False
    return True


class TestThresholdCondition:
    def test_matches_loop(self):
        graphs = [g for n in range(6) for g in all_labeled_graphs(n)]
        rng = random.Random(42)
        graphs += [random_graph(rng.randint(6, 10), rng.randrange(10**6))
                   for _ in range(40)]
        for g in graphs:
            for k in range(g.n + 2):
                assert check_threshold_condition(g, k) is threshold_loop(g, k), (
                    g.adj, k)


    def test_trivial_k_values(self):
        for g in (cycle(5), k4(), random_graph(7, 9)):
            assert check_threshold_condition(g, g.n + 1) is True
            assert check_threshold_condition(g, 0) is False

    def test_c5_case(self):
        g = cycle(5)
        assert check_threshold_condition(g, 3) is True
        assert kappa_q(g).value == 2 < 3

    def test_soundness(self):
        rng = random.Random(38)
        for _ in range(25):
            n = rng.randint(1, 8)
            g = random_graph(n, rng.randrange(10**6))
            exact = kappa_q(g).value
            for k in range(n + 2):
                if check_threshold_condition(g, k):
                    assert exact < k

    def test_preconditions(self):
        with pytest.raises(CapExceededError):
            check_threshold_condition(random_graph(13, 1), 3, cap=12)
        with pytest.raises(ValueError):
            check_threshold_condition(cycle(5), -1)


class TestDuality:
    def test_sum_at_least_n(self):
        rng = random.Random(39)
        for _ in range(30):
            n = rng.randint(1, 10)
            g = random_graph(n, rng.randrange(10**6))
            assert kappa_prime(g).value + kappa(complement(g)).value >= n


class TestBlowupChain:
    def test_threshold_equivalence(self):
        # kappa_Q(G^(k+1)) >= (k+1)n - k  <=>  kappa'(G^(k+1)) <= k
        # <=> kappa'(G) <= k, since copies preserve kappa' and scale kappa
        rng = random.Random(40)
        graphs = [random_graph(rng.randint(1, 5), rng.randrange(10**6))
                  for _ in range(8)]
        for g in graphs:
            base_kp = kappa_prime(g).value
            for k in range(4):
                gr = power(g, k + 1)
                big_n = gr.n
                lhs = kappa_q(gr).value >= big_n - k
                mid = kappa_prime(gr).value <= k
                rhs = base_kp <= k
                assert lhs == mid == rhs, (g.adj, k)


# Run in a fresh interpreter: solves that take only the pure scans must
# leave numpy and the process pool unloaded, and the table kernel must
# load them on demand and agree with the pure scan.
NUMPY_FREE_SCRIPT = """
import contextlib, io, json, sys
import wodkit
from wodkit import (Graph, cli, disjoint_union, kappa, kappa_q, random_graph,
                    write_graph6)
from wodkit.fixtures import petersen, q3

kappa_q(random_graph(14, 3))
# three copies of Q3 split into pure leaf scans, and the P4 blow-up, of
# order 24 in four twin classes, takes the pure scans whole
kappa_q(disjoint_union(q3(), disjoint_union(q3(), q3())))
kappa_q(Graph.from_edges(24, [(u, v) for u in range(24) for v in range(u)
                              if u // 6 == v // 6 + 1]))
g6 = write_graph6(petersen())
out = io.StringIO()
with contextlib.redirect_stdout(out):
    assert cli.main(["compute", "--graph", g6, "--no-timing"]) == 0
k = json.loads(out.getvalue())["results"]["kappa"]
cert = json.dumps({"kind": "WOD", "b": k["wod_set"], "witness": k["witness"]})
with contextlib.redirect_stdout(io.StringIO()):
    assert cli.main(["verify", "--graph", g6, "--certificate", cert]) == 0
assert "numpy" not in sys.modules, "numpy loaded"
assert "concurrent.futures.process" not in sys.modules, "process pool loaded"

g = random_graph(14, 3)
table = kappa(g, engine="numpy")
assert "numpy" in sys.modules
pure = kappa(g, engine="pure")
assert (table.value, table.witness) == (pure.value, pure.witness)
"""


def test_pure_solves_leave_numpy_unloaded():
    src = Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run(
        [sys.executable, "-c", NUMPY_FREE_SCRIPT],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
