from __future__ import annotations

import functools
import itertools
import math
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
    parse_graph6,
    power,
    random_graph,
    verify_non_wod_certificate,
    verify_wod_certificate,
)
from wodkit import _table, solvers
from wodkit.fixtures import cycle, k4, q3
from wodkit.graph import _neighbor_prefix, min_degree


def twin_rows(adj):
    """solvers._twin_rows over every vertex of the graph of the rows adj."""
    rows, reps = solvers._twin_rows(adj, (1 << len(adj)) - 1, False, [0] * len(adj))
    return tuple(rows), reps


def split_of(g):
    """auto's split of g, built whatever its leaves weigh; None if g has none."""
    return solvers._split(g.adj, 0, 1)


def split_leaves(node):
    """The leaves of a split node: a vertex, or (size, rows, reps)."""
    if isinstance(node, int) or isinstance(node[1], tuple):
        return [node]
    return [leaf for child in node[2] for leaf in split_leaves(child)]


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
        # ub = 0: every kernel returns kappa = 0 at the empty set, alone and
        # in kappa_q's run, and kappa' = 1 at the smallest vertex
        for n in (1, 4, 21):
            g = Graph.empty(n)
            for engine in ("auto", "pure", "numpy"):
                kp = kappa_prime(g, engine=engine)
                assert (kp.value, kp.witness.mask, kp.bounds_used) == (1, 1, (1, 1))
                for workers in (None, 2):
                    res = kappa(g, engine=engine, workers=workers)
                    assert (res.value, res.witness.mask, res.bounds_used) == (
                        0, 0, (0, 0))
                    q = kappa_q(g, engine=engine, workers=workers)
                    assert (q.value, q.kappa, q.kappa_prime) == (n - 1, res, kp)

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
        rows = twin_rows(g.adj)[0]
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

    def test_pool_merges_a_kappa_prime_witness_past_block_zero(self, monkeypatch):
        # random_graph(17, 1) plus vertex 17, pendant on vertex 16: 18 twin
        # classes in 4 blocks, and the smallest kappa' witness {17} lies
        # in block 2, so only the merge of the pool's ranges can find it.
        # The pool runs on threads, so the merge runs in this process
        monkeypatch.setattr(_table, "ProcessPoolExecutor", ThreadPoolExecutor)
        g = parse_graph6("QTfboCvPUygtF]w|fWsNY^hW??G")
        assert len(twin_rows(g.adj)[0]) == 18
        res = kappa_q(g, engine="numpy", workers=2)
        assert res.value == 16
        assert (res.kappa.value, res.kappa.witness.to_sorted_list()) == (13, [2, 7, 16])
        assert (res.kappa_prime.value, res.kappa_prime.witness.to_sorted_list()) == (2, [17])

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
        with pytest.raises(ValueError, match="unknown engine 'magic'"):
            solvers._plan(cycle(5), "magic")
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

    def test_slot_serves_only_its_graph(self, monkeypatch):
        # a wrapper of kappa, as perfbench's tracer installs, that solves
        # kappa' of another graph before it returns: h gets its own kappa',
        # and kappa_q(g) still gets g's from the run of kappa(g)
        g, h = random_graph(12, 1), cycle(9)
        want, want_h = solved(kappa_q(g)), kappa_prime(h)
        assert (want_h.value, want_h.witness.mask) != want[3:]
        real = solvers.kappa
        seen = []

        def wrapper(graph, **kwargs):
            res = real(graph, **kwargs)
            seen.append(kappa_prime(h))
            return res

        monkeypatch.setattr(solvers, "kappa", wrapper)
        calls = spy_on_kernels(monkeypatch)
        assert solved(kappa_q(g)) == want
        assert seen == [want_h]
        assert calls == ["layered fused", "layered kappa'"]

    def test_raise_inside_kappa_leaves_no_slot(self, monkeypatch):
        g = random_graph(12, 1)
        want = kappa_prime(g)
        real = solvers.kappa

        def failing(graph, **kwargs):
            real(graph, **kwargs)
            raise RuntimeError("wrapper failed")

        monkeypatch.setattr(solvers, "kappa", failing)
        with pytest.raises(RuntimeError, match="wrapper failed"):
            kappa_q(g)
        monkeypatch.undo()
        # the slot is reset: each later call runs its own solve
        calls = spy_on_kernels(monkeypatch)
        assert kappa_prime(g) == want
        kappa(g)
        assert calls == ["layered kappa'", "layered kappa"]

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
    assert len(twin_rows(g.adj)[0]) == 24
    return g


def q3_and_relabelled_copy():
    """Q3 and a copy of it with vertices 0 and 1 swapped, which is no automorphism."""
    g = q3()
    swap = [1, 0, *range(2, 8)]
    copy = Graph.from_edges(8, [(swap[u], swap[v]) for u, v in g.edges()])
    g = disjoint_union(g, copy)
    (_, first_rows, _), (_, second_rows, _) = split_of(g)[2]
    assert first_rows != second_rows
    return g


def spy_on_kernels(monkeypatch):
    """The list of kernel calls the solves after this one make, by label.

    The table for kappa, kappa' or both in one fused pass, the layered
    pure pass and _infoset_scan likewise, and the layered pass over each
    leaf of a split, which gives its parity profile.  workers=2 runs its
    pool on threads, so no process starts.
    """
    calls = []
    table_scan = _table._table_scan
    layered = solvers._layered_scan
    infoset = solvers._infoset_scan

    def label(kernel, ub, prime):
        return (f"{kernel} fused" if ub >= 0 and prime
                else f"{kernel} kappa" if ub >= 0 else f"{kernel} kappa'")

    def table_spy(adj, n, ub, prime, workers):
        calls.append(label("table", ub, prime))
        return table_scan(adj, n, ub, prime, workers)

    def layered_spy(adj, n, ub, prime, parity=False):
        calls.append(f"leaf of {n}" if parity else label("layered", ub, prime))
        return layered(adj, n, ub, prime, parity)

    def infoset_spy(adj, n, ub, prime, cut, levels):
        calls.append(label("infoset", ub, prime))
        return infoset(adj, n, ub, prime, cut, levels)

    monkeypatch.setattr(_table, "_table_scan", table_spy)
    monkeypatch.setattr(solvers, "_layered_scan", layered_spy)
    monkeypatch.setattr(solvers, "_infoset_scan", infoset_spy)
    monkeypatch.setattr(_table, "ProcessPoolExecutor", ThreadPoolExecutor)
    return calls


def test_kernel_choice_under_auto(monkeypatch):
    calls = spy_on_kernels(monkeypatch)
    dense19 = circulant(19, range(1, 6))
    assert min_degree(random_graph(24, 1)) == 8
    assert (dense19.n, min_degree(dense19)) == (19, 10)
    # K1 + G(23, 1/2): its leaf of 2^23 masks costs more than the table
    k1_g23 = disjoint_union(Graph.empty(1), random_graph(23, 1))
    assert split_of(k1_g23) is not None
    cases = [
        # no twins, even order from 22 on, and an invertible balanced cut
        (random_graph(24, 1), {}, ["infoset fused"]),
        (random_graph(22, 1), {}, ["infoset fused"]),
        (random_graph(24, 1), {"workers": 2}, ["table fused"]),
        (random_graph(24, 1), {"engine": "numpy"}, ["table fused"]),
        (random_graph(24, 1), {"engine": "pure"}, ["layered fused"]),
        (random_graph(23, 1), {}, ["table fused"]),
        (random_graph(20, 1), {}, ["table kappa", "layered kappa'"]),
        # C24 has invertible cuts, but n - kappa >= n - 16 = 8 asks for
        # level 4, past the levels that pay at order 24; the isolated
        # vertex of K1 + G(23, 1/2) leaves a zero row in every cut matrix
        (cycle(24), {}, ["table kappa", "layered kappa'"]),
        (k1_g23, {}, ["table kappa", "layered kappa'"]),
        # 20 * (2^5 + 2^19) < 2^24: a leaf mask weighs as much as 20 table
        # masks, and a K1 leaf takes no pass at all
        (disjoint_union(cycle(5), random_graph(19, 1)), {},
         ["leaf of 5", "leaf of 19"]),
        (disjoint_union(disjoint_union(Graph.empty(1), cycle(5)),
                        random_graph(18, 1)), {},
         ["leaf of 5", "leaf of 18"]),
        # the split: one leaf scan serves kappa and kappa', and the copies,
        # or the co-components of the complement, have equal local rows,
        # so they share it
        (three_cubic8(), {}, ["leaf of 8"]),
        (complement(three_cubic8()), {}, ["leaf of 8"]),
        (three_cubic8(), {"workers": 2}, ["leaf of 8"]),
        (three_cubic8(), {"engine": "numpy"}, ["table fused"]),
        # a relabelled copy has other local rows, and takes a scan of its own
        (q3_and_relabelled_copy(), {}, ["leaf of 8"] * 2),
        # below r = 20 the whole-graph scan is pure too, and a leaf mask
        # weighs as much as 4 of its masks: 4 * 2 * 2^5 < 2^10
        (power(cycle(5), 2), {}, ["leaf of 5"]),
        # 4 * (2 + 2^17) >= 2^18: the leaf would cost more than the
        # layered pass over the whole graph
        (disjoint_union(Graph.empty(1), random_graph(17, 1)), {},
         ["layered fused"]),
        (power(cycle(5), 2), {"engine": "pure"}, ["layered fused"]),
        # 24 vertices in 4 twin classes, connected and co-connected
        (p4_blowup(), {}, ["layered fused"]),
        (dense19, {}, ["layered kappa", "table kappa'"]),
        (random_graph(18, 1), {}, ["layered fused"]),
        (random_graph(18, 1), {"engine": "pure"}, ["layered fused"]),
        (random_graph(18, 1), {"engine": "pure", "workers": 2},
         ["table kappa", "layered kappa'"]),
        # a cycle is connected and co-connected, and has no twins: below
        # r = 20 the one pass serves kappa and kappa', however many of its
        # layers kappa still needs
        (cycle(18), {}, ["layered fused"]),
    ]
    for g, kwargs, want in cases:
        calls.clear()
        kappa_q(g, **kwargs)
        assert calls == want, (g.n, kwargs)
    # kappa and kappa' on their own take the kernel the plan gives kappa_q
    calls.clear()
    kappa(random_graph(24, 1))
    kappa_prime(random_graph(24, 1))
    assert calls == ["infoset kappa", "infoset kappa'"]


def test_split_refused_at_its_budget(monkeypatch):
    # GSf~~w falls apart into 8 one-vertex leaves of 2 masks each and has
    # r = 6 twin classes: 4 * 16 = 2^6, which the strict rule refuses, so
    # auto takes one layered pass over the whole graph
    g = parse_graph6("GSf~~w")
    assert len(twin_rows(g.adj)[0]) == 6
    assert sorted(split_leaves(split_of(g))) == list(range(8))
    assert solvers._split(g.adj, solvers._LEAF_COST_PURE, 1 << 6) is None
    assert solvers._split(g.adj, solvers._LEAF_COST_PURE, (1 << 6) + 1) is not None
    assert solvers._plan(g, "auto").split is None
    calls = spy_on_kernels(monkeypatch)
    kappa_q(g)
    assert calls == ["layered fused"]


def test_infoset_hands_off_to_the_table(monkeypatch):
    # G(24, 1/2) settles at level 3: allowed levels 0..2 only, the scan
    # hands the solve to the table, which returns the same result
    g = random_graph(24, 1)
    want = solved(kappa_q(g, engine="numpy"))
    calls = spy_on_kernels(monkeypatch)
    monkeypatch.setattr(solvers, "_infoset_levels", lambda n: 2)
    assert solved(kappa_q(g)) == want
    assert calls == ["infoset fused", "table fused"]


def seeded_blowup(rng, base_order):
    base = random_graph(base_order, rng.randrange(10**6))
    sizes = [rng.randint(1, 3) for _ in range(base.n)]
    order = list(range(sum(sizes)))
    rng.shuffle(order)
    return twin_blowup(base, sizes, [rng.random() < 0.5 for _ in sizes], order)


def generator_twin_rows(adj):
    """_twin_rows over every vertex, each row relabelled by a generator.

    The oracle for the rows that _twin_rows builds from set bits: the
    generator adds the new bit of each vertex u that is a neighbour.
    """
    reps, others = [], []
    open_rows, closed_rows = set(), set()
    for v, row in enumerate(adj):
        if row in open_rows or row | 1 << v in closed_rows:
            others.append(v)
        else:
            reps.append(v)
            open_rows.add(row)
            closed_rows.add(row | 1 << v)
    pos = {v: i for i, v in enumerate(reps + others)}
    rows = tuple(
        sum(1 << pos[u] for u in range(len(adj)) if adj[v] >> u & 1) for v in reps
    )
    return rows, tuple(reps)


def generator_leaf(adj, part, co):
    """_twin_rows of H[part] from the local rows of part, by generators.

    H is the graph of the rows adj, or with co its complement.
    """
    verts = [v for v in range(len(adj)) if part >> v & 1]
    local = []
    for v in verts:
        row = (~adj[v] if co else adj[v]) & part & ~(1 << v)
        local.append(sum(1 << i for i, u in enumerate(verts) if row >> u & 1))
    rows, reps = generator_twin_rows(tuple(local))
    return rows, tuple(verts[i] for i in reps)


def generator_module(adj, part, co):
    """The split node of H[part], its leaves built by generator_leaf."""
    if not part & (part - 1):
        return part.bit_length() - 1
    parts = solvers._components(adj, part, not co)
    if len(parts) > 1:
        return (part.bit_count(), True,
                tuple(generator_module(adj, p, not co) for p in parts))
    return part.bit_count(), *generator_leaf(adj, part, co)


def check_relabelling(g):
    """_twin_rows and _split against the generator relabelling.

    _twin_rows runs on g, and on each component of g and of its
    complement with H = g and with H the complement, each time over a
    position table the call before it left set; _split's whole tree
    reuses one table across its leaves.
    """
    assert twin_rows(g.adj) == generator_twin_rows(g.adj), g.adj
    full = (1 << g.n) - 1
    pos = list(range(g.n, 0, -1))
    for co in (False, True):
        for part in solvers._components(g.adj, full, co):
            for h in (False, True):
                rows, reps = solvers._twin_rows(g.adj, part, h, pos)
                assert ((tuple(rows), reps)
                        == generator_leaf(g.adj, part, h)), (g.adj, part, h)
    want = None
    for co in (False, True):
        parts = solvers._components(g.adj, full, co)
        if len(parts) > 1:
            want = g.n, co, tuple(generator_module(g.adj, p, co) for p in parts)
            break
    assert split_of(g) == want, g.adj


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
        assert twin_rows(complete_multipartite(2, 3).adj)[1] == (0, 2, 4)
        assert twin_rows(k4().adj) == ((0b1110,), (0,))
        p4 = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
        assert twin_rows(p4.adj) == (p4.adj, (0, 1, 2, 3))
        # in the path 0-2-1, the false twin 1 moves after the
        # representatives 0 and 2, which become 0 and 1
        path = Graph.from_edges(3, [(0, 2), (1, 2)])
        assert twin_rows(path.adj) == ((0b010, 0b101), (0, 2))
        # the complement of the path 0-2-1-3 on {0, 1, 2} is the edge 0-1
        # and 2 alone: the true twin 1 moves after 0 and 2
        path = Graph.from_edges(4, [(0, 2), (1, 2), (1, 3)])
        rows, reps = solvers._twin_rows(path.adj, 0b111, True, [0] * 4)
        assert (tuple(rows), reps) == ((0b100, 0b000), (0, 2))
        assert solvers._relabel(0b10, (0, 2)) == 0b100

    def test_every_labelled_graph_up_to_order_6(self, monkeypatch):
        monkeypatch.setattr(_table, "ProcessPoolExecutor", ThreadPoolExecutor)
        for n in range(1, 7):
            for g in all_labeled_graphs(n):
                self.check(g)

    def test_relabelled_rows_match_the_generators(self):
        for n in range(1, 7):
            for g in all_labeled_graphs(n):
                check_relabelling(g)
        rng = random.Random(51)
        for _ in range(200):
            check_relabelling(seeded_blowup(rng, rng.randint(1, 7)))
        for g in (p4_blowup(), complement(p4_blowup()), three_cubic8(),
                  complete_multipartite(2, 12), complete_multipartite(3, 8)):
            check_relabelling(g)

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
            assert len(twin_rows(g.adj)[0]) == 18
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
        # auto splits G_{2,12}, scans K24 = G_{1,24} in pure Python and
        # sends G(24, 1/2) to _infoset_scan; G(23, 1/2) has odd order
        cases = [(complete_multipartite(2, 12), 12, {"engine": "numpy"}),
                 (complete_multipartite(1, 24), 1, {"engine": "numpy"}),
                 (random_graph(23, 1), 23, {})]
        for g, want, kwargs in cases:
            rows.clear()
            kappa_q(g, **kwargs)
            assert rows == [want], g.n


def path(n):
    """P_n through 0, 1, ..., n-1."""
    return Graph.from_edges(n, [(i, i + 1) for i in range(n - 1)])


def grid(rows, cols):
    """The rows x cols grid, with vertex i * cols + j at row i, column j."""
    n = rows * cols
    return Graph.from_edges(n, [(v, v + 1) for v in range(n) if (v + 1) % cols]
                            + [(v, v + cols) for v in range(n - cols)])


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
    rows, reps = twin_rows(g.adj)
    for adj, verts in {(g.adj, tuple(range(g.n))), (rows, reps)}:
        for ub in (kappa_bounds(g)[1], g.n + 1):
            got = solvers._layered_scan(adj, g.n, ub, True, True)
            assert tuple(solvers._relabel(x, verts) if i & 1 else x
                         for i, x in enumerate(got)) == want, (g.adj, adj, ub)


@functools.cache
def ascending_kappa(adj, ub):
    """(kappa value, mask) by an ascending scan over the subsets of adj.

    The scan the layered pass once fell back to for kappa: mask i - 1 steps
    to mask i by flipping the low bit run of i.  As the masks ascend, the
    first maximum is the smallest witness, and the first mask to reach
    ub >= kappa is one, so the scan stops there.
    """
    pre = _neighbor_prefix(adj)
    odd = best_v = best_m = 0
    for i in range(1, 1 << len(adj)):
        odd ^= pre[(i & -i).bit_length() - 1]
        cnt = (odd & ~i).bit_count()
        if cnt > best_v:
            best_v, best_m = cnt, i
            if cnt >= ub:
                break
    return best_v, best_m


class TestLayeredScan:
    """The layered pass against the table kernel, on values and witnesses.

    Each test runs twice: with "no fallback", against the table kernel and
    the oracles alone; with "fallback", every pass the test makes that
    computes kappa is also checked against the ascending scan that the pass
    used to fall back to, which finds kappa and its smallest witness
    independently of the layers.  With parity, the better of the even and
    the odd maximum is checked, the smaller mask on a tie.
    """

    @pytest.fixture(autouse=True, params=["fallback", "no fallback"])
    def ascending_check(self, request, monkeypatch):
        if request.param == "no fallback":
            return
        layered = solvers._layered_scan

        def checked(adj, n, ub, prime, parity=False):
            got = layered(adj, n, ub, prime, parity)
            if ub >= 0:
                best = max((got[0], -got[1]), (got[2], -got[3]))
                kv, km = (best[0], -best[1]) if parity else got[:2]
                assert (kv, km) == ascending_kappa(adj, ub), (adj, ub, parity)
            return got

        monkeypatch.setattr(solvers, "_layered_scan", checked)

    def test_every_labelled_graph_up_to_order_6(self):
        for n in range(1, 7):
            for g in all_labeled_graphs(n):
                check_layered(g)

    def test_seeded_blowups(self):
        rng = random.Random(46)
        for _ in range(60):
            g = seeded_blowup(rng, rng.randint(1, 6))
            check_layered(g)
            check_layered(g, twin_rows(g.adj)[0])

    def test_families(self):
        check_layered(q3())
        check_layered(Graph.empty(1))
        # masks of up to 22 bits, and sparse graphs, whose kappa witness
        # lies past the first layers (layer 5 to 7 on the grids and C20-C22)
        for n in range(3, 23):
            for g in (cycle(n), path(n), star(n)):
                check_layered(g)
        for rows, cols in ((3, 6), (3, 7), (4, 5)):
            check_layered(grid(rows, cols))

    def test_edges_of_the_flat_run(self):
        # a mask of layer k is an upper part of k - 1 vertices and a lowest
        # vertex below it, walked in a flat run.  Each graph goes through
        # the fused, kappa-only and kappa'-only (ub = -1) passes over its
        # rows and, where given, its twin rows, and the parity passes
        scan = solvers._layered_scan
        cases = []
        # k = 1: the upper part is empty, and one run covers all r vertices;
        # both witnesses are its last two, the star's centre 5 and vertex 6
        g = Graph.from_edges(7, [(v, 5) for v in range(5)])
        assert scan(g.adj, 7, 5, True) == (5, 1 << 5, 1, 1 << 6)
        assert scan(g.adj, 7, -1, True) == (-1, 0, 1, 1 << 6)
        assert scan(g.adj, 7, 5, True, True)[:2] == (5, 0b1100000)
        cases.append((g, None))
        # k = r: over the twin rows of G_{2,3} and G_{2,5}, kappa''s witness
        # is every class, the one mask of the last layer
        for q in (3, 5):
            g = complete_multipartite(2, q)
            rows = twin_rows(g.adj)[0]
            assert len(rows) == q
            assert scan(rows, g.n, -1, True) == (-1, 0, q, (1 << q) - 1)
            cases.append((g, rows))
        # r = 1 and r = 2: the edgeless graphs, K2, whose two vertices are
        # true twins, and K_{3,4}, whose twin rows are its two sides
        k34 = Graph.from_edges(7, [(u, v) for u in range(3) for v in range(3, 7)])
        for g in (Graph.empty(1), Graph.empty(2), Graph.from_edges(2, [(0, 1)]), k34):
            cases += [(g, None), (g, twin_rows(g.adj)[0])]
        # a stop at the first mask of an upper part: with parity, the odd
        # maximum 2 is met at {3} in layer 1 and reaches n - k = 2 in layer
        # 3, which is then scanned only below 0b1000; its smaller tie
        # {0, 1, 2} is the one mask of the upper part {1, 2}, and the next
        # upper part's first mask, 0b1011, is past the stop
        g = Graph.from_edges(5, [(0, 4), (1, 3), (3, 4)])
        assert scan(g.adj, 5, 3, True, True)[2:4] == (2, 0b111)
        cases.append((g, None))
        # the same for kappa' = 3, met at {3} and tied by {0, 1, 2}
        g = Graph.from_edges(
            5, [(0, 1), (0, 2), (0, 3), (0, 4), (1, 2), (1, 4), (2, 3)]
        )
        assert scan(g.adj, 5, -1, True) == (-1, 0, 3, 0b111)
        cases.append((g, None))
        # a stop in the middle of a run: on the edgeless graph of order 2,
        # {0} has |D u Odd(D)| = 1 = |D|, which ends layer 1 before {1}.  On
        # the edge 1-2 and vertex 0, {0} does so for kappa', and kappa then
        # reaches its bound 1 at {1}, which ends the run before {2}.  On the
        # edge 0-1 and vertex 2, with parity, the even maximum reaches 1 at
        # {0, 2}, which ends layer 2 before {1, 2}, in the same run
        assert scan((0, 0), 2, -1, True) == (-1, 0, 1, 0b1)
        g = Graph.from_edges(3, [(1, 2)])
        assert scan(g.adj, 3, 1, True) == (1, 0b10, 1, 0b1)
        cases.append((g, None))
        g = Graph.from_edges(3, [(0, 1)])
        assert scan(g.adj, 3, 1, True, True) == (1, 0b101, 1, 0b1, 1, 0b100)
        cases.append((g, None))
        for g, rows in cases:
            check_layered(g, rows)
            check_profile(g)

    def test_parity_profile(self):
        # the profile a split leaf takes
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

    def test_kappa_prime_tie_in_layer_kappa_prime(self):
        # no twins and kappa' = 3: {3} (N(3) = {1, 2}) is the first optimum
        # found, in layer 1, and the smaller {0, 1, 2} (Odd empty) ties it in
        # layer 3 = kappa', which can only tie, so the pass must enter it
        g = Graph.from_edges(
            5, [(0, 1), (0, 2), (0, 4), (1, 2), (1, 3), (2, 3), (2, 4)]
        )
        assert len(twin_rows(g.adj)[0]) == 5
        for m in (0b1000, 0b111):
            c = VertexSet(m, 5)
            assert len(c | odd_neighborhood(g, c)) == 3
        assert solvers._layered_scan(g.adj, 5, -1, True) == (-1, 0, 3, 0b111)
        check_layered(g)

    def test_tie_after_the_degree_bound(self):
        # the same path alone: {2} reaches the bound 2 in layer 1, and the
        # smaller {0, 1} ties it in layer 2, so the pass must not stop there
        g = Graph.from_edges(4, [(0, 3), (1, 2), (2, 3)])
        assert kappa_bounds(g)[1] == 2
        assert solvers._layered_scan(g.adj, 4, 2, False)[:2] == (2, 0b11)
        check_layered(g)


def cut_is_invertible(g, half):
    """Whether the cut matrix A[half, V \\ half] of g is invertible over GF(2).

    half must hold n / 2 vertices.  Its rows go into a basis kept in
    descending order, whose members have distinct top bits, so min(row,
    row ^ b) clears b's top bit from row; a row that reduces to 0 is
    dependent.  Independent of gf2._reduce, which _find_cut runs on.
    """
    rest = (1 << g.n) - 1 ^ half
    basis = []
    for v in range(g.n):
        if half >> v & 1:
            row = g.adj[v] & rest
            for b in basis:
                row = min(row, row ^ b)
            if not row:
                return False
            basis.append(row)
            basis.sort(reverse=True)
    return True


def seeded_gnp(n, p, seed):
    """G(n, p) with each pair (u, v), u < v, in ascending order, an edge
    when random.Random(seed).random() < p."""
    rng = random.Random(seed)
    return Graph.from_edges(n, [(u, v) for u in range(n) for v in range(u + 1, n)
                                if rng.random() < p])


def random_cuts(g, rng, count, tries=200):
    """Up to count distinct invertible halves of g among seeded random ones."""
    cuts = []
    for _ in range(tries):
        half = sum(1 << v for v in rng.sample(range(g.n), g.n // 2))
        if half not in cuts and cut_is_invertible(g, half):
            cuts.append(half)
            if len(cuts) == count:
                break
    return cuts


def check_infoset(g, cuts, alone=True):
    """_infoset_scan over each cut against the table and the layered pass.

    Fused over every cut, which must give the same values and witnesses,
    and with alone, kappa alone and kappa' alone over the first.
    """
    adj, n = g.adj, g.n
    ub = kappa_bounds(g)[1]
    want = _table._table_scan(adj, n, ub, True, None)
    assert solvers._layered_scan(adj, n, ub, True) == want, adj
    for cut in cuts:
        assert solvers._infoset_scan(adj, n, ub, True, cut, n // 2) == want, (adj, cut)
    if alone:
        assert solvers._infoset_scan(adj, n, ub, False, cuts[0], n // 2) == (
            *want[:2], n + 1, 0)
        assert solvers._infoset_scan(adj, n, -1, True, cuts[0], n // 2) == (
            -1, 0, *want[2:])


class TestInfosetScan:
    """The two-information-set kernel, on values and both witnesses."""

    def test_every_labelled_graph_of_order_4_and_6(self):
        # the first two invertible cuts with vertex 0 in S, in the order of
        # itertools.combinations: swapping S and T transposes the cut
        # matrix, so every graph with an invertible cut has one of these.
        # Order 6 checks the fused scan alone, to keep the test near 3 s
        checked = 0
        for n in (4, 6):
            halves = [sum(1 << v for v in s)
                      for s in itertools.combinations(range(n), n // 2) if 0 in s]
            for g in all_labeled_graphs(n):
                cuts = [h for h in halves if cut_is_invertible(g, h)][:2]
                if cuts:
                    check_infoset(g, cuts, alone=n == 4)
                    checked += 1
        # of the 64 + 32,768 labelled graphs
        assert checked == 23_928

    def test_seeded_graphs_of_even_order_8_to_16(self):
        rng = random.Random(21)
        checked = 0
        for n in range(8, 17, 2):
            for p in (0.3, 0.5, 0.7):
                for _ in range(8):
                    g = seeded_gnp(n, p, rng.randrange(10**6))
                    cuts = random_cuts(g, rng, 3)
                    if cuts:
                        check_infoset(g, cuts)
                        checked += 1
        assert checked >= 100

    def test_two_cuts_of_a_dense_graph_of_order_24(self):
        g = random_graph(24, 1)
        cuts = random_cuts(g, random.Random(24), 2)
        assert len(cuts) == 2
        want = _table._table_scan(g.adj, 24, kappa_bounds(g)[1], True, None)
        for cut in cuts:
            assert solvers._infoset_scan(g.adj, 24, kappa_bounds(g)[1], True, cut, 12) == want

    def test_levels_cap_hands_the_solve_on(self):
        # G(24, 1/2): both quantities settle at level 3
        g = random_graph(24, 1)
        ub, cut = kappa_bounds(g)[1], solvers._find_cut(g.adj)
        want = solvers._infoset_scan(g.adj, 24, ub, True, cut, 12)
        assert solvers._infoset_scan(g.adj, 24, ub, True, cut, 3) == want
        assert solvers._infoset_scan(g.adj, 24, ub, True, cut, 2) is None

    def test_find_cut(self):
        # a found half is balanced and invertible; a zero row, as from an
        # isolated vertex, leaves none
        for seed in range(10):
            for n in (8, 16, 24):
                g = seeded_gnp(n, 0.5, seed)
                cut = solvers._find_cut(g.adj)
                if cut:
                    assert cut.bit_count() == n // 2 and cut_is_invertible(g, cut)
        assert solvers._find_cut(random_graph(24, 1).adj)
        isolated = disjoint_union(Graph.empty(1), random_graph(23, 1))
        assert solvers._find_cut(isolated.adj) == 0

    def test_unit_sources(self):
        # on both halves of the cut found on G(n, 1/2): one source U_v per
        # vertex v of the half, outside it, with Odd(U_v) n half = {v}
        for n in (22, 24, 26):
            g = random_graph(n, 1)
            cut = solvers._find_cut(g.adj)
            assert cut
            for half in (cut, (1 << n) - 1 ^ cut):
                sources = solvers._unit_sources(g.adj, half, n)
                assert sorted(sources) == [v for v in range(n) if half >> v & 1]
                for v, u in sources.items():
                    assert u & half == 0
                    assert odd_neighborhood(g, VertexSet(u, n)).mask & half == 1 << v

    def test_levels_that_pay(self):
        # 2 * sum C(n/2, j) * 3^j restrictions through level K, weighed by
        # _INFOSET_COST, against 2^n table masks
        def cost(n, k):
            return 2 * sum(math.comb(n // 2, j) * 3**j for j in range(k + 1))

        for n in range(2, 31, 2):
            k = solvers._infoset_levels(n)
            assert k == n // 2 or cost(n, k + 1) * solvers._INFOSET_COST > 1 << n
            assert k < 0 or cost(n, k) * solvers._INFOSET_COST <= 1 << n
        assert [solvers._infoset_levels(n) for n in (22, 24, 26, 28)] == [3, 3, 4, 4]

    def test_prefix_walk_meets_every_sum_once(self):
        # 3m distinct single bits as the basis words of m vertices, so each
        # sum names its words: level K must give one sum of one word from
        # each of K distinct vertices, for every such choice, exactly once
        for m in range(1, 7):
            tails = [[1 << b for b in range(3 * i, 3 * m)] for i in range(m)]
            for k in range(m + 1):
                sums = [acc ^ b for acc, tail in solvers._prefix_sums(tails, 0, k - 1, 0)
                        for b in tail]
                want = {sum(1 << (3 * v + j) for v, j in zip(verts, picks))
                        for verts in itertools.combinations(range(m), k)
                        for picks in itertools.product(range(3), repeat=k)}
                assert len(sums) == len(want) == math.comb(m, k) * 3**k
                assert set(sums) == want

    def test_an_optimum_split_evenly_between_the_halves(self):
        # kappa' = 6 on this G(12, 0.7); its smallest witness C has
        # C u Odd(C) 3 : 3 on S and T, so only level 3 meets it.  Optima
        # of larger mask with at most 2 on a half are met by level 2, and
        # would come out if the scan stopped there
        g = seeded_gnp(12, 0.7, 7)
        cut, c = 0b1110100101, 0b11110001
        assert cut_is_invertible(g, cut)
        word = c | solvers._odd_mask(g.adj, c)
        assert (word & cut).bit_count() == (word & ~cut).bit_count() == 3
        assert _table._table_scan(g.adj, 12, -1, True, None)[2:] == (6, c)
        assert solvers._infoset_scan(g.adj, 12, -1, True, cut, 3) == (-1, 0, 6, c)
        assert solvers._infoset_scan(g.adj, 12, -1, True, cut, 2) is None


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
            monkeypatch.setattr(solvers, "_LEAF_COST", 0)
            monkeypatch.setattr(solvers, "_LEAF_COST_PURE", 0)

    def check(self, g):
        if self.always:
            split = solvers._plan(g, "auto").split
            assert (split is None) == (split_of(g) is None)
        want = solved(kappa_q(g, engine="pure"))
        assert solved(kappa_q(g, engine="numpy")) == want, g.adj
        assert solved(kappa_q(g)) == want, g.adj
        k, kp = kappa(g), kappa_prime(g)
        assert (k.value, k.witness.mask, kp.value, kp.witness.mask) == want[1:]

    def test_every_splittable_labelled_graph_up_to_order_6(self):
        checked = 0
        for n in range(1, 7):
            for g in all_labeled_graphs(n):
                if split_of(g) is not None:
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

    def test_repeated_leaves(self):
        # r copies of a leaf, and their complement, whose co-components
        # are the copies' complements: equal leaves share one scan, and
        # each maps its masks through its own vertices.  Every connected
        # and co-connected labelled leaf of order 4 or 5 and seeded ones of
        # order 6 and 7 take r = 2..4 while r * n <= 16, where the pure
        # whole-graph scan stays quick; seeded order-5 leaves take r = 4
        # and order-6 ones r = 3
        rng = random.Random(50)
        leaves = [g for n in (4, 5) for g in all_labeled_graphs(n)
                  if split_of(g) is None]
        assert len(leaves) == 12 + 432
        larger = []
        while len(larger) < 20:
            g = random_graph(6 + len(larger) % 2, rng.randrange(10**6))
            if split_of(g) is None:
                larger.append(g)
        cases = [(g, r) for g in leaves + larger for r in range(2, 5) if r * g.n <= 16]
        cases += [(g, 4) for g in rng.sample(leaves[12:], 8)]
        cases += [(g, 3) for g in larger[::2]]
        for g, r in cases:
            self.check(power(g, r))
            self.check(complement(power(g, r)))
        # a relabelled copy has other local rows, unless the relabelling is
        # an automorphism, so its leaf must not take the first copy's scan
        for g in leaves[::8] + larger:
            h = relabelled(g, rng)
            for u in (disjoint_union(g, h), join(g, h),
                      disjoint_union(power(g, 2), h), join(h, power(g, 2))):
                self.check(u)

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
        with pytest.raises(ValueError, match="at least one vertex"):
            kappa_prime_bounds(Graph.empty(0))


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
# G(24, 1/2) has no twins and an invertible balanced cut: _infoset_scan
g24 = random_graph(24, 1)
infoset = kappa_q(g24)
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
assert kappa_q(g24, engine="numpy") == infoset
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
