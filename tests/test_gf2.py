from __future__ import annotations

import random

import pytest

from wodkit import BitMatrix, BitVector, rank, solve, wod
from wodkit.graph import cut_matrix, random_graph, VertexSet
from wodkit.fixtures import cycle


def bv(*bits: int) -> BitVector:
    return BitVector.from_bits(bits)


def bm(rows: list[list[int]]) -> BitMatrix:
    return BitMatrix.from_rows([BitVector.from_bits(r) for r in rows])


def lists(m: BitMatrix) -> list[list[int]]:
    return [[r >> j & 1 for j in range(m.n_cols)] for r in m.rows]


def ref_rank(rows: list[list[int]]) -> int:
    """GF(2) rank by an independent list-of-lists elimination."""
    rows = [r[:] for r in rows]
    r = 0
    cols = len(rows[0]) if rows else 0
    for c in range(cols):
        piv = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        for i in range(len(rows)):
            if i != r and rows[i][c]:
                rows[i] = [a ^ b for a, b in zip(rows[i], rows[r])]
        r += 1
    return r


def free_columns(m: BitMatrix) -> int:
    """Mask of the columns j of m in the span of columns 0..j-1, by ref_rank."""
    cols = [[row[j] for row in lists(m)] for j in range(m.n_cols)]
    ranks = [ref_rank(cols[:j]) for j in range(m.n_cols + 1)]
    return sum(1 << j for j in range(m.n_cols) if ranks[j + 1] == ranks[j])


def check_canonical(m: BitMatrix, b: BitVector) -> None:
    """solve(m, b) solves the system where ref_rank says it is solvable,
    and is zero on every free column."""
    x = solve(m, b)
    augmented = [row + [b[i]] for i, row in enumerate(lists(m))]
    assert (x is not None) == (ref_rank(augmented) == ref_rank(lists(m)))
    if x is not None:
        assert [(r & x.bits).bit_count() & 1 for r in m.rows] == b.to_list()
        assert x.bits & free_columns(m) == 0


class TestBitVector:
    def test_constructors_and_access(self):
        v = bv(1, 0, 1, 1)
        assert len(v) == 4
        assert v.to_list() == [1, 0, 1, 1]
        assert [v[i] for i in range(4)] == [1, 0, 1, 1]
        assert v.weight() == 3
        assert BitVector.zeros(3).to_list() == [0, 0, 0]
        assert BitVector.ones(3).to_list() == [1, 1, 1]

    def test_padding_bits_rejected(self):
        with pytest.raises(ValueError):
            BitVector(0b100, 2)

    def test_xor_and_self_cancellation(self):
        v = bv(1, 0, 1)
        w = bv(1, 1, 0)
        assert (v ^ w).to_list() == [0, 1, 1]
        assert (v ^ v).to_list() == [0, 0, 0]

    def test_xor_length_mismatch(self):
        with pytest.raises(ValueError):
            bv(1, 0) ^ bv(1, 0, 1)

    def test_index_out_of_range(self):
        with pytest.raises(IndexError):
            bv(1, 0)[2]

    def test_invalid_arguments_rejected(self):
        with pytest.raises(ValueError):
            BitVector(0, -1)
        with pytest.raises(ValueError):
            BitVector.from_bits([2])


class TestBitMatrix:
    def test_constructors(self):
        m = bm([[1, 0], [0, 1]])
        assert m.n_rows == 2 and m.n_cols == 2
        assert m.entry(0, 0) == 1 and m.entry(0, 1) == 0
        assert BitMatrix.identity(3).rows == (1, 2, 4)
        assert BitMatrix.zeros(2, 3).rows == (0, 0)
        m2 = BitMatrix.from_rows([bv(1, 1), bv(0, 1)])
        assert m2.row(0).to_list() == [1, 1]

    def test_row_width_mismatch_rejected(self):
        with pytest.raises(ValueError):
            BitMatrix.from_rows([bv(1, 0), bv(1, 0, 1)])
        with pytest.raises(ValueError):
            BitMatrix((0b100,), 2)
        with pytest.raises(ValueError):
            BitMatrix((), -1)

    def test_empty_from_rows_and_entry_out_of_range(self):
        assert BitMatrix.from_rows([]) == BitMatrix((), 0)
        m = bm([[1, 0, 1]])
        with pytest.raises(IndexError):
            m.entry(0, m.n_cols)


class TestRank:
    def test_identity(self):
        assert rank(BitMatrix.identity(3)) == 3

    def test_duplicate_rows(self):
        assert rank(bm([[1, 1], [1, 1]])) == 1

    def test_c5_cut_matrix(self):
        # rows v2,v3,v4 against columns v0,v1 of the 5-cycle
        g = cycle(5)
        m = cut_matrix(g, VertexSet.from_indices(5, [0, 1]))
        assert (m.n_rows, m.n_cols) == (3, 2)
        assert rank(m) == 2

    def test_empty_matrices(self):
        assert rank(BitMatrix((), 0)) == 0
        assert rank(BitMatrix((), 5)) == 0
        assert rank(BitMatrix((0, 0), 0)) == 0

    def test_invariant_under_row_permutation_and_addition(self):
        rng = random.Random(71)
        for _ in range(60):
            nr, nc = rng.randint(1, 8), rng.randint(1, 8)
            rows = [rng.getrandbits(nc) for _ in range(nr)]
            base = rank(BitMatrix(tuple(rows), nc))
            perm = rows[:]
            rng.shuffle(perm)
            assert rank(BitMatrix(tuple(perm), nc)) == base
            i, j = rng.randrange(nr), rng.randrange(nr)
            if i != j:
                added = rows[:]
                added[i] ^= added[j]
                assert rank(BitMatrix(tuple(added), nc)) == base

    def test_rank_equals_transpose_rank(self):
        # cross-checked with ref_rank
        rng = random.Random(72)
        for _ in range(40):
            nr, nc = rng.randint(1, 16), rng.randint(1, 16)
            lists = [[rng.randint(0, 1) for _ in range(nc)] for _ in range(nr)]
            m = bm(lists)
            assert rank(m) == ref_rank(lists)
            transposed = [[row[j] for row in lists] for j in range(nc)]
            assert rank(bm(transposed)) == rank(m)


class TestSolve:
    def test_identity_system(self):
        x = solve(BitMatrix.identity(2), bv(1, 0))
        assert x.to_list() == [1, 0]

    def test_free_variable_zeroed(self):
        x = solve(bm([[1, 1]]), bv(1))
        assert x.to_list() == [1, 0]

    def test_inconsistent_system(self):
        assert solve(bm([[1], [1]]), bv(1, 0)) is None

    def test_empty_systems(self):
        x = solve(BitMatrix((), 0), BitVector.zeros(0))
        assert x.to_list() == []
        x = solve(BitMatrix((), 3), BitVector.zeros(0))
        assert x.to_list() == [0, 0, 0]
        assert solve(BitMatrix((0, 0), 0), bv(1, 0)) is None
        x = solve(BitMatrix((0, 0), 0), bv(0, 0))
        assert x.to_list() == []

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError):
            solve(BitMatrix.identity(2), bv(1, 0, 1))

    def test_solution_satisfies_system(self):
        rng = random.Random(73)
        for _ in range(200):
            nr, nc = rng.randint(1, 10), rng.randint(1, 10)
            m = BitMatrix(tuple(rng.getrandbits(nc) for _ in range(nr)), nc)
            b = BitVector(rng.getrandbits(nr), nr)
            x = solve(m, b)
            augmented = BitMatrix(
                tuple(r | ((b.bits >> i) & 1) << nc for i, r in enumerate(m.rows)),
                nc + 1,
            )
            assert (x is not None) == (rank(augmented) == rank(m))
            if x is not None:
                product = [(r & x.bits).bit_count() & 1 for r in m.rows]
                assert product == b.to_list()

    def test_canonical_solution_on_random_systems(self):
        rng = random.Random(74)
        for _ in range(300):
            nr, nc = rng.randint(0, 16), rng.randint(0, 16)
            # few distinct rows, so that many columns are free
            pool = [rng.getrandbits(nc) for _ in range(rng.randint(1, 6))]
            m = BitMatrix(tuple(rng.choice(pool) for _ in range(nr)), nc)
            check_canonical(m, BitVector(rng.getrandbits(nr), nr))
            # b in the column space, so the system is solvable
            y = rng.getrandbits(nc)
            b = BitVector(sum(((r & y).bit_count() & 1) << i
                              for i, r in enumerate(m.rows)), nr)
            assert solve(m, b) is not None
            check_canonical(m, b)

    def test_canonical_solution_on_wod_systems(self):
        # wod's two systems on seeded G(48, 1/2) queries, and pi as the
        # rank increment of the all-ones row over cut_matrix(B)
        rng = random.Random(75)
        for seed in range(4):
            g = random_graph(48, seed)
            for _ in range(6):
                verts = rng.sample(range(48), rng.randint(1, 47))
                b = VertexSet.from_indices(48, verts)
                m, ones, _ = wod._wod_system(g, b)
                check_canonical(m, ones)
                stacked = wod._non_wod_system(g, b)
                check_canonical(stacked, BitVector(1, stacked.n_rows))
                increment = ref_rank(lists(stacked)) - ref_rank(lists(cut_matrix(g, b)))
                assert wod.pi(g, b) == increment

    def test_deterministic_output(self):
        m = bm([[1, 1, 0], [0, 1, 1]])
        b = bv(1, 1)
        assert solve(m, b).to_list() == solve(m, b).to_list()

