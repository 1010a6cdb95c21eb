"""The immutable value classes behave as the frozen dataclasses they replace.

Every record class is built once here.  Its repr is pinned to the text a
frozen dataclass printed for the same value, == holds only within one
class, hash is the hash of the field tuple, assignment and deletion raise
AttributeError, and pickle and deepcopy give back an equal record.
"""
from __future__ import annotations

import copy
import pickle

import pytest

from wodkit import (
    BitMatrix,
    BitVector,
    ExtremalResult,
    Graph,
    KappaQResult,
    LLLParams,
    PerfectCode,
    Quantity,
    TrialReport,
    VertexSet,
    kappa_q,
)
from wodkit.fixtures import q3
from wodkit.solvers import _Plan

VS = VertexSet(1, 3)
K = ExtremalResult(Quantity.KAPPA, 2, VS, (1, 2))
KP = ExtremalResult(Quantity.KAPPA_PRIME, 1, VertexSet(4, 3), (2, 2))

# (record, its repr as a frozen dataclass printed it)
CASES = [
    (BitVector(5, 3), "BitVector(bits=5, length=3)"),
    (BitMatrix((1, 2), 2), "BitMatrix(rows=(1, 2), n_cols=2)"),
    (VertexSet(5, 4), "VertexSet(mask=5, universe=4)"),
    (Graph.from_edges(3, [(0, 1)]), "Graph(n=3, adj=(2, 1, 0))"),
    (K, "ExtremalResult(quantity=<Quantity.KAPPA: 'kappa'>, value=2, "
        "witness=VertexSet(mask=1, universe=3), bounds_used=(1, 2))"),
    (KappaQResult(2, K, KP),
     "KappaQResult(value=2, kappa=ExtremalResult(quantity=<Quantity.KAPPA: "
     "'kappa'>, value=2, witness=VertexSet(mask=1, universe=3), "
     "bounds_used=(1, 2)), kappa_prime=ExtremalResult(quantity="
     "<Quantity.KAPPA_PRIME: 'kappa_prime'>, value=1, witness=VertexSet("
     "mask=4, universe=3), bounds_used=(2, 2)))"),
    (_Plan((1, 2), (0, 1), (1, 1), (2, 2)),
     "_Plan(rows=(1, 2), reps=(0, 1), bounds=(1, 1), prime_bounds=(2, 2), "
     "kappa_table=False, prime_table=False, split=None, cut=0)"),
    (_Plan((), (), (1, 1), (2, 2), split=(2, False, (0, 1))),
     "_Plan(rows=(), reps=(), bounds=(1, 1), prime_bounds=(2, 2), "
     "kappa_table=False, prime_table=False, split=(2, False, (0, 1)), cut=0)"),
    (_Plan((1, 2), (0, 1), (1, 1), (2, 2), True, True, cut=1),
     "_Plan(rows=(1, 2), reps=(0, 1), bounds=(1, 1), prime_bounds=(2, 2), "
     "kappa_table=True, prime_table=True, split=None, cut=1)"),
    (PerfectCode(VS), "PerfectCode(code=VertexSet(mask=1, universe=3))"),
    (LLLParams(100, 0.5, 0.1, 4.0), "LLLParams(n=100, c=0.5, d=0.1, r=4.0)"),
    (TrialReport(0, 1, 4, 2, 3, 2, 0.5, 0.25),
     "TrialReport(trial=0, seed=1, n=4, kappa=2, kappa_prime=3, kappa_q=2, "
     "ratio=0.5, elapsed=0.25)"),
]
IDS = [f"{type(r).__name__}{i}" for i, (r, _) in enumerate(CASES)]


def fields(record) -> tuple:
    return tuple(getattr(record, name) for name in type(record).__slots__)


@pytest.mark.parametrize("record, text", CASES, ids=IDS)
def test_repr_is_the_dataclass_text(record, text):
    assert repr(record) == text


@pytest.mark.parametrize("record, text", CASES, ids=IDS)
def test_equality_and_hash_follow_the_fields(record, text):
    twin = type(record)(*fields(record))
    assert twin is not record
    assert twin == record and not twin != record
    assert hash(twin) == hash(record) == hash(fields(record))
    for other, _ in CASES:
        if type(other) is not type(record):
            assert record != other and not record == other
    # the same values in another class, or as a bare tuple, are not equal
    assert record != fields(record)


def test_equal_fields_across_classes_differ():
    assert BitVector(5, 3) != VertexSet(5, 3)
    assert fields(BitVector(5, 3)) == fields(VertexSet(5, 3))
    assert VertexSet(5, 4) != VertexSet(5, 5)
    assert hash(VertexSet(5, 4)) == hash((5, 4))


@pytest.mark.parametrize("record, text", CASES, ids=IDS)
def test_fields_are_read_only(record, text):
    name = type(record).__slots__[0]
    before = getattr(record, name)
    with pytest.raises(AttributeError):
        setattr(record, name, before)
    with pytest.raises(AttributeError):
        delattr(record, name)
    with pytest.raises(AttributeError):
        record.other = 1
    assert getattr(record, name) is before
    assert not hasattr(record, "__dict__")


@pytest.mark.parametrize("record, text", CASES, ids=IDS)
def test_pickle_and_deepcopy_round_trip(record, text):
    for back in (pickle.loads(pickle.dumps(record)), copy.deepcopy(record),
                 copy.copy(record)):
        assert type(back) is type(record)
        assert back == record
        assert repr(back) == text


def test_unpickling_runs_the_checks():
    # a pickle rebuilds a record by calling its class on the field values
    assert VertexSet(5, 4).__reduce__() == (VertexSet, (5, 4))
    with pytest.raises(ValueError, match="outside the universe"):
        VertexSet(5, 2)


def test_solver_results_round_trip():
    res = kappa_q(q3())
    assert pickle.loads(pickle.dumps(res)) == res
    assert copy.deepcopy(res) == res
