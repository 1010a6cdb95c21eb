"""Exact solvers for the extremal quantities kappa, kappa', and kappa_Q.

kappa(G) is the largest WOD set size, computed as max over C of
|Odd(C) \\ C|: for a fixed dominator C the largest disjoint set it
dominates is exactly Odd(C) \\ C.  kappa'(G) is the smallest non-WOD set
size, computed as min over odd nonempty D of |D u Odd(D)|: every minimal
non-WOD set has that shape.  Both reformulations are unit-tested against
definitional double enumeration.  kappa_Q(G) = max(kappa, n - kappa').

Since |D u Odd(D)| = |D| + |Odd(D) \\ D|, both quantities are reductions
over one per-subset value s(C) = |Odd(C) \\ C|: kappa is its maximum, and
kappa' is the minimum of |C| + s(C) over odd |C|.

The table kernel lives in _table.py, wodkit's only numpy code, which is
imported on the first call that runs it.  It computes s for every subset,
one block of 2^16 low masks at a time (_table._LO_BITS).  kappa, kappa' and
check_threshold_condition are reductions over its blocks; kappa_q takes
kappa and kappa' in one pass over them, and workers > 1 hands contiguous
ranges of blocks to a pool of at most one process per core.

The pure kernel stays here and needs no numpy: _layered_scan visits the
subsets by cardinality, layer k = |C| = 1, 2, ..., and within a layer in
ascending order.  The paper's bounds s(C) <= n - |C| and |C u Odd(C)| >=
|C| end it early: kappa needs only the layers k <= n - kappa and kappa'
only the odd layers k <= kappa', so on G(n, 1/2) it visits a few per cent
of the subsets.  Where the layers kappa still needs hold most of the
subsets, as on a cycle, the pass hands kappa to _scan_kappa, an ascending
scan that steps from mask i-1 to mask i by flipping the low bit run of i
and so costs one XOR and one popcount per subset.  When both quantities
take the pure kernel, kappa_q gets them from one pass.  Under "auto" every
graph of order at most 18 takes only the pure kernel and so never loads
numpy; at order 19 kappa' takes the table once the minimum degree reaches
10, and from order 20 on kappa always does.  _uses_table holds this rule,
and _kappa_pair alone decides whether the two share a pass.

kappa and kappa' scan the subsets of one vertex per twin class, 2^r of
them for r classes instead of 2^n (_twin_rows has the proof that values
and witnesses stay the same); check_threshold_condition scans them all.
Every scan returns the smallest optimal mask, in integer order, so every
engine and worker count returns the lexicographically smallest witness.

Everything refuses orders above an explicit cap rather than approximate.
"""
from __future__ import annotations

import math
from contextvars import ContextVar
from dataclasses import dataclass
from enum import Enum

from .graph import (
    Graph,
    VertexSet,
    _gosper_next,
    _neighbor_prefix,
    _odd_mask,
    max_degree,
    min_degree,
)

__all__ = [
    "DEFAULT_CAP",
    "Quantity",
    "CapExceededError",
    "ExtremalResult",
    "KappaQResult",
    "kappa",
    "kappa_prime",
    "kappa_q",
    "kappa_bounds",
    "kappa_prime_bounds",
    "gpq_closed_form",
    "check_threshold_condition",
]

DEFAULT_CAP = 30

_ENGINES = ("auto", "pure", "numpy")

class Quantity(Enum):
    KAPPA = "kappa"
    KAPPA_PRIME = "kappa_prime"
    KAPPA_Q = "kappa_q"


class CapExceededError(RuntimeError):
    """Raised instead of attempting an enumeration beyond the configured cap."""


@dataclass(frozen=True)
class ExtremalResult:
    """Exact value plus a machine-checkable witness set.

    For KAPPA the witness C satisfies |Odd(C) \\ C| = value; for
    KAPPA_PRIME the witness D is odd-cardinality with |D u Odd(D)| = value.
    bounds_used records the degree-based (lower, upper) bracket of the
    quantity.  Only kappa prunes with it: once a scan reaches the upper
    bound, it looks for no larger value.  kappa' scans without it.
    """

    quantity: Quantity
    value: int
    witness: VertexSet
    bounds_used: tuple[int, int]


@dataclass(frozen=True)
class KappaQResult:
    """kappa_Q value together with both underlying results and witnesses."""

    value: int
    kappa: ExtremalResult
    kappa_prime: ExtremalResult

    @property
    def quantity(self) -> Quantity:
        return Quantity.KAPPA_Q


def _check_cap(n: int, cap: int) -> None:
    if n > cap:
        raise CapExceededError(
            f"order {n} exceeds the enumeration cap {cap}; "
            "pass a larger cap explicitly to proceed"
        )


def _check_order(g: Graph, cap: int) -> None:
    if g.n < 1:
        raise ValueError("solvers require a graph with at least one vertex")
    _check_cap(g.n, cap)


def _uses_table(g: Graph, engine: str, workers: int | None = None) -> tuple[bool, bool]:
    """(kappa takes the table, kappa' takes the table) for a solve of g.

    "numpy" sends both to the table kernel and "pure" neither.  "auto"
    sends kappa there from order 20 on, and kappa' once its layered scan
    would cost more than 2,000,000 steps.  workers > 1 sends kappa there
    under every engine.
    """
    if workers is not None and workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    if engine not in _ENGINES:
        raise ValueError(f"unknown engine {engine!r}, expected one of {_ENGINES}")
    if engine == "auto":
        k, kp = g.n >= 20, _layered_cost(g.n, min_degree(g)) > 2_000_000
    else:
        k = kp = engine == "numpy"
    return k or (workers or 1) > 1, kp


def kappa_bounds(g: Graph) -> tuple[int, int]:
    """(Delta, floor(n*Delta/(Delta+1))); collapses to (0, 0) when edgeless."""
    if g.n < 1:
        raise ValueError("bounds require at least one vertex")
    d = max_degree(g)
    return d, g.n * d // (d + 1)


def kappa_prime_bounds(g: Graph) -> tuple[int, int]:
    """(ceil(n/(n-delta)), delta+1)."""
    if g.n < 1:
        raise ValueError("bounds require at least one vertex")
    d = min_degree(g)
    return -(-g.n // (g.n - d)), d + 1


def _twin_rows(adj: tuple[int, ...]) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """(rows, reps): the rows a kappa or kappa' scan needs, one per twin class.

    u and v are false twins when N(u) = N(v), and true twins when
    N(u) u {u} = N(v) u {v}.  Both are equivalences, and no vertex has twins
    of both kinds: if u, v are false twins and u, w true twins, then
    w in N(u) = N(v), so v in N(w) \\ {u} = N(u) \\ {w}, yet v is not in
    N(u).  reps holds the smallest vertex of each class, ascending.

    Take C holding twins u and v, and C' = C \\ {u, v}.  For false twins
    Odd(C) = Odd(C'); for true twins Odd(C) = Odd(C') xor {u, v}, and u, v
    are in C.  Either way s(C') >= s(C) and |C' u Odd(C')| <= |C u Odd(C)|,
    |C'| has the parity of |C|, and C' is nonempty when |C| is odd.  As
    C' < C as an integer, the smallest optimum of kappa or of kappa' holds
    at most one vertex of each class.  Swapping two twins is an
    automorphism, so putting the class minimum in place of that vertex
    keeps the value and gives a smaller integer unless it is the minimum
    already: the smallest optimum is a subset of reps.

    rows relabels the graph with reps as 0..r-1, in ascending order, and
    the other vertices after them; rows[i] is the relabelled neighbourhood
    of reps[i].  The relabelling keeps the order of the subsets of reps,
    so a scan of the 2^r masks over rows that returns the smallest optimal
    mask finds the same value and, through _from_reps, the same witness.
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
    if not others:
        return adj, tuple(reps)
    pos = {v: i for i, v in enumerate(reps + others)}
    rows = tuple(
        sum(1 << pos[u] for u in range(len(adj)) if adj[v] >> u & 1) for v in reps
    )
    return rows, tuple(reps)


def _from_reps(mask: int, reps: tuple[int, ...]) -> int:
    """The vertex mask of a scan mask over _twin_rows' rows."""
    return sum(1 << v for i, v in enumerate(reps) if mask >> i & 1)


def _scan_kappa(adj: tuple[int, ...], ub: int) -> tuple[int, int]:
    """Pure kappa scan over the subsets of the rows adj.

    Returns the first (|Odd(C)\\C|, mask) maximum, stopping at ub.
    """
    pre = _neighbor_prefix(adj)
    odd = 0
    best_v = best_m = 0
    for i in range(1, 1 << len(adj)):
        odd ^= pre[(i & -i).bit_length() - 1]
        cnt = (odd & ~i).bit_count()
        if cnt > best_v:
            best_v = cnt
            best_m = i
            if cnt >= ub:
                break
    return best_v, best_m


# A layer step (Odd by _odd_mask, then Gosper's next mask) costs about four
# steps of _scan_kappa, which flips one prefix row per mask
_LAYER_COST = 4


def _layered_scan(
    adj: tuple[int, ...], n: int, ub: int, prime: bool
) -> tuple[int, int, int, int]:
    """(kappa value, mask, kappa' value, mask) over the subsets of the rows adj.

    One pass visits the layers |C| = k = 1, 2, ... and, within a layer, the
    masks in ascending Gosper order, and computes w = |C u Odd(C)| once per
    mask; n is the width of Odd.  kappa is the maximum of s = w - k, and
    kappa' the minimum of w over odd k.  Each keeps the smallest mask among
    its optima, so a tie across layers goes to the smaller mask.  ub = -1
    leaves kappa out, which then comes back as (-1, 0); without prime,
    kappa' comes back as (n + 1, 0).

    As s <= n - k and w >= k, kappa scans the layers k <= n - kv and
    kappa' the odd layers k <= pv, for the best values kv and pv so far.
    Once kv reaches ub, only a tie with a smaller mask can change the
    witness, so each later layer stops at km; stopping outright, as
    _scan_kappa does, would keep a witness that a smaller mask in a later
    layer ties.  From k = 3 on, kappa goes to _scan_kappa instead once
    _LAYER_COST times the masks of layers k..min(n - kv, r) reaches 2^r.
    """
    r = len(adj)
    limit = 1 << r
    kappa_on = ub >= 0
    kv, km, pv, pm = 0 if kappa_on else -1, 0, n + 1, 0
    for k in range(1, r + 1):
        if not kappa_on and not (prime and k <= pv):
            break
        first = (1 << k) - 1
        # w thresholds: a mask is looked at only if w >= kw or w <= pw
        kstop, kw, pstop, pw = 0, n + 1, 0, -1
        if kappa_on:
            if n - k < kv or kv == ub and first >= km:
                kappa_on = False
            elif k >= 3 and _LAYER_COST * sum(
                math.comb(r, j) for j in range(k, min(n - kv, r) + 1)
            ) >= limit:
                kv, km = _scan_kappa(adj, ub)
                kappa_on = False
            else:
                kstop, kw = limit if kv < ub else km, kv + k
        if prime and k & 1 and k <= pv:
            pstop, pw = limit, pv
        m, stop = first, max(kstop, pstop)
        while m < stop:
            w = (m | _odd_mask(adj, m)).bit_count()
            if w >= kw and (w - k > kv or m < km):
                # later masks of this layer are larger: only a gain counts
                kv, km, kw = w - k, m, w + 1
                if kv == min(ub, n - k):
                    kstop = 0
                    stop = pstop
            if w <= pw and (w < pv or m < pm):
                pv, pm, pw = w, m, w - 1
                if w == k:
                    pstop = 0
                    stop = kstop
            m = _gosper_next(m)
    return kv, km, pv, pm


@dataclass
class _SharedScan:
    """_kappa_pair's one shared pass: kappa leaves the kappa' reduction here."""

    graph: Graph
    kappa_prime: tuple[int, int] | None = None


# _kappa_pair still answers through kappa() and kappa_prime(), so each
# stays a call of its own for the callers that wrap or profile them
_SHARED_SCAN: ContextVar[_SharedScan | None] = ContextVar("_SHARED_SCAN", default=None)


def _shared_slot(g: Graph) -> _SharedScan | None:
    shared = _SHARED_SCAN.get()
    return shared if shared is not None and shared.graph is g else None


def kappa(
    g: Graph,
    *,
    cap: int = DEFAULT_CAP,
    engine: str = "auto",
    workers: int | None = None,
) -> ExtremalResult:
    """Exact kappa(G) with the lexicographically smallest optimal witness C.

    engine: "pure" runs the layered scan, "numpy" the blocked table
    kernel, "auto" picks by order.  workers > 1 runs the table
    kernel with its blocks split across processes; the returned value and
    witness are identical for every engine and worker count.
    """
    _check_order(g, cap)
    table, _ = _uses_table(g, engine, workers)
    lo, ub = kappa_bounds(g)
    if ub == 0:
        return ExtremalResult(Quantity.KAPPA, 0, VertexSet.empty(g.n), (lo, ub))
    rows, reps = _twin_rows(g.adj)
    shared = _shared_slot(g)
    fuse = shared is not None
    if table:
        from . import _table

        best_v, best_m, pv, pm = _table._table_scan(rows, g.n, ub, fuse, workers)
    else:
        best_v, best_m, pv, pm = _layered_scan(rows, g.n, ub, fuse)
    if fuse:
        shared.kappa_prime = (pv, _from_reps(pm, reps))
    witness = VertexSet(_from_reps(best_m, reps), g.n)
    return ExtremalResult(Quantity.KAPPA, best_v, witness, (lo, ub))


def _layered_cost(n: int, delta: int) -> int:
    total = 0
    k = 1
    while k <= min(n, delta + 1):
        total += math.comb(n, k) * (k + 2)
        k += 2
    return total


def kappa_prime(
    g: Graph,
    *,
    cap: int = DEFAULT_CAP,
    engine: str = "auto",
) -> ExtremalResult:
    """Exact kappa'(G) with the lexicographically smallest optimal witness D."""
    _check_order(g, cap)
    bounds = kappa_prime_bounds(g)
    shared = _shared_slot(g)
    if shared is not None and shared.kappa_prime is not None:
        best_v, best_m = shared.kappa_prime
    else:
        rows, reps = _twin_rows(g.adj)
        if _uses_table(g, engine)[1]:
            from . import _table

            _, _, best_v, m = _table._table_scan(rows, g.n, -1, True, None)
        else:
            _, _, best_v, m = _layered_scan(rows, g.n, -1, True)
        best_m = _from_reps(m, reps)
    return ExtremalResult(
        Quantity.KAPPA_PRIME, best_v, VertexSet(best_m, g.n), bounds
    )


def _kappa_pair(
    g: Graph, *, cap: int, engine: str, workers: int | None
) -> tuple[ExtremalResult, ExtremalResult]:
    """kappa(g) and kappa_prime(g), sharing one pass where both take one kernel.

    Both take the table or both the layered scan; only here is the pass
    shared: kappa fuses iff it finds g's slot.
    """
    _check_order(g, cap)
    k_table, p_table = _uses_table(g, engine, workers)
    fuse = k_table == p_table
    token = _SHARED_SCAN.set(_SharedScan(g) if fuse else None)
    try:
        k = kappa(g, cap=cap, engine=engine, workers=workers)
        kp = kappa_prime(g, cap=cap, engine=engine)
    finally:
        _SHARED_SCAN.reset(token)
    return k, kp


def kappa_q(
    g: Graph,
    *,
    cap: int = DEFAULT_CAP,
    engine: str = "auto",
    workers: int | None = None,
) -> KappaQResult:
    """kappa_Q(G) = max(kappa(G), n - kappa'(G)), with both witnesses.

    When kappa and kappa' both take the table kernel, one pass over its
    blocks computes both; after kappa reaches its bound only the kappa'
    reduction keeps running.
    """
    k, kp = _kappa_pair(g, cap=cap, engine=engine, workers=workers)
    return KappaQResult(max(k.value, g.n - kp.value), k, kp)


def gpq_closed_form(p: int, q: int) -> tuple[int, int]:
    """(kappa, kappa') of the complete multipartite graph G_{p,q}.

    Odd q: (n-p, q).  Even q: (max(n-p, n-q), p+q-1); the kappa' value
    comes from the matching upper and lower bound construction, which the
    exact solvers confirm on every small case.
    """
    if p < 1 or q < 1:
        raise ValueError(f"closed form requires p >= 1 and q >= 1, got p={p} q={q}")
    n = p * q
    if q % 2 == 1:
        return n - p, q
    return max(n - p, n - q), p + q - 1


def check_threshold_condition(g: Graph, k: int, *, cap: int = DEFAULT_CAP) -> bool:
    """Sufficient condition for kappa_Q(G) < k.

    True iff every nonempty D has both |D u Odd(D)| > n-k and
    |D u (V \\ Odd(D))| > n-k.  Soundness: a true result implies the exact
    kappa_Q is below k; the converse need not hold.  With s = |Odd(D) \\ D|
    the two sides are |D| + s and n - s, so the scan stops at the first
    block holding some s >= k or some |D| + s <= n-k.

    Unlike kappa and kappa', this scan covers every vertex, not one per
    twin class: it needs every nonempty D, and removing a twin pair from
    D = {u, v} leaves the empty set, which the condition leaves out.
    """
    _check_cap(g.n, cap)
    if k < 0:
        raise ValueError(f"threshold k must be >= 0, got {k}")
    if g.n == 0:
        return True
    from . import _table

    return _table._threshold_scan(g.adj, g.n, k)
