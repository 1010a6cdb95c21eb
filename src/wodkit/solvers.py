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
ascending order.  Gosper's step to the next mask of a layer flips two runs
of bits, and Odd is linear, so Odd of the next mask is Odd of this one
XOR three prefix XORs of the rows: O(1) per mask, not O(k).  The paper's
bounds s(C) <= n - |C| and |C u Odd(C)| >= |C| end it early: kappa needs
only the layers k <= n - kappa and kappa' only the odd layers k <=
kappa', so on G(n, 1/2) it visits a few per cent of the subsets.  A layer
k where kappa can no longer grow, because it has reached its degree bound
or n - k, is scanned only below the best mask, for a smaller tie; the
layer n - kappa is such a layer.  Where the layers kappa still needs hold
most of the subsets, as on a cycle, the pass hands kappa to _scan_kappa,
an ascending scan that steps from mask i-1 to mask i by flipping the low
bit run of i and so costs one XOR and one popcount per subset.  When both
quantities take the pure kernel, kappa_q gets them from one pass.

kappa and kappa' scan the subsets of one vertex per twin class, 2^r of
them for r classes instead of 2^n (_twin_rows has the proof that values
and witnesses stay the same); check_threshold_condition scans them all.
Every scan returns the smallest optimal mask, in integer order, so every
engine and worker count returns the lexicographically smallest witness.

"auto" first tries to solve a graph part by part.  When G or its
complement is disconnected, _split cuts it into components or
co-components, recursively, down to leaves that are connected and
co-connected.  The layered pass gives each leaf's parity profile, as it
can keep kappa's maximum apart for even and odd |C|, and the profiles
unite up the split to kappa and kappa' with their smallest witnesses
(_profile has the proofs).  The split is taken when its leaves hold
fewer masks than the 2^r of a whole-graph scan, with a leaf mask weighed
at its measured cost against a mask of that scan (_LEAF_COST).  Three
disjoint copies of a cubic graph of order 8 then cost 768 leaf masks
instead of 2^24 table masks.  Otherwise "auto" scans the whole graph:
kappa takes the table from r = 20 twin classes on, and kappa' once its
layered scan over the r rows would cost more than 2,000,000 steps, which
first happens at r = 19 with minimum degree 10.  So without workers, a
graph of at most 18 twin classes never loads numpy.  _plan holds this
rule and says whether one pass can serve kappa and kappa'; only
_kappa_pair asks for that pass.  "pure" and "numpy" always scan the
whole graph, so each stays an independent check of the split.

Everything refuses orders above an explicit cap rather than approximate.
"""
from __future__ import annotations

import math
from contextvars import ContextVar
from enum import Enum

from ._record import Record, _set
from .graph import (
    Graph,
    VertexSet,
    _neighbor_prefix,
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


class ExtremalResult(Record):
    """Exact value plus a machine-checkable witness set.

    For KAPPA the witness C satisfies |Odd(C) \\ C| = value; for
    KAPPA_PRIME the witness D is odd-cardinality with |D u Odd(D)| = value.
    bounds_used records the degree-based (lower, upper) bracket of the
    quantity.  Only kappa prunes with it: once a scan reaches the upper
    bound, it looks for no larger value.  kappa' scans without it.
    """

    __slots__ = ("quantity", "value", "witness", "bounds_used")
    quantity: Quantity
    value: int
    witness: VertexSet
    bounds_used: tuple[int, int]

    def __init__(
        self,
        quantity: Quantity,
        value: int,
        witness: VertexSet,
        bounds_used: tuple[int, int],
    ) -> None:
        _set(self, "quantity", quantity)
        _set(self, "value", value)
        _set(self, "witness", witness)
        _set(self, "bounds_used", bounds_used)


class KappaQResult(Record):
    """kappa_Q value together with both underlying results and witnesses."""

    __slots__ = ("value", "kappa", "kappa_prime")
    value: int
    kappa: ExtremalResult
    kappa_prime: ExtremalResult

    def __init__(
        self, value: int, kappa: ExtremalResult, kappa_prime: ExtremalResult
    ) -> None:
        _set(self, "value", value)
        _set(self, "kappa", kappa)
        _set(self, "kappa_prime", kappa_prime)

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


# A leaf mask weighs the median ratio of the split's time per leaf mask to
# the whole-graph scan's per mask of its 2^r, over unions of two G(n, 1/2),
# each weight over its own unions as leaves cost less a mask the larger
# they are: 17 and 20 in two runs against the table at n + n' = 20..24
# (18 against 1.0 ns), 3.9 and 4.3 against the pure scans at 13..18 (93
# against 22 ns), on a 2.1 GHz Xeon
_LEAF_COST = 20
_LEAF_COST_PURE = 4


class _Plan(Record):
    """How a solve of g runs: g's twin rows, then a split or the kernels.

    With split set, kappa and kappa' come from its profile; otherwise
    kappa_table and prime_table say which of them take the table kernel
    over rows, and the others take the layered scan.
    """

    __slots__ = ("rows", "reps", "kappa_table", "prime_table", "split")
    rows: tuple[int, ...]
    reps: tuple[int, ...]
    kappa_table: bool
    prime_table: bool
    split: _Part | None

    def __init__(
        self,
        rows: tuple[int, ...],
        reps: tuple[int, ...],
        kappa_table: bool = False,
        prime_table: bool = False,
        split: _Part | None = None,
    ) -> None:
        _set(self, "rows", rows)
        _set(self, "reps", reps)
        _set(self, "kappa_table", kappa_table)
        _set(self, "prime_table", prime_table)
        _set(self, "split", split)

    @property
    def one_pass(self) -> bool:
        """Whether one pass serves kappa and kappa': a split, or one kernel."""
        return self.split is not None or self.kappa_table == self.prime_table


def _plan(g: Graph, engine: str, workers: int | None = None) -> _Plan:
    """The kernels of a solve of g: the one place that chooses them.

    "numpy" sends kappa and kappa' to the table kernel and "pure" to the
    layered scan, each over the r twin rows of the whole graph.  "auto"
    splits g into parts when g or its complement is disconnected and the
    leaves of the split, weighed by _LEAF_COST where kappa would take the
    table and by _LEAF_COST_PURE where it would not, hold fewer masks than
    2^r.  Otherwise it sends kappa to the table from r = 20 on, and kappa'
    once its layered scan over the r rows would cost more than 2,000,000
    steps.
    workers > 1 sends kappa to the table wherever the whole graph is
    scanned.
    """
    if workers is not None and workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    if engine not in _ENGINES:
        raise ValueError(f"unknown engine {engine!r}, expected one of {_ENGINES}")
    rows, reps = _twin_rows(g.adj)
    r = len(rows)
    if engine == "auto":
        k = r >= 20
        split = _split(g.adj)
        weight = _LEAF_COST if k else _LEAF_COST_PURE
        if split is not None and weight * _leaf_masks(split) < 1 << r:
            return _Plan(rows, reps, split=split)
        kp = _layered_cost(r, min_degree(g)) > 2_000_000
    else:
        k = kp = engine == "numpy"
    return _Plan(rows, reps, k or (workers or 1) > 1, kp)


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

    Returns the first (|Odd(C)\\C|, mask) maximum, stopping at the first
    mask whose value reaches ub; ub must be -1 or at least kappa.
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


# A layer step (a popcount, then Gosper's next mask and three prefix rows
# into Odd) costs about two steps of _scan_kappa, which flips one prefix
# row per mask: 2.2 to 2.3 times as long, 396 against 175 ns per mask on a
# 2.1 GHz Xeon, over every layer of ten G(18, 1/2) and ten G(18, 0.15)
_LAYER_COST = 2


def _layered_scan(
    adj: tuple[int, ...], n: int, ub: int, prime: bool, parity: bool = False
) -> tuple[int, ...]:
    """(kappa value, mask, kappa' value, mask) over the subsets of the rows adj.

    One pass visits the layers |C| = k = 1, 2, ... and, within a layer, the
    masks in ascending Gosper order, and computes w = |C u Odd(C)| once per
    mask; n is the width of Odd.  kappa is the maximum of s = w - k, and
    kappa' the minimum of w over odd k.  Each keeps the smallest mask among
    its optima, so a tie across layers goes to the smaller mask.  ub = -1
    leaves kappa out, which then comes back as (-1, 0); without prime,
    kappa' comes back as (n + 1, 0).  Otherwise ub must be at least kappa,
    or with parity both maxima, as the kappa_bounds upper bound is: below
    that, the result depends on the order in which a kernel meets masks.

    With parity, kappa keeps one maximum for even k, from the empty set at
    (0, 0), and one for odd k, from (-1, 0), and the pass returns _profile's
    six values.  _twin_rows' proof covers all three optima: removing a twin
    pair keeps the parity of |C|, and leaves the empty set only if it is even.

    Odd costs O(1) per mask.  With u = m & -m the low bit of m, at t, the
    carry of v = m + u lands on bit h, the low bit of v (not its top bit).
    Gosper's step (HAKMEM item 175) clears bits t..h-1, sets bit h and then
    sets the low run low = 2^(h-t-1) - 1, which is ((m ^ v) >> 2) // u, as
    m ^ v holds bits t..h; the next mask is v | low.  Odd is linear, so
    with pre[i] = adj[0] ^ ... ^ adj[i-1], Odd of that mask is
    Odd(m) ^ pre[h+1] ^ pre[t] ^ pre[h-t-1]; h + 1 and h - t - 1 are the
    bit lengths of v & -v and of low, and t + 1 is u's.  Each layer starts
    at 2^k - 1, where Odd is pre[k], and v >= 2^r means its last mask is
    past.

    As s <= n - k and w >= k, kappa scans the layers k <= n - kv and
    kappa' the odd layers k <= pv, for the best values kv and pv so far,
    where with parity kv is the best of k's parity.  Once kv reaches cap =
    min(ub, n - k), no mask of layer k has a larger s.  Only a tie with a
    smaller mask can then change the witness, so layer k stops at km,
    whether kv reached cap inside the layer or before it: the layers after
    the bound, and the layer k = n - kv, which can only tie, are scanned
    only below km.  Stopping outright, as _scan_kappa does, would keep a
    witness that a smaller mask in a later layer ties.  Without parity,
    from k = 3 on, kappa goes to _scan_kappa instead once _LAYER_COST times
    the masks of layers k..min(n - kv, r) reaches 2^r; that scan does not
    track parity.
    """
    r = len(adj)
    limit = 1 << r
    pre = [0, *_neighbor_prefix(adj)]
    # kappa's [value, mask, still scanning] for even and for odd k: one
    # list for both without parity, so each prunes by the overall maximum
    state = [0, 0, True] if ub >= 0 else [-1, 0, False]
    states = (state, [-1, 0, True]) if parity else (state, state)
    pv, pm = n + 1, 0
    for k in range(1, r + 1):
        kv, km, kappa_on = state = states[k & 1]
        if not (states[0][2] or states[1][2] or prime and k <= pv):
            break
        first = (1 << k) - 1
        # w thresholds: a mask is looked at only if w >= kw or w <= pw
        kstop, kw, pstop, pw = 0, n + 1, 0, -1
        if kappa_on:
            cap = min(ub, n - k)
            if kv > n - k or kv == cap and first >= km:
                kappa_on = False
            elif not parity and k >= 3 and _LAYER_COST * sum(
                math.comb(r, j) for j in range(k, min(n - kv, r) + 1)
            ) >= limit:
                kv, km = _scan_kappa(adj, ub)
                kappa_on = False
            else:
                kstop, kw = limit if kv < cap else km, kv + k
        if prime and k & 1 and k <= pv:
            pstop, pw = limit, pv
        m, odd, stop = first, pre[k], max(kstop, pstop)
        while m < stop:
            w = (m | odd).bit_count()
            if w >= kw and (w - k > kv or m < km):
                # later masks of this layer are larger: only a gain counts
                kv, km, kw = w - k, m, w + 1
                if kv == cap:
                    kstop = 0
                    stop = pstop
            if w <= pw and (w < pv or m < pm):
                pv, pm, pw = w, m, w - 1
                if w == k:
                    pstop = 0
                    stop = kstop
            u = m & -m
            v = m + u
            if v >= limit:
                break
            low = ((m ^ v) >> 2) // u
            odd ^= (
                pre[(v & -v).bit_length()] ^ pre[u.bit_length() - 1]
                ^ pre[low.bit_length()]
            )
            m = v | low
        state[:] = kv, km, kappa_on
    (ev, em, _), (ov, om, _) = states
    return (ev, em, ov, om, pv, pm) if parity else (ev, em, pv, pm)


class _Part(Record):
    """A node of a split: a vertex set P of g, as a leaf or as children.

    A leaf holds one row per twin class of the graph it induces, relabelled
    0..len(rows)-1 like _twin_rows' rows, and verts[i], the vertex of g
    behind row i.  An inner node unites its children's profiles; with
    join, the children are the components of the complement of the graph
    P induces, and the united profile goes through the join identities.
    """

    __slots__ = ("size", "join", "children", "rows", "verts")
    size: int
    join: bool
    children: tuple[_Part, ...]
    rows: tuple[int, ...]
    verts: tuple[int, ...]

    def __init__(
        self,
        size: int,
        join: bool = False,
        children: tuple[_Part, ...] = (),
        rows: tuple[int, ...] = (),
        verts: tuple[int, ...] = (),
    ) -> None:
        _set(self, "size", size)
        _set(self, "join", join)
        _set(self, "children", children)
        _set(self, "rows", rows)
        _set(self, "verts", verts)


def _components(adj: tuple[int, ...], part: int, co: bool) -> list[int]:
    """The vertex masks of the components of H[part], ascending by least vertex.

    H is the graph of the rows adj, or with co its complement.
    """
    comps = []
    while part:
        comp = frontier = part & -part
        while frontier:
            reach = 0
            while frontier:
                low = frontier & -frontier
                row = adj[low.bit_length() - 1]
                # ~row also holds the vertex itself, which comp already has
                reach |= ~row if co else row
                frontier ^= low
            frontier = reach & part & ~comp
            comp |= frontier
        comps.append(comp)
        part &= ~comp
    return comps


def _split(adj: tuple[int, ...]) -> _Part | None:
    """g as a union of its components or a join of its co-components.

    None when g and its complement are both connected.  Each part then
    splits the same way, down to leaves that are connected and co-connected
    (Gallai's modular decomposition, cut at its prime and single-vertex
    modules).
    """
    full = (1 << len(adj)) - 1
    for co in (False, True):
        parts = _components(adj, full, co)
        if len(parts) > 1:
            return _Part(len(adj), co, tuple(_module(adj, p, co) for p in parts))
    return None


def _module(adj: tuple[int, ...], part: int, co: bool) -> _Part:
    """The split of H[part], which is connected; H is g, or with co its complement."""
    if not part & (part - 1):
        return _Part(1, rows=(0,), verts=(part.bit_length() - 1,))
    parts = _components(adj, part, not co)
    if len(parts) > 1:
        return _Part(part.bit_count(), True,
                     tuple(_module(adj, p, not co) for p in parts))
    verts = [v for v in range(len(adj)) if part >> v & 1]
    local = []
    for v in verts:
        row = (~adj[v] if co else adj[v]) & part & ~(1 << v)
        local.append(sum(1 << i for i, u in enumerate(verts) if row >> u & 1))
    rows, reps = _twin_rows(tuple(local))
    return _Part(len(verts), rows=rows, verts=tuple(verts[i] for i in reps))


def _leaf_masks(part: _Part) -> int:
    """The masks the leaf scans of a split visit."""
    if not part.children:
        return 1 << len(part.rows)
    return sum(_leaf_masks(c) for c in part.children)


def _better(v: int, m: int, v2: int, m2: int) -> tuple[int, int]:
    """The larger value with its mask, the smaller mask on a tie."""
    return (v, m) if v > v2 or v == v2 and m < m2 else (v2, m2)


def _profile(part: _Part) -> tuple[int, int, int, int, int, int]:
    """(even max, mask, odd max, mask, odd min, mask): the profile of part.

    Over the subsets C of the part P, with s(C) = |Odd(C) \\ C| and
    w(C) = |C u Odd(C)| = |C| + s(C) in the graph P induces: the maximum
    of s over even |C|, the empty set included; the maximum of s over odd
    |C|; and the minimum of w over odd |C|.  Each comes with its smallest
    mask, over the vertices of g.  kappa is the better of the two maxima
    and kappa' the minimum.  A leaf's comes from the layered pass at its
    degree bound size * D // (D + 1), which bounds both maxima.

    Union.  No edge joins two components, so Odd(C) is the union of the
    Odd(C_i) of the parts C_i = C n P_i, and s and |C| add up over them.
    The even and odd maxima of the union follow by a parity DP over the
    components, in (value desc, mask asc) order: the parts have disjoint
    supports, so the mask of C is the sum of the part masks, and a pair of
    parts that is best for the sum of values and then of masks is best in
    each part.  An odd C has an odd part C_j, and w(C) >= w(C_j) with
    equality only when C = C_j, as every nonempty part adds |C_i| >= 1.
    So the odd minimum of the union is the least (value, mask) of its
    components.

    Join.  For v outside C, v has |C| - |N(v) n C| neighbours in C in the
    complement, so Odd(C) \\ C is the same in both graphs when |C| is
    even, and is (P \\ C) \\ Odd'(C) when |C| is odd, with Odd' taken in
    the complement.  So the even maximum is the complement's, the odd
    maximum is |P| minus the complement's odd minimum of w, and the odd
    minimum of w is |P| minus the complement's odd maximum, each at the
    same sets C and so with the same smallest mask.  A join's children
    are the components of the complement, which unite as above.
    """
    v = part.verts
    if part.size == 1:  # K1: s = 0 on both subsets, and w = 1 on the vertex
        return 0, 0, 0, 1 << v[0], 1, 1 << v[0]
    if not part.children:
        d = max(row.bit_count() for row in part.rows)
        ev, em, ov, om, wv, wm = _layered_scan(
            part.rows, part.size, part.size * d // (d + 1), True, parity=True
        )
        return ev, _from_reps(em, v), ov, _from_reps(om, v), wv, _from_reps(wm, v)
    ev, em, ov, om, wv, wm = _profile(part.children[0])
    for child in part.children[1:]:
        e, e_m, o, o_m, w, w_m = _profile(child)
        (ev, em), (ov, om) = (_better(ev + e, em + e_m, ov + o, om + o_m),
                              _better(ev + o, em + o_m, ov + e, om + e_m))
        if w < wv or w == wv and w_m < wm:
            wv, wm = w, w_m
    if part.join:
        return ev, em, part.size - wv, wm, part.size - ov, om
    return ev, em, ov, om, wv, wm


def _run(
    plan: _Plan, n: int, ub: int, prime: bool, workers: int | None
) -> tuple[int, int, int, int]:
    """(kappa value, mask, kappa' value, mask) as the plan says, masks over g.

    ub and prime are as for _layered_scan and _table._table_scan: ub = -1
    asks for kappa' alone, which takes prime_table's kernel.  A split
    computes both quantities whatever is asked.
    """
    if plan.split is not None:
        ev, em, ov, om, pv, pm = _profile(plan.split)
        return (*_better(ev, em, ov, om), pv, pm)
    if plan.kappa_table if ub >= 0 else plan.prime_table:
        from . import _table

        kv, km, pv, pm = _table._table_scan(plan.rows, n, ub, prime, workers)
    else:
        kv, km, pv, pm = _layered_scan(plan.rows, n, ub, prime)
    return kv, _from_reps(km, plan.reps), pv, _from_reps(pm, plan.reps)


class _SharedScan:
    """_kappa_pair's shared plan, and the kappa' that kappa's pass leaves here."""

    __slots__ = ("graph", "plan", "kappa_prime")

    def __init__(
        self, graph: Graph, plan: _Plan, kappa_prime: tuple[int, int] | None = None
    ) -> None:
        self.graph = graph
        self.plan = plan
        self.kappa_prime = kappa_prime


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
    kernel, "auto" solves a disconnected graph or a join part by part and
    otherwise picks by the number of twin classes (see _plan).  workers > 1
    runs the table kernel with its blocks split across processes; the
    returned value and witness are identical for every engine and worker
    count.  Where processes start by spawn (the default on macOS and
    Windows), each one re-imports the main script, so a script that passes
    workers > 1 needs an `if __name__ == "__main__":` guard around its
    solves, or the call fails with RuntimeError.
    """
    _check_order(g, cap)
    shared = _shared_slot(g)
    plan = shared.plan if shared is not None else _plan(g, engine, workers)
    lo, ub = kappa_bounds(g)
    if ub == 0:
        return ExtremalResult(Quantity.KAPPA, 0, VertexSet.empty(g.n), (lo, ub))
    fuse = shared is not None and plan.one_pass
    best_v, best_m, pv, pm = _run(plan, g.n, ub, fuse, workers)
    if fuse:
        shared.kappa_prime = (pv, pm)
    return ExtremalResult(Quantity.KAPPA, best_v, VertexSet(best_m, g.n), (lo, ub))


def _layered_cost(n: int, delta: int) -> int:
    # (k + 2) steps per mask of layer k models Odd by _odd_mask, an O(k)
    # loop, and predates _layered_scan's O(1) step; _plan's 2,000,000
    # threshold was set with this model, so it stays until _plan is
    # re-derived from measurements
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
        plan = shared.plan if shared is not None else _plan(g, engine)
        _, _, best_v, best_m = _run(plan, g.n, -1, True, None)
    return ExtremalResult(
        Quantity.KAPPA_PRIME, best_v, VertexSet(best_m, g.n), bounds
    )


def _kappa_pair(
    g: Graph, *, cap: int, engine: str, workers: int | None
) -> tuple[ExtremalResult, ExtremalResult]:
    """kappa(g) and kappa_prime(g) from one plan, and one pass where they can.

    A split serves both, and so does a kernel that both take; only here is
    the pass shared: kappa fuses iff it finds g's slot and the plan allows.
    """
    _check_order(g, cap)
    token = _SHARED_SCAN.set(_SharedScan(g, _plan(g, engine, workers)))
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
