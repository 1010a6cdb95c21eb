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
ascending order.  A mask there is an upper part of k - 1 vertices and a
lowest vertex below them.  Gosper's step to the next upper part flips two
runs of bits, and Odd is linear, so Odd of the next upper part is Odd of
this one XOR three prefix XORs of the rows, and each lowest vertex XORs
in its own row: O(1) per mask, not O(k).  The paper's bounds
s(C) <= n - |C| and |C u Odd(C)| >= |C| end it early: kappa needs only
the layers k <= n - kappa and kappa' only the odd layers k <= kappa', so
on G(n, 1/2) it visits a few per cent of the subsets.  A layer
k where kappa can no longer grow, because it has reached its degree bound
or n - k, is scanned only below the best mask, for a smaller tie; the
layer n - kappa is such a layer.  For kappa', the odd layer k = kappa'
is one too: every set D there has |D u Odd(D)| >= |D| = kappa', and the
masks of a layer ascend, so only a mask below the best witness can change
it.  When both quantities take the pure kernel, kappa_q gets them from
one pass.

The third kernel, _infoset_scan, is pure too, and scans no subsets: it
searches the binary code of the paper's graph state for its least
weights.  The word of C is (C, Odd(C)), of weight |C u Odd(C)|, so
kappa' is the least weight of a word with odd |C|, and n - kappa the
least weight on the coset (C, Odd(C) xor V).  Given a half S of the
vertices whose cut matrix A[S, V \\ S] is invertible over GF(2) (found
by _find_cut), a word's restriction to S fixes it, and so does its
restriction to V \\ S: two information sets.  Level K walks the
C(n/2, K) * 3^K restrictions of weight K on each half, as XOR sums of
basis words, and once both least weights are at most 2K + 1 every word
that can reach them has been met, with every optimum (White and Grassl's
minimum-weight search for additive codes, ISIT 2006).  On G(24, 1/2)
both settle at level 3, after 13,142 restrictions.

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
at its measured cost against a mask of that scan (_LEAF_COST); _split
weighs the leaves as it builds them, and stops once they reach 2^r.  Three
disjoint copies of a cubic graph of order 8 then cost 768 leaf masks
instead of 2^24 table masks.  Leaves with equal local rows share one scan
per solve, so those copies run one pass over 256 masks, though the rule
counts all three.  Otherwise "auto" solves the whole graph.  Without
workers > 1, a graph without twins, of even order n >= 22, goes to
_infoset_scan for both quantities when _find_cut finds a cut and the
degree bound leaves the scan within the levels that cost less than the
table's 2^n masks (_infoset_levels, with a restriction weighed at its
measured cost, _INFOSET_COST); a scan that needs more levels hands the
solve to the table.  Otherwise kappa takes the table from r = 20 twin
classes on, and kappa' once its layered scan over the r rows would cost
more than 2,000,000 steps, which first happens at r = 19 with minimum
degree 10.  So without workers, a graph of at most 18 twin classes never
loads numpy, and neither does G(24, 1/2) when its scan settles in time.
_plan holds this rule.  "pure" and "numpy" always scan the whole graph's
subsets, so each stays an independent check of the split and of the
information-set scan.

kappa() plans and runs every solve that starts with it.  Under
_kappa_pair, which kappa_q and `wodkit compute` call, its run returns
kappa' too, whatever kernels the plan picked, and leaves it for
kappa_prime() in a context variable; kappa_prime() plans its own solve
only where it is called on its own.

Everything refuses orders above an explicit cap rather than approximate;
_plan checks it, first, for kappa, kappa_prime and kappa_q.
"""
from __future__ import annotations

import functools
import math
import random
from contextvars import ContextVar
from enum import Enum
from typing import Iterable, Iterator

from ._record import Record, _set
from .gf2 import _reduce
from .graph import (
    Graph,
    VertexSet,
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


# A leaf mask weighs the median ratio of the split's time per leaf mask to
# the whole-graph scan's per mask of its 2^r, over unions of two G(n, 1/2),
# each weight over its own unions as leaves cost less a mask the larger
# they are: 17 and 20 in two runs against the table at n + n' = 20..24
# (18 against 1.0 ns), 4.2 and 4.5 against the pure scans at 13..18 (55
# against 16 ns; kappa_q with the split forced, against engine="pure", over
# 117 unions, 3 seeds for each n' from 2 up to n), on a 2.1 GHz Xeon
_LEAF_COST = 20
_LEAF_COST_PURE = 4


class _Plan(Record):
    """How a solve of g runs: a split, or the kernels over g's twin rows.

    bounds and prime_bounds are kappa_bounds(g) and kappa_prime_bounds(g),
    taken once per solve.  With split set, kappa and kappa' come from its
    profile, and rows and reps stay empty; otherwise kappa_table and
    prime_table say which of them take the table kernel over rows, and the
    others take the layered scan.  With cut set, both take _infoset_scan
    over that cut first, and the table where it hands the solve on.
    """

    __slots__ = (
        "rows", "reps", "bounds", "prime_bounds",
        "kappa_table", "prime_table", "split", "cut",
    )
    rows: tuple[int, ...]
    reps: tuple[int, ...]
    bounds: tuple[int, int]
    prime_bounds: tuple[int, int]
    kappa_table: bool
    prime_table: bool
    split: tuple | None
    cut: int

    def __init__(
        self,
        rows: tuple[int, ...],
        reps: tuple[int, ...],
        bounds: tuple[int, int],
        prime_bounds: tuple[int, int],
        kappa_table: bool = False,
        prime_table: bool = False,
        split: tuple | None = None,
        cut: int = 0,
    ) -> None:
        _set(self, "rows", rows)
        _set(self, "reps", reps)
        _set(self, "bounds", bounds)
        _set(self, "prime_bounds", prime_bounds)
        _set(self, "kappa_table", kappa_table)
        _set(self, "prime_table", prime_table)
        _set(self, "split", split)
        _set(self, "cut", cut)


def _plan(
    g: Graph, engine: str, workers: int | None = None, cap: int = DEFAULT_CAP
) -> _Plan:
    """The kernels of a solve of g: the one place that chooses them.

    It first refuses a g without vertices or of order above cap, the one
    check of both for kappa, kappa_prime and kappa_q.

    "numpy" sends kappa and kappa' to the table kernel and "pure" to the
    layered scan, each over the r twin rows of the whole graph.  "auto"
    splits g into parts when g or its complement is disconnected and the
    leaves of the split, weighed by _LEAF_COST where kappa would take the
    table and by _LEAF_COST_PURE where it would not, hold fewer masks than
    2^r; below r = 5 no split can, and none is built.  Only where the
    split is refused are g's own rows relabelled.  Otherwise, without
    workers > 1, it sends a twin-free g of even order n >= 22 to
    _infoset_scan, when _infoset_cut finds a cut for it.  Otherwise it
    sends kappa to the table from r = 20 on, and kappa' once its layered
    scan over the r rows would cost more than 2,000,000 steps.
    workers > 1 sends kappa to the table wherever the whole graph is
    scanned.
    """
    if g.n < 1:
        raise ValueError("solvers require a graph with at least one vertex")
    _check_cap(g.n, cap)
    if workers is not None and workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    if engine not in _ENGINES:
        raise ValueError(f"unknown engine {engine!r}, expected one of {_ENGINES}")
    bounds, prime_bounds = kappa_bounds(g), kappa_prime_bounds(g)
    rows, reps = _twin_rows(g.adj, (1 << g.n) - 1, False, [0] * g.n)
    r = len(reps)
    # two leaves of 2 masks or more, weighed at the lighter _LEAF_COST_PURE,
    # reach 2^r below r = 5 however g falls apart, so no split is built there
    if engine == "auto" and _LEAF_COST_PURE * 4 < 1 << r:
        split = _split(g.adj, _LEAF_COST if r >= 20 else _LEAF_COST_PURE, 1 << r)
        if split is not None:
            return _Plan((), (), bounds, prime_bounds, split=split)
    rows = tuple(rows)
    if engine != "auto":
        k = kp = engine == "numpy"
    elif (workers or 1) == 1 and r == g.n and (cut := _infoset_cut(g, bounds[1])):
        return _Plan(rows, reps, bounds, prime_bounds, True, True, cut=cut)
    else:
        k = r >= 20
        # kappa''s upper bound is the minimum degree plus one
        kp = _layered_cost(r, prime_bounds[1] - 1) > 2_000_000
    return _Plan(rows, reps, bounds, prime_bounds, k or (workers or 1) > 1, kp)


def _infoset_cut(g: Graph, ub: int) -> int:
    """A cut for _infoset_scan over the rows of g, which has no twins.

    0 below order _INFOSET_MIN_ORDER, at odd order, where _find_cut finds
    none, and where kappa's degree bound ub already asks for more levels
    than _infoset_levels: n - kappa >= n - ub takes the levels up to
    (n - ub) // 2.  Sparse graphs stop there, such as C24 (ub = 16).
    """
    n = g.n
    if n & 1 or n < _INFOSET_MIN_ORDER:
        return 0
    if (n - ub) // 2 > _infoset_levels(n):
        return 0
    return _find_cut(g.adj)


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


def _twin_rows(
    adj: tuple[int, ...], part: int, co: bool, pos: list[int]
) -> tuple[Iterable[int], tuple[int, ...]]:
    """(rows, reps): the rows a kappa or kappa' scan of H[part] needs.

    H is the graph of the rows adj, or with co its complement, and part a
    vertex mask; part = V gives g's own scan.  reps holds the smallest
    vertex of each twin class of H[part], ascending.  u and v are false
    twins when N(u) = N(v), and true twins when N(u) u {u} = N(v) u {v}.
    Both are equivalences, and no vertex has twins of both kinds: if u, v
    are false twins and u, w true twins, then w in N(u) = N(v), so v in
    N(w) \\ {u} = N(u) \\ {w}, yet v is not in N(u).

    Take C holding twins u and v, and C' = C \\ {u, v}.  For false twins
    Odd(C) = Odd(C'); for true twins Odd(C) = Odd(C') xor {u, v}, and u, v
    are in C.  Either way s(C') >= s(C) and |C' u Odd(C')| <= |C u Odd(C)|,
    |C'| has the parity of |C|, and C' is nonempty when |C| is odd.  As
    C' < C as an integer, the smallest optimum of kappa or of kappa' holds
    at most one vertex of each class.  Swapping two twins is an
    automorphism, so putting the class minimum in place of that vertex
    keeps the value and gives a smaller integer unless it is the minimum
    already: the smallest optimum is a subset of reps.

    rows relabels H[part] through pos, which this call sets to map reps to
    0..r-1, in ascending order, and the other vertices of part after them;
    rows[i] is the relabelled neighbourhood of reps[i].  The relabelling
    keeps the order of the subsets of reps, so a scan of the 2^r masks over
    rows that returns the smallest optimal mask finds the same value and,
    through _relabel(mask, reps), the same witness.  rows is relabelled as
    it is read, so a caller that needs only len(reps) pays for no more, and
    must read it before pos changes; g's own rows, where g has no twins,
    are adj itself.
    """
    n = len(adj)
    whole = not co and part == (1 << n) - 1
    # (v, v's row in H[part]) for v in part; ~adj[v] holds v itself
    hood = enumerate(adj) if whole else [
        (v, (~adj[v] ^ 1 << v if co else adj[v]) & part)
        for v in range(n) if part >> v & 1
    ]
    reps, others, nbrs = [], [], []
    open_rows, closed_rows = set(), set()
    for v, row in hood:
        if row in open_rows or row | 1 << v in closed_rows:
            others.append(v)
        else:
            reps.append(v)
            nbrs.append(row)
            open_rows.add(row)
            closed_rows.add(row | 1 << v)
    if whole and not others:
        return adj, tuple(reps)
    for i, v in enumerate(reps + others):
        pos[v] = i
    return (_relabel(row, pos) for row in nbrs), tuple(reps)


def _relabel(mask: int, to: list[int] | tuple[int, ...]) -> int:
    """mask with each bit u moved to bit to[u], set bit by set bit.

    With to = reps, this is the vertex mask of a scan mask over
    _twin_rows' rows; with to = pos, it relabels a row into them.
    """
    out = 0
    while mask:
        low = mask & -mask
        out |= 1 << to[low.bit_length() - 1]
        mask ^= low
    return out


def _layered_scan(
    adj: tuple[int, ...], n: int, ub: int, prime: bool, parity: bool = False
) -> tuple[int, ...]:
    """(kappa value, mask, kappa' value, mask) over the subsets of the rows adj.

    One pass visits the layers |C| = k = 1, 2, ... and, within a layer, the
    masks in ascending order, and computes w = |C u Odd(C)| once per
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

    Odd costs O(1) per mask.  A mask of layer k is an upper part, k - 1
    vertices of 1..r-1, and a lowest vertex i below the upper part's own
    lowest, j.  The masks ascend as the upper parts do, and under one as i
    does, so Gosper's step runs once per upper part, and its j masks are a
    flat loop over lows[:j], the pairs (2^i, adj[i]) for i < j:
    Odd(upper | 2^i) = Odd(upper) ^ adj[i], so a mask costs two ORs, one
    XOR and a popcount.  Layer 1's one upper part is empty, with every
    vertex below it: j = r.  With u = 2^j the low bit of the upper part
    and h the low bit of v = upper + u (not its top bit), Gosper's step
    (HAKMEM item 175) clears bits j..h-1, sets bit h and sets low, the
    bits 1..h-j-1 above vertex 0, which is ((upper ^ v) >> 2) // u << 1,
    as upper ^ v holds bits j..h; the next upper part is v | low.  Odd is
    linear, so with pre[i] = adj[1] ^ ... ^ adj[i-1], Odd of that part is
    Odd(upper) ^ pre[h+1] ^ pre[j] ^ pre[h-j]; h + 1 and h - j are the bit
    lengths of v & -v and of low, which is 0 where low is empty, and
    pre[0] = pre[1] = 0.  Each layer's first upper part is 2^k - 2, where
    Odd is pre[k], and v >= 2^r means its last mask is past.

    As s <= n - k and w >= k, kappa scans the layers k <= n - kv and
    kappa' the odd layers k <= pv, for the best values kv and pv so far,
    where with parity kv is the best of k's parity.  Once kv reaches cap =
    min(ub, n - k), no mask of layer k has a larger s.  Only a tie with a
    smaller mask can then change the witness, so layer k stops at km,
    whether kv reached cap inside the layer or before it: the layers after
    the bound, and the layer k = n - kv, which can only tie, are scanned
    only below km.  Stopping outright would keep a witness that a smaller
    mask in a later layer ties.  kappa' has the same rule for its layer
    k = pv: every mask there has w >= k = pv, so none beats pv, and as the
    masks of a layer ascend, none at or past pm is a smaller tie, so that
    layer is scanned only below pm.
    """
    r = len(adj)
    limit = 1 << r
    pre = [0, 0, *_neighbor_prefix(adj[1:])]
    lows = [(1 << i, row) for i, row in enumerate(adj)]
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
            else:
                kstop, kw = limit if kv < cap else km, kv + k
        if prime and k & 1 and k <= pv:
            pstop, pw = (limit if k < pv else pm), pv
        upper, odd, stop = first ^ 1, pre[k], max(kstop, pstop)
        # layer 1's step from its one, empty, upper part gives v = 0
        top = limit if k > 1 else 0
        while True:
            u = upper & -upper
            j = u.bit_length() - 1 if upper else r
            for bit, row in lows[:j]:
                m = upper | bit
                if m >= stop:
                    break
                w = (m | odd ^ row).bit_count()
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
            # the next upper part's masks all lie past m
            v = upper + u
            if m >= stop or v >= top:
                break
            low = ((upper ^ v) >> 2) // u << 1
            odd ^= pre[(v & -v).bit_length()] ^ pre[j] ^ pre[low.bit_length()]
            upper = v | low
        state[:] = kv, km, kappa_on
    (ev, em, _), (ov, om, _) = states
    return (ev, em, ov, om, pv, pm) if parity else (ev, em, pv, pm)


# _infoset_scan takes twin-free graphs of even order from here on.  kappa_q
# under auto, summed over G(n, p) for 4 seeds at each p = 0.2 .. 0.8,
# against the kernels before it, interleaved, best of 7 on a 2.1 GHz Xeon:
# 41.5 against 72.8 ms at n = 20, but 13.0 against 8.6 at p = 0.8 (up to
# 1.7x on one graph), where the scan needs level 3 and hands on; 88.6
# against 160.4 ms at n = 22, losing only at p = 0.8 (18.6 against 15.7);
# 169.8 against 346.5 ms at n = 24, winning at every p
_INFOSET_MIN_ORDER = 22
# A restriction of _infoset_scan weighs this many masks of the table, the
# median ratio over three G(24, 1/2), both kernels fused, on the same Xeon:
# about 280 ns a restriction over levels 0..3, the last word of each sum
# taken in the scan's own flat loop, against about 0.9 ns a mask (medians
# 301-316 over six runs).  So orders 22 and 24 afford levels 0..3, 26 and
# 28 levels 0..4; any weight from 233 to 420 gives the same levels
_INFOSET_COST = 310
# balanced cuts _find_cut tries: about 29% of random 12 x 12 matrices over
# GF(2) are invertible, so all 64 random cuts of a G(24, 1/2) are singular
# with odds near 0.71^64 = 3e-10.  A failed search took 0.06-0.38 ms on
# sparse graphs of order 24 (C24, the 4 x 6 grid, G(24, 0.1) and
# G(24, 0.15)), which then take milliseconds in the other kernels
_CUT_TRIES = 64


@functools.cache
def _cut_candidates(n: int) -> tuple[tuple[int, tuple[int, ...]], ...]:
    """_CUT_TRIES seeded halves S of range(n), each as (mask, its vertices)."""
    rng = random.Random(n)
    halves = []
    for _ in range(_CUT_TRIES):
        verts = tuple(sorted(rng.sample(range(n), n // 2)))
        halves.append((sum(1 << v for v in verts), verts))
    return tuple(halves)


def _find_cut(adj: tuple[int, ...]) -> int:
    """A half S of the vertices whose cut matrix A[S, V \\ S] is invertible.

    0 when none of _cut_candidates is.  The rows adj[v] & ~S, v in S, go
    through gf2._reduce one at a time, and the first that reduces to 0
    ends the try; _unit_sources then inverts the cut that passes.
    """
    n = len(adj)
    full = (1 << n) - 1
    for half, verts in _cut_candidates(n):
        rest = full ^ half
        basis: list[tuple[int, int]] = []
        for v in verts:
            if not _reduce(basis, adj[v] & rest, n):
                break
        else:
            return half
    return 0


def _unit_sources(adj: tuple[int, ...], half: int, n: int) -> dict[int, int]:
    """{v: U_v} for v in half: U_v lies outside half, and Odd(U_v) n half = {v}.

    The rows adj[t] & half, t outside half, go through gf2._reduce, each
    tagged with its own bit t + n, so that a reduced row's tag is the set
    of rows it sums.  half's cut matrix must be invertible, so the basis
    ends as the unit rows {v}, v in half, and the tags as their sources.
    """
    basis: list[tuple[int, int]] = []
    for t in range(n):
        if not half >> t & 1:
            _reduce(basis, adj[t] & half | 1 << t + n, n)
    return {bit.bit_length() - 1: row >> n for bit, row in basis}


@functools.cache
def _infoset_levels(n: int) -> int:
    """The last level K of _infoset_scan at order n that pays.

    Levels 0..K visit 2 * sum C(n/2, j) * 3^j restrictions, j <= K; past
    the returned K, they weigh more than the table's 2^n masks.
    """
    total = 0
    for k in range(n // 2 + 1):
        total += 2 * math.comb(n // 2, k) * 3**k
        if total * _INFOSET_COST > 1 << n:
            return k - 1
    return n // 2


def _infoset_scan(
    adj: tuple[int, ...],
    n: int,
    ub: int,
    prime: bool,
    cut: int,
    levels: int,
) -> tuple[int, int, int, int] | None:
    """(kappa value, mask, kappa' value, mask), from two information sets.

    adj must hold all n rows of the graph, and cut a half S of its
    vertices whose cut matrix A[S, T], T = V \\ S, is invertible
    (_find_cut).  ub and prime are as for _layered_scan, but ub only
    turns kappa on or off.  None comes back where the levels 0..levels
    leave a quantity open, and _run then takes the table; n // 2 levels
    settle every quantity.

    The word of a set C is (C, Odd(C)), of weight w = |C u Odd(C)|; the
    words form the binary code of the paper's graph state.  kappa' is the
    least w over odd |C|, and n - kappa the least weight on the coset of
    words (C, Odd(C) xor V): n - s(C) = |C u (V \\ Odd(C))|.  A word's
    restriction to S, the pairs (v in C, v in Odd(C)) for v in S, fixes
    C, as Odd(C) n S = A[S, S](C n S) xor A[S, T](C n T); and every
    restriction is that of a word, as both spaces have 2^n elements.  The
    same holds for T.  Restricting is linear, so the words of weight K on
    S are the XOR sums of K basis words X_v, Z_v or Y_v = X_v xor Z_v of
    distinct v in S: the words restricted to {v} as C and as Odd(C).  Z_v
    is the word of _unit_sources' set for v, and X_v that of {v} plus Z_u
    for u in N(v) n S.  The coset word with S-restriction R is R's word
    xor the word of (0, S) xor (0, V), so one XOR sum serves both
    quantities.

    Level K walks, depth first, the words of weight K on S and then on T.
    _prefix_sums walks the sums of K - 1 basis words, and the scan's own
    flat loop takes the K-th from the words of the vertices after the
    last one summed, so that a restriction costs one XOR and the two
    weight tests, about 280 ns on G(24, 1/2); yielding each one up
    through K generator frames took about 540 ns.
    A word of weight w has weight at most w // 2 on S or on T, so after
    level K every word of weight 2K + 1 or less has been met.  A quantity
    whose best is within that is settled, with every one of its optima
    met, so the smallest optimal mask comes out whatever the cut.
    """
    full = (1 << n) - 1
    kappa_on = ub >= 0
    halves = []
    for half in (cut, full ^ cut):
        zs = {v: y | _odd_mask(adj, y) << n
              for v, y in _unit_sources(adj, half, n).items()}
        words, off = [], full << n
        for v, z in zs.items():
            x = 1 << v | adj[v] << n
            nbrs = adj[v] & half
            while nbrs:
                low = nbrs & -nbrs
                x ^= zs[low.bit_length() - 1]
                nbrs ^= low
            words += (x, z, x ^ z)
            off ^= z
        halves.append(([words[i:] for i in range(0, len(words), 3)], off))

    kw, km, pw, pm = n, 0, n + 1, 0
    for k in range(n // 2 + 1):
        # the best weights of the open quantities, and -1, which no weight
        # meets, for a settled or left-out one
        kt = kw if kappa_on and kw >= 2 * k else -1
        pt = pw if prime and pw >= 2 * k else -1
        if kt < 0 and pt < 0:
            break
        if k > levels:
            return None
        for tails, off in halves:
            for acc, tail in _prefix_sums(tails, 0, k - 1, 0):
                for b in tail:
                    x = acc ^ b
                    w = ((x | x >> n) & full).bit_count()
                    if w <= pt:
                        c = x & full
                        if c.bit_count() & 1 and (w < pw or c < pm):
                            pw = pt = w
                            pm = c
                    x ^= off
                    w = ((x | x >> n) & full).bit_count()
                    if w <= kt:
                        c = x & full
                        if w < kw or c < km:
                            kw = kt = w
                            km = c
    return n - kw if kappa_on else -1, km, pw, pm


def _prefix_sums(
    tails: list[list[int]], start: int, depth: int, acc: int
) -> Iterator[tuple[int, list[int]]]:
    """(acc xor s, tail) for each sum s of depth basis words, depth first.

    tails[i] holds the basis words of a half's vertices from the i-th on,
    three to a vertex, so tails[i][:3] are the i-th's own.  s takes one
    word from each of depth distinct vertices from the start-th on, and
    leaves at least one vertex after its last, i.  tail is tails[i + 1]
    (tails[start] for the empty sum), so acc ^ s ^ b over b in tail runs
    through the sums of depth + 1 words.  Depth -1 stands for level 0:
    its one sum is the empty one, and tail is [0].
    """
    if depth <= 0:
        yield acc, tails[start] if depth == 0 else [0]
        return
    for i in range(start, len(tails) - depth):
        for b in tails[i][:3]:
            yield from _prefix_sums(tails, i + 1, depth - 1, acc ^ b)


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


def _split(adj: tuple[int, ...], weight: int, budget: int) -> tuple | None:
    """g as a union of its components or a join of its co-components.

    Each part splits the same way, down to leaves that are connected and
    co-connected (Gallai's modular decomposition, cut at its prime and
    single-vertex modules).  A node is a plain tuple.  An inner node
    (size, join, children) is a part of size vertices, the union of its
    children, or with join their join.  A leaf (size, rows, reps) holds
    _twin_rows' scan of its part, and reps maps the scan's masks onto g;
    a one-vertex leaf is just its vertex.  A leaf scans 2^len(rows) masks,
    2 for one vertex, and the total is weighed as the leaves are built:
    None once weight times it reaches budget, and where g and its
    complement are both connected.
    """
    n = len(adj)
    for co in (False, True):
        parts = _components(adj, (1 << n) - 1, co)
        if len(parts) > 1:
            break
    else:
        return None
    pos = [0] * n
    masks = 0

    def module(part: int, co: bool) -> tuple | int | None:
        # the split of H[part], which is connected; H is g, or with co its
        # complement, and the node's profile is that of H[part].  Past the
        # budget, every call returns at once
        nonlocal masks
        if weight * masks >= budget:
            return None
        if not part & (part - 1):
            masks += 2
            return part.bit_length() - 1
        parts = _components(adj, part, not co)
        if len(parts) > 1:
            return part.bit_count(), True, tuple([module(p, not co) for p in parts])
        rows, reps = _twin_rows(adj, part, co, pos)
        masks += 1 << len(reps)
        return part.bit_count(), tuple(rows), reps

    tree = n, co, tuple([module(p, co) for p in parts])
    return tree if weight * masks < budget else None


def _better(v: int, m: int, v2: int, m2: int) -> tuple[int, int]:
    """The larger value with its mask, the smaller mask on a tie."""
    return (v, m) if v > v2 or v == v2 and m < m2 else (v2, m2)


def _profile(
    node: tuple | int, scans: dict[tuple[int, tuple[int, ...]], tuple[int, ...]]
) -> tuple[int, int, int, int, int, int]:
    """(even max, mask, odd max, mask, odd min, mask): a split node's profile.

    Over the subsets C of the node's part P, with s(C) = |Odd(C) \\ C| and
    w(C) = |C u Odd(C)| = |C| + s(C) in the graph P induces: the maximum
    of s over even |C|, the empty set included; the maximum of s over odd
    |C|; and the minimum of w over odd |C|.  Each comes with its smallest
    mask, over the vertices of g.  kappa is the better of the two maxima
    and kappa' the minimum.  A leaf's comes from the layered pass at its
    degree bound size * D // (D + 1), which bounds both maxima.  Leaves
    with equal (size, rows), such as the copies in r * G or the
    co-components of its complement, share one pass: scans maps each to
    its profile in local masks, for one solve, and each leaf maps those
    masks through its own reps.

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
    if isinstance(node, int):  # K1: s = 0 on both subsets, and w = 1 on the vertex
        return 0, 0, 0, 1 << node, 1, 1 << node
    if isinstance(node[1], tuple):  # a leaf
        size, rows, reps = node
        key = size, rows
        got = scans.get(key)
        if got is None:
            d = max(row.bit_count() for row in rows)
            got = scans[key] = _layered_scan(
                rows, size, size * d // (d + 1), True, parity=True
            )
        ev, em, ov, om, wv, wm = got
        return ev, _relabel(em, reps), ov, _relabel(om, reps), wv, _relabel(wm, reps)
    size, join, children = node
    ev, em, ov, om, wv, wm = _profile(children[0], scans)
    for child in children[1:]:
        e, e_m, o, o_m, w, w_m = _profile(child, scans)
        (ev, em), (ov, om) = (_better(ev + e, em + e_m, ov + o, om + o_m),
                              _better(ev + o, em + o_m, ov + e, om + e_m))
        if w < wv or w == wv and w_m < wm:
            wv, wm = w, w_m
    if join:
        return ev, em, size - wv, wm, size - ov, om
    return ev, em, ov, om, wv, wm


def _run(
    plan: _Plan, n: int, ub: int, prime: bool, workers: int | None
) -> tuple[int, int, int, int]:
    """(kappa value, mask, kappa' value, mask) as the plan says, masks over g.

    ub and prime are as for _layered_scan and _table._table_scan: ub = -1
    asks for kappa' alone, which takes prime_table's kernel.  With prime,
    both come back whatever kernels the plan picked: a split, the
    information-set scan and a kernel that both take give them in one
    pass, and where kappa_table and prime_table differ, kappa runs on its
    kernel with workers, then kappa' on its own without them.  A split
    computes both quantities whatever is asked.
    """
    if plan.split is not None:
        ev, em, ov, om, pv, pm = _profile(plan.split, {})
        return (*_better(ev, em, ov, om), pv, pm)
    if prime and ub >= 0 and plan.kappa_table != plan.prime_table:
        kv, km, _, _ = _run(plan, n, ub, False, workers)
        return (kv, km, *_run(plan, n, -1, True, None)[2:])
    got = None
    if plan.cut:
        got = _infoset_scan(plan.rows, n, ub, prime, plan.cut, _infoset_levels(n))
    if got is not None:
        kv, km, pv, pm = got
    elif plan.kappa_table if ub >= 0 else plan.prime_table:
        from . import _table

        kv, km, pv, pm = _table._table_scan(plan.rows, n, ub, prime, workers)
    else:
        kv, km, pv, pm = _layered_scan(plan.rows, n, ub, prime)
    return kv, _relabel(km, plan.reps), pv, _relabel(pm, plan.reps)


# () while _kappa_pair runs, and then (g, kappa' result) once kappa() has
# run g's solve: _kappa_pair still answers through kappa() and
# kappa_prime(), so each stays a call of its own for the callers that wrap
# or profile them
_KAPPA_PRIME_SLOT: ContextVar[tuple | None] = ContextVar(
    "_KAPPA_PRIME_SLOT", default=None
)


def kappa(
    g: Graph,
    *,
    cap: int = DEFAULT_CAP,
    engine: str = "auto",
    workers: int | None = None,
) -> ExtremalResult:
    """Exact kappa(G) with the lexicographically smallest optimal witness C.

    engine: "pure" runs the layered scan, "numpy" the blocked table
    kernel, "auto" solves a disconnected graph or a join part by part,
    sends a twin-free graph of even order n >= 22 to the information-set
    kernel (_infoset_scan) when it finds a cut for it, and otherwise picks
    by the number of twin classes (see _plan).  workers > 1
    runs the table kernel with its blocks split across processes; the
    returned value and witness are identical for every engine and worker
    count.  Where processes start by spawn (the default on macOS and
    Windows), each one re-imports the main script, so a script that passes
    workers > 1 needs an `if __name__ == "__main__":` guard around its
    solves, or the call fails with RuntimeError.
    """
    plan = _plan(g, engine, workers, cap)
    pair = _KAPPA_PRIME_SLOT.get() is not None
    best_v, best_m, pv, pm = _run(plan, g.n, plan.bounds[1], pair, workers)
    if pair:
        _KAPPA_PRIME_SLOT.set((g, ExtremalResult(
            Quantity.KAPPA_PRIME, pv, VertexSet(pm, g.n), plan.prime_bounds
        )))
    return ExtremalResult(Quantity.KAPPA, best_v, VertexSet(best_m, g.n), plan.bounds)


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
    left = _KAPPA_PRIME_SLOT.get()
    if left and left[0] is g:
        # kappa(g)'s run under _kappa_pair, which planned with this cap
        return left[1]
    plan = _plan(g, engine, None, cap)
    _, _, best_v, best_m = _run(plan, g.n, -1, True, None)
    return ExtremalResult(
        Quantity.KAPPA_PRIME, best_v, VertexSet(best_m, g.n), plan.prime_bounds
    )


def _kappa_pair(
    g: Graph, *, cap: int, engine: str, workers: int | None
) -> tuple[ExtremalResult, ExtremalResult]:
    """kappa(g) and kappa_prime(g) from one plan and one run of it.

    The slot it sets tells kappa() to ask its run for kappa' too, and
    kappa_prime(g) reads the value kappa() leaves there; the reset on the
    way out, raise or return, leaves no value to a later call.
    """
    token = _KAPPA_PRIME_SLOT.set(())
    try:
        k = kappa(g, cap=cap, engine=engine, workers=workers)
        kp = kappa_prime(g, cap=cap, engine=engine)
    finally:
        _KAPPA_PRIME_SLOT.reset(token)
    return k, kp


def kappa_q(
    g: Graph,
    *,
    cap: int = DEFAULT_CAP,
    engine: str = "auto",
    workers: int | None = None,
) -> KappaQResult:
    """kappa_Q(G) = max(kappa(G), n - kappa'(G)), with both witnesses.

    One plan serves both quantities, and one pass where the plan gives
    them one kernel: a split's leaf profiles, the layered pass, the
    information-set scan or the table.  On the table, after kappa reaches
    its bound only the kappa' reduction keeps running.  Where the plan
    gives them different kernels, kappa's runs first, then kappa''s.
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
