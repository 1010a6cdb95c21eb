"""The blocked Odd-table kernel, wodkit's only numpy code.

solvers imports this module only where a scan takes the table:
check_threshold_condition always, kappa and kappa' as solvers._plan
decides.  A solve that runs only the pure scans never loads numpy or the
process pool.

_odd_blocks tables Odd(L) for all masks L of the low _LO_BITS vertices
once, by XOR doubling, then walks the high blocks in ascending order:
block h holds the masks C = h * 2^_LO_BITS + L, whose Odd(C) is the low
table XOR Odd(h), and two xors, one and and one np.bitwise_count over
the block give s(C) = |Odd(C) \\ C|.  Every consumer is a reduction over
its blocks.  A scan covers the subsets of the rows adj it is given, the
first len(adj) vertices; n is the order, the width of Odd and of the mask
dtype.  kappa and kappa' pass one row per twin class, and
check_threshold_condition every row.  The block width _LO_BITS and the
kappa' filler _OUT_OF_REACH belong to this kernel alone, so they are
defined here; the module imports only the mask helpers of graph and
nothing from solvers.
"""
from __future__ import annotations

import functools
import os
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool

import numpy as np

from .graph import _neighbor_prefix, _odd_mask

# a block of 2^16 uint32 masks is 256 KB and stays in L2; 18 bits ran
# slower (order 24: 26 ms against 41 ms for a fused kappa_q pass)
_LO_BITS = 16

# Wrong-parity low masks get this size in the kappa' reduction, so they
# never win: every |C u Odd(C)| is at most 62.  The uint8 sums stay exact
# because 128 + 62 < 256.
_OUT_OF_REACH = 128


def _layout(adj: tuple[int, ...], n: int) -> tuple[int, type]:
    """(low-bit width, mask dtype) of a scan over the rows adj at order n."""
    return min(len(adj), _LO_BITS), np.uint64 if n > 31 else np.uint32


@functools.cache
def _low_tables(
    lo_bits: int, dt: type
) -> tuple[np.ndarray, np.ndarray, tuple[np.ndarray, np.ndarray]]:
    """Graph-independent tables over the low masks L < 2^lo_bits.

    Returns ~L, |L| (uint8), and for each parity p of the high block the
    sizes |L| where |L| + p is odd, _OUT_OF_REACH where it is even.  They
    are built once per width rather than on every call.
    """
    masks = np.arange(1 << lo_bits, dtype=dt)
    sizes = np.bitwise_count(masks)
    odd_sizes = tuple(
        np.where((sizes & 1) != p, sizes, _OUT_OF_REACH).astype(np.uint8)
        for p in (0, 1)
    )
    not_masks = ~masks
    for a in (not_masks, sizes, *odd_sizes):
        a.flags.writeable = False
    return not_masks, sizes, odd_sizes


def _odd_blocks(adj: tuple[int, ...], n: int, start: int, stop: int):
    """Yield (h, s) for the high blocks start <= h < stop, in order.

    Block h holds the masks C = h * 2^lo + L for every low mask L, and
    s[L] = |Odd(C) \\ C| as uint8.  s is one buffer reused for every block,
    so a consumer reduces it before it asks for the next block.
    """
    lo, dt = _layout(adj, n)
    not_low = _low_tables(lo, dt)[0]
    odd = np.empty(1 << lo, dtype=dt)
    odd[0] = 0
    for v in range(lo):
        np.bitwise_xor(odd[: 1 << v], dt(adj[v]), out=odd[1 << v : 2 << v])
    x = np.empty_like(odd)
    not_c = np.empty_like(odd)
    s = np.empty(1 << lo, dtype=np.uint8)
    pre = _neighbor_prefix(adj[lo:])
    high_odd = _odd_mask(adj[lo:], start)
    for h in range(start, stop):
        if h > start:
            high_odd ^= pre[(h & -h).bit_length() - 1]
        np.bitwise_xor(odd, dt(high_odd), out=x)
        # ~L has every high bit set, so the xor clears exactly h's bits
        np.bitwise_xor(not_low, dt(h << lo), out=not_c)
        np.bitwise_and(x, not_c, out=x)
        np.bitwise_count(x, out=s)
        yield h, s


def _reduce_blocks(task: tuple) -> tuple[int, int, int, int]:
    """(kappa value, mask, kappa' value, mask) over the blocks [start, stop).

    kappa is the first argmax of s; it stops once it reaches ub, and
    ub = -1 leaves it out.  Otherwise ub must be at least kappa, as the
    kappa_bounds upper bound is: below it, the result depends on the order
    in which a kernel meets the masks.  With prime, kappa' is the first
    argmin of |C| + s over odd |C|; without it, (n + 1, 0) comes back.
    """
    adj, n, start, stop, ub, prime = task
    lo, dt = _layout(adj, n)
    odd_sizes = _low_tables(lo, dt)[2]
    w = np.empty(1 << lo, dtype=np.uint8)
    kv, km, pv, pm = -1, 0, n + 1, 0
    for h, s in _odd_blocks(adj, n, start, stop):
        if kv < ub:
            i = int(s.argmax())
            if s[i] > kv:
                kv, km = int(s[i]), h << lo | i
        if prime:
            size_h = h.bit_count()
            np.add(odd_sizes[size_h & 1], s, out=w)
            j = int(w.argmin())
            if int(w[j]) + size_h < pv:
                pv, pm = int(w[j]) + size_h, h << lo | j
        elif kv >= ub:
            break
    return kv, km, pv, pm


def _table_scan(
    adj: tuple[int, ...], n: int, ub: int, prime: bool, workers: int | None
) -> tuple[int, int, int, int]:
    """_reduce_blocks over every block, in up to workers ranges.

    ub must be -1 or at least kappa, as for _reduce_blocks.  The ranges go
    to a process pool of at most one process per core.  A pool whose
    processes die raises RuntimeError: under spawn or forkserver that is
    most often a main script without a __main__ guard.
    """
    blocks = 1 << (len(adj) - _layout(adj, n)[0])
    if not workers or workers < 2:
        return _reduce_blocks((adj, n, 0, blocks, ub, prime))
    # block 0 runs here first: a bound reached in it, or a table of one
    # block, leaves nothing for a pool to do
    parts = [_reduce_blocks((adj, n, 0, 1, ub, prime))]
    rest_ub = ub if parts[0][0] < ub else -1
    if blocks == 1 or (rest_ub < 0 and not prime):
        return parts[0]
    chunk = -(-(blocks - 1) // workers)
    tasks = [
        (adj, n, s, min(s + chunk, blocks), rest_ub, prime)
        for s in range(1, blocks, chunk)
    ]
    procs = min(len(tasks), os.cpu_count() or 1)
    try:
        with ProcessPoolExecutor(max_workers=procs) as ex:
            parts += ex.map(_reduce_blocks, tasks)
    except BrokenProcessPool as exc:
        raise RuntimeError(
            "a worker process of the kappa scan died before it returned.  "
            "Where processes start by spawn or forkserver (spawn is the "
            "default on macOS and Windows), each one re-imports the main "
            "script, so a script that passes workers > 1 needs an "
            '`if __name__ == "__main__":` guard around its solves'
        ) from exc
    # ranges ascend, so keeping the first strict optimum preserves the
    # smallest witness mask regardless of worker scheduling
    kv, km, pv, pm = parts[0]
    for v, m, p, q in parts[1:]:
        if v > kv:
            kv, km = v, m
        if p < pv:
            pv, pm = p, q
    return kv, km, pv, pm


def _threshold_scan(adj: tuple[int, ...], n: int, k: int) -> bool:
    """The block loop of check_threshold_condition, for n >= 1."""
    lo, dt = _layout(adj, n)
    sizes = _low_tables(lo, dt)[1]
    w = np.empty(1 << lo, dtype=np.uint8)
    for h, s in _odd_blocks(adj, n, 0, 1 << (len(adj) - lo)):
        # s of the empty set is 0, below every k > 0, and at k = 0 any
        # nonempty D fails as well, so the maximum may include it
        if int(s.max()) >= k:
            return False
        np.add(sizes, s, out=w)
        if h == 0:
            w[0] = _OUT_OF_REACH
        if int(w.min()) + h.bit_count() <= n - k:
            return False
    return True
