"""Independent answers for the benchmark checks: kappa, kappa' and certificates.

extremes() tables Odd(C) for all 2^n masks C at once with numpy and reads
both extremal quantities off that one table:

- kappa  = max |Odd(C) \\ C| over all C, witness the smallest such mask;
- kappa' = min |D u Odd(D)| over odd-sized D, witness the smallest such D.

It shares no code with wodkit.solvers; perfbench/tests/test_oracle.py
checks it against the definitions by double enumeration.  The exact-n24
corpus (order 24, 2^24 masks per graph) and the fixed cli-small graphs
are answered once and cached in oracle_cache.json; rebuild the cache with

    python3 perfbench/oracle.py --rebuild

from the repository root.  The cache records a hash of this file and of
corpus.py, and the benchmark refuses a cache whose hash does not match.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import sys
from pathlib import Path

import numpy as np

import corpus

HERE = Path(__file__).resolve().parent
CACHE_PATH = HERE / "oracle_cache.json"
MAX_N = 26
_CHUNK = 1 << 20


def extremes(adj: tuple[int, ...]) -> tuple[int, int, int, int]:
    """(kappa, kappa witness mask, kappa', kappa' witness mask)."""
    n = len(adj)
    if not 1 <= n <= MAX_N:
        raise ValueError(f"oracle handles orders 1..{MAX_N}, got {n}")
    dt = np.uint32
    odd = np.zeros(1 << n, dtype=dt)
    for v, row in enumerate(adj):
        # masks with top bit v are the masks below 2^v plus vertex v
        half = 1 << v
        np.bitwise_xor(odd[:half], dt(row), out=odd[half:2 * half])
    k_val, k_mask = -1, 0
    kp_val, kp_mask = n + 1, 0
    for start in range(0, 1 << n, _CHUNK):
        stop = min(start + _CHUNK, 1 << n)
        masks = np.arange(start, stop, dtype=dt)
        block = odd[start:stop]
        score = np.bitwise_count(block & ~masks)
        i = int(score.argmax())
        if score[i] > k_val:
            k_val, k_mask = int(score[i]), start + i
        cover = np.bitwise_count(block | masks)
        cover[(np.bitwise_count(masks) & 1) == 0] = np.iinfo(cover.dtype).max
        j = int(cover.argmin())
        if cover[j] < kp_val:
            kp_val, kp_mask = int(cover[j]), start + j
    return k_val, k_mask, kp_val, kp_mask


def odd_of(adj: tuple[int, ...], mask: int) -> int:
    """Odd(C) by counting each vertex's neighbours in C."""
    return sum(1 << u for u, row in enumerate(adj) if (row & mask).bit_count() & 1)


def degree_bounds(adj: tuple[int, ...]) -> tuple[tuple[int, int], tuple[int, int]]:
    """The paper's brackets: kappa in [D, nD/(D+1)], kappa' in [n/(n-d), d+1]."""
    n = len(adj)
    degrees = [row.bit_count() for row in adj]
    hi, lo = max(degrees), min(degrees)
    return (hi, n * hi // (hi + 1)), (-(-n // (n - lo)), lo + 1)


def wod_certificate_ok(adj: tuple[int, ...], b: int, c: int) -> bool:
    """C misses B and every vertex of B has an odd number of neighbours in C."""
    return b & c == 0 and all(
        (adj[v] & c).bit_count() & 1 for v in range(len(adj)) if b >> v & 1
    )


def non_wod_certificate_ok(adj: tuple[int, ...], b: int, d: int) -> bool:
    """D is odd-sized, inside B, and no vertex outside B sees D oddly."""
    return (
        d & ~b == 0
        and d.bit_count() & 1 == 1
        and not any(
            (adj[u] & d).bit_count() & 1 for u in range(len(adj)) if not b >> u & 1
        )
    )


def source_hash() -> str:
    h = hashlib.sha256()
    for name in ("oracle.py", "corpus.py"):
        h.update((HERE / name).read_bytes())
    return h.hexdigest()


def _entry(name: str, adj: tuple[int, ...]) -> dict:
    k, km, kp, kpm = extremes(adj)
    return {"name": name, "g6": corpus.to_graph6(adj), "kappa": k, "kappa_witness": km,
            "kappa_prime": kp, "kappa_prime_witness": kpm}


def build_cache() -> dict:
    """Answer the exact-n24 corpus and the fixed cli-small graphs."""
    sys.path.insert(0, str(HERE.parent / "src"))
    from wodkit.fixtures import CUBIC_GRAPH6, FIXTURE_NAMES, named_fixture
    from wodkit.graph import write_graph6

    exact = corpus.exact_family_graphs(list(CUBIC_GRAPH6[8]))
    exact += corpus.exact_random_graphs()
    cli = [(name, corpus.from_graph6(write_graph6(g)))
           for name in FIXTURE_NAMES if not name.startswith("cubic-")
           for g in named_fixture(name)]
    cli += [(f"cubic-10 {g6}", corpus.from_graph6(g6)) for g6 in CUBIC_GRAPH6[10]]
    return {
        "source_sha256": source_hash(),
        "exact-n24": [_entry(name, adj) for name, adj in exact],
        "cli-small": [_entry(name, adj) for name, adj in cli],
    }


def load_cache() -> dict:
    cache = json.loads(CACHE_PATH.read_text())
    if cache["source_sha256"] != source_hash():
        raise RuntimeError(
            "perfbench/oracle_cache.json is stale: oracle.py or corpus.py changed; "
            "run python3 perfbench/oracle.py --rebuild"
        )
    return cache


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--rebuild", action="store_true",
                        help="recompute every answer in oracle_cache.json")
    args = parser.parse_args()
    if not args.rebuild:
        parser.error("nothing to do; pass --rebuild")
    cache = build_cache()
    CACHE_PATH.write_text(json.dumps(cache, indent=1) + "\n")
    print(f"wrote {CACHE_PATH.name}: {len(cache['exact-n24'])} exact-n24 graphs, "
          f"{len(cache['cli-small'])} cli-small graphs")
    return 0


if __name__ == "__main__":
    sys.exit(main())
