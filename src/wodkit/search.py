"""Probabilistic-method numerics and a seeded random-graph measurement harness.

The feasibility condition evaluated here is

    (1 - d) * [H(c/(1-d)) - 1] + H(d) + 4*(1-c)/r + log2(r)/n

with H the binary entropy.  A value <= 0 at (c, d, r, n) satisfies the
local-lemma weight inequality; dropping the two vanishing terms gives the
asymptotic form in (c, d) alone.  Sweeping c against a d-grid recovers the
smallest feasible target fraction, which sits just below 0.811.

With the weight parameter fixed to r = 4*ln(2)*(1-c)*n^2 the resulting
probability lower bound (1/4)^(2*(1-c)*n/r) collapses algebraically to
e^(-1/n), which is at least 1 - 1/n.  The asymptotic regime itself (orders
in the tens of thousands) is far beyond exact solving, so this module
checks the numeric condition and measures small random graphs instead.
"""
from __future__ import annotations

import math
import time

from ._record import Record, _set
from .graph import random_graph
from .solvers import DEFAULT_CAP, _check_cap, kappa_q

__all__ = [
    "binary_entropy",
    "LLLParams",
    "lll_condition",
    "lll_asymptotic_condition",
    "min_feasible_c",
    "probability_lower_bound",
    "TrialReport",
    "sample_and_measure",
    "trial_seed",
]

_T_CLAMP = 1e-12


def _check_c(c: float) -> None:
    if not 0.0 < c < 1.0:
        raise ValueError(f"target fraction c must be in (0, 1), got {c}")


def _check_d(c: float, d: float) -> None:
    if not 0.0 < d <= 1.0 - c + _T_CLAMP:
        raise ValueError(f"set density d must be in (0, 1-c], got d={d} with c={c}")


def binary_entropy(t: float) -> float:
    """H(t) = -t*log2(t) - (1-t)*log2(1-t), with H(0) = H(1) = 0."""
    if not 0.0 <= t <= 1.0:
        raise ValueError(f"entropy argument {t} outside [0, 1]")
    if t == 0.0 or t == 1.0:
        return 0.0
    return -t * math.log2(t) - (1.0 - t) * math.log2(1.0 - t)


class LLLParams(Record):
    """Numeric tuple (n, c, d, r) feeding the feasibility condition."""

    __slots__ = ("n", "c", "d", "r")
    n: int
    c: float
    d: float
    r: float

    def __init__(self, n: int, c: float, d: float, r: float) -> None:
        if n < 1:
            raise ValueError(f"order n must be >= 1, got {n}")
        _check_c(c)
        _check_d(c, d)
        if r < 2.0:
            raise ValueError(f"weight parameter r must be >= 2, got {r}")
        _set(self, "n", n)
        _set(self, "c", c)
        _set(self, "d", d)
        _set(self, "r", r)


def _entropy_term(c: float, d: float) -> float:
    t = c / (1.0 - d)
    if t > 1.0:
        if t > 1.0 + _T_CLAMP:
            raise ValueError(f"c/(1-d) = {t} exceeds 1, outside the entropy domain")
        t = 1.0
    return (1.0 - d) * (binary_entropy(t) - 1.0) + binary_entropy(d)


def lll_condition(p: LLLParams) -> float:
    """Left-hand side of the finite-n feasibility condition; <= 0 is feasible."""
    return (
        _entropy_term(p.c, p.d)
        + 4.0 * (1.0 - p.c) / p.r
        + math.log2(p.r) / p.n
    )


def lll_asymptotic_condition(c: float, d: float) -> float:
    """Two-term limit of the condition as r and n grow; <= 0 is feasible."""
    _check_c(c)
    _check_d(c, d)
    return _entropy_term(c, d)


def _d_grid(c: float, step: float) -> list[float]:
    # uniform grid on (0, 1-c], right endpoint always included
    top = 1.0 - c
    out = []
    j = 1
    while j * step < top - _T_CLAMP:
        out.append(j * step)
        j += 1
    out.append(top)
    return out


def min_feasible_c(grid_step: float = 1e-3) -> float:
    """Smallest grid multiple c where the asymptotic condition holds on (0, 1-c].

    Scans c = grid_step, 2*grid_step, ... and returns the first value whose
    entire d-grid evaluates <= 0.  The condition is monotone in c on these
    grids, so the scan brackets the true threshold to within one step.
    """
    if not 0.0 < grid_step <= 1e-3:
        raise ValueError(f"grid_step must be in (0, 1e-3], got {grid_step}")
    i = 1
    while i * grid_step < 1.0:
        c = i * grid_step
        if all(lll_asymptotic_condition(c, d) <= 0.0 for d in _d_grid(c, grid_step)):
            return c
        i += 1
    raise RuntimeError("no feasible c found on the grid")


def probability_lower_bound(n: int, c: float) -> float:
    """(1/4)^(2*(1-c)*n/r) with r = 4*ln(2)*(1-c)*n^2.

    Algebraically identical to e^(-1/n) and therefore at least 1 - 1/n.
    Computed from the literal formula so the identity stays a real check.
    """
    if n < 1:
        raise ValueError(f"order n must be >= 1, got {n}")
    _check_c(c)
    r = 4.0 * math.log(2.0) * (1.0 - c) * n * n
    return 0.25 ** (2.0 * (1.0 - c) * n / r)


class TrialReport(Record):
    """One measured random graph: exact quantities and their ratio to n."""

    __slots__ = (
        "trial", "seed", "n", "kappa", "kappa_prime", "kappa_q", "ratio", "elapsed"
    )
    trial: int
    seed: int
    n: int
    kappa: int
    kappa_prime: int
    kappa_q: int
    ratio: float
    elapsed: float

    def __init__(
        self,
        trial: int,
        seed: int,
        n: int,
        kappa: int,
        kappa_prime: int,
        kappa_q: int,
        ratio: float,
        elapsed: float,
    ) -> None:
        _set(self, "trial", trial)
        _set(self, "seed", seed)
        _set(self, "n", n)
        _set(self, "kappa", kappa)
        _set(self, "kappa_prime", kappa_prime)
        _set(self, "kappa_q", kappa_q)
        _set(self, "ratio", ratio)
        _set(self, "elapsed", elapsed)


_MASK64 = (1 << 64) - 1


def trial_seed(base_seed: int, index: int) -> int:
    """Deterministic per-trial seed: splitmix64 finalizer over a linear mix.

    z = base_seed * 0x9E3779B97F4A7C15 + index * 0xBF58476D1CE4E5B9 (mod 2^64)
    then the standard splitmix64 avalanche.  Stable across releases; the
    exact constants are part of the reproducibility contract.
    """
    z = (base_seed * 0x9E3779B97F4A7C15 + index * 0xBF58476D1CE4E5B9) & _MASK64
    z ^= z >> 30
    z = (z * 0xBF58476D1CE4E5B9) & _MASK64
    z ^= z >> 27
    z = (z * 0x94D049BB133111EB) & _MASK64
    z ^= z >> 31
    return z


def sample_and_measure(
    n: int,
    trials: int,
    base_seed: int,
    *,
    cap: int = DEFAULT_CAP,
) -> list[TrialReport]:
    """Measure exact kappa_Q over `trials` seeded G(n, 1/2) samples.

    Trial i draws the graph random_graph(n, trial_seed(base_seed, i)); the
    report list is ordered by trial index.  Identical inputs give identical
    graphs and quantities (elapsed wall times aside).
    """
    if n < 1:
        raise ValueError(f"order n must be >= 1, got {n}")
    _check_cap(n, cap)
    if trials < 0:
        raise ValueError(f"trials must be >= 0, got {trials}")
    reports = []
    for i in range(trials):
        seed = trial_seed(base_seed, i)
        g = random_graph(n, seed)
        t0 = time.perf_counter()
        result = kappa_q(g, cap=cap)
        elapsed = time.perf_counter() - t0
        reports.append(
            TrialReport(
                trial=i,
                seed=seed,
                n=n,
                kappa=result.kappa.value,
                kappa_prime=result.kappa_prime.value,
                kappa_q=result.value,
                ratio=result.value / n,
                elapsed=elapsed,
            )
        )
    return reports
