"""Exact weak odd domination toolkit for small simple graphs.

A vertex set B is weakly odd dominated (WOD) when some C disjoint from B
has every vertex of B seeing an odd number of C-neighbours.  The package
computes the extremal sizes kappa (largest WOD set), kappa' (smallest
non-WOD set), and kappa_Q = max(kappa, n - kappa') exactly by subset
enumeration over GF(2) neighbourhood algebra, returns verifiable
witnesses for each value, and exposes perfect-code equivalences, closed
forms, and a seeded random-graph search over the kappa_Q / n ratio.
"""
from __future__ import annotations

__version__ = "0.1.0"

from .gf2 import BitMatrix, BitVector, rank, solve
from .graph import (
    MAX_ORDER,
    Graph,
    Graph6Error,
    VertexSet,
    closed_odd_neighborhood,
    complement,
    complete_multipartite,
    cut_matrix,
    disjoint_union,
    is_odd_dominating_set,
    max_degree,
    min_degree,
    odd_neighborhood,
    parse_graph6,
    power,
    random_graph,
    write_graph6,
)
from .perfect_code import (
    PerfectCode,
    PreconditionError,
    check_kappa_equality,
    check_kappa_prime_equality,
    find_perfect_code,
    is_perfect_code,
    k4_gadget_reduction,
)
from .search import (
    LLLParams,
    TrialReport,
    binary_entropy,
    lll_asymptotic_condition,
    lll_condition,
    min_feasible_c,
    probability_lower_bound,
    sample_and_measure,
    trial_seed,
)
from .solvers import (
    DEFAULT_CAP,
    CapExceededError,
    ExtremalResult,
    KappaQResult,
    Quantity,
    check_threshold_condition,
    gpq_closed_form,
    kappa,
    kappa_bounds,
    kappa_prime,
    kappa_prime_bounds,
    kappa_q,
)
from .wod import (
    BRUTEFORCE_LIMIT,
    WodCertificate,
    WodKind,
    is_wod,
    is_wod_bruteforce,
    non_wod_certificate,
    pi,
    verify_non_wod_certificate,
    verify_wod_certificate,
    wod_certificate,
)

__all__ = [
    "__version__",
    "BitMatrix",
    "BitVector",
    "rank",
    "solve",
    "MAX_ORDER",
    "Graph",
    "Graph6Error",
    "VertexSet",
    "closed_odd_neighborhood",
    "complement",
    "complete_multipartite",
    "cut_matrix",
    "disjoint_union",
    "is_odd_dominating_set",
    "max_degree",
    "min_degree",
    "odd_neighborhood",
    "parse_graph6",
    "power",
    "random_graph",
    "write_graph6",
    "PerfectCode",
    "PreconditionError",
    "check_kappa_equality",
    "check_kappa_prime_equality",
    "find_perfect_code",
    "is_perfect_code",
    "k4_gadget_reduction",
    "LLLParams",
    "TrialReport",
    "binary_entropy",
    "lll_asymptotic_condition",
    "lll_condition",
    "min_feasible_c",
    "probability_lower_bound",
    "sample_and_measure",
    "trial_seed",
    "DEFAULT_CAP",
    "CapExceededError",
    "ExtremalResult",
    "KappaQResult",
    "Quantity",
    "check_threshold_condition",
    "gpq_closed_form",
    "kappa",
    "kappa_bounds",
    "kappa_prime",
    "kappa_prime_bounds",
    "kappa_q",
    "BRUTEFORCE_LIMIT",
    "WodCertificate",
    "WodKind",
    "is_wod",
    "is_wod_bruteforce",
    "non_wod_certificate",
    "pi",
    "verify_non_wod_certificate",
    "verify_wod_certificate",
    "wod_certificate",
]
