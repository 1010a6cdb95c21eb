"""Exact weak odd domination toolkit for small simple graphs.

A vertex set B is weakly odd dominated (WOD) when some C disjoint from B
has every vertex of B seeing an odd number of C-neighbours.  The package
computes the extremal sizes kappa (largest WOD set), kappa' (smallest
non-WOD set), and kappa_Q = max(kappa, n - kappa') exactly by subset
enumeration over GF(2) neighbourhood algebra, returns verifiable
witnesses for each value, and exposes perfect-code equivalences, closed
forms, and a seeded random-graph search over the kappa_Q / n ratio.

Each library module's __all__ is the one list of its public names; the
package re-exports their union.
"""
from __future__ import annotations

__version__ = "0.1.0"

from . import gf2, graph, perfect_code, search, solvers, wod
from .gf2 import *
from .graph import *
from .perfect_code import *
from .search import *
from .solvers import *
from .wod import *

__all__ = ["__version__"]
__all__ += gf2.__all__
__all__ += graph.__all__
__all__ += perfect_code.__all__
__all__ += search.__all__
__all__ += solvers.__all__
__all__ += wod.__all__
