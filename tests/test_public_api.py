from __future__ import annotations

import wodkit
from wodkit import cli, fixtures, gf2, graph, perfect_code, search, solvers, wod

REEXPORTED = (gf2, graph, perfect_code, search, solvers, wod)


def test_all_lists_resolve_and_package_reexports_them():
    # profilers and tracers walk __all__ with getattr, so every listed name
    # must exist; the package namespace is exactly the library modules' union
    for mod in (wodkit, cli, fixtures) + REEXPORTED:
        missing = [name for name in mod.__all__ if not hasattr(mod, name)]
        assert not missing, (mod.__name__, missing)
    union = {name for mod in REEXPORTED for name in mod.__all__}
    assert set(wodkit.__all__) == union | {"__version__"}
    # a name in two modules' lists would bind whichever star import ran last
    assert len(wodkit.__all__) == len(set(wodkit.__all__))
