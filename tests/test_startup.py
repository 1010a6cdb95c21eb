"""What a short `wodkit compute` or `wodkit verify` process imports.

Each command runs under `python -X importtime`, which lists every module
the process imports, and the list of a bare `python -c pass` in the same
environment is taken away.  The modules left over are wodkit's start-up
cost, and none of the heavy ones below may be among them: the record
classes need no dataclasses (and with it inspect), only `search` needs
statistics, and only the table kernel needs numpy and the process pool.
"""
from __future__ import annotations

import json
import subprocess
import sys

import pytest

HEAVY = ("dataclasses", "inspect", "statistics", "numpy", "concurrent.futures")


def imported(*args: str) -> set[str]:
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", *args],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    names = set()
    for line in proc.stderr.splitlines():
        if line.startswith("import time:") and "|" in line:
            name = line.rsplit("|", 1)[1].strip()
            if name != "imported package":
                names.add(name)
    return names


@pytest.fixture(scope="module")
def bare() -> set[str]:
    return imported("-c", "pass")


def heavy(names: set[str]) -> list[str]:
    return sorted(n for n in names for h in HEAVY if n == h or n.startswith(h + "."))


@pytest.mark.parametrize(
    "argv",
    [
        ("compute", "--gpq", "2,3", "--no-timing"),
        ("verify", "--graph", "Cl", "--certificate",
         json.dumps({"kind": "WOD", "b": [0, 2], "witness": [1]})),
    ],
    ids=["compute", "verify"],
)
def test_short_commands_skip_heavy_imports(bare, argv):
    extra = imported("-m", "wodkit", *argv) - bare
    assert "wodkit.cli" in extra
    assert heavy(extra) == []


def test_search_still_reaches_statistics(bare):
    # the check above must be able to fail: search imports statistics
    extra = imported("-m", "wodkit", "search", "--n", "4", "--trials", "1",
                     "--seed", "1", "--no-timing")
    assert "statistics" in extra - bare
