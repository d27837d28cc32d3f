import os
from pathlib import Path

import pytest

from lapoly.triangulate import laplacian_triangulation

# the `python -m lapoly.cli` subprocesses of the tests import the same
# `src/` as the tests themselves (pyproject's `pythonpath`), installed or not
os.environ["PYTHONPATH"] = os.pathsep.join(
    filter(None, (str(Path(__file__).resolve().parent.parent / "src"),
                  os.environ.get("PYTHONPATH")))
)

_CACHE = {}


@pytest.fixture(scope="session")
def triangulation_cache():
    """Shared laplacian_triangulation results; the larger ones are expensive
    enough that every module should reuse them."""

    def get(d):
        if d not in _CACHE:
            _CACHE[d] = laplacian_triangulation(d)
        return _CACHE[d]

    return get
