"""Repository-level pytest configuration.

Makes the ``src`` layout importable even when the package has not been
installed (e.g. running ``pytest`` straight from a fresh checkout in an
offline environment), and hands ``scripts/count_work.py`` to the tests
whose contracts are call counts.
"""

import importlib.util
import os
import sys

import pytest

_ROOT = os.path.dirname(os.path.abspath(__file__))
_SRC = os.path.join(_ROOT, "src")
if _SRC not in sys.path:
    sys.path.insert(0, _SRC)


@pytest.fixture(scope="session")
def count_work():
    """The ``scripts/count_work.py`` module (``count_calls``, ``layer_of``, ``table``)."""
    spec = importlib.util.spec_from_file_location(
        "count_work", os.path.join(_ROOT, "scripts", "count_work.py")
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module
