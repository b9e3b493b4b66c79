"""Setuptools entry point; the only packaging metadata of this repository.

There is no ``pyproject.toml``: plain ``setup.py`` keeps ``pip install -e .``
working in fully offline environments with older setuptools (no ``wheel``
package needed for the legacy ``setup.py develop`` path).  The tests and
scripts do not need an install at all; they run from the checkout with
``PYTHONPATH=src``.
"""

from setuptools import find_packages, setup

setup(
    name="repro",
    version="1.0.0",
    description=(
        "Discrete-event reproduction of a loan-based distributed "
        "multi-resource allocation algorithm and its baselines"
    ),
    package_dir={"": "src"},
    packages=find_packages("src"),
    # bisect(key=) and dataclass(slots=True) need 3.10, CI's lowest entry.
    python_requires=">=3.10",
)
