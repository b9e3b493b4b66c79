"""Library behind ``benchmarks/e2e/run.py`` and ``compare.py``.

``spec`` (names), ``measure`` (spin normalisation) and ``layers`` (the
profile fold) import nothing from ``repro``; ``workloads``, ``probes`` and
``worker`` do, and are only imported inside a workload process.
"""
