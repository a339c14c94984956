"""Benchmark of the chiral-diode package: three closed-loop workloads
(``reproduce``, ``maps``, ``oracle``) driven from outside the package.

``run.py`` is the entry point; ``worker.py`` runs one pass of a workload
in a fresh interpreter; ``workloads.py`` builds each pass's operations
from the seed; ``checks.py`` verifies every output; ``tracing.py`` wraps
the package's layer functions in spans for the traced runs.
"""
