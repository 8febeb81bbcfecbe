"""Benchmark programs: models of the 49 SCTBench + ConVul subjects,
plus the ``gen:`` generated-scenario and ``py:`` real-Python namespaces."""

from repro.bench.registry import (
    EXPECTED_PROGRAM_COUNT,
    all_programs,
    by_suite,
    get,
    mc_supported,
    names,
)
from repro.runtime.program import Program

__all__ = [
    "EXPECTED_PROGRAM_COUNT",
    "all_programs",
    "by_suite",
    "get",
    "mc_supported",
    "names",
    "py_names",
    "py_programs",
]


# The py: suite imports the substrate, so it loads when first asked for.
def py_names() -> list[str]:
    """All ``py:`` target names, alphabetical."""
    from repro.bench.pybench import py_names

    return py_names()


def py_programs() -> dict[str, Program]:
    """Every ``py:`` target, keyed by its full registry name."""
    from repro.bench.pybench import py_programs

    return py_programs()
