"""The benchmark registry: all 49 programs of the paper's evaluation.

Programs are keyed by their Appendix B names (``CS/reorder_100``,
``ConVul-CVE-Benchmarks/CVE-2016-9806``, ...).  The registry is the single
source the harness, tests and benches iterate over.

Beyond the fixed corpus, two namespaces resolve by name:

* ``gen:`` — *generated* scenarios (:mod:`repro.gen`):
  ``get("gen:<seed>[:<token>]")`` re-synthesizes the program
  deterministically from the name;
* ``py:`` — *real-Python* ``threading`` targets run under the substrate
  (:mod:`repro.bench.pybench`), e.g. ``get("py:counter_race")``.

Name-based resolution is what makes both first-class campaign targets —
parallel workers, replay and the CLI all rebuild the identical program
from its name.
"""

from __future__ import annotations

import difflib
from functools import lru_cache

from repro.bench.cb import cb_programs
from repro.bench.chess import chess_programs
from repro.bench.convul import convul_programs
from repro.bench.cs import cs_programs
from repro.bench.inspect_suite import inspect_programs
from repro.bench.radbench import radbench_programs
from repro.bench.safestack import safestack_programs
from repro.bench.splash2 import splash2_programs
from repro.runtime.program import Program

#: Number of benchmark programs in the paper's evaluation (Section 5.1).
EXPECTED_PROGRAM_COUNT = 49

#: Name prefix of the real-Python namespace.
PY_PREFIX = "py:"


@lru_cache(maxsize=1)
def all_programs() -> dict[str, Program]:
    """Every benchmark program, keyed by its Appendix B name."""
    programs: dict[str, Program] = {}
    for group in (
        cb_programs(),
        cs_programs(),
        chess_programs(),
        convul_programs(),
        inspect_programs(),
        safestack_programs(),
        splash2_programs(),
        radbench_programs(),
    ):
        for prog in group:
            if prog.name in programs:
                raise ValueError(f"duplicate benchmark name {prog.name!r}")
            programs[prog.name] = prog
    return programs


def get(name: str) -> Program:
    """Look one program up by its Appendix B name, ``gen:`` or ``py:`` spec.

    Unknown names raise a ``KeyError`` listing the closest matches, so a
    typo like ``CS/reorder_1000`` points straight at ``CS/reorder_100``.
    """
    from repro.gen.synth import GEN_PREFIX, from_name

    if name.startswith(GEN_PREFIX):
        return from_name(name).program
    if name.startswith(PY_PREFIX):
        # The suite (and the substrate under it) loads for py: names only.
        from repro.bench.pybench import get as py_get

        return py_get(name)
    programs = all_programs()
    if name not in programs:
        close = difflib.get_close_matches(name, programs, n=3, cutoff=0.4)
        hint = f"; did you mean: {', '.join(close)}?" if close else ""
        raise KeyError(
            f"unknown benchmark {name!r}{hint} "
            f"(see repro.bench.names(), or gen:<seed> for generated scenarios)"
        )
    return programs[name]


def names() -> list[str]:
    """All benchmark names in Appendix B (alphabetical) order."""
    return sorted(all_programs())


def by_suite(suite: str) -> list[Program]:
    """All programs of one suite (e.g. "CS", "ConVul", "Chess")."""
    return [p for p in all_programs().values() if p.suite == suite]


def mc_supported() -> list[Program]:
    """The subset the GenMC stand-in accepts (13 programs, mirroring the
    paper's non-Error GenMC rows)."""
    return [p for p in all_programs().values() if p.mc_supported]
