"""repro — a from-scratch reproduction of "Greybox Fuzzing for Concurrency
Testing" (RFF, ASPLOS 2024).

Public API tour:

* :mod:`repro.runtime` — write concurrent programs as generator coroutines
  and execute them under full schedule control.
* :mod:`repro.core` — reads-from traces, abstract schedules, the proactive
  constraint scheduler and the RFF fuzzer (:func:`repro.core.fuzz`).
* :mod:`repro.schedulers` — POS, PCT, random-walk and replay policies.
* :mod:`repro.algos` — the systematic (PERIOD-like), model-checking
  (GenMC-like) and Q-learning baselines.
* :mod:`repro.bench` — the 49 modelled benchmark programs.
* :mod:`repro.harness` — campaigns, statistics and the paper's figures.

Quickstart::

    from repro import bench, fuzz
    report = fuzz(bench.get("CS/reorder_100"), max_executions=200,
                  stop_on_first_crash=True)
    print(report.first_crash_at)      # ~3-6 schedules, as in the paper
"""

from repro import bench
from repro.core.fuzzer import FuzzReport, RffConfig, RffFuzzer, fuzz
from repro.core.reproduce import RunEnv
from repro.runtime import Program, program, run_program

__version__ = "1.0.0"

__all__ = [
    "FuzzReport",
    "Program",
    "RffConfig",
    "RffFuzzer",
    "RunEnv",
    "bench",
    "fuzz",
    "program",
    "run_program",
    "__version__",
]
