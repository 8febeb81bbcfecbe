"""Dynamic trace analyses: the companions of Section 6 ("Dynamic Analyses").

Each analysis is one streaming sanitizer (:mod:`repro.analysis.online`)
that campaigns attach to the executor.  The same sanitizers analyse
recorded :class:`~repro.core.trace.Trace` objects — e.g. the traces RFF's
executions produce — and implicate concurrency defects beyond the crash
oracle: happens-before data races (:func:`find_races`), lock discipline
violations (:func:`check_lock_discipline`) and predicted ABBA deadlocks
(:func:`predict_deadlocks`).
"""

from repro.analysis.directed import DirectedResult, confirm_races, predict_races
from repro.analysis.hb import Race, RaceReport
from repro.analysis.lockgraph import DeadlockPrediction, LockGraphReport
from repro.analysis.lockset import LockDisciplineViolation, LocksetReport
from repro.analysis.online import (
    SANITIZERS,
    OnlineLockOrderSanitizer,
    OnlineLocksetSanitizer,
    OnlineRaceSanitizer,
    Sanitizer,
    SanitizerReport,
    build_stack,
    check_lock_discipline,
    find_races,
    parse_sanitizers,
    predict_deadlocks,
)
from repro.analysis.vector_clock import VectorClock, concurrent

__all__ = [
    "DeadlockPrediction",
    "DirectedResult",
    "LockDisciplineViolation",
    "LockGraphReport",
    "LocksetReport",
    "OnlineLockOrderSanitizer",
    "OnlineLocksetSanitizer",
    "OnlineRaceSanitizer",
    "Race",
    "RaceReport",
    "SANITIZERS",
    "Sanitizer",
    "SanitizerReport",
    "VectorClock",
    "build_stack",
    "check_lock_discipline",
    "concurrent",
    "confirm_races",
    "find_races",
    "parse_sanitizers",
    "predict_deadlocks",
    "predict_races",
]
