"""Deterministic user-mode concurrency runtime (the paper's substrate).

Programs are generator coroutines yielding operations; the
:class:`~repro.runtime.executor.Executor` serializes all threads and lets a
scheduler policy choose the interleaving one event at a time — the Python
equivalent of the paper's E9Patch instrumentation + ``libsched.so`` scheduler
(Section 4.1).
"""

from repro.runtime.api import Api
from repro.runtime.counters import GLOBAL_COUNTERS, Counters
from repro.runtime.errors import (
    AssertionViolation,
    DeadlockDetected,
    DoubleFree,
    MemorySafetyViolation,
    NullDereference,
    ProgramError,
    RuntimeViolation,
    SchedulerError,
    UseAfterFree,
)
from repro.runtime.diagnostics import DeterminismReport, trace_to_dot, verify_determinism
from repro.runtime.executor import Candidate, ExecutionResult, Executor, run_program
from repro.runtime.objects import Barrier, CondVar, Heap, HeapObject, Mutex, Semaphore, SharedVar
from repro.runtime.program import Program, program
from repro.runtime.thread import ThreadHandle, ThreadState, ThreadStatus
from repro.runtime.tso import BufferedStore, TsoExecutor, run_program_tso

__all__ = [
    "Api",
    "AssertionViolation",
    "Barrier",
    "BufferedStore",
    "Candidate",
    "CondVar",
    "Counters",
    "DeadlockDetected",
    "DeterminismReport",
    "DoubleFree",
    "ExecutionResult",
    "Executor",
    "GLOBAL_COUNTERS",
    "Heap",
    "HeapObject",
    "MemorySafetyViolation",
    "Mutex",
    "NullDereference",
    "Program",
    "ProgramError",
    "RuntimeViolation",
    "SchedulerError",
    "Semaphore",
    "SharedVar",
    "ThreadHandle",
    "ThreadState",
    "ThreadStatus",
    "TsoExecutor",
    "UseAfterFree",
    "program",
    "run_program",
    "trace_to_dot",
    "verify_determinism",
    "run_program_tso",
]
