"""Always-on per-process counters of the runtime and the fuzzer.

The executor, the fuzzer and replay verification increment
:data:`GLOBAL_COUNTERS`; a campaign worker snapshots it around each slice
and ships the delta with the slice's result
(:mod:`repro.harness.telemetry` re-exports both names).
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass
class Counters:
    """Monotonic per-process counters; integer increments only, so keeping
    them always-on costs nanoseconds per execution."""

    #: Completed executions (one per Executor.run()).
    executions: int = 0
    #: Total executed events across all executions.
    steps: int = 0
    #: Crashing executions observed by the fuzzer.
    crashes: int = 0
    #: Schedules admitted into a fuzzer corpus.
    corpus_adds: int = 0
    #: Findings emitted by online sanitizer stacks (one per report).
    sanitizer_reports: int = 0
    #: Executions killed by a guard watchdog (step budget or wall clock).
    timeouts: int = 0
    #: Executions killed by the guard's livelock detector.
    livelocks: int = 0
    #: Replay executions run by the reproduction verifier.
    replays: int = 0
    #: Bug buckets quarantined as FLAKY by replay verification.
    flaky_quarantined: int = 0

    # The pool snapshots and diffs these around every slice, so the methods
    # go through ``__dict__``: ``dataclasses.replace``/``fields``/``asdict``
    # cost several times more per call.
    def snapshot(self) -> "Counters":
        return Counters(**self.__dict__)

    def delta(self, since: "Counters") -> "Counters":
        """Counter increments accumulated after ``since`` was snapshotted."""
        base = since.__dict__
        return Counters(**{name: value - base[name] for name, value in self.__dict__.items()})

    def reset(self) -> None:
        self.__dict__.update(dict.fromkeys(self.__dict__, 0))

    def as_dict(self) -> dict[str, int]:
        return dict(self.__dict__)


#: The process-wide counter instance.  Workers snapshot it around each cell
#: and ship the delta back with the result.
GLOBAL_COUNTERS = Counters()
