"""Replay a recorded concrete schedule.

Replaying the thread-id sequence of a previous execution reproduces it
exactly when the program is deterministic modulo scheduling — which the
runtime guarantees.  Used by determinism tests and by the harness to
re-trigger a crashing schedule for triage (the paper's reproducibility
argument for deterministic multithreading, Section 4.1).

Divergence — the recorded thread not being enabled at some step, or the
program outliving the recorded schedule — is the failure mode replay-based
triage must engineer for, not assume away.  :class:`ReplayPolicy` supports
two stances:

* ``strict=False`` (default): record the first divergence point and keep
  executing the lowest-tid candidate so the run still terminates.  The
  executor surfaces the divergence as ``ExecutionResult.diverged``.
* ``strict=True``: raise :class:`ReplayDivergence` at the first divergent
  step instead of silently falling back — for callers that treat any
  divergence as a verification failure.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.runtime.errors import SchedulerError
from repro.schedulers.base import SchedulerPolicy

if TYPE_CHECKING:  # pragma: no cover - type-only imports
    from repro.runtime.executor import Candidate, Executor


class ReplayDivergence(SchedulerError):
    """Strict replay could not follow the recorded schedule.

    ``step`` is the 0-based schedule index at which replay diverged;
    ``wanted`` is the recorded thread id (None when the program ran past
    the end of the recorded schedule); ``enabled`` lists the thread ids
    that were actually runnable at that step.
    """

    def __init__(self, step: int, wanted: int | None, enabled: tuple[int, ...]):
        if wanted is None:
            detail = f"program ran past the {step}-step recorded schedule"
        else:
            detail = f"recorded thread T{wanted} not enabled (enabled: {list(enabled)})"
        super().__init__(f"replay diverged at step {step}: {detail}")
        self.step = step
        self.wanted = wanted
        self.enabled = tuple(enabled)


class ReplayPolicy(SchedulerPolicy):
    """Follow a recorded thread-id sequence; diverge per the chosen stance.

    ``diverged`` records the first step at which the recorded thread was not
    enabled (None when replay was exact); in non-strict mode the policy then
    keeps executing the lowest-tid candidate so the run still terminates.
    """

    def __init__(self, schedule: list[int], strict: bool = False):
        self.schedule = list(schedule)
        self.strict = strict
        self.diverged: int | None = None

    def begin(self, execution: "Executor") -> None:
        self._cursor = 0
        self.diverged = None

    def choose(self, candidates: "list[Candidate]", execution: "Executor") -> "Candidate":
        wanted = self.schedule[self._cursor] if self._cursor < len(self.schedule) else None
        self._cursor += 1
        if wanted is not None:
            # ``~tid`` records a TSO store-buffer flush of thread ``tid``; a
            # plain tid is that thread's own op and never matches a flush.
            flush = wanted < 0
            tid = ~wanted if flush else wanted
            for candidate in candidates:
                if candidate.tid == tid and (candidate.kind == "flush") == flush:
                    return candidate
        if self.strict:
            raise ReplayDivergence(
                self._cursor - 1, wanted, tuple(sorted(c.tid for c in candidates))
            )
        if self.diverged is None:
            self.diverged = self._cursor - 1
        return min(candidates, key=lambda c: c.tid)
