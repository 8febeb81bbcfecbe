"""Runtime guardrails: watchdogs and livelock detection for one execution.

A production fuzzing campaign survives millions of adversarial executions
only if no single benchmark program can wedge it: a spin loop must not eat
the whole schedule budget, a livelocked pair of threads must be killed and
*reported* (a liveness bug is a finding, not an accident), and the kill
decision must be deterministic so serial and parallel campaigns — and every
replay of the same schedule — agree bit-for-bit on the outcome.

Three guards, all opt-in through :class:`GuardConfig`:

* **step budget** — a deterministic watchdog: execution step ``N`` under the
  same schedule always trips at the same point, so ``timeout`` outcomes
  replay exactly.  This is the watchdog campaigns should use.
* **wall clock** — a best-effort safety net for pathological slowness.  It
  is machine-dependent by nature (``ExecutionTimeout.deterministic`` is
  False), checked only every :attr:`GuardConfig.wall_check_interval` steps
  to keep the hot loop cheap.
* **livelock detector** — flags ``window`` consecutive steps that each
  repeat an already-executed event fingerprint while no thread finishes.
  CAS retry storms and lost-wakeup spin loops cycle through a fixed set of
  fingerprints; genuine progress (a new value, a new location, a thread
  exit) resets the streak.  Deterministic given the schedule.

The executor raises the corresponding :class:`~repro.runtime.errors`
violations, which flow through the normal crash path: the outcome becomes
``"timeout"`` / ``"livelock"``, the fuzzer records a crash, and triage
buckets it like any other bug.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any

from repro.runtime.errors import ExecutionTimeout, LivelockDetected

if TYPE_CHECKING:  # pragma: no cover - type-only import
    from repro.core.events import Event

#: Fingerprint value kinds hashed directly; everything else degrades to the
#: type name (heap objects, thread handles) so fingerprints stay hashable
#: and cheap to build.
_PRIMITIVES = (int, float, str, bool, type(None))


def _fingerprint_value(value: Any) -> Any:
    if isinstance(value, _PRIMITIVES):
        return value
    return type(value).__name__


@dataclass(frozen=True)
class GuardConfig:
    """Per-execution guardrail knobs; ``None`` disables each guard."""

    #: Deterministic step watchdog: trip after this many executed events.
    step_budget: int | None = None
    #: Wall-clock watchdog in seconds (best-effort, non-deterministic).
    wall_seconds: float | None = None
    #: Livelock window: consecutive no-novelty steps before tripping.
    livelock_window: int | None = None
    #: Check the wall clock once every this many steps.
    wall_check_interval: int = 64

    @property
    def enabled(self) -> bool:
        return (
            self.step_budget is not None
            or self.wall_seconds is not None
            or self.livelock_window is not None
        )

    def as_tuple(self) -> tuple[int | None, float | None, int | None]:
        """Identity triple used in store headers and repro artifacts (not
        a full copy: ``wall_check_interval`` is left out)."""
        return (self.step_budget, self.wall_seconds, self.livelock_window)


class LivelockDetector:
    """Streak counter over event fingerprints: no novelty = no progress.

    A step's fingerprint is ``(tid, kind, location, loc, rf, value)``.  The
    detector keeps every fingerprint ever executed; a step whose fingerprint
    was already seen extends the current no-progress streak, a novel one (or
    a thread exit) resets it.  When the streak reaches ``window`` the
    execution is declared livelocked.
    """

    def __init__(self, window: int):
        if window < 2:
            raise ValueError(f"livelock window must be >= 2, got {window}")
        self.window = window
        self._seen: set[tuple] = set()
        self._streak = 0
        #: Locations participating in the repeating streak (triage frames).
        self._streak_locs: list[str] = []

    def observe(self, event: "Event") -> bool:
        """Feed one executed event; True when the livelock window filled."""
        fingerprint = (
            event.tid,
            event.kind,
            event.location,
            event.loc,
            event.rf,
            _fingerprint_value(event.value),
        )
        if fingerprint in self._seen:
            self._streak += 1
            if len(self._streak_locs) < self.window:
                self._streak_locs.append(event.loc)
            return self._streak >= self.window
        self._seen.add(fingerprint)
        self.progress()
        return False

    def progress(self) -> None:
        """Reset the streak (novel event or a thread finished)."""
        self._streak = 0
        self._streak_locs.clear()

    def streak_frames(self) -> tuple[str, ...]:
        """The distinct program points cycling in the current streak."""
        return tuple(sorted(set(self._streak_locs)))


class Watchdog:
    """Runtime-facing bundle of the configured guards for one execution.

    The executor calls :meth:`check_step` before choosing each event,
    :meth:`after_event` once the event is recorded, and :meth:`progress`
    when a thread finishes.  Guards report by raising the matching
    :class:`~repro.runtime.errors.RuntimeViolation`, which the executor's
    crash path converts into an outcome.
    """

    def __init__(self, config: GuardConfig, clock=time.monotonic):
        self.config = config
        self._clock = clock
        self._deadline: float | None = None
        self.livelock = (
            LivelockDetector(config.livelock_window)
            if config.livelock_window is not None
            else None
        )

    def start(self) -> None:
        if self.config.wall_seconds is not None:
            self._deadline = self._clock() + self.config.wall_seconds

    def check_step(self, step_index: int, frames_fn) -> None:
        """Trip the step-budget / wall-clock watchdogs, if configured.

        ``frames_fn`` lazily produces the execution frontier (pending
        program points of the live threads), recorded on the violation for
        triage bucketing — computed only when a watchdog actually trips.
        """
        budget = self.config.step_budget
        if budget is not None and step_index >= budget:
            error = ExecutionTimeout(
                f"step budget {budget} exhausted", deterministic=True
            )
            error.frames = frames_fn()
            raise error
        if (
            self._deadline is not None
            and step_index % self.config.wall_check_interval == 0
            and self._clock() > self._deadline
        ):
            error = ExecutionTimeout(
                f"wall clock exceeded {self.config.wall_seconds:g}s",
                deterministic=False,
            )
            error.frames = frames_fn()
            raise error

    def after_event(self, event: "Event") -> None:
        if self.livelock is not None and self.livelock.observe(event):
            error = LivelockDetected(
                f"no new events for {self.livelock.window} consecutive steps",
                window=self.livelock.window,
            )
            error.frames = self.livelock.streak_frames()
            raise error

    def progress(self) -> None:
        """A thread finished: genuine progress, reset the livelock streak."""
        if self.livelock is not None:
            self.livelock.progress()
