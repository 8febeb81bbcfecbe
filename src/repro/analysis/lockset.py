"""Eraser-style lockset analysis (Savage et al., TOCS 1997).

Complementary to happens-before detection: instead of ordering, it checks
*lock discipline* — every shared, written location should be consistently
protected by at least one common mutex.  The analysis runs the original
Eraser state machine per location:

``virgin -> exclusive -> shared -> shared-modified``

* ``exclusive``: only one thread has touched the location; no refinement
  (initialisation is exempt from the discipline).
* ``shared``: a second thread *read* it; the candidate lockset is refined
  but violations are not reported (read-only sharing after initialisation
  is benign — e.g. a main thread reading results after joins).
* ``shared-modified``: a second thread *wrote* it; an empty candidate
  lockset here is reported once.

Lockset analysis is schedule-insensitive, so it implicates discipline
violations (like the ``wronglock`` family) even on interleavings where
nothing went wrong.

:func:`eraser_on_event` is the one implementation of the state machine.
:class:`~repro.analysis.online.OnlineLocksetSanitizer` runs it per event as
the executor records them, and
:func:`~repro.analysis.online.check_lock_discipline` replays a recorded
trace through a fresh sanitizer.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from repro.analysis.hb import DATA_PREFIXES
from repro.analysis.hb import PLAIN_READS as _READ_KINDS
from repro.analysis.hb import PLAIN_WRITES as _WRITE_KINDS


class LocationState(enum.Enum):
    VIRGIN = "virgin"
    EXCLUSIVE = "exclusive"
    SHARED = "shared"
    SHARED_MODIFIED = "shared-modified"


@dataclass(frozen=True)
class LockDisciplineViolation:
    """A written-shared location with no consistently held lock."""

    location: str
    #: Event id of the access that emptied the candidate lockset.
    at_event: int
    threads: frozenset[int]

    def __str__(self) -> str:
        who = ", ".join(f"T{tid}" for tid in sorted(self.threads))
        return f"{self.location}: no consistent lock (threads {who}, event #{self.at_event})"


@dataclass
class LocksetReport:
    violations: list[LockDisciplineViolation] = field(default_factory=list)
    #: Final candidate lockset per location that left the exclusive state.
    candidate_locksets: dict[str, frozenset[str]] = field(default_factory=dict)
    #: Final Eraser state per analysed location.
    states: dict[str, LocationState] = field(default_factory=dict)

    def __len__(self) -> int:
        return len(self.violations)

    @property
    def flagged_locations(self) -> set[str]:
        return {v.location for v in self.violations}


@dataclass
class _Shadow:
    state: LocationState = LocationState.VIRGIN
    first_thread: int | None = None
    candidates: set[str] | None = None
    accessors: set[int] = field(default_factory=set)
    reported: bool = False


#: Kinds the Eraser state machine treats as data accesses.
_DATA_KINDS = frozenset(_READ_KINDS) | frozenset(_WRITE_KINDS)


def eraser_on_event(
    event,
    held: dict[int, set[str]],
    shadows: dict[str, _Shadow],
    joined: dict[int, set[int]],
    report: LocksetReport,
) -> None:
    """One Eraser step: update ``held``/``shadows``/``joined`` for ``event``.

    The per-event step of ``OnlineLocksetSanitizer``, which is also how
    ``check_lock_discipline`` analyses a recorded trace.  Event kinds are
    mutually exclusive, so the branches below test the common data-access
    case first and only materialise per-thread / per-location state on the
    paths that actually read or mutate it.
    """
    tid = event.tid
    kind = event.kind
    if kind in _DATA_KINDS:
        location = event.location
        if not location.startswith(DATA_PREFIXES):
            return
        holder = held.get(tid)
        if holder is None:
            holder = held[tid] = set()
        shadow = shadows.get(location)
        if shadow is None:
            shadow = shadows[location] = _Shadow()
        # Join-awareness (the classic Eraser false-positive fix): when
        # every other thread that ever touched the location has been
        # joined by the current thread, ownership has transferred — the
        # location re-enters the exclusive regime.
        jmine = joined.get(tid)
        if jmine:
            others = shadow.accessors - {tid}
            if others and others <= jmine:
                shadow.state = LocationState.EXCLUSIVE
                shadow.first_thread = tid
                shadow.accessors = {tid}
        shadow.accessors.add(tid)
        _step(shadow, event, holder, report, kind in _WRITE_KINDS)
        return
    if kind == "lock" or (kind == "trylock" and event.value):
        holder = held.get(tid)
        if holder is None:
            holder = held[tid] = set()
        holder.add(event.location)
        return
    if kind == "unlock":
        holder = held.get(tid)
        if holder is not None:
            holder.discard(event.location)
        return
    if kind == "wait":
        # Waiting releases the mutex (named by the event's aux);
        # the later re-acquire shows up as a separate lock event.
        holder = held.get(tid)
        if holder is not None:
            holder.discard(event.aux)
        return
    if kind == "join" and isinstance(event.aux, int):
        mine = joined.get(tid)
        if mine is None:
            mine = joined[tid] = set()
        mine.add(event.aux)
        theirs = joined.get(event.aux)
        if theirs:
            mine |= theirs


def eraser_finish(shadows: dict[str, _Shadow], report: LocksetReport) -> None:
    """Fill the report's final per-location states and candidate locksets."""
    for location, shadow in shadows.items():
        report.states[location] = shadow.state
        if shadow.candidates is not None:
            report.candidate_locksets[location] = frozenset(shadow.candidates)


def _step(shadow: _Shadow, event, holder: set[str], report: LocksetReport, is_write: bool) -> None:
    if shadow.state is LocationState.VIRGIN:
        shadow.state = LocationState.EXCLUSIVE
        shadow.first_thread = event.tid
        # The candidate set starts from the first access's held locks;
        # it is frozen while the location stays exclusive and refined
        # again once a second thread arrives.  (Starting from the first
        # accessor — not the second — is what catches wronglock-style
        # inconsistent-lock bugs even without overlapping accesses.)
        shadow.candidates = set(holder)
        return
    if shadow.state is LocationState.EXCLUSIVE:
        if event.tid == shadow.first_thread:
            return
        assert shadow.candidates is not None
        shadow.candidates &= holder
        shadow.state = LocationState.SHARED_MODIFIED if is_write else LocationState.SHARED
    else:
        assert shadow.candidates is not None
        shadow.candidates &= holder
        if is_write:
            shadow.state = LocationState.SHARED_MODIFIED
    if (
        shadow.state is LocationState.SHARED_MODIFIED
        and not shadow.candidates
        and not shadow.reported
    ):
        shadow.reported = True
        report.violations.append(
            LockDisciplineViolation(
                location=event.location,
                at_event=event.eid,
                threads=frozenset(shadow.accessors),
            )
        )
