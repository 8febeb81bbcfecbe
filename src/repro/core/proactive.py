"""Proactive reads-from scheduling (paper Figure 2 and Section 3).

Given an abstract schedule, the proactive scheduler biases every scheduling
decision towards satisfying its constraints:

* **Positive** ``w --rf--> r`` (Figure 2a): while the desired write is not
  the last write on the location, delay any thread about to execute ``r``
  and boost threads about to execute ``w``; once ``w`` is the last write,
  boost ``r`` and delay every *other* write to the location so it is not
  overwritten.  Positive constraints are existential — satisfied once any
  instantiating rf pair executes, after which the constraint is retired.

* **Negative** ``w -/rf/-> r`` (Figure 2b): while the last write is not
  ``w``, greedily boost ``r`` (reading now is safe) and delay ``w``; once a
  ``w`` instance is the last write, delay ``r`` and boost any other write to
  the location to overwrite ``w``.  Negative constraints are universal — they
  are violated (REJECT) the moment an instantiating rf pair executes.

When no constraint expresses a preference — or preferences conflict — the
policy gracefully degrades to POS, exactly as described in Section 4.1
(step 3 of the scheduling algorithm).
"""

from __future__ import annotations

import enum
from typing import TYPE_CHECKING

from repro.core.constraints import AbstractSchedule, Constraint
from repro.schedulers.base import SeededPolicy
from repro.schedulers.pos import PosPolicy

if TYPE_CHECKING:  # pragma: no cover - type-only imports
    from repro.core.events import Event
    from repro.runtime.executor import Candidate, Executor


class Bias(enum.Enum):
    """A tracker's opinion about one candidate event."""

    PRIORITIZE = 1
    NEUTRAL = 0
    DEPRIORITIZE = -1


class TrackerState(enum.Enum):
    """Lifecycle of a constraint tracker (the ACCEPT/REJECT of Figure 2)."""

    ACTIVE = "active"
    SATISFIED = "satisfied"
    VIOLATED = "violated"
    #: A positive initial-value constraint becomes impossible after the
    #: first write to the location (the initial value can never return).
    IMPOSSIBLE = "impossible"


class ConstraintTracker:
    """Shared machinery of the Figure 2a / 2b state machines."""

    def __init__(self, constraint: Constraint):
        self.constraint = constraint
        self.state = TrackerState.ACTIVE

    @property
    def active(self) -> bool:
        return self.state is TrackerState.ACTIVE

    # -- helpers -------------------------------------------------------
    def _last_write_matches(self, execution: "Executor") -> bool:
        """Is the location's current last write an instance of ``w``?

        With ``w = None`` (initial pseudo-write) this holds until the first
        write to the location.
        """
        last = execution.last_write_event(self.constraint.location)
        if self.constraint.write is None:
            return last is None
        return last is not None and last.abstract == self.constraint.write

    def _event_matches_pair(self, event: "Event", execution: "Executor") -> bool:
        """Did ``event`` just witness the constraint's rf pair?"""
        if event.rf is None or event.abstract != self.constraint.read:
            return False
        if self.constraint.write is None:
            return event.rf == 0
        if event.rf == 0:
            return False
        writer = execution.trace.event_by_id(event.rf)
        return writer.abstract == self.constraint.write

    def bias(self, candidate: "Candidate", execution: "Executor") -> Bias:
        raise NotImplementedError

    def observe(self, event: "Event", execution: "Executor") -> None:
        raise NotImplementedError


class PositiveTracker(ConstraintTracker):
    """Figure 2a: drive the execution to witness ``w --rf--> r``."""

    def bias(self, candidate: "Candidate", execution: "Executor") -> Bias:
        if not self.active:
            return Bias.NEUTRAL
        constraint = self.constraint
        if candidate.location != constraint.location:
            return Bias.NEUTRAL
        abstract = candidate.abstract
        if self._last_write_matches(execution):
            # Blue states (q5, q6): the desired write is in place.
            if abstract == constraint.read:
                return Bias.PRIORITIZE
            if abstract.is_write and abstract != constraint.write:
                return Bias.DEPRIORITIZE  # do not overwrite w
            return Bias.NEUTRAL
        # Red states (q2, q4): the write is still missing.
        if abstract == constraint.read:
            return Bias.DEPRIORITIZE  # delay r until w lands
        if constraint.write is not None and abstract == constraint.write:
            return Bias.PRIORITIZE
        return Bias.NEUTRAL

    def observe(self, event: "Event", execution: "Executor") -> None:
        if not self.active:
            return
        if self._event_matches_pair(event, execution):
            self.state = TrackerState.SATISFIED
            return
        if self.constraint.write is None and event.is_write and event.location == self.constraint.location:
            # The initial value has been overwritten; a positive
            # init --rf--> r constraint can no longer be satisfied.
            self.state = TrackerState.IMPOSSIBLE


class NegativeTracker(ConstraintTracker):
    """Figure 2b: steer the execution away from witnessing ``w --rf--> r``."""

    def bias(self, candidate: "Candidate", execution: "Executor") -> Bias:
        if not self.active:
            return Bias.NEUTRAL
        constraint = self.constraint
        if candidate.location != constraint.location:
            return Bias.NEUTRAL
        abstract = candidate.abstract
        if self._last_write_matches(execution):
            # Yellow states (q5, q6): reading now would violate the
            # constraint; push another write in front of w.
            if abstract == constraint.read:
                return Bias.DEPRIORITIZE
            if abstract.is_write and abstract != constraint.write:
                return Bias.PRIORITIZE
            return Bias.NEUTRAL
        # Purple states (q1..q4): reading now is safe — do it greedily,
        # and hold the dangerous write back.
        if abstract == constraint.read:
            return Bias.PRIORITIZE
        if constraint.write is not None and abstract == constraint.write:
            return Bias.DEPRIORITIZE
        return Bias.NEUTRAL

    def observe(self, event: "Event", execution: "Executor") -> None:
        if not self.active:
            return
        if self._event_matches_pair(event, execution):
            # REJECT: the forbidden rf pair executed (e.g. only one thread
            # was runnable and the scheduler was forced).
            self.state = TrackerState.VIOLATED


def make_tracker(constraint: Constraint) -> ConstraintTracker:
    if constraint.positive:
        return PositiveTracker(constraint)
    return NegativeTracker(constraint)


def _tier(trackers: "list[ConstraintTracker]", candidate: "Candidate", execution: "Executor") -> Bias:
    """The tier ``trackers`` put ``candidate`` in: boosted and not delayed,
    delayed and not boosted, else (no opinion, or a conflict) neutral."""
    boost = delay = False
    for tracker in trackers:
        opinion = tracker.bias(candidate, execution)
        if opinion is Bias.PRIORITIZE:
            boost = True
        elif opinion is Bias.DEPRIORITIZE:
            delay = True
    if boost is delay:
        return Bias.NEUTRAL
    return Bias.PRIORITIZE if boost else Bias.DEPRIORITIZE


class RffSchedulerPolicy(SeededPolicy):
    """The proactive reads-from scheduler: constraint bias over a POS core.

    Selection per Section 4.1: (1) only enabled threads are candidates,
    (2) constraint trackers partition candidates into prioritized / neutral /
    deprioritized tiers (a candidate both boosted and delayed by competing
    constraints is treated as neutral — the "multiple conflicting
    constraints" case), (3) POS breaks ties inside the chosen tier.  With an
    empty abstract schedule this is exactly POS.

    A tracker has an opinion only about candidates at its constraint's
    location, and only while it is active, so the policy keeps its active
    trackers indexed by location: built in :meth:`begin`, shrunk in
    :meth:`notify` as trackers retire.  ``notify`` shows an event only to
    the trackers at its location.  ``choose`` asks them once per distinct
    abstract event per step, because a tracker's bias reads nothing of a
    candidate but its abstract event and the location's last write (lock
    contention offers many candidates sharing one abstract event).
    """

    def __init__(self, schedule: AbstractSchedule | None = None, seed: int | None = None):
        super().__init__(seed)
        self.schedule = schedule if schedule is not None else AbstractSchedule.empty()
        self.pos = PosPolicy(seed=self.rng.randrange(2**63))
        self.trackers: list[ConstraintTracker] = []
        #: location -> its ACTIVE trackers, in ``trackers`` order.
        self._active_at: dict[str, list[ConstraintTracker]] = {}

    def begin(self, execution: "Executor") -> None:
        self.pos.begin(execution)
        self.trackers = [make_tracker(c) for c in sorted(self.schedule.constraints, key=str)]
        active_at: dict[str, list[ConstraintTracker]] = {}
        for tracker in self.trackers:
            active_at.setdefault(tracker.constraint.location, []).append(tracker)
        self._active_at = active_at

    def choose(self, candidates: "list[Candidate]", execution: "Executor") -> "Candidate":
        if len(candidates) == 1:
            # Forced step: trackers cannot change the outcome and have no
            # side effects in bias; draw the POS score (as the tier arg-max
            # would) so the rng stream stays identical.
            only = candidates[0]
            self.pos.score_of(only, execution)
            return only
        active_at = self._active_at
        if not active_at:
            return self.pos.choose(candidates, execution)
        prioritized: list["Candidate"] = []
        neutral: list["Candidate"] = []
        deprioritized: list["Candidate"] = []
        # Abstract event (kind, location, loc) -> its tier at this step.
        tier_of: dict[tuple[str, str, str], Bias] = {}
        for candidate in candidates:
            location = candidate.location
            trackers = active_at.get(location)
            if trackers is None:
                neutral.append(candidate)
                continue
            key = (candidate.kind, location, candidate.loc)
            tier = tier_of.get(key)
            if tier is None:
                tier = tier_of[key] = _tier(trackers, candidate, execution)
            if tier is Bias.NEUTRAL:
                neutral.append(candidate)
            elif tier is Bias.PRIORITIZE:
                prioritized.append(candidate)
            else:
                deprioritized.append(candidate)
        # PosPolicy.choose is the same first-maximal arg-max (and the same
        # score-draw order) as max(tier, key=score_of).
        return self.pos.choose(prioritized or neutral or deprioritized, execution)

    def notify(self, event: "Event", execution: "Executor") -> None:
        # Only trackers at the event's location can change state (see
        # ConstraintTracker._event_matches_pair and the observe methods).
        trackers = self._active_at.get(event.location)
        if trackers is not None:
            retired = False
            for tracker in trackers:
                tracker.observe(event, execution)
                if tracker.state is not TrackerState.ACTIVE:
                    retired = True
            if retired:
                active = [t for t in trackers if t.state is TrackerState.ACTIVE]
                if active:
                    self._active_at[event.location] = active
                else:
                    del self._active_at[event.location]
        self.pos.notify(event, execution)

    # -- campaign feedback ---------------------------------------------
    def satisfaction(self) -> tuple[int, int]:
        """(#constraints ending satisfied-or-unviolated, #constraints).

        Positive constraints count when SATISFIED; negative ones count when
        they were never VIOLATED.  Used as the scheduler-performance input to
        the power schedule's γ term.
        """
        if not self.trackers:
            return (0, 0)
        good = 0
        for tracker in self.trackers:
            if tracker.constraint.positive:
                good += tracker.state is TrackerState.SATISFIED
            else:
                good += tracker.state is not TrackerState.VIOLATED
        return good, len(self.trackers)
