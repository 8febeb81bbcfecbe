"""Reads-from-centric dynamic partial order reduction (race reversal).

A second, more faithful model-checking engine next to the breadth-first
:mod:`~repro.algos.exploration` stand-in, following the reversal-based
recipe of modern stateless checkers (Flanagan-Godefroid DPOR as refined by
Source-DPOR / GenMC's rf-equivalence view):

1. run one maximal execution;
2. build its *dependency* happens-before (program order + spawn/join/wake
   edges + conflicting-access edges per location);
3. for every *immediate* race — two adjacent conflicting accesses from
   different threads with no dependency path through a third event — emit
   the reversal seed ``pre(e_i) · notdep(e_i) · thread(e_j)`` and explore
   it (re-executing from scratch; the runtime is deterministic);
4. deduplicate executions by their *concrete* reads-from signature — one
   representative per rf class, the equivalence GenMC enumerates.

Iterating reversals reaches every rf class of acyclic programs in the
limit; an execution budget keeps it laptop-bounded like every other tool.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.analysis.vector_clock import VectorClock
from repro.core.events import Event
from repro.core.reproduce import RunEnv
from repro.core.trace import Trace
from repro.runtime.program import Program
from repro.schedulers.base import SchedulerPolicy

#: Event kinds participating in location conflicts (anything rf-relevant).
_MEMORY_KINDS = frozenset(
    {
        "r",
        "w",
        "rmw",
        "cas",
        "hr",
        "hw",
        "lock",
        "trylock",
        "trysem",
        "unlock",
        "wait",
        "signal",
        "broadcast",
        "sem_acquire",
        "sem_release",
        "barrier",
        "free",
    }
)


def _is_memory(event: Event) -> bool:
    return event.kind in _MEMORY_KINDS


def _conflict(a: Event, b: Event) -> bool:
    """Dependent accesses: same location, different threads, one writes."""
    return (
        a.location == b.location
        and a.tid != b.tid
        and (a.is_write or b.is_write)
    )


def dependency_clocks(trace: Trace) -> dict[int, VectorClock]:
    """Per-event vector clocks over the trace's dependency relation."""
    thread_clocks: dict[int, VectorClock] = {}
    #: location -> (last write event, its clock) and the reads since then.
    by_location_write: dict[str, tuple[Event, VectorClock]] = {}
    by_location_reads: dict[str, list[tuple[Event, VectorClock]]] = {}
    clocks: dict[int, VectorClock] = {}

    def clock_of(tid: int) -> VectorClock:
        if tid not in thread_clocks:
            thread_clocks[tid] = VectorClock()
        return thread_clocks[tid]

    for event in trace.events:
        clock = clock_of(event.tid)
        clock.tick(event.tid)
        if event.kind == "spawn" and isinstance(event.aux, int):
            thread_clocks[event.aux] = clock.copy()
        elif event.kind == "join" and isinstance(event.aux, int):
            target = thread_clocks.get(event.aux)
            if target is not None:
                clock.join(target)
        elif event.kind in ("signal", "broadcast"):
            for woken in event.aux or ():
                clock_of(woken).join(clock)
        if _is_memory(event):
            # Dependency edges from prior conflicting accesses.
            prior_write = by_location_write.get(event.location)
            if prior_write is not None and prior_write[0].tid != event.tid:
                clock.join(prior_write[1])
            if event.is_write:
                for read, read_clock in by_location_reads.get(event.location, ()):
                    if read.tid != event.tid:
                        clock.join(read_clock)
                by_location_reads[event.location] = []
                by_location_write[event.location] = (event, clock.copy())
            if event.is_read:
                by_location_reads.setdefault(event.location, []).append((event, clock.copy()))
        clocks[event.eid] = clock.copy()
    return clocks


def immediate_races(trace: Trace) -> list[tuple[Event, Event]]:
    """Adjacent conflicting pairs (per location) from different threads.

    Adjacency makes the set tractable (O(n) per location); chains of
    reversals across iterations recover the non-adjacent reorderings.
    """
    races: list[tuple[Event, Event]] = []
    #: The last two writes per location: lock/unlock (and CAS retry)
    #: sequences alternate writers, so reversing only against the very
    #: last write can be unrealizable (e.g. hoisting a lock above an
    #: unlock while the mutex is held); the write before it gives the
    #: co-enabled reversal partner.
    last_writes: dict[str, list[Event]] = {}
    reads_since: dict[str, list[Event]] = {}
    for event in trace.events:
        if not _is_memory(event):
            continue
        location = event.location
        if event.is_write:
            for prior in last_writes.get(location, ()):
                if _conflict(prior, event):
                    races.append((prior, event))
            for read in reads_since.get(location, ()):
                if _conflict(read, event):
                    races.append((read, event))
            reads_since[location] = []
            history = last_writes.setdefault(location, [])
            history.append(event)
            if len(history) > 2:
                history.pop(0)
        if event.is_read:
            for prior in last_writes.get(location, ()):
                if _conflict(prior, event):
                    races.append((prior, event))
            reads_since.setdefault(location, []).append(event)
    return races


def reversal_seed(trace: Trace, clocks: dict[int, VectorClock], first: Event, second: Event) -> tuple[int, ...]:
    """The Source-DPOR seed ``pre(e1) · notdep(e1) · thread(e2)``.

    Keep every event before ``second`` that is not dependency-after
    ``first`` (dropping ``first`` itself), then schedule ``second``'s
    thread — forcing the reversed order of the race on re-execution.
    """
    first_clock = clocks[first.eid]
    prefix: list[int] = []
    for event in trace.events:
        if event.eid >= second.eid:
            break
        if event.eid == first.eid:
            continue
        if first_clock.leq(clocks[event.eid]):
            continue  # dependency-after first: must come after the reversal
        prefix.append(event.tid)
    prefix.append(second.tid)
    return tuple(prefix)


class _SeedPolicy(SchedulerPolicy):
    """Follow a tid seed while possible, then lowest-tid deterministic."""

    def __init__(self, seed: tuple[int, ...]):
        self.seed = seed
        self._cursor = 0

    def choose(self, candidates, execution):
        while self._cursor < len(self.seed):
            wanted = self.seed[self._cursor]
            self._cursor += 1
            for candidate in candidates:
                if candidate.tid == wanted:
                    return candidate
            # Seed entry not enabled (the reversal perturbed enabledness):
            # skip it and keep following the rest of the seed.
        return min(candidates, key=lambda c: c.tid)


def concrete_rf_signature(trace: Trace) -> frozenset:
    """Reads-from signature over *concrete* per-thread event indices."""
    indices: dict[int, int] = {}
    identity: dict[int, tuple[int, int]] = {}
    for event in trace.events:
        indices[event.tid] = indices.get(event.tid, 0) + 1
        identity[event.eid] = (event.tid, indices[event.tid])
    pairs = set()
    for event in trace.events:
        if event.rf is None:
            continue
        writer = identity.get(event.rf, (-1, 0))
        pairs.add((writer, identity[event.eid]))
    return frozenset(pairs)


@dataclass
class RfDporReport:
    """Outcome of one rf-DPOR exploration."""

    executions: int = 0
    rf_classes: int = 0
    first_bug_at: int | None = None
    bug_outcome: str | None = None
    #: True when the reversal frontier drained before the budget.
    complete: bool = False
    seeds_generated: int = 0

    @property
    def found_bug(self) -> bool:
        return self.first_bug_at is not None


@dataclass
class RfDporExplorer:
    """Race-reversal exploration with rf-class deduplication."""

    program: Program
    max_executions: int = 5000
    #: The runtime every run executes in (step bound, guard, sanitizers).
    env: RunEnv = RunEnv()
    stop_on_first_bug: bool = True
    report: RfDporReport = field(default_factory=RfDporReport)

    def run(self) -> RfDporReport:
        """Drain the reversal frontier (or the budget), one class at a time."""
        execute = self.env.runner(self.program)
        frontier: list[tuple[int, ...]] = [()]
        seen_seeds: set[tuple[int, ...]] = {()}
        seen_classes: set[frozenset] = set()
        while frontier and self.report.executions < self.max_executions:
            seed = frontier.pop()
            result = execute(_SeedPolicy(seed))
            self.report.executions += 1
            signature = concrete_rf_signature(result.trace)
            if signature in seen_classes:
                continue
            seen_classes.add(signature)
            self.report.rf_classes += 1
            if result.crashed and self.report.first_bug_at is None:
                self.report.first_bug_at = self.report.rf_classes
                self.report.bug_outcome = result.outcome
                if self.stop_on_first_bug:
                    return self.report
            clocks = dependency_clocks(result.trace)
            for first, second in immediate_races(result.trace):
                new_seed = reversal_seed(result.trace, clocks, first, second)
                if new_seed not in seen_seeds:
                    seen_seeds.add(new_seed)
                    self.report.seeds_generated += 1
                    frontier.append(new_seed)
        self.report.complete = not frontier
        return self.report
