"""Online sanitizers: streaming analyses driven by the executor.

The offline detectors in :mod:`repro.analysis` re-scan a fully recorded
trace after the fact.  Campaigns instead attach a *sanitizer stack* to the
executor: each sanitizer receives every visible event as it is recorded
(plus thread start/exit hooks) and turns the execution into a bug oracle
with no post-hoc pass — the way Fray integrates dynamic analyses into a
general-purpose concurrency-testing platform (paper Section 6).

Three sanitizers ship in the registry:

* ``race`` — :class:`OnlineRaceSanitizer`, a FastTrack happens-before race
  detector with the *epoch* optimization (Flanagan & Freund, PLDI 2009):
  per-location read/write metadata stores a single ``(event, scalar epoch)``
  instead of a full vector-clock copy.  Because an access always ticks its
  own thread's component first, ``write_clock.leq(current)`` collapses to
  the O(1) comparison ``current.get(write.tid) >= write_epoch`` — exactly,
  not approximately — so the online detector agrees bit-for-bit with the
  offline :class:`~repro.analysis.hb.HbRaceDetector`.
* ``lockset`` — :class:`OnlineLocksetSanitizer`, the Eraser state machine,
  sharing :func:`~repro.analysis.lockset.eraser_on_event` with the offline
  analyzer so the two agree by construction.
* ``lockorder`` — :class:`OnlineLockOrderSanitizer`, lock-order-graph ABBA
  deadlock prediction, sharing the offline edge/cycle helpers.

Every finding is normalised into a :class:`SanitizerReport` whose
``dedup_key`` (sanitizer, kind, abstract-event pair) identifies the bug
independently of event ids, so campaigns count each distinct finding once.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.hb import (
    ACQUIRE_KINDS,
    DATA_PREFIXES,
    PLAIN_READS,
    PLAIN_WRITES,
    SYNC_KINDS,
    Race,
    RaceReport,
)
from repro.analysis.lockgraph import LockGraphReport, cycle_predictions, lock_order_on_event
from repro.analysis.lockset import (
    LocksetReport,
    _Shadow,
    eraser_finish,
    eraser_on_event,
)
from repro.analysis.vector_clock import VectorClock
from repro.core.events import Event


@dataclass(frozen=True)
class SanitizerReport:
    """One normalised sanitizer finding.

    ``pair`` holds the *abstract* identity of the finding (for races: the
    two abstract events; for lockset: the location; for lockorder: the
    canonicalised cycle), so :attr:`dedup_key` is stable across executions
    and across serial/parallel runs.  ``eids`` point back into the concrete
    trace of the execution that produced the report.
    """

    sanitizer: str
    kind: str
    location: str
    pair: tuple[str, str]
    message: str
    eids: tuple[int, ...] = ()

    @property
    def dedup_key(self) -> tuple[str, str, str, str]:
        """Execution-independent identity of the finding."""
        return (self.sanitizer, self.kind, self.pair[0], self.pair[1])

    def __str__(self) -> str:
        return f"[{self.sanitizer}] {self.message}"

    def to_dict(self) -> dict:
        return {
            "sanitizer": self.sanitizer,
            "kind": self.kind,
            "location": self.location,
            "pair": list(self.pair),
            "message": self.message,
            "eids": list(self.eids),
        }

    @staticmethod
    def from_dict(payload: dict) -> "SanitizerReport":
        return SanitizerReport(
            sanitizer=payload["sanitizer"],
            kind=payload["kind"],
            location=payload["location"],
            pair=tuple(payload["pair"]),
            message=payload["message"],
            eids=tuple(payload.get("eids", ())),
        )


class Sanitizer:
    """Base class / protocol for streaming sanitizers.

    The executor calls :meth:`on_thread_start` when a thread is created
    (``parent_tid is None`` for the main thread), :meth:`on_event` for every
    recorded visible event (in trace order), :meth:`on_thread_exit` when a
    thread's generator finishes, and :meth:`finish` once after the run —
    crashed, deadlocked or truncated alike — to collect the findings.
    A sanitizer instance belongs to one execution; build a fresh stack per
    run (see :func:`build_stack`).
    """

    name = "noop"

    def on_thread_start(self, tid: int, parent_tid: int | None) -> None:
        """A thread was created (before its first event)."""

    def on_event(self, event: Event) -> None:
        """One visible event was recorded."""

    def on_thread_exit(self, tid: int) -> None:
        """A thread's generator finished normally."""

    def finish(self) -> list[SanitizerReport]:
        """End of execution: return the (deterministic) findings."""
        return []


#: Flat per-kind dispatch for the race sanitizer: one dict lookup replaces
#: the original chain of equality / set-membership tests.  Built from the
#: same hb.py kind sets, with the same precedence as the original chain
#: (spawn/join/signal/broadcast are checked before generic sync kinds).
_READ, _WRITE, _SYNC_ACQ_REL, _SYNC_REL, _WAKE, _SPAWN, _JOIN = range(1, 8)
_KIND_ACTIONS: dict[str, int] = {}
for _kind in PLAIN_READS:
    _KIND_ACTIONS[_kind] = _READ
for _kind in PLAIN_WRITES:
    _KIND_ACTIONS[_kind] = _WRITE
for _kind in SYNC_KINDS:
    _KIND_ACTIONS[_kind] = _SYNC_ACQ_REL if _kind in ACQUIRE_KINDS else _SYNC_REL
_KIND_ACTIONS["signal"] = _WAKE
_KIND_ACTIONS["broadcast"] = _WAKE
_KIND_ACTIONS["spawn"] = _SPAWN
_KIND_ACTIONS["join"] = _JOIN
del _kind


class OnlineRaceSanitizer(Sanitizer):
    """Epoch-optimized FastTrack happens-before race detection, online.

    Thread clocks and sync-object release clocks stay full (sparse) vector
    clocks; only the hot per-location access metadata is epoch-compressed.
    Mirrors :meth:`HbRaceDetector._handle` event-for-event so the resulting
    :attr:`report` equals the offline ``find_races`` output exactly.
    """

    name = "race"

    def __init__(self) -> None:
        self._thread_clocks: dict[int, VectorClock] = {}
        self._release_clocks: dict[str, VectorClock] = {}
        #: location -> (write event, write epoch) since which ``_reads`` accrue.
        self._writes: dict[str, tuple[Event, int]] = {}
        #: location -> {reader tid: (read event, read epoch)}.
        self._reads: dict[str, dict[int, tuple[Event, int]]] = {}
        #: The offline-equivalent report, maintained incrementally.
        self.report = RaceReport()

    def _clock(self, tid: int) -> VectorClock:
        clock = self._thread_clocks.get(tid)
        if clock is None:
            clock = self._thread_clocks[tid] = VectorClock()
        return clock

    def on_event(self, event: Event) -> None:
        # Flattened single-lookup dispatch (one dict get on the kind instead
        # of a chain of set-membership tests), with the vector-clock tick
        # and all epoch comparisons inlined on the plain read/write paths —
        # every branch mirrors HbRaceDetector._handle decision-for-decision.
        tid = event.tid
        thread_clocks = self._thread_clocks
        clock = thread_clocks.get(tid)
        if clock is None:
            clock = thread_clocks[tid] = VectorClock()
        cl = clock._clocks
        epoch = cl.get(tid, 0) + 1
        cl[tid] = epoch
        action = _KIND_ACTIONS.get(event.kind)
        if action is None:
            return
        if action == _READ:
            location = event.location
            if not location.startswith(DATA_PREFIXES):
                return
            last_write = self._writes.get(location)
            if last_write is not None:
                write, write_epoch = last_write
                # Epoch check: write_clock.leq(clock) iff the reader's view
                # of the writer thread has reached the write's own tick.
                write_tid = write.tid
                if write_tid != tid and cl.get(write_tid, 0) < write_epoch:
                    self.report.races.append(Race(location, write, event))
            reads = self._reads.get(location)
            if reads is None:
                reads = self._reads[location] = {}
            reads[tid] = (event, epoch)
            return
        if action == _WRITE:
            location = event.location
            if not location.startswith(DATA_PREFIXES):
                return
            races = self.report.races
            last_write = self._writes.get(location)
            if last_write is not None:
                write, write_epoch = last_write
                write_tid = write.tid
                if write_tid != tid and cl.get(write_tid, 0) < write_epoch:
                    races.append(Race(location, write, event))
            reads = self._reads.get(location)
            if reads:
                for reader_tid, (read, read_epoch) in reads.items():
                    if reader_tid != tid and cl.get(reader_tid, 0) < read_epoch:
                        races.append(Race(location, read, event))
                reads.clear()
            self._writes[location] = (event, epoch)
            return
        if action == _SYNC_ACQ_REL or action == _SYNC_REL:
            location = event.location
            if action == _SYNC_ACQ_REL:
                released = self._release_clocks.get(location)
                if released is not None:
                    clock.join(released)
            self._release_clocks[location] = clock.copy()
            return
        if action == _WAKE:
            self._release_clocks[event.location] = clock.copy()
            for woken in event.aux or ():
                # The signaller's history happens-before the wakeup.
                self._clock(woken).join(clock)
            return
        if action == _SPAWN:
            if isinstance(event.aux, int):
                thread_clocks[event.aux] = clock.copy()
            return
        # _JOIN
        if isinstance(event.aux, int):
            target = thread_clocks.get(event.aux)
            if target is not None:
                clock.join(target)

    def finish(self) -> list[SanitizerReport]:
        reports: list[SanitizerReport] = []
        seen: set[tuple] = set()
        for race in self.report.races:
            # The abstract pair determines the dedup_key (race.kind derives
            # from the events' kinds, the pair strings from their abstracts),
            # so deduplicate *before* paying for the report's strings.
            key = (race.first.abstract, race.second.abstract)
            if key in seen:
                continue
            seen.add(key)
            reports.append(
                SanitizerReport(
                    sanitizer=self.name,
                    kind=race.kind,
                    location=race.location,
                    pair=(str(race.first.abstract), str(race.second.abstract)),
                    message=str(race),
                    eids=(race.first.eid, race.second.eid),
                )
            )
        return reports


class OnlineLocksetSanitizer(Sanitizer):
    """Eraser lock-discipline analysis, online.

    Runs :func:`~repro.analysis.lockset.eraser_on_event` per event — the
    exact function the offline analyzer loops over — so :attr:`report`
    matches ``check_lock_discipline`` by construction.
    """

    name = "lockset"

    def __init__(self) -> None:
        self._held: dict[int, set[str]] = {}
        self._shadows: dict[str, _Shadow] = {}
        self._joined: dict[int, set[int]] = {}
        #: The offline-equivalent report, maintained incrementally.
        self.report = LocksetReport()
        self._finished = False

    def on_event(self, event: Event) -> None:
        eraser_on_event(event, self._held, self._shadows, self._joined, self.report)

    def finish(self) -> list[SanitizerReport]:
        if not self._finished:
            self._finished = True
            eraser_finish(self._shadows, self.report)
        return [
            SanitizerReport(
                sanitizer=self.name,
                kind="lock-discipline",
                location=violation.location,
                pair=(violation.location, ""),
                message=str(violation),
                eids=(violation.at_event,),
            )
            for violation in self.report.violations
        ]


class OnlineLockOrderSanitizer(Sanitizer):
    """Lock-order-graph ABBA deadlock prediction, online.

    Accumulates graph edges per event via the shared
    :func:`~repro.analysis.lockgraph.lock_order_on_event`; the cycle search
    only runs in :meth:`finish`.
    """

    name = "lockorder"

    def __init__(self) -> None:
        self._held: dict[int, list[str]] = {}
        self._edges: dict[tuple[str, str], set[int]] = {}
        #: The offline-equivalent report, populated by :meth:`finish`.
        self.report = None

    def on_event(self, event: Event) -> None:
        lock_order_on_event(event, self._held, self._edges)

    def finish(self) -> list[SanitizerReport]:
        report = LockGraphReport(edges=self._edges)
        report.predictions.extend(cycle_predictions(self._edges))
        self.report = report
        findings: list[SanitizerReport] = []
        for prediction in report.predictions:
            findings.append(
                SanitizerReport(
                    sanitizer=self.name,
                    kind="lock-order-cycle",
                    location=prediction.cycle[0],
                    pair=(" -> ".join(prediction.cycle), ""),
                    message=str(prediction),
                )
            )
        # By rendered text, which can order differently from the cycle tuples.
        findings.sort(key=lambda r: r.pair)
        return findings


#: Registry of built-in sanitizers, in canonical stack order.
SANITIZERS: dict[str, type[Sanitizer]] = {
    "race": OnlineRaceSanitizer,
    "lockset": OnlineLocksetSanitizer,
    "lockorder": OnlineLockOrderSanitizer,
}


def parse_sanitizers(spec: str) -> tuple[str, ...]:
    """Parse a ``--sanitize`` value into canonical sanitizer names.

    Accepts a comma-separated subset of the registry (``"race,lockset"``),
    the alias ``"all"``, or ``""``/``"none"`` for no sanitizers.  Names are
    deduplicated and returned in registry order.
    """
    spec = spec.strip()
    if not spec or spec == "none":
        return ()
    if spec == "all":
        return tuple(SANITIZERS)
    requested = {name.strip() for name in spec.split(",") if name.strip()}
    unknown = requested - set(SANITIZERS)
    if unknown:
        known = ", ".join(SANITIZERS)
        raise ValueError(f"unknown sanitizer(s) {sorted(unknown)}; known: {known}, all, none")
    return tuple(name for name in SANITIZERS if name in requested)


def build_stack(names: tuple[str, ...] | list[str]) -> list[Sanitizer]:
    """Instantiate a fresh sanitizer stack (one instance per execution)."""
    stack: list[Sanitizer] = []
    for name in names:
        try:
            stack.append(SANITIZERS[name]())
        except KeyError:
            known = ", ".join(SANITIZERS)
            raise ValueError(f"unknown sanitizer {name!r}; known: {known}") from None
    return stack
