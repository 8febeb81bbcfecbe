"""Concrete traces and the reads-from relation (paper Section 3).

A :class:`Trace` is the recorded sequence of events of one execution.  Its
reads-from function maps each read event to the write event it observed; two
traces are reads-from equivalent (``≡rf``) when they contain the same events
and the same reads-from function.  The hashable :meth:`Trace.rf_signature`
canonically summarises the equivalence class and drives both the fuzzer's
novelty feedback (Section 3, "Reads-from feedback") and the RQ3 frequency
histograms (Figure 5).

Abstract rf pairs are *interned* alongside abstract events: every distinct
``(writer, reader)`` pair (with both sides already-interned abstract events)
receives a small integer id from a process-global table.  The executor
collects these ids incrementally while recording events, so for
executor-produced traces :meth:`Trace.rf_pairs` / :meth:`Trace.rf_signature`
are O(1) memoized lookups; only sliced/minimized traces fall back to the
full re-scan.  The memo is invalidated when the event count changes, the
same discipline as the lazily built eid index.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

from repro.core.events import AbstractEvent, Event

#: An abstract reads-from pair: (writer abstract event, reader abstract event).
#: The writer side is ``None`` when the read observed the location's initial
#: value (the paper's initial pseudo-write at "line 1").
RfPair = tuple[AbstractEvent | None, AbstractEvent]

#: Intern table for abstract rf pairs.  Keyed on the *identities* of the
#: interned abstract events (0 for the initial pseudo-write), which is sound
#: because the abstract-event intern table keeps its singletons alive for
#: the process lifetime.  Values are small dense ints usable in set
#: arithmetic without hashing tuples.
_PAIR_IDS: dict[tuple[int, int], int] = {}
#: pair id -> the interned RfPair tuple.
_PAIRS: list[RfPair] = []
#: pair id -> a process-stable 64-bit mix of the pair, XOR-combined into the
#: order-insensitive incremental signature hash (:meth:`Trace.rf_sig_hash`).
_PAIR_HASHES: list[int] = []

_HASH_MASK = (1 << 64) - 1


def intern_rf_pair(writer: AbstractEvent | None, reader: AbstractEvent) -> int:
    """The dense int id of the abstract rf pair ``(writer, reader)``.

    Both sides must be interned abstract events (``Event.abstract`` /
    :func:`repro.core.events.intern_abstract` always return those).
    """
    key = (0 if writer is None else id(writer), id(reader))
    pid = _PAIR_IDS.get(key)
    if pid is None:
        pid = len(_PAIRS)
        _PAIR_IDS[key] = pid
        _PAIRS.append((writer, reader))
        # hash() of the tuple is stable for the process, which is the scope
        # of the pair-id table itself.
        _PAIR_HASHES.append(hash((writer, reader)) & _HASH_MASK)
    return pid


def rf_pair_for_id(pid: int) -> RfPair:
    """The interned ``(writer, reader)`` tuple behind a pair id."""
    return _PAIRS[pid]


def rf_pair_hash(pid: int) -> int:
    """The 64-bit mix XOR-combined into incremental signature hashes."""
    return _PAIR_HASHES[pid]


@dataclass
class Trace:
    """An ordered event sequence plus the outcome of the execution."""

    events: list[Event] = field(default_factory=list)
    #: Bug kind string (e.g. "assertion", "deadlock", "use-after-free") or
    #: None when the execution completed normally.
    outcome: str | None = None
    #: Human-readable description of the failure, when any.
    failure: str | None = None
    #: Lazily built eid -> event index (rebuilt when the event count changes;
    #: excluded from equality/repr so Trace value semantics are unchanged).
    _eid_index: dict[int, Event] | None = field(
        default=None, init=False, repr=False, compare=False
    )
    _eid_index_size: int = field(default=-1, init=False, repr=False, compare=False)
    #: Memoized rf state (same invalidation discipline as the eid index):
    #: the interned pair-id set, the pair frozenset doubling as the
    #: signature, and the order-insensitive XOR signature hash.
    _rf_ids: frozenset[int] | None = field(
        default=None, init=False, repr=False, compare=False
    )
    _rf_pairs: frozenset[RfPair] | None = field(
        default=None, init=False, repr=False, compare=False
    )
    _rf_hash: int = field(default=0, init=False, repr=False, compare=False)
    _rf_size: int = field(default=-1, init=False, repr=False, compare=False)

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self):
        return iter(self.events)

    @property
    def crashed(self) -> bool:
        return self.outcome is not None

    def _events_by_id(self) -> dict[int, Event]:
        if self._eid_index is None or self._eid_index_size != len(self.events):
            self._eid_index = {event.eid: event for event in self.events}
            self._eid_index_size = len(self.events)
        return self._eid_index

    def event_by_id(self, eid: int) -> Event:
        # Fast path: executor-recorded traces assign ids densely from 1 in
        # execution order, so the event usually sits at index eid - 1.
        if 1 <= eid <= len(self.events):
            event = self.events[eid - 1]
            if event.eid == eid:
                return event
        # Sliced/minimized traces (e.g. ddmin output) keep original ids on an
        # arbitrary event subsequence; fall back to the eid index.
        event = self._events_by_id().get(eid)
        if event is None:
            raise KeyError(eid)
        return event

    def reads_from(self) -> dict[int, int]:
        """Map each read event id to the event id of its writer (0 = initial)."""
        return {e.eid: e.rf for e in self.events if e.rf is not None}

    # -- reads-from memoization ------------------------------------------
    def seed_rf_cache(self, pair_ids: set[int] | frozenset[int], sig_hash: int) -> None:
        """Install the rf state collected incrementally during execution.

        Called by the executor after the run: ``pair_ids`` are interned pair
        ids for exactly the rf edges a full re-scan of the recorded events
        would find (every writer of a recorded read is itself recorded), and
        ``sig_hash`` is their XOR-combined incremental hash.
        """
        ids = frozenset(pair_ids)
        self._rf_ids = ids
        self._rf_pairs = frozenset([_PAIRS[pid] for pid in ids])
        self._rf_hash = sig_hash
        self._rf_size = len(self.events)

    def _rf_compute(self) -> None:
        """Fallback full scan (sliced/minimized or hand-built traces)."""
        by_id = self._events_by_id()
        ids: set[int] = set()
        for event in self.events:
            rf = event.rf
            if rf is None:
                continue
            if rf == 0:
                writer = None
            else:
                writer_event = by_id.get(rf)
                if writer_event is None:
                    # Pairs whose writer was dropped from the subsequence are
                    # omitted — the edge is no longer witnessed by the trace.
                    continue
                writer = writer_event.abstract
            ids.add(intern_rf_pair(writer, event.abstract))
        sig_hash = 0
        for pid in ids:
            sig_hash ^= _PAIR_HASHES[pid]
        self._rf_ids = frozenset(ids)
        self._rf_pairs = frozenset([_PAIRS[pid] for pid in ids])
        self._rf_hash = sig_hash
        self._rf_size = len(self.events)

    def rf_pair_ids(self) -> frozenset[int]:
        """The interned pair ids of :meth:`rf_pairs` (the fast novelty set)."""
        if self._rf_ids is None or self._rf_size != len(self.events):
            self._rf_compute()
        return self._rf_ids

    def rf_pairs(self) -> frozenset[RfPair]:
        """The set of *abstract* reads-from pairs exercised by this trace.

        On an event subsequence (sliced or minimized traces), pairs whose
        writer event was dropped from the subsequence are omitted — the
        reads-from edge is no longer witnessed by the trace itself.
        """
        if self._rf_pairs is None or self._rf_size != len(self.events):
            self._rf_compute()
        return self._rf_pairs

    def rf_signature(self) -> frozenset[RfPair]:
        """Canonical hashable summary of the ``≡rf`` class of this trace."""
        return self.rf_pairs()

    def rf_sig_hash(self) -> int:
        """Order-insensitive 64-bit hash of the rf signature.

        XOR of the interned per-pair mixes, maintained incrementally by the
        executor as reads land; a cheap process-local fingerprint for
        signature comparisons without building or hashing frozensets.
        """
        if self._rf_ids is None or self._rf_size != len(self.events):
            self._rf_compute()
        return self._rf_hash

    def abstract_events(self) -> set[AbstractEvent]:
        """All abstract events observed, the pool mutations draw from."""
        return {e.abstract for e in self.events}

    def memory_abstract_events(self) -> tuple[set[AbstractEvent], set[AbstractEvent]]:
        """Observed abstract (reads, writes) usable in reads-from constraints."""
        reads: set[AbstractEvent] = set()
        writes: set[AbstractEvent] = set()
        for event in self.events:
            abstract = event.abstract
            if abstract.is_read:
                reads.add(abstract)
            if abstract.is_write:
                writes.add(abstract)
        return reads, writes

    def rf_equivalent(self, other: "Trace") -> bool:
        """True when ``self ≡rf other`` (same events and reads-from pairs).

        Event identity is compared at the abstract level with multiplicity:
        two runs of the same program that execute the same multiset of
        abstract events with the same abstract reads-from function expose
        identical thread-local control and data flow (Section 3).
        """
        if Counter(e.abstract for e in self.events) != Counter(e.abstract for e in other.events):
            return False
        return self.rf_signature() == other.rf_signature()

    def format(self, limit: int | None = None) -> str:
        """Pretty-print the trace, mainly for examples and failure triage."""
        lines = [str(e) for e in self.events[: limit or len(self.events)]]
        if limit is not None and len(self.events) > limit:
            lines.append(f"... ({len(self.events) - limit} more events)")
        if self.outcome:
            lines.append(f"outcome: {self.outcome} ({self.failure})")
        return "\n".join(lines)
