"""Happens-before data races: the race vocabulary and its report types.

The detector itself is :class:`~repro.analysis.online.OnlineRaceSanitizer`,
a FastTrack-style single pass (Flanagan & Freund, PLDI 2009, simplified):
it maintains one vector clock per thread, release clocks per
synchronization object, and per data location the last write plus the reads
since that write.  Two *plain* accesses to the same location race when they
are unordered by happens-before and at least one is a write.  Campaigns
stream events to it; :func:`~repro.analysis.online.find_races` replays a
recorded trace through a fresh one.

Happens-before edges modelled (matching the runtime's SC semantics):

* program order within each thread;
* spawn (parent -> child's first event) and join (child's last -> parent);
* mutex unlock -> later lock of the same mutex (``rmw``-like sync events on
  mutex / semaphore / barrier / condvar locations act as acquire+release);
* signal/broadcast -> the woken threads (via the event's ``aux`` metadata);
* atomic ``rmw`` / ``cas`` on data locations act as acquire+release *and*
  are exempt from racing (the C11 atomics convention).

This is the ThreadSanitizer-style companion analysis the paper positions
itself against in Section 6 ("Dynamic Analyses"): it reports races on the
*observed* interleaving, complementing RFF's interleaving search.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.events import Event

#: Location prefixes holding plain data (race candidates).
DATA_PREFIXES = ("var:", "heap:")
#: Event kinds that are plain (non-atomic) data accesses.
PLAIN_READS = frozenset({"r", "hr"})
PLAIN_WRITES = frozenset({"w", "hw"})
#: Event kinds acting as acquire+release synchronization on their location.
SYNC_KINDS = frozenset(
    {"lock", "trylock", "unlock", "wait", "signal", "broadcast", "sem_acquire", "trysem", "sem_release", "barrier", "rmw", "cas"}
)
#: The subset of SYNC_KINDS that acquire (join the location's release clock)
#: before releasing; the rest are release-only (unlock, signal, sem_release).
ACQUIRE_KINDS = frozenset({"lock", "trylock", "wait", "sem_acquire", "trysem", "barrier", "rmw", "cas"})


@dataclass(frozen=True)
class Race:
    """One happens-before race: two unordered conflicting accesses."""

    location: str
    first: Event
    second: Event

    @property
    def kind(self) -> str:
        a_writes = self.first.kind in PLAIN_WRITES
        b_writes = self.second.kind in PLAIN_WRITES
        if a_writes and b_writes:
            return "write-write"
        return "read-write" if not a_writes else "write-read"

    def __str__(self) -> str:
        return f"{self.kind} race on {self.location}: {self.first} || {self.second}"


@dataclass
class RaceReport:
    """All races found in one trace."""

    races: list[Race] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.races)

    def __iter__(self):
        return iter(self.races)

    @property
    def racy_locations(self) -> set[str]:
        return {race.location for race in self.races}

    def distinct(self) -> set[tuple[str, str, str]]:
        """Races deduplicated by (location, first loc label, second loc)."""
        return {(r.location, r.first.loc, r.second.loc) for r in self.races}
