"""x86-TSO execution: the paper's weak-memory future-work direction.

Section 4.1 ("Memory Model"): *"Our implementation assumes sequential
consistency ... We look forward to future work which can apply principles
from RFF to expose bugs arising from weak memory behaviours."*  This module
is that extension: a drop-in executor implementing the x86-TSO model with
per-thread FIFO store buffers.

Semantics (Owens, Sarkar & Sewell's x86-TSO, reduced to this runtime):

* a plain ``write`` to a shared variable enters the writing thread's store
  buffer instead of memory; the event is recorded immediately (that is the
  program-order point) but only becomes *visible* when flushed;
* a plain ``read`` forwards from the youngest buffered store of the *own*
  thread to that location, falling back to memory;
* a ``flush`` step — a scheduler-visible pseudo-event attributed to the
  buffering thread — drains the oldest buffered store to memory.  The
  scheduler chooses flush points exactly like any other event, so the
  schedule fuzzer explores store-buffer interleavings too;
* atomic operations (``rmw``/``cas``) and every synchronization operation
  act as fences: they drain the executing thread's buffer first, matching
  x86 locked instructions / ``mfence``;
* a ``join`` is enabled only once the joined thread has finished *and* its
  buffer is empty, so the joiner sees every store of the joined thread
  (``pthread_join`` synchronizes memory).  Until the flushes run, threads
  that did not join can still read the stale values;
* executions complete only once every buffer is empty.

Reads-from edges always point at the original ``w`` event (not the flush),
so abstract schedules and the proactive scheduler work unchanged under TSO.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from repro.core.events import Event
from repro.runtime import ops
from repro.runtime.executor import Candidate, Executor
from repro.runtime.objects import SharedVar
from repro.runtime.thread import ThreadState

#: Pseudo-kind used for store-buffer drain steps.
FLUSH_KIND = "flush"
#: Operation kinds that fence (drain) the executing thread's buffer.
_FENCING_KINDS = frozenset(
    {
        "rmw",
        "cas",
        "lock",
        "trylock",
        "unlock",
        "wait",
        "signal",
        "broadcast",
        "sem_acquire",
        "trysem",
        "sem_release",
        "barrier",
        "spawn",
        "join",
    }
)


@dataclass
class BufferedStore:
    """One pending store in a thread's FIFO store buffer."""

    var: SharedVar
    value: Any
    #: Event id of the original write event (the rf source after flush).
    write_eid: int
    location: str


class TsoExecutor(Executor):
    """Executor with per-thread store buffers (x86-TSO)."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._buffers: dict[int, list[BufferedStore]] = {}

    # ------------------------------------------------------------------
    def buffer_of(self, tid: int) -> list[BufferedStore]:
        return self._buffers.setdefault(tid, [])

    def pending_stores(self) -> int:
        """Total buffered (not yet visible) stores across all threads."""
        return sum(len(buffer) for buffer in self._buffers.values())

    def _all_done(self) -> bool:
        return super()._all_done() and self.pending_stores() == 0

    # ------------------------------------------------------------------
    def enabled_candidates(self) -> list[Candidate]:
        candidates = super().enabled_candidates()
        buffered = [tid for tid, buffer in self._buffers.items() if buffer]
        if not buffered:
            return candidates
        # POSIX lists pthread_join among the functions that synchronize
        # memory: a join returns only once the joined thread's stores are
        # visible.  Their flushes are enabled below, so a join held back
        # here never deadlocks the execution.
        threads = self.threads
        candidates[:] = [
            c
            for c in candidates
            if c.kind != "join" or threads[c.tid].pending.handle.tid not in buffered
        ]
        for tid in buffered:
            candidates.append(
                Candidate(
                    tid=tid,
                    kind=FLUSH_KIND,
                    location=self._buffers[tid][0].location,
                    loc="tso:flush",
                )
            )
        return candidates

    def _execute(self, choice: Candidate) -> Event:
        if choice.kind == FLUSH_KIND:
            # The main loop notifies the policy about the returned event.
            return self._flush_one(choice.tid, chosen=True)
        thread = self.threads[choice.tid]
        if thread.pending is not None and thread.pending.kind in _FENCING_KINDS:
            self._drain(choice.tid)
        return super()._execute(choice)

    # ------------------------------------------------------------------
    def _flush_one(self, tid: int, chosen: bool = False) -> Event:
        buffer = self.buffer_of(tid)
        store = buffer.pop(0)
        store.var.value = store.value
        # Visibility point: later reads-from edges target the original write.
        self._last_write[store.location] = store.write_eid
        self._last_write_event[store.location] = self.trace.event_by_id(store.write_eid)
        eid = self._next_eid
        self._next_eid += 1
        event = Event(
            eid=eid,
            tid=tid,
            kind=FLUSH_KIND,
            location=store.location,
            loc="tso:flush",
            value=store.value,
            aux=store.write_eid,
        )
        self._record(event)
        # The concrete schedule lists scheduler choices only, so replay can
        # follow it: a chosen flush is ``~tid`` (never the thread's own next
        # op), and a fence drain is no choice (replay drains at the fence).
        if chosen:
            self.schedule[-1] = ~tid
        else:
            self.schedule.pop()
            self.policy.notify(event, self)
        return event

    def _drain(self, tid: int) -> None:
        """Fence: synchronously flush every buffered store of ``tid``."""
        while self.buffer_of(tid):
            self._flush_one(tid)

    # ------------------------------------------------------------------
    # Per-op apply handlers (picked up by the base class's dispatch table).
    def _apply_write(self, thread: ThreadState, op: ops.WriteOp, eid: int, location: str):
        self.buffer_of(thread.tid).append(
            BufferedStore(var=op.var, value=op.value, write_eid=eid, location=location)
        )
        # The store is buffered: memory and last-writer stay untouched
        # (the base class would mark the write globally visible).
        return None, op.value, op.value, True, None

    def _apply_read(self, thread: ThreadState, op: ops.ReadOp, eid: int, location: str):
        for store in reversed(self.buffer_of(thread.tid)):
            if store.location == location:
                # Store forwarding: the thread sees its own youngest
                # buffered write before anyone else does.
                return store.write_eid, store.value, store.value, True, None
        return super()._apply_read(thread, op, eid, location)

    def _writes(self, op: ops.Op, value: Any) -> bool:
        # Buffered stores are not yet globally visible: suppress the base
        # class's last-writer update for plain writes; flushes handle it.
        if isinstance(op, ops.WriteOp) and isinstance(op.var, SharedVar):
            return False
        return super()._writes(op, value)


def run_program_tso(program, policy, max_steps: int | None = None):
    """Convenience wrapper: one TSO execution of ``program`` under ``policy``."""
    from repro.runtime.executor import DEFAULT_MAX_STEPS

    return TsoExecutor(program, policy, max_steps=max_steps or DEFAULT_MAX_STEPS).run()
