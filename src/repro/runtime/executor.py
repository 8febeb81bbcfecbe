"""The serializing executor: one visible event per step, policy-chosen.

This module is the Python stand-in for the paper's ``libsched.so`` user-mode
scheduler (Section 4.1).  All threads of the program under test are advanced
by a single loop that, before every visible event, computes the set of
*enabled* threads and asks a pluggable :class:`SchedulerPolicy` which one
runs next.  Execution is fully deterministic given the policy's decisions,
which is what makes schedules replayable and the reads-from relation a
stable feedback signal.

Hot-path structure (PR 5): per-op-*type* dispatch tables replace the former
``isinstance`` chains — ``_apply_table`` maps each op type to its
``_apply_*`` handler, resolved once per executor class (subclasses override
the handlers, see :class:`~repro.runtime.tso.TsoExecutor`), enabledness
checks live in a module-level per-type table (``lock``, the most frequent,
is tested inline), each op's memory ``location`` is precomputed at op
construction, ``_derive_loc`` labels are memoized per ``(code object,
lineno)``, and abstract reads-from pairs are collected incrementally as
interned pair ids while events are recorded, so :meth:`Trace.rf_pairs` is
a memoized O(1) lookup after the run.  A step allocates no candidate for a
thread whose pending op is unchanged (:class:`Candidate` is cached per
thread), and the run loop accepts the policy's choice by identity before
equality.  All of it is differentially pinned to the pre-optimization
engine by ``tests/test_engine_differential.py``.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Generator, Iterable

from repro.core.events import AbstractEvent, Event, intern_abstract
from repro.core.trace import Trace, intern_rf_pair, rf_pair_hash
from repro.runtime import ops
from repro.runtime.api import Api
from repro.runtime.counters import GLOBAL_COUNTERS
from repro.runtime.errors import (
    DeadlockDetected,
    NullDereference,
    ProgramError,
    RuntimeViolation,
    SchedulerError,
    UncaughtProgramException,
)
from repro.runtime.guard import GuardConfig, Watchdog
from repro.runtime.objects import Barrier, CondVar, Mutex
from repro.runtime.thread import ThreadHandle, ThreadState, ThreadStatus

if TYPE_CHECKING:  # pragma: no cover - type-only import
    from repro.analysis.online import Sanitizer, SanitizerReport
    from repro.runtime.program import Program
    from repro.schedulers.base import SchedulerPolicy

#: Default bound on events per execution, guarding against spin-heavy
#: schedules (e.g. CAS retry loops the policy keeps re-scheduling).
DEFAULT_MAX_STEPS = 20_000

class Candidate:
    """One enabled thread together with the event it would execute next.

    A hand-written slotted class rather than a frozen dataclass, as for
    :class:`~repro.core.events.Event`: one is built whenever a thread's
    pending op changes, and the frozen-dataclass ``__init__`` (one
    ``object.__setattr__`` per field) and ``__dict__`` memo were
    measurable on the step path.  Equality, hashing, repr and str match
    the former frozen dataclass exactly (the four public fields, in order).
    """

    __slots__ = ("tid", "kind", "location", "loc", "_abstract")

    def __init__(self, tid: int, kind: str, location: str, loc: str):
        self.tid = tid
        self.kind = kind
        self.location = location
        self.loc = loc
        #: Memoized interned abstract event (excluded from equality/repr).
        self._abstract: AbstractEvent | None = None

    @property
    def abstract(self) -> AbstractEvent:
        """The abstract event ``op(x)@l`` this candidate would produce."""
        cached = self._abstract
        if cached is None:
            cached = self._abstract = intern_abstract(self.kind, self.location, self.loc)
        return cached

    def _key(self) -> tuple[int, str, str, str]:
        return (self.tid, self.kind, self.location, self.loc)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is Candidate:
            return self._key() == other._key()  # type: ignore[union-attr]
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        return (
            f"Candidate(tid={self.tid!r}, kind={self.kind!r}, "
            f"location={self.location!r}, loc={self.loc!r})"
        )

    def __str__(self) -> str:
        return f"T{self.tid}:{self.kind}({self.location})@{self.loc}"


@dataclass
class ExecutionResult:
    """Outcome of one complete execution under a scheduler policy."""

    trace: Trace
    #: The concrete schedule: one entry per scheduler choice, the chosen
    #: thread id, or ``~tid`` for a chosen TSO store-buffer flush of thread
    #: ``tid`` (fence drains are no choice).  ReplayPolicy replays it exactly.
    schedule: list[int]
    steps: int
    #: True when the step bound was hit before all threads finished.
    truncated: bool = False
    #: Findings of the execution's online sanitizer stack (empty when none
    #: was attached).
    sanitizer_reports: list["SanitizerReport"] = field(default_factory=list)
    #: Stable ``function:line`` frames of the failure (empty when the
    #: execution completed normally); the triage bucket's frame component.
    failure_frames: tuple[str, ...] = ()
    #: First step at which a replaying policy could not follow its recorded
    #: schedule (None = exact replay, or the policy does not replay at all).
    #: Surfaced here so callers never reach into the policy object.
    diverged: int | None = None

    @property
    def crashed(self) -> bool:
        return self.trace.crashed

    @property
    def outcome(self) -> str | None:
        return self.trace.outcome

    @property
    def timed_out(self) -> bool:
        """True when a guard watchdog (step budget / wall clock) tripped."""
        return self.trace.outcome == "timeout"

    @property
    def livelocked(self) -> bool:
        """True when the guard's livelock detector tripped."""
        return self.trace.outcome == "livelock"


#: The runtime package directory; traceback frames inside it are executor
#: machinery, not program code, and are dropped from captured failure frames.
_RUNTIME_DIR = os.path.dirname(os.path.abspath(__file__))


#: filename -> whether it lives in the runtime package (frame filter memo).
_RUNTIME_FILE: dict[str, bool] = {}


def _frames_from_traceback(tb) -> tuple[str, ...]:
    """Stable ``function:line`` frames of program code in a traceback.

    The labels match :func:`_derive_loc` (and thus event ``loc`` fields), so
    triage can hash exception frames and event frontiers interchangeably.
    Walks the raw traceback directly — same ``name:lineno`` labels as
    ``traceback.extract_tb`` without its linecache / code-position work,
    which dominated crash-heavy executions.
    """
    frames = []
    while tb is not None:
        code = tb.tb_frame.f_code
        filename = code.co_filename
        is_runtime = _RUNTIME_FILE.get(filename)
        if is_runtime is None:
            is_runtime = _RUNTIME_FILE[filename] = (
                os.path.dirname(os.path.abspath(filename)) == _RUNTIME_DIR
            )
        if not is_runtime:
            frames.append(f"{code.co_name}:{tb.tb_lineno}")
        tb = tb.tb_next
    return tuple(frames)


#: (code object, lineno) -> "name:lineno" label memo.  Process-global: the
#: key space is bounded by program text (distinct yield points), and reusing
#: labels across executions also keeps label strings shared.
_LOC_LABELS: dict[tuple[Any, int], str] = {}


def _derive_loc(gen: Generator) -> str:
    """A stable ``function:line`` label for the yield that produced an op.

    This plays the role of the source-code location ``l`` in abstract events:
    identical program points in different threads (or different executions)
    receive identical labels.  Labels are memoized per (code object, lineno).
    """
    inner = gen
    while True:
        delegate = getattr(inner, "gi_yieldfrom", None)
        if delegate is None or not hasattr(delegate, "gi_frame"):
            break
        inner = delegate
    frame = getattr(inner, "gi_frame", None)
    if frame is not None:
        key = (frame.f_code, frame.f_lineno)
        label = _LOC_LABELS.get(key)
        if label is None:
            label = _LOC_LABELS[key] = f"{frame.f_code.co_name}:{frame.f_lineno}"
        return label
    code = getattr(inner, "gi_code", None)
    if code is not None:  # pragma: no cover - suspended generators have frames
        return f"{code.co_name}:?"
    return "?:?"


#: Per-op-type enabledness checks of the blocking ops other than ``lock``,
#: which :meth:`Executor.enabled_candidates` tests inline (it is by far the
#: most frequent); op types absent from the table are always enabled.
#: Keyed on the concrete class (ops are never subclassed).
_ENABLED_CHECKS = {
    ops.JoinOp: lambda op: op.handle.finished,
    ops.SemAcquireOp: lambda op: op.sem.count > 0,
}

#: Op type -> name of the Executor method applying it.  Bound per instance
#: at init (so subclass overrides of individual handlers are honoured).
_APPLY_METHODS: dict[type[ops.Op], str] = {
    ops.ReadOp: "_apply_read",
    ops.WriteOp: "_apply_write",
    ops.RmwOp: "_apply_rmw",
    ops.CasOp: "_apply_cas",
    ops.LockOp: "_apply_lock",
    ops.TryLockOp: "_apply_trylock",
    ops.UnlockOp: "_apply_unlock",
    ops.WaitOp: "_apply_wait",
    ops.SignalOp: "_apply_signal",
    ops.BroadcastOp: "_apply_broadcast",
    ops.SemAcquireOp: "_apply_sem_acquire",
    ops.TrySemAcquireOp: "_apply_try_sem_acquire",
    ops.SemReleaseOp: "_apply_sem_release",
    ops.BarrierOp: "_apply_barrier",
    ops.SpawnOp: "_apply_spawn",
    ops.JoinOp: "_apply_join",
    ops.YieldOp: "_apply_yield",
    ops.MallocOp: "_apply_malloc",
    ops.FreeOp: "_apply_free",
    ops.HeapReadOp: "_apply_heap_read",
    ops.HeapWriteOp: "_apply_heap_write",
}


class Executor:
    """Runs one program to completion under one scheduler policy.

    Each step computes :meth:`enabled_candidates` (a buffer reused across
    steps), asks the policy to ``choose`` one of them, executes it and
    ``notify``-s the policy of the event.  A policy must return one of the
    candidates it was given, or one equal to it; anything else is a
    :class:`SchedulerError`.  Policies may inspect the execution through
    the read-only accessors below (``threads``, :meth:`live_threads`,
    :meth:`last_write_event`, ...).
    """

    def __init__(
        self,
        program: "Program",
        policy: "SchedulerPolicy",
        max_steps: int = DEFAULT_MAX_STEPS,
        sanitizers: Iterable["Sanitizer"] | None = None,
        guard: GuardConfig | None = None,
    ):
        self.program = program
        self.policy = policy
        self.max_steps = max_steps
        #: Online sanitizer stack, driven by :meth:`_record` as events land.
        self.sanitizers: tuple["Sanitizer", ...] = tuple(sanitizers or ())
        #: Optional runtime guardrails (watchdogs + livelock detection).
        self.guard = guard
        self._watchdog = Watchdog(guard) if guard is not None and guard.enabled else None
        self.api = Api()
        self.threads: list[ThreadState] = []
        self.trace = Trace()
        self.schedule: list[int] = []
        self._next_eid = 1
        #: location -> event id of last write (absent = initial pseudo-write 0).
        self._last_write: dict[str, int] = {}
        self._last_write_event: dict[str, Event] = {}
        #: Count of unfinished threads (maintained by _advance/_spawn).
        self._live_threads = 0
        #: The unfinished threads (see live_threads): ``self.threads``
        #: minus finished ones, pruned lazily (tid order preserved by removal).
        self._scan_threads: list[ThreadState] = []
        self._scan_dirty = False
        #: Interned abstract rf pair ids seen so far, plus their running
        #: order-insensitive XOR hash; seeds the trace's rf memo after run().
        self._rf_pair_ids: set[int] = set()
        self._rf_sig_hash = 0
        #: Reused enabled-candidates buffer.  The returned list is only
        #: valid until the next enabled_candidates() call; every consumer
        #: (main loop, policies, exploration logs) copies what it retains.
        self._candidates_buf: list[Candidate] = []
        #: Prebound sanitizer on_event hooks (hot streaming path).
        self._san_on_event = tuple(s.on_event for s in self.sanitizers)
        #: Per-op-type apply dispatch table: unbound handler functions,
        #: resolved once per concrete Executor class (so subclass overrides
        #: of individual ``_apply_*`` methods are honoured) and shared by
        #: all instances — executor construction itself is a hot path for
        #: short crashing programs.
        cls = type(self)
        table = cls.__dict__.get("_apply_table")
        if table is None:
            table = {op_type: getattr(cls, name) for op_type, name in _APPLY_METHODS.items()}
            cls._apply_table = table
        self._apply_table = table

    # ------------------------------------------------------------------
    # Introspection used by scheduler policies
    # ------------------------------------------------------------------
    @property
    def step_index(self) -> int:
        return len(self.trace.events)

    def last_write_eid(self, location: str) -> int:
        """Event id of the last write to ``location`` (0 = initial value)."""
        return self._last_write.get(location, 0)

    def last_write_event(self, location: str) -> Event | None:
        """The last write event to ``location``, or None for the initial value."""
        return self._last_write_event.get(location)

    def thread_count(self) -> int:
        return len(self.threads)

    def live_thread_count(self) -> int:
        return self._live_threads

    # ------------------------------------------------------------------
    # Main loop
    # ------------------------------------------------------------------
    def run(self) -> ExecutionResult:
        """Execute the program to completion, crash, deadlock or step bound."""
        main_gen = self.program.main(self.api)
        main_thread = ThreadState(0, "main", main_gen)
        self.threads.append(main_thread)
        self._scan_threads.append(main_thread)
        self._live_threads += 1
        for sanitizer in self.sanitizers:
            sanitizer.on_thread_start(0, None)
        truncated = False
        failure_frames: tuple[str, ...] = ()
        watchdog = self._watchdog
        if watchdog is not None:
            watchdog.start()
        policy = self.policy
        policy.begin(self)
        # Hoist per-step lookups out of the loop: these attributes are
        # stable for the lifetime of the run.
        choose = policy.choose
        notify = policy.notify
        execute = self._execute
        enabled_candidates = self.enabled_candidates
        events = self.trace.events
        max_steps = self.max_steps
        try:
            self._advance(main_thread, None)
            while not self._all_done():
                if len(events) >= max_steps:
                    truncated = True
                    break
                if watchdog is not None:
                    watchdog.check_step(len(events), self._frontier_frames)
                candidates = enabled_candidates()
                if not candidates:
                    blocked = tuple(t.tid for t in self.threads if not t.finished)
                    error = DeadlockDetected(blocked)
                    error.frames = self._frontier_frames()
                    raise error
                choice = choose(candidates, self)
                # Policies return one of the candidates themselves, so an
                # identity scan settles the check without calling __eq__.
                for candidate in candidates:
                    if candidate is choice:
                        break
                else:
                    if choice not in candidates:
                        raise SchedulerError(f"policy chose {choice}, not an enabled candidate")
                event = execute(choice)
                notify(event, self)
                if watchdog is not None:
                    watchdog.after_event(event)
        except RuntimeViolation as violation:
            self.trace.outcome = violation.kind
            self.trace.failure = str(violation)
            failure_frames = tuple(violation.frames) or self._frontier_frames()
        finally:
            # Regardless of outcome, close every thread generator and run
            # execution-scoped cleanups (the real-Python substrate registers
            # one to abort parked OS threads and restore stdlib patches).
            # Truncated or crashed executions leave generators suspended;
            # without this they would leak resources across the thousands of
            # executions of a fuzzing campaign.
            self._close_threads()
            self.api.run_cleanups()
        # Hand the incrementally collected rf state to the trace, making
        # rf_pairs()/rf_signature() O(1) memoized lookups for this trace.
        self.trace.seed_rf_cache(self._rf_pair_ids, self._rf_sig_hash)
        reports: list["SanitizerReport"] = []
        for sanitizer in self.sanitizers:
            reports.extend(sanitizer.finish())
        result = ExecutionResult(
            trace=self.trace,
            schedule=self.schedule,
            steps=self.step_index,
            truncated=truncated,
            sanitizer_reports=reports,
            failure_frames=failure_frames,
            diverged=getattr(self.policy, "diverged", None),
        )
        counters = GLOBAL_COUNTERS
        counters.executions += 1
        counters.steps += self.step_index
        counters.sanitizer_reports += len(reports)
        if result.timed_out:
            counters.timeouts += 1
        elif result.livelocked:
            counters.livelocks += 1
        self.policy.end(result, self)
        return result

    def _close_threads(self) -> None:
        """Close every thread generator, main first (execution teardown).

        Finished generators make this a cheap no-op; suspended ones receive
        ``GeneratorExit`` at their yield point.  Exceptions raised by
        teardown code are swallowed: the execution's outcome is already
        decided and a noisy ``finally`` in program code must not abort the
        campaign.
        """
        for thread in self.threads:
            close = getattr(thread.gen, "close", None)
            if close is None:
                continue
            try:
                close()
            except BaseException:  # noqa: BLE001 - teardown must not raise
                pass

    def _frontier_frames(self) -> tuple[str, ...]:
        """The pending program points of all live threads, sorted.

        This is the deterministic "stack" of a deadlocked, timed-out or
        crashing execution: where every unfinished thread currently stands.
        """
        return tuple(
            sorted(
                {
                    thread.pending_loc
                    for thread in self.threads
                    if not thread.finished and thread.pending_loc
                }
            )
        )

    def _all_done(self) -> bool:
        """Whether the execution has fully completed (hook for subclasses
        with extra pending work, e.g. unflushed TSO store buffers)."""
        return self._live_threads == 0

    def live_threads(self) -> list[ThreadState]:
        """The unfinished threads, in tid order.

        The list is the executor's own scan list: valid until the next
        step, and not to be mutated.  Policies that look at pending
        operations use it to skip finished threads (which have none).
        """
        if self._scan_dirty:
            # Prune finished threads (irreversible state); removal keeps
            # the list tid-ordered, preserving the candidate order
            # policies observe.
            self._scan_threads = [t for t in self._scan_threads if t.status is not ThreadStatus.FINISHED]
            self._scan_dirty = False
        return self._scan_threads

    def enabled_candidates(self) -> list[Candidate]:
        """All runnable threads whose pending operation can execute now.

        Returns a preallocated buffer reused across calls: the list is only
        valid until the next call (consumers that retain candidates copy
        them, which every in-tree policy and explorer already does).
        """
        out = self._candidates_buf
        out.clear()
        append = out.append
        checks = _ENABLED_CHECKS
        runnable = ThreadStatus.RUNNABLE
        lock_op = ops.LockOp
        for thread in self.live_threads():
            if thread.status is not runnable:
                continue
            op = thread.pending
            if op is None:
                continue
            if op.may_block:
                cls = op.__class__
                if cls is lock_op:
                    if op.mutex.owner is not None:
                        continue
                else:
                    check = checks.get(cls)
                    if check is not None and not check(op):
                        continue
            candidate = thread.cached_candidate
            if candidate is None:
                candidate = Candidate(thread.tid, op.kind, op.location, thread.pending_loc)
                thread.cached_candidate = candidate
            append(candidate)
        return out

    # ------------------------------------------------------------------
    # Event execution
    # ------------------------------------------------------------------
    def _execute(self, choice: Candidate) -> Event:
        thread = self.threads[choice.tid]
        op = thread.pending
        if op is None:  # pragma: no cover - guarded by enabled_candidates
            raise SchedulerError(f"thread {choice.tid} has no pending op")
        eid = self._next_eid
        self._next_eid = eid + 1
        location = op.location
        crash: RuntimeViolation | None = None
        handler = self._apply_table.get(op.__class__)
        if handler is None:  # pragma: no cover - exhaustive over the ops vocabulary
            raise ProgramError(f"unhandled operation {op!r}")
        try:
            rf, value, resume, advance_now, aux = handler(self, thread, op, eid, location)
        except RuntimeViolation as violation:
            if not violation.frames:
                # Operation-level oracles (null dereference, use-after-free)
                # fail at the executing op's program point.
                violation.frames = (thread.pending_loc,) if thread.pending_loc else ()
            crash = violation
            rf = None
            value = None
            resume = None
            advance_now = True
            aux = None
        event = Event(eid, thread.tid, op.kind, location, thread.pending_loc, rf, value, aux)
        self._record(event)
        if rf is not None:
            # Incremental rf collection: the writer of a recorded read is
            # itself a recorded event at (dense) index rf - 1.
            writer = None if rf == 0 else self.trace.events[rf - 1].abstract
            pid = intern_rf_pair(writer, event.abstract)
            pair_ids = self._rf_pair_ids
            if pid not in pair_ids:
                pair_ids.add(pid)
                self._rf_sig_hash ^= rf_pair_hash(pid)
        thread.step_count += 1
        if self._writes(op, value):
            self._last_write[location] = eid
            self._last_write_event[location] = event
        if crash is not None:
            raise crash
        if advance_now:
            was_reacquire = thread.pending_is_reacquire
            thread.pending_is_reacquire = False
            self._advance(thread, None if was_reacquire else resume)
        return event

    def _record(self, event: Event) -> None:
        """Append ``event`` to the trace/schedule and stream it to sanitizers."""
        self.trace.events.append(event)
        self.schedule.append(event.tid)
        hooks = self._san_on_event
        if hooks:
            for hook in hooks:
                hook(event)

    def _writes(self, op: ops.Op, value: Any) -> bool:
        """Whether the executed op performed a write for reads-from purposes."""
        writes = op.writes
        if writes is None:
            # cas/trylock: writes only when the operation succeeded.
            return bool(value)
        return writes

    # -- per-op-type apply handlers --------------------------------------
    # Each performs its op's effect and returns ``(rf, recorded value,
    # value to resume the generator with, advance_now, aux)``.
    # ``advance_now`` is False when the thread blocks as part of executing
    # the op (condvar wait, non-final barrier arrival); ``aux`` is the
    # cross-thread metadata recorded on the event (spawned/joined tid,
    # woken waiters).
    def _apply_read(self, thread: ThreadState, op: ops.ReadOp, eid: int, location: str):
        value = op.var.value
        return self._last_write.get(location, 0), value, value, True, None

    def _apply_write(self, thread: ThreadState, op: ops.WriteOp, eid: int, location: str):
        value = op.value
        op.var.value = value
        return None, value, value, True, None

    def _apply_rmw(self, thread: ThreadState, op: ops.RmwOp, eid: int, location: str):
        var = op.var
        old = var.value
        var.value = op.func(old)
        return self._last_write.get(location, 0), old, old, True, None

    def _apply_cas(self, thread: ThreadState, op: ops.CasOp, eid: int, location: str):
        var = op.var
        success = var.value == op.expected
        if success:
            var.value = op.new
        return self._last_write.get(location, 0), success, success, True, None

    def _apply_lock(self, thread: ThreadState, op: ops.LockOp, eid: int, location: str):
        op.mutex.owner = thread.tid
        return self._last_write.get(location, 0), None, None, True, None

    def _apply_trylock(self, thread: ThreadState, op: ops.TryLockOp, eid: int, location: str):
        mutex = op.mutex
        success = not mutex.held
        if success:
            mutex.owner = thread.tid
        return self._last_write.get(location, 0), success, success, True, None

    def _apply_unlock(self, thread: ThreadState, op: ops.UnlockOp, eid: int, location: str):
        self._unlock(thread, op.mutex)
        return None, None, None, True, None

    def _apply_wait(self, thread: ThreadState, op: ops.WaitOp, eid: int, location: str):
        rf = self._last_write.get(location, 0)
        aux = op.mutex.location
        self._wait(thread, op)
        return rf, None, None, False, aux

    def _apply_signal(self, thread: ThreadState, op: ops.SignalOp, eid: int, location: str):
        return None, None, None, True, self._wake(op.cond, 1)

    def _apply_broadcast(self, thread: ThreadState, op: ops.BroadcastOp, eid: int, location: str):
        cond = op.cond
        return None, None, None, True, self._wake(cond, len(cond.waiters))

    def _apply_sem_acquire(self, thread: ThreadState, op: ops.SemAcquireOp, eid: int, location: str):
        rf = self._last_write.get(location, 0)
        op.sem.count -= 1
        return rf, None, None, True, None

    def _apply_try_sem_acquire(self, thread: ThreadState, op: ops.TrySemAcquireOp, eid: int, location: str):
        sem = op.sem
        success = sem.count > 0
        if success:
            sem.count -= 1
        return self._last_write.get(location, 0), success, success, True, None

    def _apply_sem_release(self, thread: ThreadState, op: ops.SemReleaseOp, eid: int, location: str):
        op.sem.count += 1
        return None, None, None, True, None

    def _apply_barrier(self, thread: ThreadState, op: ops.BarrierOp, eid: int, location: str):
        rf = self._last_write.get(location, 0)
        return rf, None, None, self._arrive(thread, op.barrier), None

    def _apply_spawn(self, thread: ThreadState, op: ops.SpawnOp, eid: int, location: str):
        handle = self._spawn(op, thread.tid)
        return None, f"spawned T{handle.tid}", handle, True, handle.tid

    def _apply_join(self, thread: ThreadState, op: ops.JoinOp, eid: int, location: str):
        value = f"joined T{op.handle.tid}"
        return None, value, value, True, op.handle.tid

    def _apply_yield(self, thread: ThreadState, op: ops.YieldOp, eid: int, location: str):
        return None, None, None, True, None

    def _apply_malloc(self, thread: ThreadState, op: ops.MallocOp, eid: int, location: str):
        obj = self.api.heap.malloc(op.site, op.fields)
        return None, f"malloc {obj.name}", obj, True, obj.name

    def _apply_free(self, thread: ThreadState, op: ops.FreeOp, eid: int, location: str):
        if op.obj is None:
            raise NullDereference("free(NULL-model) in program")
        self.api.heap.free(op.obj)
        return None, None, None, True, None

    def _apply_heap_read(self, thread: ThreadState, op: ops.HeapReadOp, eid: int, location: str):
        obj = op.obj
        if obj is None:
            raise NullDereference(f"read of field {op.field_name!r} through null pointer")
        rf = obj.field_writers.get(op.field_name, 0)
        value = obj.read_field(op.field_name)
        return rf, value, value, True, None

    def _apply_heap_write(self, thread: ThreadState, op: ops.HeapWriteOp, eid: int, location: str):
        obj = op.obj
        if obj is None:
            raise NullDereference(f"write of field {op.field_name!r} through null pointer")
        name = op.field_name
        obj.check_alive(f"write of field {name!r}")
        obj.write_field(name, op.value)
        obj.field_writers[name] = eid
        value = op.value
        return None, value, value, True, None

    # ------------------------------------------------------------------
    # Synchronization helpers
    # ------------------------------------------------------------------
    def _unlock(self, thread: ThreadState, mutex: Mutex) -> None:
        if mutex.owner != thread.tid and mutex.error_checking:
            raise ProgramError(f"T{thread.tid} unlocked {mutex.name!r} held by {mutex.owner}")
        mutex.owner = None

    def _wait(self, thread: ThreadState, op: ops.WaitOp) -> None:
        if op.mutex.owner != thread.tid:
            raise ProgramError(f"T{thread.tid} waited on {op.cond.name!r} without holding the mutex")
        op.mutex.owner = None
        thread.status = ThreadStatus.WAITING_COND
        thread.wait_cond = op.cond
        thread.wait_mutex = op.mutex
        op.cond.waiters.append(thread.tid)

    def _wake(self, cond: CondVar, count: int) -> tuple[int, ...]:
        woken = []
        waiters = cond.waiters
        for _ in range(min(count, len(waiters))):
            tid = waiters.popleft()
            waiter = self.threads[tid]
            waiter.status = ThreadStatus.RUNNABLE
            # The wakeup completes only after re-acquiring the mutex, modelled
            # as a synthetic lock op pending at the original wait location.
            waiter.pending = ops.LockOp(mutex=waiter.wait_mutex, loc=waiter.pending_loc)
            waiter.cached_candidate = None
            waiter.pending_is_reacquire = True
            waiter.wait_cond = None
            woken.append(tid)
        return tuple(woken)

    def _arrive(self, thread: ThreadState, barrier: Barrier) -> bool:
        if len(barrier.arrived) + 1 < barrier.parties:
            barrier.arrived.append(thread.tid)
            thread.status = ThreadStatus.WAITING_BARRIER
            thread.wait_barrier = barrier
            return False
        released = list(barrier.arrived)
        barrier.arrived.clear()
        barrier.generation += 1
        for tid in released:
            waiter = self.threads[tid]
            waiter.status = ThreadStatus.RUNNABLE
            waiter.wait_barrier = None
            self._advance(waiter, None)
        return True

    def _spawn(self, op: ops.SpawnOp, parent_tid: int) -> ThreadHandle:
        tid = len(self.threads)
        name = op.name or getattr(op.fn, "__name__", f"thread{tid}")
        try:
            gen = op.fn(self.api, *op.args)
        except TypeError as exc:
            # Not program misbehaviour mid-run but a malformed benchmark
            # (non-callable target, wrong arity): fail loudly, don't triage.
            raise ProgramError(f"cannot spawn {name!r}: {exc}") from exc
        if not hasattr(gen, "send"):
            raise ProgramError(f"spawned function {name!r} is not a generator")
        thread = ThreadState(tid, name, gen)
        self.threads.append(thread)
        self._scan_threads.append(thread)
        self._live_threads += 1
        for sanitizer in self.sanitizers:
            sanitizer.on_thread_start(tid, parent_tid)
        self._advance(thread, None)
        return ThreadHandle(thread)

    # ------------------------------------------------------------------
    # Generator advancement
    # ------------------------------------------------------------------
    def _advance(self, thread: ThreadState, value: Any) -> None:
        """Resume ``thread`` until its next yield (or completion).

        Runs thread-local code atomically; any :class:`RuntimeViolation`
        raised by program code (assertions, heap oracles triggered inside
        helpers) propagates to the main loop, which records the crash.
        Arbitrary exceptions escaping the generator are converted into
        :class:`UncaughtProgramException` — a structured crash with the
        program frames captured — so one misbehaving benchmark cannot abort
        a whole fuzzing campaign.  :class:`ProgramError` (malformed
        benchmark) and :class:`SchedulerError` (harness bug) still
        propagate: they are infrastructure failures, not findings.
        """
        try:
            op = thread.gen.send(value)
        except StopIteration:
            thread.status = ThreadStatus.FINISHED
            thread.pending = None
            thread.cached_candidate = None
            self._live_threads -= 1
            self._scan_dirty = True
            if self._watchdog is not None:
                self._watchdog.progress()
            for sanitizer in self.sanitizers:
                sanitizer.on_thread_exit(thread.tid)
            return
        except RuntimeViolation as violation:
            if not violation.frames:
                violation.frames = _frames_from_traceback(violation.__traceback__)
            raise
        except (ProgramError, SchedulerError):
            raise
        except Exception as exc:
            raise UncaughtProgramException(
                type(exc).__name__, str(exc), _frames_from_traceback(exc.__traceback__)
            ) from exc
        if not isinstance(op, ops.Op):
            raise ProgramError(f"thread {thread.name!r} yielded non-operation {op!r}")
        thread.pending = op
        loc = op.loc
        thread.pending_loc = loc if loc is not None else _derive_loc(thread.gen)
        thread.cached_candidate = None


def run_program(
    program: "Program",
    policy: "SchedulerPolicy",
    max_steps: int = DEFAULT_MAX_STEPS,
    sanitizers: Iterable["Sanitizer"] | None = None,
    guard: GuardConfig | None = None,
) -> ExecutionResult:
    """Convenience wrapper: one execution of ``program`` under ``policy``."""
    return Executor(
        program, policy, max_steps=max_steps, sanitizers=sanitizers, guard=guard
    ).run()
