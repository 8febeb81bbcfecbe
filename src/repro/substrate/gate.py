"""Cooperative-serialization gate for real OS threads.

This is the substrate's core trick: every *real* Python thread of the
program under test is parked on a per-thread rendezvous (:class:`OpChannel`)
and released exactly one at a time from the existing executor's
candidate-selection point.  Each real thread is mirrored by a *bridge
generator* registered with the executor as an ordinary program thread: when
the real thread reaches a visible operation (a shim lock acquire, a tracked
attribute access, ...) it hands the :class:`~repro.runtime.ops.Op` to its
channel and blocks; the bridge yields the op into the executor, and when the
scheduler policy picks this thread the op's result is handed back and the
real thread resumes.  RandomWalk/PCT/POS/replay policies, the reads-from
feedback, online sanitizers and triage all operate on the bridge generators
exactly as they do on DSL programs — they cannot tell the difference.

The rendezvous is built on raw ``_thread`` locks, *not* on ``threading``
primitives: the shim layer monkeypatches ``threading.Lock`` and friends for
the duration of an execution, and the gate must keep working underneath its
own patches.  Real threads are likewise spawned with
``_thread.start_new_thread`` so the patched ``threading.Thread`` never
bootstraps harness threads.

Exactly one real thread runs at any moment: the executor resumes a thread
and immediately blocks waiting for its next message, so thread-local code
between two visible operations executes atomically — the same semantics the
generator DSL gets from ``yield``.

One CPU per execution: since the threads only ever take turns, spreading
them over several CPUs buys no parallelism, yet each visible op's two lock
handoffs would then wake a thread on another core and drag the working set
across.  On Linux, :meth:`SubstrateContext.activate` therefore pins the
executor thread to the CPU it is running on; every real thread the bridge
starts, and any thread program code starts outside the shims, inherits that
one-CPU mask.  Pinning changes where the threads run, never which one runs,
so schedules and traces are unaffected.  Where ``os.sched_setaffinity`` or
libc ``sched_getcpu`` is missing, or a call fails, the execution runs
unpinned.

One switch per handoff: on one CPU, a thread woken under the default
``SCHED_OTHER`` policy preempts its waker, finds the GIL still held and
blocks again, so each handoff costs about three context switches instead
of one.  Right after a successful pin, :meth:`activate` therefore moves
the executor thread from ``SCHED_OTHER`` to ``SCHED_BATCH`` (Linux lets
any thread switch between the two without privilege), and every thread it
starts inherits the policy with the mask.  A woken ``SCHED_BATCH`` thread
does not preempt the running one, so the waker runs on to its own blocking
acquire, which drops the GIL, and the handoff is one voluntary switch.
Like the pin, the policy changes when a thread runs, never which one, so
schedules and traces are unaffected.  The policy is left alone where the
pin failed (the wake then goes to another CPU, and the policy buys
nothing), where the caller runs on any policy but ``SCHED_OTHER``, and
where ``os.sched_setscheduler`` is missing or refused.

Teardown: the executor runs execution-scoped cleanups (``Api.add_cleanup``)
after closing every thread generator; the context's :meth:`finalize` aborts
all parked threads by resuming them with :class:`SubstrateAbort` (a
``BaseException``, so ordinary ``except Exception`` handlers in program code
cannot swallow it), joins them, and restores the stdlib patches, the cyclic
GC, and the caller's CPU mask and scheduling policy.
"""

from __future__ import annotations

import _thread
import gc
import os
import sys
import threading
from typing import Any, Callable, Generator

from repro.runtime import ops
from repro.runtime.errors import (
    AssertionViolation,
    ProgramError,
    RuntimeViolation,
    UncaughtProgramException,
)

#: How long finalize waits for an aborted real thread to exit before
#: declaring the execution wedged (a harness error, not a finding).
JOIN_TIMEOUT = 10.0

#: Thread-local holding the controlled thread's OpChannel (None elsewhere).
_TL = threading.local()

#: The process's single active substrate context (executions never nest).
_ACTIVE: "SubstrateContext | None" = None

#: Absolute filenames of substrate-internal modules; frames in these files
#: are harness machinery and are skipped by call-site and traceback labels.
_INTERNAL_FILES: set[str] = {os.path.abspath(__file__)}

#: filename -> is-internal memo (os.path.abspath per frame is not free).
_INTERNAL_MEMO: dict[str, bool] = {}

#: (code object, lineno) -> "name:lineno" label memo, same format as the
#: executor's ``_derive_loc`` so dedup keys hash DSL and substrate frames
#: interchangeably.
_LOC_LABELS: dict[tuple[Any, int], str] = {}

#: libc ``sched_getcpu`` (a ctypes function), ``False`` where it is missing,
#: ``None`` until the first activation looks it up: every workload imports
#: this module, and importing ``ctypes`` costs ~2 ms and ~0.4 MB.
_sched_getcpu: Any = None


def _lookup_sched_getcpu() -> Any:
    try:
        import ctypes

        getcpu = ctypes.CDLL(None).sched_getcpu
    except (ImportError, OSError, AttributeError):
        return False
    getcpu.argtypes = ()
    getcpu.restype = ctypes.c_int
    return getcpu


def _pin_to_current_cpu() -> set[int] | None:
    """Restrict the calling thread to the CPU it runs on; return its old mask.

    Returns None, leaving the thread unpinned, where the platform lacks the
    affinity calls or one of them fails.
    """
    global _sched_getcpu
    if not hasattr(os, "sched_setaffinity"):
        return None
    if _sched_getcpu is None:
        _sched_getcpu = _lookup_sched_getcpu()
    if not _sched_getcpu:
        return None
    cpu = _sched_getcpu()
    if cpu < 0:
        return None
    try:
        mask = os.sched_getaffinity(0)
        os.sched_setaffinity(0, (cpu,))
    except OSError:
        return None
    return mask


def _switch_to_batch() -> bool:
    """Move the calling thread from ``SCHED_OTHER`` to ``SCHED_BATCH``.

    Returns False, leaving the thread as it was, where the platform lacks
    the policy calls, the thread runs on another policy, or a call fails.
    """
    if not hasattr(os, "sched_setscheduler") or not hasattr(os, "SCHED_BATCH"):
        return False
    try:
        if os.sched_getscheduler(0) != os.SCHED_OTHER:
            return False
        os.sched_setscheduler(0, os.SCHED_BATCH, os.sched_param(0))
    except OSError:
        return False
    return True


def register_internal_file(path: str) -> None:
    """Mark a module file as substrate machinery (excluded from loc labels)."""
    _INTERNAL_FILES.add(os.path.abspath(path))
    _INTERNAL_MEMO.clear()


def _is_internal(filename: str) -> bool:
    flag = _INTERNAL_MEMO.get(filename)
    if flag is None:
        flag = _INTERNAL_MEMO[filename] = os.path.abspath(filename) in _INTERNAL_FILES
    return flag


def call_site() -> str:
    """A stable ``function:line`` label for the program code calling a shim.

    Walks past substrate-internal frames to the user call site, mirroring
    the role of :func:`repro.runtime.executor._derive_loc` for DSL programs:
    identical program points receive identical labels across executions,
    which is what makes abstract events and triage keys stable.
    """
    frame = sys._getframe(1)
    while frame is not None and _is_internal(frame.f_code.co_filename):
        frame = frame.f_back
    if frame is None:  # pragma: no cover - shims are always called from somewhere
        return "?:?"
    key = (frame.f_code, frame.f_lineno)
    label = _LOC_LABELS.get(key)
    if label is None:
        label = _LOC_LABELS[key] = f"{frame.f_code.co_name}:{frame.f_lineno}"
    return label


def frames_from_traceback(tb) -> tuple[str, ...]:
    """Program-code ``function:line`` frames of a real-thread traceback."""
    frames = []
    while tb is not None:
        code = tb.tb_frame.f_code
        if not _is_internal(code.co_filename):
            frames.append(f"{code.co_name}:{tb.tb_lineno}")
        tb = tb.tb_next
    return tuple(frames)


class SubstrateAbort(BaseException):
    """Raised inside a parked real thread to unwind it at teardown.

    Derives from ``BaseException`` so program-level ``except Exception``
    blocks cannot accidentally swallow the teardown signal.
    """


class OpChannel:
    """One real thread's rendezvous with its bridge generator.

    Strict alternation protocol on two raw pre-acquired locks:

    * real thread: store message, release ``_msg_ready``, block acquiring
      ``_reply_ready``;
    * bridge (executor thread): acquire ``_msg_ready``, yield the op, store
      the reply, release ``_reply_ready``.

    ``done`` is released exactly once, when the real OS thread exits; it is
    the join point finalize waits on.
    """

    __slots__ = (
        "ctx",
        "name",
        "aborted",
        "done",
        "finished",
        "in_call",
        "_msg",
        "_reply",
        "_msg_ready",
        "_reply_ready",
    )

    def __init__(self, ctx: "SubstrateContext", name: str):
        self.ctx = ctx
        self.name = name
        self.aborted = False
        self.finished = False
        self.in_call = False
        self._msg: tuple[str, Any] | None = None
        self._reply: tuple[str, Any] | None = None
        self._msg_ready = _thread.allocate_lock()
        self._msg_ready.acquire()
        self._reply_ready = _thread.allocate_lock()
        self._reply_ready.acquire()
        self.done = _thread.allocate_lock()
        self.done.acquire()

    # -- real-thread side ------------------------------------------------
    def call(self, op: ops.Op) -> Any:
        """Submit one op, park until the executor schedules it, return its result."""
        if self.aborted or self.ctx.closed:
            raise SubstrateAbort
        if self.finished:
            # The thread already delivered its final done/crash message; an
            # op can only arrive here from a finalizer running during the
            # thread's own teardown (e.g. the traceback drop after `crash`
            # releases the last reference to a ThreadPoolExecutor, whose
            # weakref callback then pokes its work queue).  Rendezvousing
            # would clobber the pending final message — abort instead; the
            # interpreter suppresses exceptions at finalizer boundaries.
            raise SubstrateAbort
        if self.in_call:
            # An asynchronous callback (weakref finalizer, __del__) fired
            # inside an in-progress rendezvous and reached a shim object.
            # Re-entering would corrupt the strict alternation protocol;
            # refuse instead — the interpreter reports and suppresses the
            # error at the callback boundary.  The cyclic GC is disabled
            # during executions precisely to keep this path unreachable.
            raise RuntimeError(
                "re-entrant substrate operation from an asynchronous callback"
            )
        self.in_call = True
        try:
            self._msg = ("op", op)
            self._msg_ready.release()
            self._reply_ready.acquire()
            kind, payload = self._reply  # type: ignore[misc]
            self._reply = None
        finally:
            self.in_call = False
        if kind == "abort":
            raise SubstrateAbort
        return payload

    def finish(self, value: Any) -> None:
        self.finished = True
        self._msg = ("done", value)
        self._msg_ready.release()

    def crash(self, violation: RuntimeViolation) -> None:
        self.finished = True
        self._msg = ("crash", violation)
        self._msg_ready.release()

    # -- executor (bridge) side ------------------------------------------
    def next_message(self) -> tuple[str, Any]:
        self._msg_ready.acquire()
        msg = self._msg
        self._msg = None
        return msg  # type: ignore[return-value]

    def resume(self, value: Any) -> None:
        self._reply = ("value", value)
        self._reply_ready.release()

    def abort(self) -> None:
        """Unpark the real thread with :class:`SubstrateAbort` (idempotent).

        At teardown every live real thread is parked in ``call`` (the
        executor only tears down between complete rendezvous), so releasing
        the reply lock here hands it the abort; a thread that has already
        exited simply never consumes the token.
        """
        if self.aborted:
            return
        self.aborted = True
        self._reply = ("abort", None)
        try:
            self._reply_ready.release()
        except RuntimeError:  # pragma: no cover - defensive: already released
            pass


class SubstrateContext:
    """Execution-scoped state: channels, patches, naming and the observer.

    One context is created per execution by the ``Program.main`` adapter
    (:mod:`repro.substrate.program`), activated on the executor thread, and
    finalized by the executor's cleanup hook whatever the outcome.
    """

    def __init__(self, name: str):
        self.name = name
        self.closed = False
        self.api = None
        self.channels: list[OpChannel] = []
        self._counters: dict[str, int] = {}
        #: (target object, attribute name, original value) patch undo stack.
        self._patches: list[tuple[Any, str, Any]] = []
        #: Optional shared-memory observer (set by the program adapter).
        self.observer = None
        self._gc_was_enabled = False
        #: The executor thread's CPU mask before activate pinned it.
        self._caller_mask: set[int] | None = None
        #: Whether activate moved the executor thread from ``SCHED_OTHER``
        #: to ``SCHED_BATCH``.
        self._batched = False

    # -- naming ----------------------------------------------------------
    def next_index(self, kind: str) -> int:
        """Deterministic per-kind counter (shim object / thread naming)."""
        index = self._counters.get(kind, 0)
        self._counters[kind] = index + 1
        return index

    # -- activation / teardown -------------------------------------------
    def activate(self, api) -> None:
        """Install the stdlib patches and register teardown with the executor.

        Runs on the executor thread (inside the main generator's first
        advance).  The cleanup is registered *before* patching so a failure
        mid-install is still rolled back.
        """
        global _ACTIVE
        if _ACTIVE is not None:
            raise ProgramError(
                "nested substrate executions are not supported "
                f"(active: {_ACTIVE.name!r}, new: {self.name!r})"
            )
        _ACTIVE = self
        self.api = api
        api.add_cleanup(self.finalize)
        # Pin and switch policy before the bridge starts any real thread, so
        # they all inherit the one-CPU mask and SCHED_BATCH (see the module
        # docstring).
        self._caller_mask = _pin_to_current_cpu()
        if self._caller_mask is not None:
            self._batched = _switch_to_batch()
        # The cyclic collector runs finalizers (TPE weakref wake-ups, __del__)
        # at allocation-dependent moments — nondeterministic across the
        # process and capable of firing *inside* a gate rendezvous.  Pause it
        # for the execution; refcount-zero finalizers still run, but at
        # schedule-deterministic program points between visible ops.
        self._gc_was_enabled = gc.isenabled()
        gc.disable()
        from repro.substrate import shim

        shim.install(self)

    def add_patch(self, target: Any, attr: str, value: Any) -> None:
        """Set ``target.attr = value``, remembering the original for finalize."""
        self._patches.append((target, attr, getattr(target, attr)))
        setattr(target, attr, value)

    def finalize(self) -> None:
        """Abort parked threads, join them, and restore every patch, the GC,
        and the caller's CPU mask and scheduling policy."""
        global _ACTIVE
        self.closed = True
        stuck: list[str] = []
        try:
            for channel in self.channels:
                channel.abort()
            for channel in self.channels:
                if channel.done.acquire(True, JOIN_TIMEOUT):
                    channel.done.release()
                else:  # pragma: no cover - requires a wedged native call
                    stuck.append(channel.name)
        finally:
            while self._patches:
                target, attr, original = self._patches.pop()
                setattr(target, attr, original)
            if self._gc_was_enabled:
                gc.enable()
            if self._caller_mask is not None:
                try:
                    os.sched_setaffinity(0, self._caller_mask)
                except OSError:  # pragma: no cover - a cpuset shrank mid-run
                    pass
                self._caller_mask = None
            if self._batched:
                try:
                    os.sched_setscheduler(0, os.SCHED_OTHER, os.sched_param(0))
                except OSError:  # pragma: no cover - the switch back was refused
                    pass
                self._batched = False
            if _ACTIVE is self:
                _ACTIVE = None
        if stuck:  # pragma: no cover - requires a wedged native call
            raise ProgramError(
                f"substrate threads did not terminate at teardown: {', '.join(stuck)}"
            )

    # -- controlled-thread plumbing --------------------------------------
    def is_controlled(self) -> bool:
        """Whether the *calling* OS thread belongs to this execution."""
        channel = getattr(_TL, "channel", None)
        return (
            channel is not None
            and channel.ctx is self
            and not channel.finished
            and not self.closed
        )

    def call(self, op: ops.Op) -> Any:
        """Submit ``op`` from the calling controlled thread and await its result."""
        channel = getattr(_TL, "channel", None)
        if channel is None or channel.ctx is not self:
            raise RuntimeError(
                "substrate operation outside a controlled thread "
                "(shim objects must not escape the execution)"
            )
        return channel.call(op)

    def bridge(self, fn: Callable[[], Any], name: str) -> Generator[ops.Op, Any, Any]:
        """A program-thread generator forwarding one real thread's ops.

        The OS thread is launched lazily on the generator's first advance,
        which the executor performs synchronously — so user code in the new
        thread never overlaps executor bookkeeping.
        """
        channel = OpChannel(self, name)
        self.channels.append(channel)
        _thread.start_new_thread(self._thread_main, (channel, fn))
        kind, payload = channel.next_message()
        while kind == "op":
            reply = yield payload
            channel.resume(reply)
            kind, payload = channel.next_message()
        if kind == "crash":
            raise payload
        return payload

    def spawn_adapter(self, fn: Callable[[], Any], name: str) -> Callable[..., Any]:
        """A ``SpawnOp.fn`` launching ``fn`` as a bridged real thread."""

        def bridge_fn(api):
            return self.bridge(fn, name)

        bridge_fn.__name__ = name
        return bridge_fn

    # -- the real-thread trampoline --------------------------------------
    def _thread_main(self, channel: OpChannel, fn: Callable[[], Any]) -> None:
        _TL.channel = channel
        observer = self.observer
        tracer = observer.trace_function() if observer is not None else None
        try:
            if tracer is not None:
                sys.settrace(tracer)
            try:
                result = fn()
            finally:
                if tracer is not None:
                    sys.settrace(None)
        except SubstrateAbort:
            pass
        except RuntimeViolation as violation:
            if not violation.frames:
                violation.frames = frames_from_traceback(violation.__traceback__)
            if not self.closed:
                channel.crash(violation)
        except AssertionError as exc:
            # Plain `assert` in real code is the paper's crash oracle.
            if not self.closed:
                violation = AssertionViolation(str(exc) or "assertion failed")
                violation.frames = frames_from_traceback(exc.__traceback__)
                channel.crash(violation)
        except BaseException as exc:  # noqa: BLE001 - converted into a finding
            if not self.closed:
                channel.crash(
                    UncaughtProgramException(
                        type(exc).__name__, str(exc), frames_from_traceback(exc.__traceback__)
                    )
                )
        else:
            if not self.closed:
                channel.finish(result)
        finally:
            _TL.channel = None
            channel.done.release()


def active_context() -> SubstrateContext | None:
    """The process's active substrate context, if an execution is running."""
    return _ACTIVE


def current_channel() -> OpChannel | None:
    """The calling OS thread's channel (None outside controlled threads)."""
    return getattr(_TL, "channel", None)
