"""Stdlib-compatible shims submitting runtime ops through the gate.

Each class here mirrors one ``threading``/``queue`` primitive closely enough
for real concurrent code to run unmodified, while every visible operation is
routed through :meth:`SubstrateContext.call` as an existing runtime op
(``LockOp``, ``WaitOp``, ``SemAcquireOp``, ...).  :func:`install`
monkeypatches the stdlib constructors for the duration of one execution;
code running in *uncontrolled* threads (or outside an execution) always
receives the real primitives, so the patches are invisible to the rest of
the process.

Faithfulness notes (also in docs/API.md):

* Positive timeouts are treated as blocking: ``acquire(timeout=5)`` models
  the untimed acquire.  Deterministic schedules cannot honour wall-clock
  timeouts.  A timeout that has already expired (``0`` or negative, where
  the stdlib accepts it) never blocks: the call is the stdlib's
  non-blocking probe and returns its result (``False``, ``Empty``,
  ``Full``, or at once for ``Thread.join``).  ``Condition.wait`` with an
  expired timeout releases and re-takes the lock and returns ``False``; a
  notify landing between the two is not delivered to it.  ``Barrier.wait``
  ignores its timeout, expired or not.
* Arguments the stdlib refuses (``acquire(False, 1)``, a negative
  ``Lock.acquire`` or ``Queue.get`` timeout, ``release(0)``, ...) raise
  its ``ValueError``.
* Lock misuse (releasing an unheld lock, waiting without the lock) raises
  the same ``RuntimeError`` the stdlib raises — inside the controlled
  thread, so it surfaces as an ``exception`` finding, not a harness error.
* ``threading.Thread`` is patched with a factory, so ``Thread`` *subclasses*
  defined before the execution bind the real class and are not controlled;
  use the ``target=`` style (as ``concurrent.futures`` does).
* Shim objects are execution-scoped: using one after its execution finished
  raises ``RuntimeError``.
"""

from __future__ import annotations

import heapq
import queue as _queue_module
import threading as _threading_module
import time as _time_module
import weakref
from collections import deque
from typing import Any, Callable

from repro.runtime import ops
from repro.runtime.objects import Barrier, CondVar, Mutex, Semaphore, SharedVar
from repro.substrate import gate
from repro.substrate.gate import OpChannel, SubstrateContext, call_site

gate.register_internal_file(__file__)

Empty = _queue_module.Empty
Full = _queue_module.Full


def _expired(timeout: float | None) -> bool:
    """Whether a timeout has run out before the call: a probe, not a wait."""
    return timeout is not None and timeout <= 0


def _lock_blocks(blocking: bool, timeout: float) -> bool:
    """Whether ``Lock.acquire(blocking, timeout)`` may block; raises the
    stdlib's ``ValueError`` for the argument pairs it refuses."""
    if timeout != -1:
        if not blocking:
            raise ValueError("can't specify a timeout for a non-blocking call")
        if timeout < 0:
            raise ValueError("timeout value must be positive")
    return blocking and timeout != 0


def _check_queue_timeout(block: bool, timeout: float | None) -> None:
    """Raise the stdlib's ``ValueError`` for a blocking queue call's
    negative timeout."""
    if block and timeout is not None and timeout < 0:
        raise ValueError("'timeout' must be a non-negative number")


# ----------------------------------------------------------------------
# Locks
# ----------------------------------------------------------------------
class ShimLock:
    """``threading.Lock`` on a runtime :class:`Mutex`.

    Ownership is tracked shim-side (``error_checking=False`` at the runtime
    level) so program-level misuse raises ``RuntimeError`` — a finding —
    instead of aborting the harness.  Like the stdlib lock, any thread may
    release it.
    """

    def __init__(self, ctx: SubstrateContext, name: str | None = None):
        self._ctx = ctx
        self._mutex = Mutex(name or f"py.lock{ctx.next_index('lock')}", error_checking=False)
        self._owner: OpChannel | None = None

    def acquire(self, blocking: bool = True, timeout: float = -1) -> bool:
        loc = call_site()
        if not _lock_blocks(blocking, timeout):
            ok = self._ctx.call(ops.TryLockOp(mutex=self._mutex, loc=loc))
            if ok:
                self._owner = gate.current_channel()
            return ok
        self._ctx.call(ops.LockOp(mutex=self._mutex, loc=loc))
        self._owner = gate.current_channel()
        return True

    def release(self) -> None:
        if self._owner is None:
            raise RuntimeError("release unlocked lock")
        self._owner = None
        self._ctx.call(ops.UnlockOp(mutex=self._mutex, loc=call_site()))

    def locked(self) -> bool:
        return self._mutex.held

    def __enter__(self) -> bool:
        return self.acquire()

    def __exit__(self, *exc: Any) -> None:
        self.release()

    # -- Condition plumbing (atomic release inside WaitOp) ---------------
    def _presuspend(self, channel: OpChannel | None) -> int:
        if channel is None or self._owner is not channel:
            raise RuntimeError("cannot wait on un-acquired lock")
        self._owner = None
        return 1

    def _postresume(self, channel: OpChannel, state: int) -> None:
        self._owner = channel

    def _owned_by(self, channel: OpChannel | None) -> bool:
        return channel is not None and self._owner is channel


class ShimRLock:
    """``threading.RLock``: reentrant acquires stay thread-local (no op)."""

    def __init__(self, ctx: SubstrateContext, name: str | None = None):
        self._ctx = ctx
        self._mutex = Mutex(name or f"py.rlock{ctx.next_index('rlock')}", error_checking=False)
        self._owner: OpChannel | None = None
        self._count = 0

    def acquire(self, blocking: bool = True, timeout: float = -1) -> bool:
        blocks = _lock_blocks(blocking, timeout)
        channel = gate.current_channel()
        if channel is not None and self._owner is channel:
            self._count += 1
            return True
        loc = call_site()
        if not blocks:
            ok = self._ctx.call(ops.TryLockOp(mutex=self._mutex, loc=loc))
            if not ok:
                return False
        else:
            self._ctx.call(ops.LockOp(mutex=self._mutex, loc=loc))
        self._owner = gate.current_channel()
        self._count = 1
        return True

    def release(self) -> None:
        channel = gate.current_channel()
        if channel is None or self._owner is not channel:
            raise RuntimeError("cannot release un-acquired lock")
        self._count -= 1
        if self._count == 0:
            self._owner = None
            self._ctx.call(ops.UnlockOp(mutex=self._mutex, loc=call_site()))

    def __enter__(self) -> bool:
        return self.acquire()

    def __exit__(self, *exc: Any) -> None:
        self.release()

    def _is_owned(self) -> bool:
        return self._owned_by(gate.current_channel())

    def _presuspend(self, channel: OpChannel | None) -> int:
        if channel is None or self._owner is not channel:
            raise RuntimeError("cannot wait on un-acquired lock")
        state = self._count
        self._owner = None
        self._count = 0
        return state

    def _postresume(self, channel: OpChannel, state: int) -> None:
        self._owner = channel
        self._count = state

    def _owned_by(self, channel: OpChannel | None) -> bool:
        return channel is not None and self._owner is channel


class ShimCondition:
    """``threading.Condition`` on a runtime :class:`CondVar`.

    ``wait`` submits a single ``WaitOp`` — the executor releases the lock,
    parks the thread and re-acquires on wakeup atomically, exactly like
    ``pthread_cond_wait`` — so shim-side lock state is saved/restored around
    the suspension.  An expired timeout (``wait(t)`` with ``t <= 0``) is the
    stdlib's failed probe instead: the lock is released and re-taken (an
    ``UnlockOp``, then a ``LockOp``) and ``wait`` returns False; a notify
    landing between the two is not delivered to it.
    """

    def __init__(self, ctx: SubstrateContext, lock: ShimLock | ShimRLock | None = None):
        self._ctx = ctx
        self._lock = lock if lock is not None else ShimRLock(ctx)
        self._cond = CondVar(f"py.cond{ctx.next_index('cond')}")

    def acquire(self, *args: Any, **kwargs: Any) -> bool:
        return self._lock.acquire(*args, **kwargs)

    def release(self) -> None:
        self._lock.release()

    def __enter__(self) -> bool:
        return self._lock.acquire()

    def __exit__(self, *exc: Any) -> None:
        self._lock.release()

    def wait(self, timeout: float | None = None) -> bool:
        channel = gate.current_channel()
        state = self._lock._presuspend(channel)
        mutex = self._lock._mutex
        loc = call_site()
        expired = _expired(timeout)
        if expired:
            self._ctx.call(ops.UnlockOp(mutex=mutex, loc=loc))
            self._ctx.call(ops.LockOp(mutex=mutex, loc=loc))
        else:
            self._ctx.call(ops.WaitOp(cond=self._cond, mutex=mutex, loc=loc))
        self._lock._postresume(channel, state)  # type: ignore[arg-type]
        return not expired

    def wait_for(self, predicate: Callable[[], Any], timeout: float | None = None) -> Any:
        result = predicate()
        while not result:
            self.wait(timeout)
            result = predicate()
            if _expired(timeout):
                break
        return result

    def notify(self, n: int = 1) -> None:
        if not self._lock._owned_by(gate.current_channel()):
            raise RuntimeError("cannot notify on un-acquired lock")
        loc = call_site()
        for _ in range(n):
            self._ctx.call(ops.SignalOp(cond=self._cond, loc=loc))

    def notify_all(self) -> None:
        if not self._lock._owned_by(gate.current_channel()):
            raise RuntimeError("cannot notify on un-acquired lock")
        self._ctx.call(ops.BroadcastOp(cond=self._cond, loc=call_site()))

    notifyAll = notify_all


# ----------------------------------------------------------------------
# Semaphores, events, barriers
# ----------------------------------------------------------------------
class ShimSemaphore:
    """``threading.Semaphore``; non-blocking probes use ``TrySemAcquireOp``."""

    def __init__(self, ctx: SubstrateContext, value: int = 1):
        if value < 0:
            raise ValueError("semaphore initial value must be >= 0")
        self._ctx = ctx
        self._sem = Semaphore(f"py.sem{ctx.next_index('sem')}", init=value)

    def acquire(self, blocking: bool = True, timeout: float | None = None) -> bool:
        if not blocking and timeout is not None:
            raise ValueError("can't specify timeout for non-blocking acquire")
        loc = call_site()
        if not blocking or _expired(timeout):
            return self._ctx.call(ops.TrySemAcquireOp(sem=self._sem, loc=loc))
        self._ctx.call(ops.SemAcquireOp(sem=self._sem, loc=loc))
        return True

    def release(self, n: int = 1) -> None:
        if n < 1:
            raise ValueError("n must be one or more")
        loc = call_site()
        for _ in range(n):
            self._ctx.call(ops.SemReleaseOp(sem=self._sem, loc=loc))

    def __enter__(self) -> bool:
        return self.acquire()

    def __exit__(self, *exc: Any) -> None:
        self.release()


class ShimBoundedSemaphore(ShimSemaphore):
    """``threading.BoundedSemaphore``: over-release raises ``ValueError``."""

    def __init__(self, ctx: SubstrateContext, value: int = 1):
        super().__init__(ctx, value)
        self._initial = value

    def release(self, n: int = 1) -> None:
        if n < 1:
            raise ValueError("n must be one or more")
        # The count read and the check run atomically (between gate ops).
        if self._sem.count + n > self._initial:
            raise ValueError("Semaphore released too many times")
        super().release(n)


class ShimEvent:
    """``threading.Event`` as flag + condvar (the stdlib's own algorithm)."""

    def __init__(self, ctx: SubstrateContext):
        index = ctx.next_index("event")
        self._ctx = ctx
        self._flag = SharedVar(f"py.event{index}", 0)
        self._mutex = Mutex(f"py.event{index}.mutex", error_checking=False)
        self._cond = CondVar(f"py.event{index}.cond")

    def is_set(self) -> bool:
        return bool(self._ctx.call(ops.ReadOp(var=self._flag, loc=call_site())))

    isSet = is_set

    def set(self) -> None:
        loc = call_site()
        call = self._ctx.call
        call(ops.LockOp(mutex=self._mutex, loc=loc))
        call(ops.WriteOp(var=self._flag, value=1, loc=loc))
        call(ops.BroadcastOp(cond=self._cond, loc=loc))
        call(ops.UnlockOp(mutex=self._mutex, loc=loc))

    def clear(self) -> None:
        loc = call_site()
        call = self._ctx.call
        call(ops.LockOp(mutex=self._mutex, loc=loc))
        call(ops.WriteOp(var=self._flag, value=0, loc=loc))
        call(ops.UnlockOp(mutex=self._mutex, loc=loc))

    def wait(self, timeout: float | None = None) -> bool:
        loc = call_site()
        call = self._ctx.call
        call(ops.LockOp(mutex=self._mutex, loc=loc))
        flag = call(ops.ReadOp(var=self._flag, loc=loc))
        if not _expired(timeout):
            while not flag:
                call(ops.WaitOp(cond=self._cond, mutex=self._mutex, loc=loc))
                flag = call(ops.ReadOp(var=self._flag, loc=loc))
        call(ops.UnlockOp(mutex=self._mutex, loc=loc))
        return bool(flag)


class ShimBarrier:
    """``threading.Barrier`` on the runtime's cyclic :class:`Barrier`.

    ``wait`` returns the deterministic arrival index (stdlib promises *some*
    unique index per party; ours is arrival order, stable per schedule).
    """

    def __init__(
        self,
        ctx: SubstrateContext,
        parties: int,
        action: Callable[[], None] | None = None,
        timeout: float | None = None,
    ):
        self._ctx = ctx
        self._barrier = Barrier(f"py.barrier{ctx.next_index('barrier')}", parties)
        self._action = action
        self._arrivals = 0
        self.parties = parties
        self.broken = False

    def wait(self, timeout: float | None = None) -> int:
        index = self._arrivals
        self._arrivals += 1
        if self._arrivals == self.parties:
            self._arrivals = 0
            if self._action is not None:
                # Stdlib runs the action in the last-arriving thread, before
                # any party is released.
                self._action()
        self._ctx.call(ops.BarrierOp(barrier=self._barrier, loc=call_site()))
        return index


# ----------------------------------------------------------------------
# Threads
# ----------------------------------------------------------------------
class ShimThread:
    """``threading.Thread`` (``target=`` style) bridged through ``SpawnOp``.

    ``__hash__`` is a deterministic per-execution counter so that code
    iterating sets of threads (``ThreadPoolExecutor.shutdown``) does so in
    a reproducible order — id-based hashes would leak address randomness
    into schedules.
    """

    def __init__(
        self,
        group: None = None,
        target: Callable[..., Any] | None = None,
        name: str | None = None,
        args: tuple = (),
        kwargs: dict | None = None,
        *,
        daemon: bool | None = None,
        ctx: SubstrateContext,
    ):
        self._ctx = ctx
        self._index = ctx.next_index("thread")
        self._target = target
        self._args = tuple(args)
        self._kwargs = dict(kwargs or {})
        self.name = name or f"Thread-{self._index + 1}"
        self.daemon = bool(daemon) if daemon is not None else False
        self._started = False
        self._handle = None
        #: The started thread's channel, set on the thread itself before
        #: ``run``: ``_handle`` arrives only when ``start()`` returns.
        self._channel: OpChannel | None = None

    def __hash__(self) -> int:
        return self._index

    def start(self) -> None:
        if self._started:
            raise RuntimeError("threads can only be started once")
        loc = call_site()
        self._started = True
        fn = self._ctx.spawn_adapter(self._bootstrap, self.name)
        self._handle = self._ctx.call(ops.SpawnOp(fn=fn, name=self.name, loc=loc))

    def _bootstrap(self) -> None:
        self._channel = gate.current_channel()
        self.run()

    def run(self) -> None:
        if self._target is not None:
            self._target(*self._args, **self._kwargs)

    def join(self, timeout: float | None = None) -> None:
        if not self._started:
            raise RuntimeError("cannot join thread before it is started")
        if self._channel is not None and self._channel is gate.current_channel():
            raise RuntimeError("cannot join current thread")
        if _expired(timeout):
            # The stdlib's probe of a thread that may still run: return at
            # once, at a scheduling point so a polling loop lets it finish.
            self._ctx.call(ops.YieldOp(loc=call_site()))
            return
        self._ctx.call(ops.JoinOp(handle=self._handle, loc=call_site()))

    def is_alive(self) -> bool:
        return self._started and self._handle is not None and not self._handle.finished

    @property
    def ident(self) -> int | None:
        return self._handle.tid if self._handle is not None else None


# ----------------------------------------------------------------------
# Queues
# ----------------------------------------------------------------------
class ShimQueue:
    """``queue.Queue`` re-implemented on runtime mutex + condvars.

    Mirrors the stdlib algorithm (one mutex, ``not_empty``/``not_full``/
    ``all_tasks_done`` conditions) so producers and consumers interleave at
    exactly the synchronization points real code exercises.  Like the
    stdlib, subclasses change the order through the ``_init``/``_put``/
    ``_get`` storage hooks.
    """

    def __init__(self, ctx: SubstrateContext, maxsize: int = 0):
        index = ctx.next_index("queue")
        self._ctx = ctx
        self.maxsize = maxsize
        self._mutex = Mutex(f"py.queue{index}.mutex", error_checking=False)
        self._not_empty = CondVar(f"py.queue{index}.not_empty")
        self._not_full = CondVar(f"py.queue{index}.not_full")
        self._all_done = CondVar(f"py.queue{index}.all_tasks_done")
        self._init()
        self._unfinished = 0

    def _init(self) -> None:
        self._items: Any = deque()

    def _put(self, item: Any) -> None:
        self._items.append(item)

    def _get(self) -> Any:
        return self._items.popleft()

    # -- internal: all ops share the user call site ----------------------
    def put(self, item: Any, block: bool = True, timeout: float | None = None) -> None:
        if not self._ctx.is_controlled():
            # Late uncontrolled touch — e.g. ThreadPoolExecutor's weakref
            # finalizer waking workers after the execution ended.  The gate
            # is gone; mutate raw state instead of raising into a finalizer.
            self._put(item)
            self._unfinished += 1
            return
        if 0 < self.maxsize:
            _check_queue_timeout(block, timeout)
        loc = call_site()
        call = self._ctx.call
        call(ops.LockOp(mutex=self._mutex, loc=loc))
        if 0 < self.maxsize:
            if not block or _expired(timeout):
                if len(self._items) >= self.maxsize:
                    call(ops.UnlockOp(mutex=self._mutex, loc=loc))
                    raise Full
            else:
                while len(self._items) >= self.maxsize:
                    call(ops.WaitOp(cond=self._not_full, mutex=self._mutex, loc=loc))
        self._put(item)
        self._unfinished += 1
        call(ops.SignalOp(cond=self._not_empty, loc=loc))
        call(ops.UnlockOp(mutex=self._mutex, loc=loc))

    def get(self, block: bool = True, timeout: float | None = None) -> Any:
        _check_queue_timeout(block, timeout)
        loc = call_site()
        call = self._ctx.call
        call(ops.LockOp(mutex=self._mutex, loc=loc))
        if not block or _expired(timeout):
            if not self._items:
                call(ops.UnlockOp(mutex=self._mutex, loc=loc))
                raise Empty
        else:
            while not self._items:
                call(ops.WaitOp(cond=self._not_empty, mutex=self._mutex, loc=loc))
        item = self._get()
        call(ops.SignalOp(cond=self._not_full, loc=loc))
        call(ops.UnlockOp(mutex=self._mutex, loc=loc))
        return item

    def put_nowait(self, item: Any) -> None:
        self.put(item, block=False)

    def get_nowait(self) -> Any:
        return self.get(block=False)

    def qsize(self) -> int:
        loc = call_site()
        call = self._ctx.call
        call(ops.LockOp(mutex=self._mutex, loc=loc))
        size = len(self._items)
        call(ops.UnlockOp(mutex=self._mutex, loc=loc))
        return size

    def empty(self) -> bool:
        return self.qsize() == 0

    def full(self) -> bool:
        return 0 < self.maxsize <= self.qsize()

    def task_done(self) -> None:
        loc = call_site()
        call = self._ctx.call
        call(ops.LockOp(mutex=self._mutex, loc=loc))
        unfinished = self._unfinished - 1
        if unfinished < 0:
            call(ops.UnlockOp(mutex=self._mutex, loc=loc))
            raise ValueError("task_done() called too many times")
        self._unfinished = unfinished
        if unfinished == 0:
            call(ops.BroadcastOp(cond=self._all_done, loc=loc))
        call(ops.UnlockOp(mutex=self._mutex, loc=loc))

    def join(self) -> None:
        loc = call_site()
        call = self._ctx.call
        call(ops.LockOp(mutex=self._mutex, loc=loc))
        while self._unfinished:
            call(ops.WaitOp(cond=self._all_done, mutex=self._mutex, loc=loc))
        call(ops.UnlockOp(mutex=self._mutex, loc=loc))


class ShimLifoQueue(ShimQueue):
    """``queue.LifoQueue``: the shim queue over a stack."""

    def _init(self) -> None:
        self._items = []

    def _get(self) -> Any:
        return self._items.pop()


class ShimPriorityQueue(ShimQueue):
    """``queue.PriorityQueue``: the shim queue over a heap, lowest first."""

    def _init(self) -> None:
        self._items = []

    def _put(self, item: Any) -> None:
        heapq.heappush(self._items, item)

    def _get(self) -> Any:
        return heapq.heappop(self._items)


class ShimSimpleQueue:
    """``queue.SimpleQueue``: unbounded, no task tracking (used by TPE)."""

    def __init__(self, ctx: SubstrateContext):
        index = ctx.next_index("squeue")
        self._ctx = ctx
        self._mutex = Mutex(f"py.squeue{index}.mutex", error_checking=False)
        self._not_empty = CondVar(f"py.squeue{index}.not_empty")
        self._items: deque[Any] = deque()

    def put(self, item: Any, block: bool = True, timeout: float | None = None) -> None:
        if not self._ctx.is_controlled():
            self._items.append(item)  # late uncontrolled touch (see ShimQueue.put)
            return
        loc = call_site()
        call = self._ctx.call
        call(ops.LockOp(mutex=self._mutex, loc=loc))
        self._items.append(item)
        call(ops.SignalOp(cond=self._not_empty, loc=loc))
        call(ops.UnlockOp(mutex=self._mutex, loc=loc))

    def get(self, block: bool = True, timeout: float | None = None) -> Any:
        _check_queue_timeout(block, timeout)
        loc = call_site()
        call = self._ctx.call
        call(ops.LockOp(mutex=self._mutex, loc=loc))
        if not block or _expired(timeout):
            if not self._items:
                call(ops.UnlockOp(mutex=self._mutex, loc=loc))
                raise Empty
        else:
            while not self._items:
                call(ops.WaitOp(cond=self._not_empty, mutex=self._mutex, loc=loc))
        item = self._items.popleft()
        call(ops.UnlockOp(mutex=self._mutex, loc=loc))
        return item

    def put_nowait(self, item: Any) -> None:
        self.put(item, block=False)

    def get_nowait(self) -> Any:
        return self.get(block=False)

    def qsize(self) -> int:
        return len(self._items)

    def empty(self) -> bool:
        return not self._items


# ----------------------------------------------------------------------
# Patch window
# ----------------------------------------------------------------------
def _factory(ctx: SubstrateContext, shim_cls: type, real: Any) -> Callable[..., Any]:
    """A constructor returning the shim in controlled threads, else the real."""

    def make(*args: Any, **kwargs: Any) -> Any:
        if ctx.is_controlled():
            return shim_cls(*args, ctx=ctx, **kwargs) if shim_cls is ShimThread else shim_cls(ctx, *args, **kwargs)
        return real(*args, **kwargs)

    make.__name__ = getattr(real, "__name__", "factory")
    return make


def install(ctx: SubstrateContext) -> None:
    """Patch the stdlib for one execution; undone by ``ctx.finalize``.

    Patches are registered through :meth:`SubstrateContext.add_patch`, so a
    failure mid-install is still fully rolled back.
    """
    import concurrent.futures.thread as cf_thread
    from concurrent.futures import _base as cf_base

    patch = ctx.add_patch
    for attr, shim_cls in (
        ("Lock", ShimLock),
        ("RLock", ShimRLock),
        ("Condition", ShimCondition),
        ("Semaphore", ShimSemaphore),
        ("BoundedSemaphore", ShimBoundedSemaphore),
        ("Event", ShimEvent),
        ("Barrier", ShimBarrier),
        ("Thread", ShimThread),
    ):
        patch(_threading_module, attr, _factory(ctx, shim_cls, getattr(_threading_module, attr)))
    for attr, shim_cls in (
        ("Queue", ShimQueue),
        ("LifoQueue", ShimLifoQueue),
        ("PriorityQueue", ShimPriorityQueue),
        ("SimpleQueue", ShimSimpleQueue),
    ):
        patch(_queue_module, attr, _factory(ctx, shim_cls, getattr(_queue_module, attr)))

    real_sleep = _time_module.sleep

    def sleep(seconds: float) -> None:
        if ctx.is_controlled():
            if seconds < 0:
                raise ValueError("sleep length must be non-negative")
            # A scheduling point: deterministic schedules cannot pass time,
            # but sleep() in real code marks exactly the windows racing
            # threads are expected to interleave in.
            ctx.call(ops.YieldOp(loc=call_site()))
        else:
            real_sleep(seconds)

    patch(_time_module, "sleep", sleep)

    # concurrent.futures keeps process-global state that would otherwise
    # couple executions (and real interpreter shutdown) to the harness:
    # give each execution a fresh shutdown lock / flag / thread registry,
    # and silence the worker's BaseException logging, which would fire for
    # every SubstrateAbort at teardown.
    patch(cf_thread, "_global_shutdown_lock", ShimLock(ctx))
    patch(cf_thread, "_shutdown", False)
    patch(cf_thread, "_threads_queues", weakref.WeakKeyDictionary())
    patch(cf_base.LOGGER, "disabled", True)
