"""Operation vocabulary yielded by program threads.

A program thread is a generator that ``yield``\\ s exactly one :class:`Op`
per visible event; the executor performs the operation, records an event and
resumes the generator with the operation's result (for reads, the value
read).  This is the cooperative-yield equivalent of the paper's per-event
``on_event()`` instrumentation hook (Section 4.1): every yield is a
serialization point at which the scheduler policy chooses the next thread.

Each operation carries:

* ``category`` — how the event participates in the reads-from relation:
  ``"read"`` events consume a value, ``"write"`` events produce one, and
  ``"rmw"`` events (lock acquire, atomic fetch-and-op, semaphore ops) do
  both.  ``"other"`` events (spawn, join, yield) are ordered but carry no
  reads-from edge.
* ``loc`` — an optional explicit code-location label; when omitted the
  executor derives a stable ``function:line`` label from the generator frame,
  playing the role of the source location ``l`` in abstract events
  ``op(x)@l``.
* ``location`` — the memory location ``x`` the operation acts on, computed
  once in ``__init__`` instead of once per executor enabled-set scan.
  Derived purely from immutable object names, so the value is identical no
  matter when it is read.
* ``writes`` — whether executing the op performs a write for reads-from
  purposes: ``True``/``False`` when statically known, ``None`` when it
  depends on the runtime result (``cas``/``trylock`` succeed or fail).

Ops are hand-written slotted classes rather than dataclasses, as for
:class:`~repro.core.events.Event` and
:class:`~repro.runtime.executor.Candidate`: every visible step builds one,
the dataclass ``__init__`` and its ``__post_init__`` call made each
construction a fifth to a third slower, and building the dataclasses took
most of this module's import time.  Each ``__init__`` takes the fields
positionally or by keyword, in the order the ``__slots__`` list them, plus
a keyword-only ``loc``.  The object an op's location comes from (``var``,
``mutex``, ``cond``, ``sem`` or ``barrier``) is required.  Ops compare by
identity; nothing compares them by value.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type hints
    from repro.runtime.objects import Barrier, CondVar, HeapObject, Mutex, Semaphore, SharedVar
    from repro.runtime.thread import ThreadHandle


class Op:
    """Base class for all operations; never yielded directly."""

    __slots__ = ("loc", "location")

    #: Operation kind name used in events and abstract events.
    kind = "op"
    #: Reads-from participation: "read", "write", "rmw" or "other".
    category = "other"
    #: True when executing this operation may block the thread.
    may_block = False
    #: Reads-from write participation: True/False, or None when it depends
    #: on the runtime value (cas/trylock success).
    writes = False

    def __repr__(self) -> str:
        # ``loc`` first, then the concrete class's fields in __init__ order.
        cls = type(self)
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in ("loc", *cls.__slots__))
        return f"{cls.__qualname__}({fields})"


class ReadOp(Op):
    """Read a shared variable; the yield expression evaluates to the value."""

    __slots__ = ("var",)

    kind = "r"
    category = "read"

    def __init__(self, var: SharedVar, *, loc: str | None = None) -> None:
        self.var = var
        self.loc = loc
        self.location = var.location


class WriteOp(Op):
    """Write ``value`` to a shared variable."""

    __slots__ = ("var", "value")

    kind = "w"
    category = "write"
    writes = True

    def __init__(self, var: SharedVar, value: Any = None, *, loc: str | None = None) -> None:
        self.var = var
        self.value = value
        self.loc = loc
        self.location = var.location


class RmwOp(Op):
    """Atomic read-modify-write: ``var.value = func(old)``; yields ``old``.

    Models atomic increments, compare-and-swap and similar primitives used
    heavily by the SafeStack and work-stealing-queue benchmarks.
    """

    __slots__ = ("var", "func")

    kind = "rmw"
    category = "rmw"
    writes = True

    def __init__(
        self, var: SharedVar, func: Callable[[Any], Any] = None, *, loc: str | None = None
    ) -> None:
        self.var = var
        self.func = func
        self.loc = loc
        self.location = var.location


class CasOp(Op):
    """Compare-and-swap: if ``var == expected`` set ``new``; yields success bool."""

    __slots__ = ("var", "expected", "new")

    kind = "cas"
    category = "rmw"
    writes = None  # depends on whether the CAS succeeded

    def __init__(
        self, var: SharedVar, expected: Any = None, new: Any = None, *, loc: str | None = None
    ) -> None:
        self.var = var
        self.expected = expected
        self.new = new
        self.loc = loc
        self.location = var.location


class LockOp(Op):
    """Acquire a mutex; blocks while another thread holds it."""

    __slots__ = ("mutex",)

    kind = "lock"
    category = "rmw"
    may_block = True
    writes = True

    def __init__(self, mutex: Mutex, *, loc: str | None = None) -> None:
        self.mutex = mutex
        self.loc = loc
        self.location = mutex.location


class TryLockOp(Op):
    """Attempt to acquire a mutex without blocking; yields success bool."""

    __slots__ = ("mutex",)

    kind = "trylock"
    category = "rmw"
    writes = None  # depends on whether the acquisition succeeded

    def __init__(self, mutex: Mutex, *, loc: str | None = None) -> None:
        self.mutex = mutex
        self.loc = loc
        self.location = mutex.location


class UnlockOp(Op):
    """Release a mutex held by the calling thread."""

    __slots__ = ("mutex",)

    kind = "unlock"
    category = "write"
    writes = True

    def __init__(self, mutex: Mutex, *, loc: str | None = None) -> None:
        self.mutex = mutex
        self.loc = loc
        self.location = mutex.location


class WaitOp(Op):
    """Condition-variable wait: atomically release ``mutex`` and block.

    On wakeup (via signal/broadcast) the thread re-acquires ``mutex`` before
    the yield returns, exactly like ``pthread_cond_wait``.
    """

    __slots__ = ("cond", "mutex")

    kind = "wait"
    category = "rmw"
    may_block = True
    writes = True

    def __init__(self, cond: CondVar, mutex: Mutex, *, loc: str | None = None) -> None:
        self.cond = cond
        self.mutex = mutex
        self.loc = loc
        self.location = cond.location


class SignalOp(Op):
    """Wake one waiter (FIFO) of a condition variable, if any."""

    __slots__ = ("cond",)

    kind = "signal"
    category = "write"
    writes = True

    def __init__(self, cond: CondVar, *, loc: str | None = None) -> None:
        self.cond = cond
        self.loc = loc
        self.location = cond.location


class BroadcastOp(Op):
    """Wake every waiter of a condition variable."""

    __slots__ = ("cond",)

    kind = "broadcast"
    category = "write"
    writes = True

    def __init__(self, cond: CondVar, *, loc: str | None = None) -> None:
        self.cond = cond
        self.loc = loc
        self.location = cond.location


class SemAcquireOp(Op):
    """Decrement a semaphore; blocks while the count is zero."""

    __slots__ = ("sem",)

    kind = "sem_acquire"
    category = "rmw"
    may_block = True
    writes = True

    def __init__(self, sem: Semaphore, *, loc: str | None = None) -> None:
        self.sem = sem
        self.loc = loc
        self.location = sem.location


class TrySemAcquireOp(Op):
    """Attempt to decrement a semaphore without blocking; yields success bool.

    The non-blocking analogue of :class:`SemAcquireOp`, mirroring
    ``threading.Semaphore.acquire(blocking=False)`` (used by the real-Python
    substrate to model e.g. ``ThreadPoolExecutor``'s idle-worker probe).
    """

    __slots__ = ("sem",)

    kind = "trysem"
    category = "rmw"
    writes = None  # depends on whether the acquisition succeeded

    def __init__(self, sem: Semaphore, *, loc: str | None = None) -> None:
        self.sem = sem
        self.loc = loc
        self.location = sem.location


class SemReleaseOp(Op):
    """Increment a semaphore, enabling one blocked acquirer."""

    __slots__ = ("sem",)

    kind = "sem_release"
    category = "write"
    writes = True

    def __init__(self, sem: Semaphore, *, loc: str | None = None) -> None:
        self.sem = sem
        self.loc = loc
        self.location = sem.location


class BarrierOp(Op):
    """Arrive at a barrier; blocks until all parties arrive."""

    __slots__ = ("barrier",)

    kind = "barrier"
    category = "rmw"
    may_block = True
    writes = True

    def __init__(self, barrier: Barrier, *, loc: str | None = None) -> None:
        self.barrier = barrier
        self.loc = loc
        self.location = barrier.location


class SpawnOp(Op):
    """Create a new thread running ``fn(api, *args)``; yields a ThreadHandle."""

    __slots__ = ("fn", "args", "name")

    kind = "spawn"
    category = "other"

    def __init__(
        self,
        fn: Callable[..., Any] = None,
        args: tuple = (),
        name: str | None = None,
        *,
        loc: str | None = None,
    ) -> None:
        self.fn = fn
        self.args = args
        self.name = name
        self.loc = loc
        self.location = "thread:spawn"


class JoinOp(Op):
    """Block until the target thread finishes."""

    __slots__ = ("handle",)

    kind = "join"
    category = "other"
    may_block = True

    def __init__(self, handle: ThreadHandle = None, *, loc: str | None = None) -> None:
        self.handle = handle
        self.loc = loc
        self.location = "thread:join"


class YieldOp(Op):
    """A pure scheduling point with no memory effect."""

    __slots__ = ()

    kind = "yield"
    category = "other"

    def __init__(self, *, loc: str | None = None) -> None:
        self.loc = loc
        self.location = "sched:yield"


class MallocOp(Op):
    """Allocate a heap object at allocation site ``site``; yields the object."""

    __slots__ = ("site", "fields")

    kind = "malloc"
    category = "other"

    def __init__(
        self, site: str = "obj", fields: dict[str, Any] | None = None, *, loc: str | None = None
    ) -> None:
        self.site = site
        self.fields = fields
        self.loc = loc
        self.location = f"heapsite:{site}"


class FreeOp(Op):
    """Free a heap object; double frees raise :class:`DoubleFree`."""

    __slots__ = ("obj",)

    kind = "free"
    category = "write"
    writes = True

    def __init__(self, obj: HeapObject | None = None, *, loc: str | None = None) -> None:
        self.obj = obj
        self.loc = loc
        self.location = f"heap:{obj.name}" if obj is not None else "heap:<null>"


class HeapReadOp(Op):
    """Read a field of a heap object; UAF / null-deref oracles apply."""

    __slots__ = ("obj", "field_name")

    kind = "hr"
    category = "read"

    def __init__(
        self, obj: HeapObject | None = None, field_name: str = "val", *, loc: str | None = None
    ) -> None:
        self.obj = obj
        self.field_name = field_name
        self.loc = loc
        self.location = obj.location_of(field_name) if obj is not None else "heap:<null>"


class HeapWriteOp(Op):
    """Write a field of a heap object; UAF / null-deref oracles apply."""

    __slots__ = ("obj", "field_name", "value")

    kind = "hw"
    category = "write"
    writes = True

    def __init__(
        self,
        obj: HeapObject | None = None,
        field_name: str = "val",
        value: Any = None,
        *,
        loc: str | None = None,
    ) -> None:
        self.obj = obj
        self.field_name = field_name
        self.value = value
        self.loc = loc
        self.location = obj.location_of(field_name) if obj is not None else "heap:<null>"
