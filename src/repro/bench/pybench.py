"""The ``py:`` namespace: real-Python ``threading`` targets.

These are genuine stdlib-concurrent programs — ``threading.Thread``,
``Lock``/``RLock``/``Condition``/``Semaphore``/``Barrier``, ``queue.Queue``
and ``concurrent.futures.ThreadPoolExecutor`` — run under the substrate
(:mod:`repro.substrate`), which serializes their real OS threads through
the deterministic executor.  Each buggy target plants one concurrency bug
reachable by interleaving alone; the two ``*_locked``/``*_buffer`` controls
are correctly synchronized and must never produce a finding.

Shared state is opted into observation with :func:`repro.substrate.track`
(attribute tracking) or ``track_globals`` (the settrace observer for
module-level globals, exercised by ``py:global_counter`` on this module's
own ``_G_COUNT``).

Like ``gen:`` scenarios, ``py:`` programs resolve by *name* through
:func:`repro.bench.registry.get`, which is what makes them first-class
targets for campaigns, parallel workers, replay, triage and the CLI —
every layer rebuilds the identical program from its name.
"""

from __future__ import annotations

import concurrent.futures
import queue
import sys
import threading
import time
from functools import lru_cache

from repro.runtime.program import Program
from repro.substrate import py_program, track

#: Module-level global for the settrace-observer target.
_G_COUNT = 0


class _Cell:
    """A plain attribute bag; targets opt instances in via ``track``."""


# ----------------------------------------------------------------------
# Targets (entry per program; each entry owns all of its state)
# ----------------------------------------------------------------------
def _counter_race() -> None:
    """Unlocked read-modify-write on a shared counter (lost update)."""
    c = track(_Cell(), "counter")
    c.value = 0

    def worker():
        for _ in range(2):
            v = c.value
            c.value = v + 1

    workers = [threading.Thread(target=worker) for _ in range(2)]
    for t in workers:
        t.start()
    for t in workers:
        t.join()
    assert c.value == 4, f"lost update: counter is {c.value}, expected 4"


def _counter_locked() -> None:
    """Control: the same counter with the increment under a lock."""
    c = track(_Cell(), "counter")
    c.value = 0
    lock = threading.Lock()

    def worker():
        for _ in range(2):
            with lock:
                c.value = c.value + 1

    workers = [threading.Thread(target=worker) for _ in range(2)]
    for t in workers:
        t.start()
    for t in workers:
        t.join()
    assert c.value == 4, f"locked counter is {c.value}, expected 4"


def _dcl_singleton() -> None:
    """Unsafe publication: the instance escapes before initialization."""
    h = track(_Cell(), "holder")
    h.obj = None
    h.ready = 0
    lock = threading.Lock()

    def writer():
        with lock:
            if h.obj is None:
                h.obj = object()  # published...
                h.ready = 1  # ...before initialization completes

    def reader():
        if h.obj is not None:  # unsynchronized fast path
            assert h.ready == 1, "observed a published but uninitialized singleton"

    t1 = threading.Thread(target=writer)
    t2 = threading.Thread(target=reader)
    t1.start()
    t2.start()
    t1.join()
    t2.join()


def _queue_toctou() -> None:
    """``empty()`` check then ``get_nowait()``: classic check-then-act."""
    q = queue.Queue()
    for item in range(2):
        q.put(item)
    go = threading.Event()

    def consumer():
        go.wait()
        while not q.empty():  # the check and the get are not atomic
            q.get_nowait()  # raises queue.Empty when raced

    consumers = [threading.Thread(target=consumer) for _ in range(2)]
    for t in consumers:
        t.start()
    go.set()
    for t in consumers:
        t.join()


def _abba_deadlock() -> None:
    """Two locks taken in opposite orders."""
    a = threading.Lock()
    b = threading.Lock()

    def one():
        with a:
            with b:
                pass

    def two():
        with b:
            with a:
                pass

    t1 = threading.Thread(target=one)
    t2 = threading.Thread(target=two)
    t1.start()
    t2.start()
    t1.join()
    t2.join()


def _bounded_buffer() -> None:
    """Control: condition-variable producer/consumer, correctly guarded."""
    buf: list[int] = []
    cond = threading.Condition()
    consumed: list[int] = []

    def producer():
        for item in range(3):
            with cond:
                while len(buf) >= 2:
                    cond.wait()
                buf.append(item)
                cond.notify_all()

    def consumer():
        for _ in range(3):
            with cond:
                while not buf:
                    cond.wait()
                consumed.append(buf.pop(0))
                cond.notify_all()

    t1 = threading.Thread(target=producer)
    t2 = threading.Thread(target=consumer)
    t1.start()
    t2.start()
    t1.join()
    t2.join()
    assert consumed == [0, 1, 2], f"buffer reordered items: {consumed}"


def _lost_signal() -> None:
    """The flag is checked outside the lock, so the notify can be lost."""
    cond = threading.Condition(threading.Lock())
    state = track(_Cell(), "state")
    state.ready = 0

    def consumer():
        if not state.ready:  # checked outside the lock (the bug)
            with cond:
                cond.wait()  # waits forever if the signal already fired

    def producer():
        with cond:
            state.ready = 1
            cond.notify()

    t1 = threading.Thread(target=consumer)
    t2 = threading.Thread(target=producer)
    t1.start()
    t2.start()
    t1.join()
    t2.join()


def _fanin_futures() -> None:
    """ThreadPoolExecutor workers race an unlocked accumulator."""
    c = track(_Cell(), "sum")
    c.value = 0

    def add(n):
        v = c.value
        c.value = v + n
        return n

    with concurrent.futures.ThreadPoolExecutor(
        max_workers=2, thread_name_prefix="pool"
    ) as pool:
        futures = [pool.submit(add, n) for n in (1, 2, 3)]
        total = sum(f.result() for f in futures)
    assert total == 6, f"futures lost a result: {total}"
    assert c.value == 6, f"lost update in pool: {c.value}, expected 6"


def _barrier_phase() -> None:
    """One party reads the other's slot on the wrong side of the barrier."""
    bar = threading.Barrier(2)
    slots = track(_Cell(), "slots")
    slots.a = None
    slots.b = None

    def left():
        slots.a = "A"
        bar.wait()
        assert slots.b == "B", "left saw the slot before right wrote it"

    def right():
        peeked = slots.a  # read before the barrier (the bug)
        bar.wait()
        slots.b = "B"
        assert peeked == "A", "right peeked before left wrote"

    t1 = threading.Thread(target=left)
    t2 = threading.Thread(target=right)
    t1.start()
    t2.start()
    t1.join()
    t2.join()


def _rlock_cache() -> None:
    """Version stamped before the value, and read outside the lock."""
    lock = threading.RLock()
    cache = track(_Cell(), "cache")
    cache.value = 0
    cache.version = 0

    def _store(n):
        with lock:  # reentrant: refresh already holds it
            cache.value = n

    def refresh():
        for n in (1, 2):
            cache.version = n  # stamped outside the lock, before the value
            with lock:
                _store(n)

    def check():
        ver = cache.version  # read without the lock
        with lock:
            val = cache.value
        assert ver <= val, f"version {ver} ahead of value {val}"

    t1 = threading.Thread(target=refresh)
    t2 = threading.Thread(target=check)
    t1.start()
    t2.start()
    t1.join()
    t2.join()


def _sem_pool() -> None:
    """The resource is touched before the permit is acquired."""
    sem = threading.BoundedSemaphore(1)
    res = track(_Cell(), "res")
    res.busy = 0

    def worker():
        res.busy = res.busy + 1  # before acquire (the bug)
        sem.acquire()
        assert res.busy <= 1, f"pool overcommitted: {res.busy} users of 1 permit"
        res.busy = res.busy - 1
        sem.release()

    workers = [threading.Thread(target=worker) for _ in range(2)]
    for t in workers:
        t.start()
    for t in workers:
        t.join()


def _global_counter() -> None:
    """Unlocked ``+=`` on a module-level global (settrace observer)."""
    global _G_COUNT
    _G_COUNT = 0

    def worker():
        global _G_COUNT
        for _ in range(2):
            _G_COUNT += 1

    workers = [threading.Thread(target=worker) for _ in range(2)]
    for t in workers:
        t.start()
    for t in workers:
        t.join()
    assert _G_COUNT == 4, f"lost global update: {_G_COUNT}, expected 4"


def _single_notify() -> None:
    """``notify()`` where ``notify_all()`` is needed: one waiter starves."""
    cond = threading.Condition()
    state = track(_Cell(), "state")
    state.ready = 0

    def consumer():
        with cond:
            while not state.ready:
                cond.wait()

    def producer():
        with cond:
            state.ready = 1
            cond.notify()  # wakes only one of the two waiters (the bug)

    threads = [
        threading.Thread(target=consumer),
        threading.Thread(target=consumer),
        threading.Thread(target=producer),
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join()


_ = (sys, time)  # imported for targets' use under patching; keep linters quiet


@lru_cache(maxsize=1)
def py_programs() -> dict[str, Program]:
    """Every ``py:`` target, keyed by its full registry name."""
    this_module = sys.modules[__name__]
    entries = [
        py_program(
            "py:counter_race",
            _counter_race,
            bug_kinds=("assertion",),
            description="unlocked shared counter loses an update",
        ),
        py_program(
            "py:counter_locked",
            _counter_locked,
            description="control: lock-guarded counter, no bug",
        ),
        py_program(
            "py:dcl_singleton",
            _dcl_singleton,
            bug_kinds=("assertion",),
            description="instance published before initialization",
        ),
        py_program(
            "py:queue_toctou",
            _queue_toctou,
            bug_kinds=("exception",),
            description="queue.empty() check races get_nowait()",
        ),
        py_program(
            "py:abba_deadlock",
            _abba_deadlock,
            bug_kinds=("deadlock",),
            description="two locks acquired in opposite orders",
        ),
        py_program(
            "py:bounded_buffer",
            _bounded_buffer,
            description="control: condition-guarded producer/consumer, no bug",
        ),
        py_program(
            "py:lost_signal",
            _lost_signal,
            bug_kinds=("deadlock",),
            description="flag checked outside the lock loses the notify",
        ),
        py_program(
            "py:fanin_futures",
            _fanin_futures,
            bug_kinds=("assertion",),
            description="ThreadPoolExecutor workers race an accumulator",
        ),
        py_program(
            "py:barrier_phase",
            _barrier_phase,
            bug_kinds=("assertion",),
            description="slot read on the wrong side of a barrier",
        ),
        py_program(
            "py:rlock_cache",
            _rlock_cache,
            bug_kinds=("assertion",),
            description="version stamped before value under a reentrant lock",
        ),
        py_program(
            "py:sem_pool",
            _sem_pool,
            bug_kinds=("assertion",),
            description="resource touched before the semaphore permit",
        ),
        py_program(
            "py:global_counter",
            _global_counter,
            bug_kinds=("assertion",),
            description="unlocked += on a module global (settrace observer)",
            track_globals=[(this_module, {"_G_COUNT"})],
        ),
        py_program(
            "py:single_notify",
            _single_notify,
            bug_kinds=("deadlock",),
            description="notify() instead of notify_all() starves a waiter",
        ),
    ]
    return {prog.name: prog for prog in entries}


def py_names() -> list[str]:
    """All ``py:`` target names, alphabetical."""
    return sorted(py_programs())


def get(name: str) -> Program:
    """Resolve one ``py:`` name; unknown names get a did-you-mean KeyError."""
    programs = py_programs()
    prog = programs.get(name)
    if prog is None:
        import difflib

        close = difflib.get_close_matches(name, programs, n=3, cutoff=0.4)
        hint = f"; did you mean: {', '.join(close)}?" if close else ""
        raise KeyError(
            f"unknown real-Python target {name!r}{hint} "
            f"(see repro.bench.pybench.py_names())"
        )
    return prog
