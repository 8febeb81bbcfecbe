"""Shared fixtures: small programs used across the test suite."""

from __future__ import annotations

import pytest

from repro.runtime import program


def _writer(t, var, value):
    yield t.write(var, value)


def _setter(t, a, b):
    yield t.write(a, 1)
    yield t.write(b, -1)


def _checker(t, a, b):
    va = yield t.read(a)
    vb = yield t.read(b)
    t.require((va == 0 and vb == 0) or (va == 1 and vb == -1), "reorder violation")


def make_reorder(n: int, mc: bool = False):
    """The paper's Figure 1 program with ``n`` setter threads."""

    @program(f"test/reorder_{n}", bug_kinds=("assertion",), mc_supported=mc)
    def reorder(t):
        a = t.var("a", 0)
        b = t.var("b", 0)
        for _ in range(n):
            yield t.spawn(_setter, a, b)
        yield t.spawn(_checker, a, b)

    return reorder


@pytest.fixture
def fast_retries(monkeypatch):
    """Retry backoff from 0.01 s instead of 0.1 s.  The dispatcher computes
    the backoff, so patching the constant holds under every start method."""
    from repro.harness import pool

    monkeypatch.setattr(pool, "BACKOFF_BASE", 0.01)


@pytest.fixture
def fault_env(tmp_path, monkeypatch, fast_retries):
    """Arm a chaos plan that targets one cell with one worker fault, with
    fast retries; returns the arming helper."""
    from repro.harness import faults

    def arm(tool: str, program: str, trial: int, kind: str = "kill"):
        state = tmp_path / "chaos-state"
        state.mkdir(exist_ok=True)
        plan = faults.ChaosPlan(seed=0, cells={faults.cell_key(tool, program, trial): kind})
        for key, value in plan.to_env(state).items():
            monkeypatch.setenv(key, value)

    return arm


@pytest.fixture
def reorder2():
    return make_reorder(2, mc=True)


@pytest.fixture
def reorder3():
    return make_reorder(3, mc=True)


@program("test/sequential", bug_kinds=())
def sequential_program(t):
    """Single-threaded: writes then reads one variable; never crashes."""
    x = t.var("x", 0)
    yield t.write(x, 1)
    value = yield t.read(x)
    t.require(value == 1)


@pytest.fixture
def sequential():
    return sequential_program


@program("test/racefree", bug_kinds=())
def racefree_program(t):
    """Two threads increment under a lock; the assertion always holds."""

    def worker(t, m, x):
        yield t.lock(m)
        value = yield t.read(x)
        yield t.write(x, value + 1)
        yield t.unlock(m)

    m = t.mutex("m")
    x = t.var("x", 0)
    h1 = yield t.spawn(worker, m, x)
    h2 = yield t.spawn(worker, m, x)
    yield t.join(h1)
    yield t.join(h2)
    total = yield t.read(x)
    t.require(total == 2, "protected increments lost an update")


@pytest.fixture
def racefree():
    return racefree_program


@program("test/racy_counter", bug_kinds=("assertion",))
def racy_counter_program(t):
    """Two unprotected increments: the classic lost update."""

    def worker(t, x):
        value = yield t.read(x)
        yield t.write(x, value + 1)

    x = t.var("x", 0)
    h1 = yield t.spawn(worker, x)
    h2 = yield t.spawn(worker, x)
    yield t.join(h1)
    yield t.join(h2)
    total = yield t.read(x)
    t.require(total == 2, "lost update")


@pytest.fixture
def racy_counter():
    return racy_counter_program


@program("test/abba_deadlock", bug_kinds=("deadlock",))
def abba_program(t):
    """Two mutexes taken in opposite orders: deadlock under one schedule."""

    def one(t, ma, mb):
        yield t.lock(ma)
        yield t.lock(mb)
        yield t.unlock(mb)
        yield t.unlock(ma)

    def two(t, ma, mb):
        yield t.lock(mb)
        yield t.lock(ma)
        yield t.unlock(ma)
        yield t.unlock(mb)

    ma = t.mutex("A")
    mb = t.mutex("B")
    h1 = yield t.spawn(one, ma, mb)
    h2 = yield t.spawn(two, ma, mb)
    yield t.join(h1)
    yield t.join(h2)


@pytest.fixture
def abba_deadlock():
    return abba_program


@program("test/uaf", bug_kinds=("use-after-free", "null-dereference"))
def uaf_program(t):
    """One thread dereferences while the other frees: UAF or null-deref."""

    def user(t, ptr):
        obj = yield t.read(ptr)
        yield t.pause()
        yield t.heap_read(obj, "val")

    def freer(t, ptr, obj):
        yield t.free(obj)
        yield t.write(ptr, None)

    obj = yield t.malloc("node", val=1)
    ptr = t.var("ptr", obj)
    h1 = yield t.spawn(user, ptr)
    h2 = yield t.spawn(freer, ptr, obj)
    yield t.join(h1)
    yield t.join(h2)


@pytest.fixture
def uaf():
    return uaf_program
