"""Executor behaviour: event recording, reads-from edges, op semantics."""

from __future__ import annotations

import pytest

from repro.runtime import ProgramError, program, run_program
from repro.runtime.executor import Executor
from repro.schedulers import RandomWalkPolicy, ReplayPolicy


def run_seq(prog, **kwargs):
    """Run a program under a deterministic single-choice-friendly policy."""
    return run_program(prog, RandomWalkPolicy(0), **kwargs)


class TestSequentialExecution:
    def test_single_thread_completes(self, sequential):
        result = run_seq(sequential)
        assert not result.crashed
        assert not result.truncated

    def test_events_have_dense_ids(self, sequential):
        result = run_seq(sequential)
        assert [e.eid for e in result.trace.events] == list(range(1, len(result.trace) + 1))

    def test_read_observes_prior_write(self, sequential):
        result = run_seq(sequential)
        write = next(e for e in result.trace if e.kind == "w")
        read = next(e for e in result.trace if e.kind == "r")
        assert read.rf == write.eid

    def test_read_of_untouched_var_observes_initial_pseudo_write(self):
        @program("t/read_init")
        def prog(t):
            x = t.var("x", 9)
            value = yield t.read(x)
            t.require(value == 9)

        result = run_seq(prog)
        read = next(e for e in result.trace if e.kind == "r")
        assert read.rf == 0

    def test_schedule_records_thread_ids(self, sequential):
        result = run_seq(sequential)
        assert result.schedule == [0] * len(result.trace)

    def test_loc_labels_are_function_and_line(self, sequential):
        result = run_seq(sequential)
        for event in result.trace:
            func, _, line = event.loc.partition(":")
            assert func == "sequential_program"
            assert line.isdigit()


class TestValuesAndRmw:
    def test_rmw_returns_old_value(self):
        @program("t/rmw")
        def prog(t):
            x = t.var("x", 10)
            old = yield t.rmw(x, lambda v: v + 5)
            t.require(old == 10)
            now = yield t.read(x)
            t.require(now == 15)

        assert not run_seq(prog).crashed

    def test_add_helper(self):
        @program("t/add")
        def prog(t):
            x = t.var("x", 1)
            old = yield t.add(x, 3)
            t.require(old == 1)
            now = yield t.read(x)
            t.require(now == 4)

        assert not run_seq(prog).crashed

    def test_cas_success_and_failure(self):
        @program("t/cas")
        def prog(t):
            x = t.var("x", 0)
            ok = yield t.cas(x, 0, 7)
            t.require(ok)
            bad = yield t.cas(x, 0, 9)
            t.require(not bad)
            now = yield t.read(x)
            t.require(now == 7)

        assert not run_seq(prog).crashed

    def test_failed_cas_is_not_a_write(self):
        @program("t/cas_rf")
        def prog(t):
            x = t.var("x", 0)
            yield t.write(x, 1)
            yield t.cas(x, 99, 5)  # fails
            yield t.read(x)

        result = run_seq(prog)
        read = result.trace.events[-1]
        write = result.trace.events[0]
        assert read.rf == write.eid  # still observes the write, not the CAS


class TestSpawnJoin:
    def test_spawn_returns_handle_and_join_waits(self):
        @program("t/spawnjoin")
        def prog(t):
            def child(t, x):
                yield t.write(x, 5)

            x = t.var("x", 0)
            handle = yield t.spawn(child, x)
            yield t.join(handle)
            value = yield t.read(x)
            t.require(value == 5)

        assert not run_seq(prog).crashed

    def test_join_blocks_until_child_finishes(self):
        # Under every schedule, the post-join read sees the child's write.
        @program("t/join_blocks")
        def prog(t):
            def child(t, x):
                yield t.pause()
                yield t.write(x, 1)

            x = t.var("x", 0)
            handle = yield t.spawn(child, x)
            yield t.join(handle)
            value = yield t.read(x)
            t.require(value == 1)

        for seed in range(20):
            assert not run_program(prog, RandomWalkPolicy(seed)).crashed

    def test_spawning_non_generator_is_program_error(self):
        @program("t/badspawn")
        def prog(t):
            yield t.spawn(lambda t: 42)

        with pytest.raises(ProgramError):
            run_seq(prog)

    def test_thread_ids_assigned_in_spawn_order(self):
        @program("t/tids")
        def prog(t):
            def child(t):
                yield t.pause()

            h1 = yield t.spawn(child)
            h2 = yield t.spawn(child)
            t.require(h1.tid == 1 and h2.tid == 2)

        assert not run_seq(prog).crashed


class TestCrashRecording:
    def test_assertion_failure_sets_outcome(self):
        @program("t/fail")
        def prog(t):
            yield t.pause()
            t.fail("boom")

        result = run_seq(prog)
        assert result.crashed
        assert result.outcome == "assertion"
        assert "boom" in result.trace.failure

    def test_trace_preserved_up_to_crash(self):
        @program("t/fail2")
        def prog(t):
            x = t.var("x", 0)
            yield t.write(x, 1)
            yield t.write(x, 2)
            t.fail("late")

        result = run_seq(prog)
        assert [e.kind for e in result.trace] == ["w", "w"]


class TestStepBound:
    def test_spin_loop_truncates(self):
        @program("t/spin")
        def prog(t):
            x = t.var("x", 0)
            while True:
                yield t.read(x)

        result = run_program(prog, RandomWalkPolicy(0), max_steps=50)
        assert result.truncated
        assert result.steps == 50
        assert not result.crashed


class TestApiMisuse:
    def test_duplicate_object_names_rejected(self):
        @program("t/dup")
        def prog(t):
            t.var("x", 0)
            t.var("x", 1)
            yield t.pause()

        with pytest.raises(ProgramError):
            run_seq(prog)

    def test_unlocking_unowned_mutex_is_program_error(self):
        @program("t/badunlock")
        def prog(t):
            m = t.mutex("m")
            yield t.unlock(m)

        with pytest.raises(ProgramError):
            run_seq(prog)

    def test_non_error_checking_mutex_tolerates_it(self):
        @program("t/sloppy")
        def prog(t):
            m = t.mutex("m", error_checking=False)
            yield t.unlock(m)

        assert not run_seq(prog).crashed

    def test_yielding_non_op_is_program_error(self):
        @program("t/badyield")
        def prog(t):
            yield 42

        with pytest.raises(ProgramError):
            run_seq(prog)


class TestReplay:
    def test_replay_reproduces_crash(self, racy_counter):
        crashing = None
        for seed in range(200):
            result = run_program(racy_counter, RandomWalkPolicy(seed))
            if result.crashed:
                crashing = result
                break
        assert crashing is not None, "racy counter should crash under some schedule"
        replayed = run_program(racy_counter, ReplayPolicy(crashing.schedule))
        assert replayed.crashed
        assert replayed.outcome == crashing.outcome
        assert replayed.schedule == crashing.schedule

    def test_replay_reports_divergence_on_bogus_schedule(self, racy_counter):
        policy = ReplayPolicy([99, 99, 99])
        result = run_program(racy_counter, policy)
        assert policy.diverged == 0
        assert not result.truncated


class TestCandidate:
    """``Candidate`` is a slotted class that behaves like the frozen
    dataclass it replaced."""

    @staticmethod
    def former():
        from dataclasses import dataclass

        @dataclass(frozen=True)
        class Candidate:
            tid: int
            kind: str
            location: str
            loc: str

            def __str__(self) -> str:
                return f"T{self.tid}:{self.kind}({self.location})@{self.loc}"

        Candidate.__qualname__ = "Candidate"  # as at module level
        return Candidate

    SAMPLES = [
        (0, "w", "var:x", "main:3"),
        (1, "lock", "mutex:m", "worker:12"),
        (12, "flush", "var:y'", "tso:flush"),
        (3, "join", "thread:T1", "?:?"),
    ]

    def test_eq_hash_repr_str_match_the_former_dataclass(self):
        from repro.runtime.executor import Candidate

        Former = self.former()
        for fields in self.SAMPLES:
            new, old = Candidate(*fields), Former(*fields)
            assert repr(new) == repr(old)
            assert repr(new) == "Candidate(tid={!r}, kind={!r}, location={!r}, loc={!r})".format(*fields)
            assert str(new) == str(old)
            assert hash(new) == hash(old)
            assert new == Candidate(*fields) and not new != Candidate(*fields)
            for other in self.SAMPLES:
                assert (new == Candidate(*other)) == (old == Former(*other))
            # Like the dataclass, equality needs the same class.
            assert new != old and new != fields

    def test_abstract_is_interned_and_not_part_of_equality(self):
        from repro.core.events import intern_abstract
        from repro.runtime.executor import Candidate

        candidate = Candidate(1, "lock", "mutex:m", "worker:12")
        assert candidate.abstract is intern_abstract("lock", "mutex:m", "worker:12")
        assert candidate == Candidate(1, "lock", "mutex:m", "worker:12")
        assert {candidate: 1}[Candidate(1, "lock", "mutex:m", "worker:12")] == 1


class TestOpVocabulary:
    """The ops are slotted classes; construction, fields, derived attributes
    and repr match the dataclasses they replaced."""

    @staticmethod
    def table():
        """(class, fields in positional order, (location, kind, category,
        may_block, writes)); the expected tuples were recorded from the
        former dataclasses."""
        from repro.runtime import ops
        from repro.runtime.objects import Barrier, CondVar, HeapObject, Mutex, Semaphore, SharedVar

        var, mutex, cond = SharedVar("x"), Mutex("m"), CondVar("c")
        sem, barrier, heap = Semaphore("s", 1), Barrier("b", 2), HeapObject("node", {"val": 0})
        handle = object()
        return [
            (ops.ReadOp, {"var": var}, ("var:x", "r", "read", False, False)),
            (ops.WriteOp, {"var": var, "value": 7}, ("var:x", "w", "write", False, True)),
            (ops.RmwOp, {"var": var, "func": abs}, ("var:x", "rmw", "rmw", False, True)),
            (ops.CasOp, {"var": var, "expected": 0, "new": 1}, ("var:x", "cas", "rmw", False, None)),
            (ops.LockOp, {"mutex": mutex}, ("mutex:m", "lock", "rmw", True, True)),
            (ops.TryLockOp, {"mutex": mutex}, ("mutex:m", "trylock", "rmw", False, None)),
            (ops.UnlockOp, {"mutex": mutex}, ("mutex:m", "unlock", "write", False, True)),
            (ops.WaitOp, {"cond": cond, "mutex": mutex}, ("cond:c", "wait", "rmw", True, True)),
            (ops.SignalOp, {"cond": cond}, ("cond:c", "signal", "write", False, True)),
            (ops.BroadcastOp, {"cond": cond}, ("cond:c", "broadcast", "write", False, True)),
            (ops.SemAcquireOp, {"sem": sem}, ("sem:s", "sem_acquire", "rmw", True, True)),
            (ops.TrySemAcquireOp, {"sem": sem}, ("sem:s", "trysem", "rmw", False, None)),
            (ops.SemReleaseOp, {"sem": sem}, ("sem:s", "sem_release", "write", False, True)),
            (ops.BarrierOp, {"barrier": barrier}, ("barrier:b", "barrier", "rmw", True, True)),
            (
                ops.SpawnOp,
                {"fn": run_seq, "args": (1, 2), "name": "worker"},
                ("thread:spawn", "spawn", "other", False, False),
            ),
            (ops.JoinOp, {"handle": handle}, ("thread:join", "join", "other", True, False)),
            (ops.YieldOp, {}, ("sched:yield", "yield", "other", False, False)),
            (
                ops.MallocOp,
                {"site": "node", "fields": {"val": 0}},
                ("heapsite:node", "malloc", "other", False, False),
            ),
            (ops.FreeOp, {"obj": heap}, ("heap:node", "free", "write", False, True)),
            (ops.FreeOp, {"obj": None}, ("heap:<null>", "free", "write", False, True)),
            (
                ops.HeapReadOp,
                {"obj": heap, "field_name": "next"},
                ("heap:node.next", "hr", "read", False, False),
            ),
            (
                ops.HeapReadOp,
                {"obj": None, "field_name": "val"},
                ("heap:<null>", "hr", "read", False, False),
            ),
            (
                ops.HeapWriteOp,
                {"obj": heap, "field_name": "val", "value": 3},
                ("heap:node.val", "hw", "write", False, True),
            ),
            (
                ops.HeapWriteOp,
                {"obj": None, "field_name": "val", "value": 3},
                ("heap:<null>", "hw", "write", False, True),
            ),
        ]

    def test_every_op_class_matches_the_former_dataclass(self):
        from repro.runtime import ops

        table = self.table()
        concrete = {
            cls for cls in vars(ops).values()
            if isinstance(cls, type) and issubclass(cls, ops.Op) and cls is not ops.Op
        }
        assert {cls for cls, _, _ in table} == concrete
        for cls, fields, expected in table:
            values = tuple(fields.values())
            by_keyword = cls(**fields, loc="site:1")
            positional = cls(*values, loc="site:1")
            for op in (by_keyword, positional):
                assert tuple(getattr(op, name) for name in fields) == values
                assert op.loc == "site:1"
                assert (op.location, op.kind, op.category, op.may_block, op.writes) == expected
                assert not hasattr(op, "__dict__")
            assert cls(**fields).loc is None
            with pytest.raises(TypeError):  # loc is keyword-only
                cls(*values, "site:1")
            shown = "".join(f", {name}={value!r}" for name, value in fields.items())
            assert repr(by_keyword) == f"{cls.__name__}(loc='site:1'{shown})"
            # Ops compare by identity.
            assert by_keyword == by_keyword and by_keyword != positional
            assert len({by_keyword, positional}) == 2

    def test_object_field_is_required(self):
        """The 14 ops whose location comes from the object they act on
        refuse to be built without it: a TypeError at construction, not an
        AttributeError on None."""
        from repro.runtime import ops
        from repro.runtime.objects import CondVar

        objects = {"var", "mutex", "cond", "sem", "barrier"}
        required = [cls for cls, fields, _ in self.table() if objects & fields.keys()]
        assert len(required) == 14
        for cls in required:
            with pytest.raises(TypeError):
                cls()
        with pytest.raises(TypeError):  # WaitOp needs its mutex as well
            ops.WaitOp(CondVar("c"))
