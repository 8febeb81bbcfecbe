"""The real-Python substrate: gate, shims, observer, targets, integration.

Covers the four acceptance properties of the ``py:`` namespace:

* every planted bug is found by at least one scheduler within 500 schedules;
* the two control targets never produce a finding;
* crashing schedules replay STABLE with a stable dedup key across 20 runs;
* serial and parallel campaigns over ``py:`` programs are bit-identical.

Plus unit-level checks of the shim semantics (misuse raises the stdlib's
``RuntimeError``/``ValueError``, not a harness error, and an expired timeout
is a probe that never blocks), the substrate's escape hatches, and the one
CPU and ``SCHED_BATCH`` policy of each execution.
"""

from __future__ import annotations

import os
import subprocess
import sys
import threading as real_threading
import time
from pathlib import Path

import pytest

from repro import bench
from repro.core.reproduce import dedup_key, verify_replay
from repro.harness.campaign import Campaign, CampaignConfig
from repro.harness.parallel import ParallelCampaign
from repro.harness.tools import RffTool, random_tool
from repro.runtime.errors import ProgramError
from repro.runtime.executor import Executor
from repro.runtime.guard import GuardConfig
from repro.schedulers import PctPolicy, PosPolicy, RandomWalkPolicy, ReplayPolicy
from repro.substrate import py_program, track

CONTROLS = {"py:counter_locked", "py:bounded_buffer"}
BUGGY = [name for name in bench.py_names() if name not in CONTROLS]

_POLICIES = (
    lambda s: RandomWalkPolicy(seed=s),
    lambda s: PctPolicy(seed=s, depth=3),
    lambda s: PosPolicy(seed=s),
)


def _find_crash(prog, max_schedules: int = 500):
    """Round-robin the three schedulers until one execution crashes."""
    budget_per_policy = max_schedules // len(_POLICIES)
    for seed in range(budget_per_policy):
        for make in _POLICIES:
            result = Executor(prog, make(seed)).run()
            if result.crashed:
                return result
    return None


def _os_thread_count() -> int:
    """The process's OS threads.  ``threading.active_count()`` never counts
    the substrate's ``_thread.start_new_thread`` threads, so read the
    kernel's list where there is one."""
    try:
        return len(os.listdir("/proc/self/task"))
    except OSError:
        return real_threading.active_count()


@pytest.fixture(autouse=True)
def no_thread_leaks():
    """Every test must return the process to its baseline thread count.

    A substrate thread signals teardown just before it exits, so allow the
    stragglers a moment to go.
    """
    baseline = _os_thread_count()
    yield
    deadline = time.monotonic() + 2.0
    while _os_thread_count() > baseline and time.monotonic() < deadline:
        time.sleep(0.01)
    assert _os_thread_count() == baseline


def _scheduling() -> tuple:
    """The calling thread's CPU mask and scheduling policy, where readable."""
    mask = os.sched_getaffinity(0) if hasattr(os, "sched_getaffinity") else None
    policy = os.sched_getscheduler(0) if hasattr(os, "sched_getscheduler") else None
    return mask, policy


@pytest.fixture(autouse=True)
def caller_scheduling_restored():
    """Every test must hand the calling thread its CPU mask and policy back,
    so no test passes on a policy an earlier one leaked."""
    before = _scheduling()
    yield
    assert _scheduling() == before


class TestTargets:
    @pytest.mark.parametrize("name", BUGGY)
    def test_planted_bug_found_within_500_schedules(self, name):
        prog = bench.get(name)
        result = _find_crash(prog)
        assert result is not None, f"{name}: bug not found"
        assert result.outcome in prog.bug_kinds

    @pytest.mark.parametrize("name", sorted(CONTROLS))
    def test_controls_stay_clean(self, name):
        prog = bench.get(name)
        for seed in range(30):
            for make in _POLICIES:
                result = Executor(prog, make(seed)).run()
                assert not result.crashed, (
                    f"{name} control crashed under seed {seed}: {result.trace.failure}"
                )

    def test_namespace_size(self):
        # The ISSUE floor: at least 8 seeded py: targets.
        assert len(bench.py_names()) >= 8
        assert all(name.startswith("py:") for name in bench.py_names())

    def test_registry_resolution_and_did_you_mean(self):
        assert bench.get("py:counter_race").suite == "py"
        with pytest.raises(KeyError, match="did you mean.*py:counter_race"):
            bench.get("py:counter_rac")
        # The py: namespace must not leak into the fixed 49-program corpus.
        assert len(bench.all_programs()) == bench.EXPECTED_PROGRAM_COUNT


class TestReplayStability:
    @pytest.mark.parametrize("name", ["py:counter_race", "py:abba_deadlock", "py:global_counter"])
    def test_dedup_key_stable_across_20_replays(self, name):
        prog = bench.get(name)
        found = _find_crash(prog)
        assert found is not None
        key = dedup_key(found)
        verdict = verify_replay(prog, found.schedule, found.outcome, key, replays=20)
        assert verdict.stable, f"{name} FLAKY: {verdict.runs}"
        assert all(run.key == key for run in verdict.runs)

    def test_exact_schedule_replay(self):
        prog = bench.get("py:counter_race")
        found = _find_crash(prog)
        result = Executor(prog, ReplayPolicy(list(found.schedule))).run()
        assert result.diverged is None
        assert result.outcome == found.outcome
        assert list(result.schedule) == list(found.schedule)
        assert result.failure_frames == found.failure_frames


class TestCampaignIntegration:
    def test_serial_parallel_bit_identical(self):
        programs = ["py:counter_race", "py:abba_deadlock"]
        config = CampaignConfig(trials=2, budget=60, base_seed=7)
        serial = Campaign(config).run(
            [RffTool(), random_tool()], [bench.get(n) for n in programs]
        )
        parallel = ParallelCampaign(config, processes=2).run(
            [RffTool().name, random_tool().name], programs
        )
        assert parallel == serial

    def test_rff_tool_finds_and_verifies(self):
        tool = RffTool()
        result = tool.find_bug(bench.get("py:counter_race"), budget=200, seed=0, verify_replays=5)
        assert result.found
        assert result.replay_verdict == "STABLE"


def _self_join_before_start_returned():
    # The new thread's first op is the join, submitted while the
    # parent is still inside start().
    import threading

    box = []
    thread = threading.Thread(target=lambda: box[0].join())
    box.append(thread)
    thread.start()
    thread.join()


def _self_join_after_start_returned():
    import threading

    started = threading.Event()
    box = []

    def body():
        started.wait()
        box[0].join()

    thread = threading.Thread(target=body)
    box.append(thread)
    thread.start()
    started.set()
    thread.join()


def _release_zero():
    import threading

    threading.Semaphore(1).release(0)


def _bounded_release_negative():
    import threading

    threading.BoundedSemaphore(1).release(-1)


def _sleep_negative():
    import time

    time.sleep(-1)


def _lock_nonblocking_timeout():
    import threading

    threading.Lock().acquire(False, 1)


def _rlock_nonblocking_timeout():
    import threading

    threading.RLock().acquire(False, 1)


def _lock_timeout_negative():
    import threading

    threading.Lock().acquire(timeout=-2)


def _semaphore_nonblocking_timeout():
    import threading

    threading.Semaphore(1).acquire(False, 1)


def _bounded_queue_put_timeout_negative():
    import queue

    queue.Queue(1).put(1, timeout=-1)


def _queue_get_timeout_negative():
    import queue

    queue.Queue().get(timeout=-1)


def _simple_queue_get_timeout_negative():
    import queue

    queue.SimpleQueue().get(timeout=-1)


def _raises(error, call, *args, **kwargs):
    try:
        call(*args, **kwargs)
    except error:
        return
    raise AssertionError(f"{error.__name__} not raised")


def _event_wait_expired():
    import threading

    event = threading.Event()
    assert event.wait(0) is False
    assert event.wait(-1) is False
    event.set()
    assert event.wait(0) is True


def _condition_wait_expired():
    import threading

    for cond in (threading.Condition(), threading.Condition(threading.Lock())):
        with cond:
            assert cond.wait(0) is False
            assert cond.wait(-1) is False
    # An RLock comes back at its depth: both exits release it.
    cond = threading.Condition()
    with cond, cond:
        assert cond.wait(0) is False


def _condition_wait_for_expired():
    import threading

    cond = threading.Condition()
    with cond:
        assert cond.wait_for(lambda: False, 0) is False
        assert cond.wait_for(lambda: 7, 0) == 7


def _queue_get_expired():
    import queue

    _raises(queue.Empty, queue.Queue().get, timeout=0)


def _bounded_queue_put_expired():
    import queue

    q = queue.Queue(1)
    q.put(1, timeout=0)
    _raises(queue.Full, q.put, 2, timeout=0)
    assert q.get_nowait() == 1


def _simple_queue_get_expired():
    import queue

    _raises(queue.Empty, queue.SimpleQueue().get, timeout=0)


def _semaphore_acquire_expired():
    import threading

    sem = threading.Semaphore(0)
    assert sem.acquire(timeout=-1) is False
    sem.release()
    assert sem.acquire(timeout=-1) is True


def _join_expired():
    import threading

    go = threading.Event()
    thread = threading.Thread(target=go.wait)
    thread.start()
    assert thread.join(0) is None
    assert thread.is_alive()
    go.set()
    thread.join()


class TestShimSemantics:
    """Shim misuse must raise the stdlib exception (a finding), not wedge."""

    def _run(self, entry, seeds=40):
        prog = py_program("py:test_entry", entry)
        outcomes = set()
        for seed in range(seeds):
            result = Executor(prog, RandomWalkPolicy(seed=seed)).run()
            outcomes.add((result.outcome, result.trace.failure))
        return outcomes

    def _assert_finding(self, entry, error, seeds=3):
        """Every schedule ends in one ``exception`` finding naming ``error``."""
        outcomes = self._run(entry, seeds=seeds)
        assert len(outcomes) == 1, outcomes
        outcome, failure = outcomes.pop()
        assert outcome == "exception"
        assert error in failure, failure

    def test_lock_nonblocking_acquire(self):
        def entry():
            import threading

            lock = threading.Lock()
            assert lock.acquire(blocking=False)
            assert not lock.acquire(blocking=False)
            assert lock.locked()
            lock.release()
            assert lock.acquire(timeout=0)
            lock.release()

        assert self._run(entry, seeds=3) == {(None, None)}

    def test_release_unlocked_lock_is_a_finding(self):
        def entry():
            import threading

            threading.Lock().release()

        self._assert_finding(entry, "RuntimeError")

    @pytest.mark.parametrize(
        "entry",
        [_self_join_before_start_returned, _self_join_after_start_returned],
        ids=["before_start_returned", "after_start_returned"],
    )
    def test_self_join_is_a_finding(self, entry):
        self._assert_finding(entry, "RuntimeError: cannot join current thread", seeds=10)

    def test_rlock_reentrancy_and_foreign_release(self):
        def entry():
            import threading

            rlock = threading.RLock()
            with rlock:
                with rlock:
                    assert rlock._is_owned()
            stranger_failed = []

            def stranger():
                try:
                    rlock.release()
                except RuntimeError:
                    stranger_failed.append(True)

            with rlock:
                t = threading.Thread(target=stranger)
                t.start()
                t.join()
            assert stranger_failed == [True]

        assert self._run(entry, seeds=5) == {(None, None)}

    def test_bounded_semaphore_over_release(self):
        def entry():
            import threading

            sem = threading.BoundedSemaphore(1)
            sem.acquire()
            sem.release()
            sem.release()  # one too many

        self._assert_finding(entry, "ValueError: Semaphore released too many times")

    @pytest.mark.parametrize(
        "entry, error",
        [
            (_release_zero, "n must be one or more"),
            (_bounded_release_negative, "n must be one or more"),
            (_sleep_negative, "sleep length must be non-negative"),
            (_lock_nonblocking_timeout, "can't specify a timeout for a non-blocking call"),
            (_rlock_nonblocking_timeout, "can't specify a timeout for a non-blocking call"),
            (_lock_timeout_negative, "timeout value must be positive"),
            (_semaphore_nonblocking_timeout, "can't specify timeout for non-blocking acquire"),
            (_bounded_queue_put_timeout_negative, "'timeout' must be a non-negative number"),
            (_queue_get_timeout_negative, "'timeout' must be a non-negative number"),
            (_simple_queue_get_timeout_negative, "'timeout' must be a non-negative number"),
        ],
        ids=[
            "semaphore_release_0",
            "bounded_semaphore_release_-1",
            "sleep_-1",
            "lock_acquire_False_1",
            "rlock_acquire_False_1",
            "lock_acquire_timeout_-2",
            "semaphore_acquire_False_1",
            "bounded_queue_put_timeout_-1",
            "queue_get_timeout_-1",
            "simple_queue_get_timeout_-1",
        ],
    )
    def test_out_of_range_argument_is_a_finding(self, entry, error):
        self._assert_finding(entry, f"ValueError: {error}")

    @pytest.mark.parametrize(
        "entry",
        [
            _event_wait_expired,
            _condition_wait_expired,
            _condition_wait_for_expired,
            _queue_get_expired,
            _bounded_queue_put_expired,
            _simple_queue_get_expired,
            _semaphore_acquire_expired,
            _join_expired,
        ],
        ids=[
            "event_wait",
            "condition_wait",
            "condition_wait_for",
            "queue_get",
            "bounded_queue_put",
            "simple_queue_get",
            "semaphore_acquire",
            "thread_join",
        ],
    )
    def test_expired_timeout_is_a_probe(self, entry):
        """A timeout of 0 or below returns the stdlib's result at once."""
        assert self._run(entry, seeds=5) == {(None, None)}

    def test_event_and_barrier(self):
        def entry():
            import threading

            event = threading.Event()
            bar = threading.Barrier(2)
            indices = []

            def waiter():
                event.wait()
                indices.append(bar.wait())

            t = threading.Thread(target=waiter)
            t.start()
            event.set()
            assert event.is_set()
            indices.append(bar.wait())
            t.join()
            assert sorted(indices) == [0, 1]

        assert self._run(entry, seeds=10) == {(None, None)}

    def test_queue_full_and_task_done(self):
        def entry():
            import queue

            q = queue.Queue(maxsize=1)
            q.put_nowait(1)
            try:
                q.put_nowait(2)
            except queue.Full:
                pass
            else:
                raise AssertionError("Full not raised")
            assert q.get_nowait() == 1
            q.put(3)
            q.get()
            q.task_done()
            q.task_done()
            q.join()
            q.task_done()  # overshoots: both puts already accounted for

        outcomes = self._run(entry, seeds=3)
        outcome, failure = outcomes.pop()
        # The unbalanced task_done overshoots: stdlib contract is ValueError.
        assert outcome == "exception"
        assert "ValueError" in failure

    def test_lifo_and_priority_queue_order(self):
        def entry():
            import queue

            lifo = queue.LifoQueue(maxsize=3)
            for item in (1, 2, 3):
                lifo.put(item)
            assert lifo.full()
            assert [lifo.get() for _ in range(3)] == [3, 2, 1]
            prio = queue.PriorityQueue()
            for item in ((2, "b"), (3, "c"), (1, "a")):
                prio.put_nowait(item)
            assert prio.qsize() == 3
            assert [prio.get_nowait()[1] for _ in range(3)] == ["a", "b", "c"]
            assert prio.empty()

        assert self._run(entry, seeds=5) == {(None, None)}

    @pytest.mark.parametrize("kind", ["LifoQueue", "PriorityQueue"])
    def test_positive_timeout_does_not_read_the_clock(self, kind, monkeypatch):
        """A positive ``get`` timeout blocks like an untimed ``get``: a clock
        that jumps 10 s per read cannot make a schedule raise ``Empty``."""
        import itertools
        import queue

        clock = itertools.count(step=10)
        monkeypatch.setattr(queue, "time", lambda: next(clock))

        def entry():
            import queue
            import threading

            q = getattr(queue, kind)()
            producer = threading.Thread(target=q.put, args=(1,))
            producer.start()
            assert q.get(timeout=1) == 1
            producer.join()

        assert self._run(entry, seeds=20) == {(None, None)}


class TestSubstrateGuards:
    def test_track_outside_execution_raises(self):
        with pytest.raises(ProgramError, match="outside a substrate execution"):
            track(object.__new__(type("Bag", (), {})))

    def test_nested_executions_rejected(self):
        def inner():
            pass

        inner_prog = py_program("py:test_inner", inner)

        def entry():
            Executor(inner_prog, RandomWalkPolicy(seed=0)).run()

        outer = py_program("py:test_outer", entry)
        result = Executor(outer, RandomWalkPolicy(seed=0)).run()
        # The nested run is rejected; the rejection surfaces as a harness
        # error (ProgramError), not a silent pass.
        assert result.outcome == "exception"
        assert "nested substrate executions" in result.trace.failure

    def test_shim_objects_do_not_escape(self):
        escaped = []

        def entry():
            import threading

            escaped.append(threading.Lock())

        prog = py_program("py:test_escape", entry)
        Executor(prog, RandomWalkPolicy(seed=0)).run()
        with pytest.raises((RuntimeError, BaseException)):
            escaped.pop().acquire()

    def test_watchdog_on_substrate_program(self):
        def entry():
            import threading

            lock = threading.Lock()
            for _ in range(100):
                with lock:
                    pass

        prog = py_program("py:test_spin", entry)
        guard = GuardConfig(step_budget=10)
        result = Executor(prog, RandomWalkPolicy(seed=0), guard=guard).run()
        assert result.outcome == "timeout"


def _clean():
    import threading

    with threading.Lock():
        pass


def _crash():
    assert False, "planted"


def _self_deadlock():
    import threading

    lock = threading.Lock()
    lock.acquire()
    lock.acquire()


def _spin():
    import threading

    lock = threading.Lock()
    for _ in range(100):
        with lock:
            pass


def _nested():
    Executor(py_program("py:test_inner", lambda: None), RandomWalkPolicy(seed=0)).run()


#: One execution per way an execution can end: (entry, Executor options,
#: (outcome, truncated)).
_ENDINGS = pytest.mark.parametrize(
    "entry, options, ending",
    [
        (_clean, {}, (None, False)),
        (_crash, {}, ("assertion", False)),
        (_self_deadlock, {}, ("deadlock", False)),
        (_spin, {"max_steps": 10}, (None, True)),
        (_spin, {"guard": GuardConfig(step_budget=10)}, ("timeout", False)),
        (_nested, {}, ("exception", False)),
    ],
    ids=["clean", "crash", "deadlock", "step_bound", "watchdog", "nested"],
)

needs_policy_calls = pytest.mark.skipif(
    not (hasattr(os, "sched_setscheduler") and hasattr(os, "SCHED_BATCH")),
    reason="no scheduling-policy calls on this platform",
)


def _policy_inside(caller: int) -> int:
    """The policy an execution's threads run on, given the caller's: a
    ``SCHED_OTHER`` caller's execution runs ``SCHED_BATCH``, any other
    caller's runs on the caller's own policy."""
    return os.SCHED_BATCH if caller == os.SCHED_OTHER else caller


def _fuzz_counter_race():
    prog = bench.get("py:counter_race")
    results = [Executor(prog, RandomWalkPolicy(seed=seed)).run() for seed in range(20)]
    return [(r.outcome, tuple(r.schedule), r.failure_frames) for r in results]


@pytest.mark.skipif(
    not hasattr(os, "sched_setaffinity"), reason="no CPU affinity calls on this platform"
)
class TestCpuPinning:
    """Each execution runs on one CPU, under ``SCHED_BATCH`` where the caller
    ran ``SCHED_OTHER``, and hands the caller its mask and policy back.

    Every test compares against the policy the caller had at its start, so
    the class also passes under ``chrt --batch 0``.
    """

    def test_threads_run_on_one_cpu(self):
        masks = []

        def entry():
            import threading

            def worker():
                masks.append(os.sched_getaffinity(0))

            thread = threading.Thread(target=worker)
            thread.start()
            thread.join()
            masks.append(os.sched_getaffinity(0))

        Executor(py_program("py:test_pinned", entry), RandomWalkPolicy(seed=0)).run()
        assert len(masks) == 2
        assert len(masks[0]) == 1 and masks[0] == masks[1]

    @_ENDINGS
    def test_caller_mask_restored(self, entry, options, ending):
        caller = os.sched_getaffinity(0)
        inside = []

        def probe():
            inside.append(os.sched_getaffinity(0))
            entry()

        prog = py_program("py:test_restore", probe)
        result = Executor(prog, RandomWalkPolicy(seed=0), **options).run()
        assert (result.outcome, result.truncated) == ending
        assert len(inside[0]) == 1
        assert os.sched_getaffinity(0) == caller

    def test_refused_affinity_runs_unpinned_with_equal_results(self, monkeypatch):
        pinned = _fuzz_counter_race()
        caller = _scheduling()

        def refuse(pid, mask):
            raise OSError(22, "Invalid argument")

        monkeypatch.setattr(os, "sched_setaffinity", refuse)
        assert _fuzz_counter_race() == pinned
        inside = []
        probe = py_program("py:test_unpinned", lambda: inside.append(_scheduling()))
        Executor(probe, RandomWalkPolicy(seed=0)).run()
        # Unpinned, the execution keeps the caller's policy as well.
        assert inside == [caller]
        assert _scheduling() == caller

    @needs_policy_calls
    def test_threads_run_batch(self):
        caller = os.sched_getscheduler(0)
        executor = real_threading.get_native_id()
        policies = []

        def entry():
            import threading

            def worker():
                policies.append(os.sched_getscheduler(0))

            thread = threading.Thread(target=worker)
            thread.start()
            thread.join()
            policies.append(os.sched_getscheduler(executor))

        Executor(py_program("py:test_batch", entry), RandomWalkPolicy(seed=0)).run()
        assert policies == [_policy_inside(caller)] * 2

    @needs_policy_calls
    @_ENDINGS
    def test_caller_policy_restored(self, entry, options, ending):
        caller = os.sched_getscheduler(0)
        executor = real_threading.get_native_id()
        inside = []

        def probe():
            inside.append(os.sched_getscheduler(executor))
            entry()

        prog = py_program("py:test_restore", probe)
        result = Executor(prog, RandomWalkPolicy(seed=0), **options).run()
        assert (result.outcome, result.truncated) == ending
        assert inside == [_policy_inside(caller)]
        assert os.sched_getscheduler(0) == caller

    @needs_policy_calls
    def test_refused_policy_runs_on_the_callers_with_equal_results(self, monkeypatch):
        batched = _fuzz_counter_race()
        caller = os.sched_getscheduler(0)
        executor = real_threading.get_native_id()

        def refuse(pid, policy, param):
            raise OSError(1, "Operation not permitted")

        monkeypatch.setattr(os, "sched_setscheduler", refuse)
        assert _fuzz_counter_race() == batched
        inside = []
        probe = py_program("py:test_unbatched", lambda: inside.append(os.sched_getscheduler(executor)))
        Executor(probe, RandomWalkPolicy(seed=0)).run()
        assert inside == [caller]
        assert os.sched_getscheduler(0) == caller

    @needs_policy_calls
    def test_batch_caller_keeps_batch(self):
        caller = os.sched_getscheduler(0)
        if caller not in (os.SCHED_OTHER, os.SCHED_BATCH):
            pytest.skip("the caller runs a policy it may not be able to leave")
        executor = real_threading.get_native_id()
        inside = []
        probe = py_program("py:test_batch_caller", lambda: inside.append(os.sched_getscheduler(executor)))
        os.sched_setscheduler(0, os.SCHED_BATCH, os.sched_param(0))
        try:
            Executor(probe, RandomWalkPolicy(seed=0)).run()
            assert inside == [os.SCHED_BATCH]
            assert os.sched_getscheduler(0) == os.SCHED_BATCH
        finally:
            os.sched_setscheduler(0, caller, os.sched_param(0))

    @needs_policy_calls
    def test_a_woken_thread_does_not_preempt_its_waker(self):
        """Pinned ``SCHED_BATCH`` handoffs preempt the executor thread less
        than once per four steps; under ``SCHED_OTHER`` the woken thread
        preempts it about 1.7 times per step."""
        resource = pytest.importorskip("resource")
        if not hasattr(resource, "RUSAGE_THREAD"):
            pytest.skip("no per-thread resource usage on this platform")
        executor = real_threading.get_native_id()
        seen = []
        probe = py_program(
            "py:test_probe",
            lambda: seen.append((len(os.sched_getaffinity(0)), os.sched_getscheduler(executor))),
        )
        Executor(probe, RandomWalkPolicy(seed=0)).run()
        if seen != [(1, os.SCHED_BATCH)]:
            pytest.skip("executions here run unpinned or off SCHED_BATCH")
        programs = [bench.get(n) for n in ("py:counter_locked", "py:fanin_futures", "py:queue_toctou")]
        steps = seed = 0
        before = resource.getrusage(resource.RUSAGE_THREAD).ru_nivcsw
        while steps < 2000:
            for prog in programs:
                steps += Executor(prog, RandomWalkPolicy(seed=seed)).run().steps
            seed += 1
        preempted = resource.getrusage(resource.RUSAGE_THREAD).ru_nivcsw - before
        assert preempted < 0.25 * steps, f"{preempted} involuntary switches in {steps} steps"

    def test_ctypes_is_imported_only_by_a_substrate_execution(self):
        code = (
            "import sys\n"
            "import repro.harness\n"
            "from repro import bench\n"
            "from repro.runtime.executor import Executor\n"
            "from repro.schedulers import RandomWalkPolicy\n"
            "Executor(bench.get('CS/account'), RandomWalkPolicy(seed=0)).run()\n"
            "print('ctypes' in sys.modules)\n"
            "Executor(bench.get('py:counter_race'), RandomWalkPolicy(seed=0)).run()\n"
            "print('ctypes' in sys.modules)\n"
        )
        src = Path(__file__).resolve().parent.parent / "src"
        env = {**os.environ, "PYTHONPATH": str(src)}
        proc = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["False", "True"]
