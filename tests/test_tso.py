"""x86-TSO execution: store buffers, forwarding, fences, litmus tests."""

from __future__ import annotations

from collections import deque

from repro.core.fuzzer import fuzz
from repro.core.reproduce import RunEnv
from repro.runtime import program, run_program, run_program_tso
from repro.runtime.tso import FLUSH_KIND, TsoExecutor
from repro.schedulers import PosPolicy, RandomWalkPolicy
from repro.schedulers.base import SchedulerPolicy


class FlushAvoiderPolicy(SchedulerPolicy):
    """Adversary that delays store-buffer flushes as long as possible:
    always runs a program event when one is enabled, flushing only when
    flush steps are the sole remaining candidates."""

    def choose(self, candidates, execution):
        program_steps = [c for c in candidates if c.kind != FLUSH_KIND]
        return min(program_steps or candidates, key=lambda c: c.tid)


class EagerFlusherPolicy(SchedulerPolicy):
    """Adversary at the other extreme: flushes every buffered store at the
    first opportunity, making TSO behave sequentially consistent."""

    def choose(self, candidates, execution):
        flushes = [c for c in candidates if c.kind == FLUSH_KIND]
        return min(flushes or candidates, key=lambda c: c.tid)


class ScriptedTidPolicy(SchedulerPolicy):
    """Follow an explicit tid script (skipping disabled entries), then
    drain flushes, then lowest tid — deterministic worst-case schedules."""

    def __init__(self, script):
        self._script = deque(script)

    def choose(self, candidates, execution):
        while self._script:
            tid = self._script.popleft()
            for candidate in candidates:
                if candidate.tid == tid:
                    return candidate
        return EagerFlusherPolicy().choose(candidates, execution)


def _sb_left(t, x, y, res1):
    yield t.write(x, 1)
    value = yield t.read(y)
    yield t.write(res1, value)


def _sb_right(t, x, y, res2):
    yield t.write(y, 1)
    value = yield t.read(x)
    yield t.write(res2, value)


@program("t/sb_litmus", bug_kinds=("assertion",))
def sb_litmus(t):
    """The classic store-buffer litmus: r1 == r2 == 0 is TSO-only."""
    x = t.var("x", 0)
    y = t.var("y", 0)
    r1 = t.var("r1", -1)
    r2 = t.var("r2", -1)
    h1 = yield t.spawn(_sb_left, x, y, r1)
    h2 = yield t.spawn(_sb_right, x, y, r2)
    yield t.join(h1)
    yield t.join(h2)
    a = yield t.read(r1)
    b = yield t.read(r2)
    t.require(not (a == 0 and b == 0), "store-buffer reordering observed")


@program("t/sb_fenced")
def sb_fenced(t):
    """The same litmus with an atomic fence after each store: SC again."""

    def left(t, x, y, res1):
        yield t.write(x, 1)
        yield t.add(x, 0)  # atomic op = fence: drains the store buffer
        value = yield t.read(y)
        yield t.write(res1, value)

    def right(t, x, y, res2):
        yield t.write(y, 1)
        yield t.add(y, 0)
        value = yield t.read(x)
        yield t.write(res2, value)

    x = t.var("x", 0)
    y = t.var("y", 0)
    r1 = t.var("r1", -1)
    r2 = t.var("r2", -1)
    h1 = yield t.spawn(left, x, y, r1)
    h2 = yield t.spawn(right, x, y, r2)
    yield t.join(h1)
    yield t.join(h2)
    a = yield t.read(r1)
    b = yield t.read(r2)
    t.require(not (a == 0 and b == 0), "fenced litmus must stay SC")


class TestStoreBufferLitmus:
    def test_unreachable_under_sc(self):
        assert not any(run_program(sb_litmus, PosPolicy(s)).crashed for s in range(300))

    def test_reachable_under_tso(self):
        crashes = sum(run_program_tso(sb_litmus, PosPolicy(s)).crashed for s in range(300))
        assert crashes > 0

    def test_fences_restore_sc(self):
        assert not any(run_program_tso(sb_fenced, PosPolicy(s)).crashed for s in range(300))

    def test_rff_finds_tso_bug(self):
        env = RunEnv(memory_model="tso")
        report = fuzz(sb_litmus, max_executions=300, seed=0, env=env,
                      stop_on_first_crash=True)
        assert report.found_bug

    def test_sc_config_never_finds_it(self):
        report = fuzz(sb_litmus, max_executions=200, seed=0, stop_on_first_crash=True)
        assert not report.found_bug


class TestStoreForwarding:
    def test_thread_sees_own_buffered_store(self):
        @program("t/forwarding")
        def prog(t):
            x = t.var("x", 0)
            yield t.write(x, 7)
            value = yield t.read(x)  # must forward from the buffer
            t.require(value == 7, f"forwarding broken: read {value}")

        for seed in range(20):
            assert not run_program_tso(prog, RandomWalkPolicy(seed)).crashed

    def test_other_thread_does_not_see_unflushed_store(self):
        # Verified structurally: a read in another thread can still observe
        # the initial value after the writer's write event executed.
        @program("t/visibility")
        def prog(t):
            def writer(t, x, done):
                yield t.write(x, 1)
                yield t.write(done, 1)

            x = t.var("x", 0)
            done = t.var("done", 0)
            yield t.spawn(writer, x, done)
            yield t.read(x)

        saw_stale = False
        for seed in range(200):
            result = run_program_tso(prog, PosPolicy(seed))
            main_read = next(e for e in result.trace if e.kind == "r" and e.tid == 0)
            writer_events = [e for e in result.trace if e.tid == 1 and e.kind == "w"]
            if not writer_events:
                continue
            write_eid = writer_events[0].eid
            if main_read.eid > write_eid and main_read.rf == 0:
                saw_stale = True
                break
        assert saw_stale, "no schedule showed a write buffered past a later read"


class TestBufferMechanics:
    def test_buffers_drain_before_completion(self):
        @program("t/drain")
        def prog(t):
            x = t.var("x", 0)
            yield t.write(x, 1)
            yield t.write(x, 2)

        executor = TsoExecutor(prog, RandomWalkPolicy(0))
        result = executor.run()
        assert executor.pending_stores() == 0
        flushes = [e for e in result.trace if e.kind == "flush"]
        assert len(flushes) == 2

    def test_flush_preserves_fifo_order(self):
        @program("t/fifo_buf")
        def prog(t):
            x = t.var("x", 0)
            yield t.write(x, 1)
            yield t.write(x, 2)

        for seed in range(10):
            result = run_program_tso(prog, RandomWalkPolicy(seed))
            flushes = [e for e in result.trace if e.kind == "flush"]
            assert [f.value for f in flushes] == [1, 2]

    def test_rf_edges_point_to_original_writes(self):
        @program("t/rf_tso")
        def prog(t):
            def reader(t, x, out):
                value = yield t.read(x)
                yield t.write(out, value)

            x = t.var("x", 0)
            out = t.var("out", -1)
            yield t.write(x, 5)
            yield t.add(x, 0)  # fence so the write is visible
            handle = yield t.spawn(reader, x, out)
            yield t.join(handle)

        result = run_program_tso(prog, RandomWalkPolicy(0))
        read = next(e for e in result.trace if e.kind == "r" and e.location == "var:x")
        # The fence rmw is the last visible writer here; the key property is
        # that rf targets are real program writes, never flush pseudo-events.
        writer = result.trace.event_by_id(read.rf)
        assert writer.kind in ("w", "rmw")
        for event in result.trace:
            if event.rf not in (None, 0):
                assert result.trace.event_by_id(event.rf).kind != "flush"

    def test_atomics_fence_the_buffer(self):
        @program("t/fence")
        def prog(t):
            x = t.var("x", 0)
            yield t.write(x, 3)
            old = yield t.add(x, 1)  # fences: buffered 3 must be visible
            t.require(old == 3, f"fence failed: rmw saw {old}")

        for seed in range(20):
            assert not run_program_tso(prog, RandomWalkPolicy(seed)).crashed

    def test_sc_programs_unchanged_under_tso(self, racefree):
        for seed in range(20):
            assert not run_program_tso(racefree, RandomWalkPolicy(seed)).crashed

    def test_racy_counter_still_crashes_under_tso(self, racy_counter):
        assert any(run_program_tso(racy_counter, RandomWalkPolicy(s)).crashed for s in range(300))


class TestAdversarialDraining:
    """Store-buffer draining under adversarial scheduler policies: the
    executor must stay correct whether a policy starves or spams flushes."""

    def test_scripted_interleaving_forces_sb_reordering(self):
        # Both stores buffered, both loads served from (stale) memory, then
        # everything flushed before main reads the results: the TSO-only
        # r1 == r2 == 0 outcome, forced deterministically.
        script = [0, 0, 1, 2, 1, 2, 1, 2]
        first = run_program_tso(sb_litmus, ScriptedTidPolicy(script))
        assert first.crashed and first.outcome == "assertion"
        assert "store-buffer reordering observed" in first.trace.failure
        second = run_program_tso(sb_litmus, ScriptedTidPolicy(script))
        assert second.schedule == first.schedule

    def test_flush_avoider_still_drains_buffers(self):
        @program("t/drain_adv")
        def prog(t):
            def writer(t, u, v):
                yield t.write(u, 1)
                yield t.write(v, 2)

            x = t.var("x", 0)
            y = t.var("y", 0)
            h1 = yield t.spawn(writer, x, y)
            h2 = yield t.spawn(writer, y, x)
            yield t.join(h1)
            yield t.join(h2)

        class RecordingAvoider(FlushAvoiderPolicy):
            peak = 0

            def notify(self, event, execution):
                self.peak = max(self.peak, execution.pending_stores())

        policy = RecordingAvoider()
        executor = TsoExecutor(prog, policy)
        result = executor.run()
        # The adversary delayed every flush until nothing else was enabled:
        # all four stores were buffered simultaneously...
        assert policy.peak == 4
        # ...yet the execution completed with fully drained buffers.
        assert not result.truncated and not result.crashed
        assert executor.pending_stores() == 0
        flushes = [e for e in result.trace if e.kind == FLUSH_KIND]
        writes = [e for e in result.trace if e.kind == "w"]
        assert len(flushes) == 4
        assert min(f.eid for f in flushes) > max(w.eid for w in writes)
        # FIFO draining per thread: flush order follows program write order.
        for tid in (1, 2):
            per_thread = [f.aux for f in flushes if f.tid == tid]
            assert per_thread == sorted(per_thread)

    def test_eager_flusher_restores_sequential_consistency(self):
        result = run_program_tso(sb_litmus, EagerFlusherPolicy())
        assert not result.crashed
        # Every store became visible immediately after it was buffered.
        for flush in (e for e in result.trace if e.kind == FLUSH_KIND):
            assert flush.eid == flush.aux + 1

    def test_fences_hold_under_flush_starvation(self):
        result = run_program_tso(sb_fenced, FlushAvoiderPolicy())
        assert not result.crashed and not result.truncated

    def test_flush_avoider_cannot_hide_stores_from_a_joiner(self):
        # Under maximal flush delay both workers' loads read stale memory
        # (0), and their stores are still buffered when they finish.  A
        # join returns only once the joined thread's buffer is empty
        # (pthread_join synchronizes memory), so main's post-join reads
        # see the workers' writes of 0: the weak SB outcome.
        result = run_program_tso(sb_litmus, FlushAvoiderPolicy())
        assert result.crashed and "store-buffer reordering observed" in result.trace.failure
        main_reads = [e for e in result.trace if e.tid == 0 and e.kind == "r"]
        assert len(main_reads) == 2
        for read in main_reads:
            writer = result.trace.event_by_id(read.rf)
            assert writer.tid in (1, 2) and read.value == 0

    def test_thread_that_did_not_join_reads_stale_values(self):
        # The writer finishes with its store buffered; a reader that never
        # joined it still reads the initial value until the flush.
        @program("t/stale_without_join")
        def prog(t):
            def writer(t, x):
                yield t.write(x, 1)

            def reader(t, x, out):
                value = yield t.read(x)
                yield t.write(out, value)

            x = t.var("x", 0)
            out = t.var("out", -1)
            h1 = yield t.spawn(writer, x)
            h2 = yield t.spawn(reader, x, out)
            yield t.join(h1)
            yield t.join(h2)
            seen = yield t.read(x)
            t.require(seen == 1, f"join did not publish: read {seen}")

        # spawn, spawn, the writer's store (it then finishes), the read.
        result = run_program_tso(prog, ScriptedTidPolicy([0, 0, 1, 2]))
        assert not result.crashed
        store = next(e for e in result.trace if e.tid == 1 and e.kind == "w")
        read = next(e for e in result.trace if e.tid == 2 and e.kind == "r")
        flush = next(e for e in result.trace if e.kind == FLUSH_KIND and e.tid == 1)
        assert store.eid < read.eid < flush.eid
        assert read.rf == 0 and read.value == 0


@program("t/join_publishes", bug_kinds=())
def join_publishes(t):
    """Correct under SC and x86-TSO: join makes the worker's store visible."""

    def worker(t, out):
        yield t.write(out, 42)

    out = t.var("out", 0)
    handle = yield t.spawn(worker, out)
    yield t.join(handle)
    value = yield t.read(out)
    t.require(value == 42, f"join did not publish the worker's store: read {value}")


class TestJoinVisibility:
    """Regression: a joined thread's buffered stores used to stay invisible
    to the joiner, a false positive of ``--memory-model tso``."""

    def test_joiner_sees_joined_threads_store(self):
        for seed in range(200):
            result = run_program_tso(join_publishes, RandomWalkPolicy(seed))
            assert not result.crashed, (seed, result.trace.failure)

    def test_rff_under_tso_reports_no_bug(self):
        env = RunEnv(memory_model="tso")
        report = fuzz(join_publishes, max_executions=300, seed=0, env=env,
                      stop_on_first_crash=True)
        assert not report.found_bug

    def test_join_waits_for_the_flush_without_deadlock(self):
        # The flush avoider runs the join as early as it is enabled: right
        # after the worker's only flush, never before it.
        result = run_program_tso(join_publishes, FlushAvoiderPolicy())
        assert not result.crashed and not result.truncated
        kinds = [(e.tid, e.kind) for e in result.trace]
        assert kinds.index((1, FLUSH_KIND)) + 1 == kinds.index((0, "join"))
