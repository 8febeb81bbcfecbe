"""Persistent worker pool: the engine every multi-process campaign runs on.

The paper's C/C++ RFF rides on AFL's fork server to amortize target startup
cost across executions.  This module is the analogue of the fork server:

* **Long-lived workers.**  ``size`` processes are spawned once per
  campaign and serve slices over a request/reply pipe protocol, surviving
  across slices and allocation rounds.
* **One slice ahead.**  A worker holds at most :data:`WORKER_DEPTH` (2)
  slices: the one it runs and the next, which waits in its pipe, so the
  worker never waits on the dispatcher.  Each reply tops the worker up
  before the dispatcher decodes and records the finished slice.  A new
  slice goes to the live worker that holds the fewest, and a worker is
  spawned only while every live one is busy.
* **Worker-side caches.**  Each worker caches constructed tools keyed by
  ``(tool_name, program_name)`` and resolved programs keyed by program
  name.  Caching is determinism-safe because every ``find_bug`` call
  builds its own RNG/policy/fuzzer state from the slice seed and gets the
  campaign's runtime (``WorkerProfile.env``: sanitizers, guardrails) and
  replay count as arguments, so a cached tool holds no campaign setting.
* **Compact replies.**  Results cross the pipe in persist-dict form
  (:func:`repro.harness.persist.result_to_dict`), not as pickled live
  objects.
* **Supervision.**  Workers beat from a daemon thread every
  ``heartbeat_seconds``; a beat carries nothing and only renews the
  worker's lease.  A worker silent for ``lease_seconds`` loses its lease
  and is killed, as is one that goes ``cell_timeout`` seconds without
  finishing a slice.  Workers apply the profile's chaos plan
  (:mod:`repro.harness.faults`) before every slice.
* **Crash replay of the running slice only.**  A worker answers its
  slices in the order they were sent, so when it dies the dispatcher
  knows which slice it was running: the first one it holds.  Its end is
  one ``worker_exit`` whose ``unfinished`` counts the slices it held.
  The running slice is retried after a capped exponential backoff
  (:func:`backoff_delay`, one ``cell_retry`` carrying ``delay``), up to
  ``max_retries`` times, and then recorded as a structured error
  classified as a *deterministic crasher* (every attempt failed the same
  way) or a *flaky environment* (:func:`classify_failures`).  The slice
  queued behind it never started and goes back to the front of the ready
  queue at its current attempt.  For a fixed (seed, allocator), serial ==
  pool == SIGKILL'd-and-resumed, bit for bit.  A campaign that aborts (an
  exception out of the round loop) kills the workers still holding slices
  on :meth:`WorkerPool.close`, one ``worker_exit`` of kind ``abort`` each,
  so every worker that started a cell has exactly one exit record.
* **In-process execution.**  A pool of size 0 runs every slice in the
  dispatcher's own process, and a pool whose workers cannot be started
  at all degrades to that same in-process drain.  It is the only
  in-process runner: the serial :class:`~repro.harness.campaign.Campaign`
  is a size-0 pool whose caches are seeded with the caller's tool and
  program instances.  It runs no worker faults.

Wire protocol (one duplex pipe per worker):

======================  =================================================
parent -> worker        ``("slice", slice)`` per slice, then eventually
                        ``("shutdown",)``
worker -> parent        ``("slice_done", payload)`` or
                        ``("slice_error", message)`` per slice, in send
                        order, and ``("heartbeat",)``
======================  =================================================

A slice is the tuple ``(tool, program, trial, seed, budget, factory_ref)``
(:data:`~repro.harness.campaign.Slice`), the one shape it has from the
round loop through the dispatcher's queues to the worker; a reply payload
is ``(result_dict, wall_time, counters_dict)``.  Replies carry no index: a
worker answers its slices in the order they were sent.
"""

from __future__ import annotations

import os
import time
from collections import deque
from dataclasses import dataclass, field, replace
from typing import Any, Callable, Iterable

from repro.core.reproduce import RunEnv
from repro.harness import faults
from repro.harness.campaign import Slice
from repro.harness.parallel import resolve_ref
from repro.harness.telemetry import GLOBAL_COUNTERS, TelemetrySink
from repro.harness.tools import BugSearchResult

#: Slices a worker holds at once: the one it runs and the one queued
#: behind it in its pipe.  With one, a worker would wait a dispatcher
#: round trip after every slice.
WORKER_DEPTH = 2
#: Delay (seconds) before a slice's first retry; doubles per attempt.
BACKOFF_BASE = 0.1
#: Upper bound (seconds) on any single backoff delay.
BACKOFF_CAP = 5.0


@dataclass(frozen=True)
class WorkerProfile:
    """Campaign-wide configuration shipped to each worker exactly once.

    Everything here is constant for the life of one campaign.  ``env`` and
    ``verify_replays`` are passed to every ``find_bug`` call, so a cached
    tool carries no setting from a differently-configured predecessor or an
    earlier campaign.
    """

    #: The runtime every execution of the campaign runs in.
    env: RunEnv = RunEnv()
    #: Replays per found bug for STABLE/FLAKY verification (0 = off).
    verify_replays: int = 0
    #: The armed chaos plan and its claim directory
    #: (:meth:`~repro.harness.faults.ChaosPlan.from_env`), read once
    #: dispatcher-side; None injects no worker faults.
    chaos: tuple[faults.ChaosPlan, str] | None = None
    #: Interval of the worker's heartbeat thread; None disables heartbeats.
    heartbeat_seconds: float | None = None
    #: Directory for per-worker cProfile dumps; None disables profiling.
    profile_dir: str | None = None


def _cell(spec: Slice) -> dict[str, Any]:
    """The ``tool``, ``program`` and ``trial`` fields of a slice's records."""
    return {"tool": spec[0], "program": spec[1], "trial": spec[2]}


# ----------------------------------------------------------------------
# Worker side
# ----------------------------------------------------------------------
def _run_slice(spec: Slice, profile: WorkerProfile, tools: dict, programs: dict):
    """Run one slice against the given caches: ``(result, wall_time, counters)``."""
    tool_name, program_name, trial, seed, budget, ref = spec
    if profile.chaos is not None:
        faults.worker_chaos(*profile.chaos, faults.cell_key(tool_name, program_name, trial))
    cache_key = (tool_name, program_name)
    tool = tools.get(cache_key)
    if tool is None:
        tool = tools[cache_key] = resolve_ref(ref)()
    program = programs.get(program_name)
    if program is None:
        from repro import bench

        program = programs[program_name] = bench.get(program_name)
    before = GLOBAL_COUNTERS.snapshot()
    start = time.perf_counter()
    result = tool.find_bug(program, budget, seed, profile.env, profile.verify_replays)
    wall_time = time.perf_counter() - start
    counters = GLOBAL_COUNTERS.delta(before).as_dict()
    # Stamp the trial index (the tool records the seed there by default).
    return replace(result, trial=trial), wall_time, counters


def _pool_worker_main(conn, profile: WorkerProfile) -> None:
    """Worker entrypoint: serve slices until told to shut down.

    Tools and programs are cached across slices *and* allocation rounds —
    this loop is the fork-server analogue the module docstring describes.
    One reply per slice, in the order the slices arrived, so the
    dispatcher can replay only unfinished work when this process dies.
    """
    import threading

    from repro.harness.persist import result_to_dict

    send_lock = threading.Lock()
    stop = threading.Event()

    if profile.heartbeat_seconds:
        parent = os.getppid()

        def beat() -> None:
            # A wedged worker (hang fault, stuck runtime) stops beating but
            # stays alive: exactly the failure the parent's lease catches.
            while not stop.wait(profile.heartbeat_seconds):
                if os.getppid() != parent:
                    # Reparented: the campaign was killed without shutting
                    # the pool down.  Don't outlive it.
                    os._exit(0)
                if faults.is_wedged():
                    continue
                with send_lock:
                    if stop.is_set():
                        return
                    try:
                        conn.send(("heartbeat",))
                    except OSError:  # parent gone; nothing left to report to
                        return

        threading.Thread(target=beat, daemon=True).start()

    profiler = None
    if profile.profile_dir:
        import cProfile

        profiler = cProfile.Profile()
        profiler.enable()

    def dump_profile() -> None:
        if profiler is None:
            return
        profiler.disable()
        target = os.path.join(profile.profile_dir, f"worker-{os.getpid()}.pstats")
        profiler.dump_stats(target)
        profiler.enable()

    tools: dict[tuple[str, str], Any] = {}
    programs: dict[str, Any] = {}
    try:
        while True:
            try:
                message = conn.recv()
            except (EOFError, OSError):  # parent died; die with it
                return
            if message[0] == "shutdown":
                dump_profile()
                return
            try:
                result, wall_time, counters = _run_slice(message[1], profile, tools, programs)
                reply = ("slice_done", (result_to_dict(result), wall_time, counters))
            except BaseException as exc:  # noqa: BLE001 - must not leak workers
                reply = ("slice_error", f"{type(exc).__name__}: {exc}")
            with send_lock:
                conn.send(reply)
            # Dump after every slice, not only at shutdown, so a worker that
            # is later killed still leaves profile data for completed work.
            dump_profile()
    finally:
        stop.set()
        conn.close()


# ----------------------------------------------------------------------
# Dispatcher side
# ----------------------------------------------------------------------
def backoff_delay(attempt: int) -> float:
    """Delay before retry #``attempt`` (1-based): capped exponential."""
    return min(BACKOFF_CAP, BACKOFF_BASE * 2 ** (attempt - 1))


def classify_failures(kinds: list[str]) -> str:
    """Triage of an exhausted cell from the kinds its attempts failed with."""
    if len(set(kinds)) == 1:
        return f"deterministic crasher: every attempt failed with {kinds[0]!r}"
    return f"flaky environment: attempts failed with {sorted(set(kinds))}"


def _emit_cell_end(spec: Slice, attempt: int, outcome: tuple, sink: TelemetrySink) -> None:
    """The telemetry of one completed slice, given its ``(result,
    wall_time, counters)``: ``cell_end`` plus its findings."""
    result, wall_time, counters = outcome
    cell = _cell(spec)
    # The executor-level counter delta also counts executions; the result's
    # own count is the authoritative cell figure.
    counters = {k: v for k, v in counters.items() if k != "executions"}
    sink.emit(
        "cell_end",
        **cell,
        attempt=attempt,
        wall_time=wall_time,
        executions=result.executions,
        schedules_per_sec=result.executions / wall_time if wall_time > 0 else 0.0,
        found=result.found,
        **counters,
    )
    for report in result.sanitizer_reports:
        sink.emit(
            "sanitizer_report",
            **cell,
            sanitizer=report.sanitizer,
            kind=report.kind,
            location=report.location,
            pair=list(report.pair),
        )


#: Records one slice's result with the round loop: ``record(key, result)``.
Recorder = Callable[[tuple[str, str, int], BugSearchResult], None]
#: One slice to run and the attempt (1-based) it is on.
Queued = tuple[Slice, int]


@dataclass
class _PoolWorker:
    """Parent-side handle of one long-lived pool worker."""

    proc: Any
    conn: Any
    #: Time of the worker's last message: any message renews its lease.
    last_beat: float
    #: Time the worker's running slice started (its predecessor's reply, or
    #: its send to the idle worker); the per-slice ``cell_timeout`` is
    #: enforced as time-without-progress.
    last_progress: float
    #: Slices sent and not yet answered, in send order: the first is
    #: running, the next waits in the pipe (at most :data:`WORKER_DEPTH`).
    held: deque = field(default_factory=deque)


class WorkerPool:
    """A pool of long-lived slice-serving workers for one campaign.

    The pool outlives individual ``execute()`` calls — the round loop calls
    it once per round, and worker caches persist across rounds.  The retry
    budget, timeout and lease are read from the owning
    :class:`~repro.harness.parallel.ParallelCampaign`; the pool implements
    dispatch, streaming replies, crash replay and the failure policy
    (:func:`backoff_delay`, :func:`classify_failures`), and counts
    ``retries`` and ``failed`` cells in :attr:`stats`.
    """

    def __init__(
        self,
        engine,
        context,
        size: int,
        profile: WorkerProfile,
        refs: dict[str, str],
        tools: Iterable[Any] = (),
        programs: Iterable[Any] = (),
    ):
        self.engine = engine
        self.sink: TelemetrySink = engine.telemetry
        self.context = context
        #: Worker processes; 0 runs every slice in-process.
        self.size = size
        self.profile = profile
        #: Tool name -> importable factory reference, which the round loop
        #: puts in every slice.
        self.refs = refs
        self.stats = {"retries": 0, "failed": 0}
        #: Cell key -> the failure kinds of its attempts so far.
        self._failure_kinds: dict[tuple[str, str, int], list[str]] = {}
        self._workers: dict[Any, _PoolWorker] = {}
        self._degraded = False
        #: Tool and program caches of the in-process drain, seeded with the
        #: given instances (``Campaign.run`` passes its caller's).
        self._programs: dict[str, Any] = {program.name: program for program in programs}
        self._tools: dict[tuple[str, str], Any] = {
            (tool.name, name): tool for tool in tools for name in self._programs
        }

    # -- worker lifecycle -----------------------------------------------
    def _spawn(self) -> _PoolWorker | None:
        try:
            parent_conn, child_conn = self.context.Pipe(duplex=True)
            proc = self.context.Process(
                target=_pool_worker_main, args=(child_conn, self.profile), daemon=True
            )
            proc.start()
        except OSError:
            return None
        child_conn.close()
        now = time.perf_counter()
        worker = _PoolWorker(
            proc=proc, conn=parent_conn, last_beat=now, last_progress=now
        )
        self._workers[parent_conn] = worker
        return worker

    @staticmethod
    def _kill(worker: _PoolWorker) -> None:
        worker.proc.terminate()
        worker.proc.join(timeout=5)
        if worker.proc.is_alive():  # pragma: no cover - terminate() suffices
            worker.proc.kill()
            worker.proc.join()
        worker.conn.close()

    def close(self) -> None:
        """Shut every worker down (clean message first, then force), with
        one ``worker_exit`` each.

        A worker that still holds slices means the campaign is aborting: it
        is killed without waiting for them, and its exit is of kind
        ``abort`` with the slices it held as ``unfinished``.
        """
        for worker in self._workers.values():
            if worker.held:
                self._kill(worker)
                continue
            try:
                worker.conn.send(("shutdown",))
            except OSError:
                pass
        for worker in self._workers.values():
            if not worker.held:
                worker.proc.join(timeout=5)
                if worker.proc.is_alive():  # pragma: no cover - shutdown suffices
                    worker.proc.terminate()
                    worker.proc.join()
                worker.conn.close()
            self.sink.emit(
                "worker_exit",
                pid=worker.proc.pid,
                exitcode=worker.proc.exitcode,
                kind="abort" if worker.held else "ok",
                unfinished=len(worker.held),
            )
        self._workers.clear()

    # -- slice bookkeeping ----------------------------------------------
    def _start(self, pid: int, spec: Slice, attempt: int) -> None:
        """Emit ``cell_start`` for a slice that process ``pid`` starts now.

        A worker runs the slices it holds in order, so a queued slice
        starts when its predecessor replies (or, sent to an idle worker,
        when it is sent); emitting then keeps its wait out of its time.
        """
        self.sink.emit("cell_start", **_cell(spec), attempt=attempt, pid=pid)

    def _fail(self, spec: Slice, attempts: int, kind: str, detail: str) -> BugSearchResult:
        """A cell that cannot complete: telemetry, then its structured error result."""
        self.stats["failed"] += 1
        cell = _cell(spec)
        self.sink.emit("cell_error", **cell, attempts=attempts, kind=kind, detail=detail)
        return BugSearchResult(
            **cell,
            found=False,
            schedules_to_bug=None,
            executions=0,
            outcome=None,
            error=f"{kind} after {attempts} attempt(s): {detail}",
        )

    # -- dispatch/replay ------------------------------------------------
    def _send(self, worker: _PoolWorker, ready: deque) -> bool:
        """Send ``worker`` the slice at the head of ``ready``.

        Returns False, leaving ``ready`` as it was, when the worker's pipe
        is broken (the worker died).
        """
        try:
            worker.conn.send(("slice", ready[0][0]))
        except OSError:
            return False
        if not worker.held:
            worker.last_progress = worker.last_beat = time.perf_counter()
        worker.held.append(ready.popleft())
        return True

    def _recycle(
        self,
        worker: _PoolWorker,
        kind: str,
        ready: deque,
        waiting: list,
        record: Recorder,
    ) -> None:
        """Retire a dead or killed worker: one ``worker_exit``.

        Only the slice it was running (the first it holds) costs an
        attempt, and a retry is one ``cell_retry``; the slice queued behind
        it never started and goes back to the front of the ready queue
        unchanged.
        """
        engine = self.engine
        del self._workers[worker.conn]
        if kind == "crash":
            worker.proc.join()
            worker.conn.close()
        else:
            self._kill(worker)
        exitcode = worker.proc.exitcode
        held = worker.held
        self.sink.emit(
            "worker_exit", pid=worker.proc.pid, exitcode=exitcode, kind=kind, unfinished=len(held)
        )
        if not held:
            return
        spec, attempt = held.popleft()
        ready.extendleft(reversed(held))
        key = spec[:3]
        kinds = self._failure_kinds.setdefault(key, [])
        kinds.append(kind)
        if attempt > engine.max_retries:
            if kind == "crash":
                detail = f"worker died with exit code {exitcode}"
            elif kind == "timeout":
                detail = f"slice exceeded {engine.cell_timeout:g}s without progress"
            else:
                detail = (
                    f"worker missed its heartbeat deadline "
                    f"({engine.lease_seconds:g}s lease expired)"
                )
            detail = f"{detail} [{classify_failures(kinds)}]"
            record(key, self._fail(spec, attempt, kind, detail))
            return
        self.stats["retries"] += 1
        delay = backoff_delay(attempt)
        self.sink.emit("cell_retry", **_cell(spec), attempt=attempt, kind=kind, delay=delay)
        waiting.append((time.perf_counter() + delay, (spec, attempt + 1)))

    def _pump(self, worker: _PoolWorker, ready: deque, waiting: list, record: Recorder) -> None:
        """Drain every buffered message of one worker pipe.  Any message
        renews the worker's lease; a heartbeat does nothing else."""
        # Imported here: an in-process campaign decodes no replies.
        from repro.harness.persist import result_from_dict

        conn = worker.conn
        while True:
            try:
                if not conn.poll():
                    return
                message = conn.recv()
            except (EOFError, OSError):
                self._recycle(worker, "crash", ready, waiting, record)
                return
            tag = message[0]
            now = time.perf_counter()
            worker.last_beat = now
            if tag == "heartbeat":
                continue
            # "slice_done" or "slice_error", for the first held slice.
            spec, attempt = worker.held.popleft()
            worker.last_progress = now
            # Top the worker up before decoding and recording, so it never
            # waits on this process.  A broken pipe leaves the slice ready;
            # the next poll reports the crash.
            if ready:
                self._send(worker, ready)
            if tag == "slice_done":
                data, wall_time, counters = message[1]
                result = result_from_dict(data)
                _emit_cell_end(spec, attempt, (result, wall_time, counters), self.sink)
            else:
                # Deterministic in-worker exception; retrying cannot help.
                result = self._fail(spec, attempt, "error", message[1])
            if worker.held:
                # The worker has moved on to its next slice: mark its start
                # before the (store-appending) record of this one.
                self._start(worker.proc.pid, *worker.held[0])
            record(spec[:3], result)

    def _drain_serial(self, ready: deque, waiting: list, record: Recorder) -> None:
        """Run every remaining slice in this process (pool size 0, or no
        worker could be started)."""
        # Worker faults fire in workers only: a kill here would end the campaign.
        profile = replace(self.profile, chaos=None)
        pid = os.getpid()
        while ready or waiting:
            spec, attempt = ready.popleft() if ready else waiting.pop(0)[1]
            self._start(pid, spec, attempt)
            try:
                outcome = _run_slice(spec, profile, self._tools, self._programs)
            except Exception as exc:  # deterministic failure: no retry in-process
                detail = f"{type(exc).__name__}: {exc}"
                record(spec[:3], self._fail(spec, attempt, "error", detail))
                continue
            _emit_cell_end(spec, attempt, outcome, self.sink)
            record(spec[:3], outcome[0])

    # -- the dispatch loop ----------------------------------------------
    def execute(self, pending: list[Slice], record: Recorder) -> None:
        """Run every pending slice through the pool (one round barrier).

        Returns when every slice has been recorded (success or structured
        failure).  Workers left idle at return stay alive for the next call.
        """
        if not pending:
            return
        ready: deque[Queued] = deque((spec, 1) for spec in pending)
        #: Retried slices waiting out their backoff: (earliest send time, slice).
        waiting: list[tuple[float, Queued]] = []
        if self.size == 0 or self._degraded:
            self._drain_serial(ready, waiting, record)
            return
        # Imported here: in-process campaigns never wait on a pipe.
        from multiprocessing import connection as mp_connection

        engine = self.engine
        while ready or waiting or any(w.held for w in self._workers.values()):
            now = time.perf_counter()
            if waiting:
                ready.extend(item for not_before, item in waiting if not_before <= now)
                waiting[:] = [entry for entry in waiting if entry[0] > now]
            while ready:
                # The live worker holding the fewest slices; spawn another
                # only while every live worker is busy.
                worker = min(
                    self._workers.values(), key=lambda w: len(w.held), default=None
                )
                if (worker is None or worker.held) and len(self._workers) < self.size:
                    spawned = self._spawn()
                    if spawned is not None:
                        worker = spawned
                    elif worker is None:
                        # No live workers and none can start: finish this
                        # and every later round in-process.
                        self._degraded = True
                        self.sink.emit(
                            "pool_degraded",
                            reason="pool worker could not be started; "
                            "running remaining slices serially in-process",
                        )
                        self._drain_serial(ready, waiting, record)
                        return
                if len(worker.held) >= WORKER_DEPTH:
                    break
                if not self._send(worker, ready):
                    # The worker died; the slice stays ready.
                    self._recycle(worker, "crash", ready, waiting, record)
                elif len(worker.held) == 1:
                    self._start(worker.proc.pid, *worker.held[0])
            if not self._workers:
                if waiting and not ready:
                    # Everything is backing off and no worker is alive yet;
                    # sleep to the nearest retry-ready time, don't spin.
                    time.sleep(
                        max(0.0, min(entry[0] for entry in waiting) - time.perf_counter())
                    )
                continue
            deadlines = [entry[0] for entry in waiting]
            for worker in self._workers.values():
                if worker.held and engine.cell_timeout is not None:
                    deadlines.append(worker.last_progress + engine.cell_timeout)
                deadlines.append(worker.last_beat + engine.lease_seconds)
            timeout = max(0.0, min(deadlines) - now)
            for conn in mp_connection.wait(list(self._workers), timeout=timeout):
                worker = self._workers.get(conn)
                if worker is not None:
                    self._pump(worker, ready, waiting, record)
            now = time.perf_counter()
            for worker in list(self._workers.values()):
                if (
                    worker.held
                    and engine.cell_timeout is not None
                    and now - worker.last_progress >= engine.cell_timeout
                ):
                    self._recycle(worker, "timeout", ready, waiting, record)
                elif now - worker.last_beat >= engine.lease_seconds:
                    self._recycle(worker, "lease", ready, waiting, record)
