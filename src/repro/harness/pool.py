"""Persistent batched worker pool: the engine every multi-process campaign runs on.

The paper's C/C++ RFF rides on AFL's fork server to amortize target startup
cost across executions.  This module is the analogue of the fork server:

* **Long-lived workers.**  ``size`` processes are spawned once per
  campaign and serve *batches* of slices over a request/reply pipe
  protocol, surviving across batches and allocation rounds.
* **Worker-side caches.**  Each worker caches constructed tools keyed by
  ``(tool_name, program_name)`` and resolved programs keyed by program
  name.  Caching is determinism-safe because every ``find_bug`` call
  builds its own RNG/policy/fuzzer state from the slice seed and gets the
  campaign's runtime (``WorkerProfile.env``: sanitizers, guardrails) and
  replay count as arguments, so a cached tool holds no campaign setting.
  Tools that keep cross-call state can opt out with ``reusable = False``
  (see :class:`repro.harness.tools.TestingTool`).
* **Compact replies.**  Results cross the pipe in persist-dict form
  (:func:`repro.harness.persist.result_to_dict`), not as pickled live
  objects; the dispatcher re-interns repeated strings and rf-pair buffers
  on decode so ten thousand slices don't allocate ten thousand copies of
  ``"CS/reorder_10"``.
* **Budget-aware batching.**  The dispatcher packs slices into batches
  bounded both by slice count and by total schedule budget
  (:func:`repro.harness.allocator.pack_batches`), so one slow batch cannot
  starve an allocation-round barrier.
* **Supervision.**  Workers beat from a daemon thread every
  ``heartbeat_seconds``; a worker silent for ``lease_seconds`` loses its
  lease and is killed, as is one that goes ``cell_timeout`` seconds
  without finishing a slice.  Workers apply the profile's chaos plan
  (:mod:`repro.harness.faults`) before every slice.
* **Crash replay of the running slice only.**  Workers stream one
  ``slice_done`` message per slice, in batch order, so when a worker dies
  the dispatcher knows which slice it was running.  That slice is retried
  after a capped exponential backoff (:func:`backoff_delay`), up to
  ``max_retries`` times, and then recorded as a structured error
  classified as a *deterministic crasher* (every attempt failed the same
  way) or a *flaky environment* (:func:`classify_failures`).
  The batch's never-started slices go back to the ready queue at their
  current attempt.  For a fixed (seed, allocator), serial == pool ==
  SIGKILL'd-and-resumed, bit for bit.
* **In-process execution.**  A pool of size 0 runs every slice in the
  dispatcher's own process, and a pool whose workers cannot be started
  at all degrades to that same in-process drain.  It is the only
  in-process runner: the serial :class:`~repro.harness.campaign.Campaign`
  is a size-0 pool whose caches are seeded with the caller's tool and
  program instances.  It runs no worker faults.

Wire protocol (one duplex pipe per worker):

======================  =================================================
parent -> worker        ``("batch", batch_id, [wire_slice, ...])`` then
                        eventually ``("shutdown",)``
worker -> parent        ``("slice_done", batch_id, index, payload)`` or
                        ``("slice_error", batch_id, index, message)`` per
                        slice, ``("batch_end", batch_id)`` per batch, and
                        ``("heartbeat", seq, identity)``
======================  =================================================

A wire slice is the interned tuple ``(tool, program, trial, seed, budget,
factory_ref)``; a reply payload is ``(result_dict, wall_time,
counters_dict)``.
"""

from __future__ import annotations

import os
import sys
import time
from collections import deque
from dataclasses import dataclass, field, replace
from typing import Any, Callable, Iterable

from repro.core.reproduce import RunEnv
from repro.core.trace import intern_schedule
from repro.harness import faults
from repro.harness.campaign import PendingSlice
from repro.harness.parallel import CellOutcome, CellSpec, resolve_ref
from repro.harness.telemetry import GLOBAL_COUNTERS, TelemetrySink
from repro.harness.tools import BugSearchResult

#: Maximum slices per dispatched batch.
BATCH_SLICES = 8
#: Target number of batch "waves" per worker per execute() call; the budget
#: cap is sized so a round splits into roughly this many batches per worker,
#: keeping any single batch from holding the round barrier hostage.
BATCH_WAVES = 4
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


def wire_slice(spec) -> tuple:
    """The compact, interned wire form of one :class:`CellSpec` slice."""
    return intern_schedule(
        (spec.tool, spec.program, spec.trial, spec.seed, spec.budget, spec.factory_ref)
    )


# ----------------------------------------------------------------------
# Worker side
# ----------------------------------------------------------------------
def _run_slice(wire: tuple, profile: WorkerProfile, tools: dict, programs: dict):
    """Run one slice against the given caches; returns its CellOutcome."""
    tool_name, program_name, trial, seed, budget, ref = wire
    if profile.chaos is not None:
        faults.worker_chaos(*profile.chaos, faults.cell_key(tool_name, program_name, trial))
    cache_key = (tool_name, program_name)
    tool = tools.get(cache_key)
    if tool is None:
        tool = resolve_ref(ref)()
        if getattr(tool, "reusable", True):
            tools[cache_key] = tool
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
    return CellOutcome(
        result=replace(result, trial=trial), wall_time=wall_time, counters=counters
    )


def _pool_worker_main(conn, profile: WorkerProfile) -> None:
    """Worker entrypoint: serve batches until told to shut down.

    Tools and programs are cached across batches *and* allocation rounds —
    this loop is the fork-server analogue the module docstring describes.
    Replies stream per slice so the dispatcher can replay only unfinished
    work when this process dies mid-batch.
    """
    import threading

    from repro.harness.persist import result_to_dict

    send_lock = threading.Lock()
    stop = threading.Event()
    #: Identity (tool, program, trial) of the slice currently running; the
    #: heartbeat thread reads it so parent-side telemetry can attribute
    #: beats to cells (None while idle between batches).
    current: list = [None]

    if profile.heartbeat_seconds:
        parent = os.getppid()

        def beat() -> None:
            # A wedged worker (hang fault, stuck runtime) stops beating but
            # stays alive: exactly the failure the parent's lease catches.
            seq = 0
            while not stop.wait(profile.heartbeat_seconds):
                if os.getppid() != parent:
                    # Reparented: the campaign was killed without shutting
                    # the pool down.  Don't outlive it.
                    os._exit(0)
                if faults.is_wedged():
                    continue
                seq += 1
                with send_lock:
                    if stop.is_set():
                        return
                    try:
                        conn.send(("heartbeat", seq, current[0]))
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
            _, batch_id, slices = message
            for index, wire in enumerate(slices):
                current[0] = (wire[0], wire[1], wire[2])
                try:
                    outcome = _run_slice(wire, profile, tools, programs)
                    payload = ("slice_done", batch_id, index,
                               (result_to_dict(outcome.result), outcome.wall_time,
                                outcome.counters))
                except BaseException as exc:  # noqa: BLE001 - must not leak workers
                    payload = ("slice_error", batch_id, index,
                               f"{type(exc).__name__}: {exc}")
                current[0] = None
                with send_lock:
                    conn.send(payload)
            with send_lock:
                conn.send(("batch_end", batch_id))
            # Dump after every batch, not only at shutdown, so a worker that
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


def _intern_reply(data: dict) -> dict:
    """Re-intern the repeated strings of one reply's result dict in place.

    A campaign decodes thousands of replies whose tool/program/outcome and
    sanitizer rf-pair strings repeat across slices; ``sys.intern`` collapses
    them to shared singletons parent-side (the same discipline the abstract
    event and rf-pair tables apply inside the executor).
    """
    data["tool"] = sys.intern(data["tool"])
    data["program"] = sys.intern(data["program"])
    outcome = data.get("outcome")
    if isinstance(outcome, str):
        data["outcome"] = sys.intern(outcome)
    for report in data.get("sanitizer_reports", ()):
        report["sanitizer"] = sys.intern(report["sanitizer"])
        report["kind"] = sys.intern(report["kind"])
        report["pair"] = [sys.intern(part) for part in report["pair"]]
    return data


def _decode_outcome(payload) -> CellOutcome:
    """Reply payload -> CellOutcome."""
    # Imported here: an in-process campaign decodes no replies.
    from repro.harness.persist import result_from_dict

    data, wall_time, counters = payload
    return CellOutcome(
        result=result_from_dict(_intern_reply(data)),
        wall_time=wall_time,
        counters=counters,
    )


def _emit_cell_end(spec, attempt: int, outcome, sink: TelemetrySink) -> None:
    """The telemetry of one completed slice: ``cell_end`` plus its findings."""
    result = outcome.result
    # The executor-level counter delta also counts executions; the result's
    # own count is the authoritative cell figure.
    counters = {k: v for k, v in outcome.counters.items() if k != "executions"}
    sink.emit(
        "cell_end",
        tool=spec.tool,
        program=spec.program,
        trial=spec.trial,
        attempt=attempt,
        wall_time=outcome.wall_time,
        executions=result.executions,
        schedules_per_sec=(
            result.executions / outcome.wall_time if outcome.wall_time > 0 else 0.0
        ),
        found=result.found,
        **counters,
    )
    for report in result.sanitizer_reports:
        sink.emit(
            "sanitizer_report",
            tool=spec.tool,
            program=spec.program,
            trial=spec.trial,
            sanitizer=report.sanitizer,
            kind=report.kind,
            location=report.location,
            pair=list(report.pair),
        )


#: Records one slice's result with the round loop: ``record(key, result)``.
Recorder = Callable[[tuple[str, str, int], BugSearchResult], None]


@dataclass
class _Batch:
    """One dispatched unit of work: parallel arrays over its slices."""

    batch_id: int
    specs: list
    attempts: list[int]
    wires: list[tuple]
    budget: int
    done: list[bool] = field(default_factory=list)
    #: Earliest dispatch time (a retried slice waits out its backoff).
    not_before: float = 0.0

    def __post_init__(self) -> None:
        if not self.done:
            self.done = [False] * len(self.specs)

    def unfinished(self) -> list[int]:
        return [index for index, is_done in enumerate(self.done) if not is_done]


@dataclass
class _PoolWorker:
    """Parent-side handle of one long-lived pool worker."""

    proc: Any
    conn: Any
    last_beat: float
    #: Time of the worker's last slice completion (or batch dispatch); the
    #: per-slice ``cell_timeout`` is enforced as time-without-progress.
    last_progress: float
    batch: _Batch | None = None


class WorkerPool:
    """A pool of long-lived batch-serving workers for one campaign.

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
        #: Tool name -> importable factory reference, carried in every slice.
        self.refs = refs
        self.stats = {"retries": 0, "failed": 0}
        #: Cell key -> the failure kinds of its attempts so far.
        self._failure_kinds: dict[tuple[str, str, int], list[str]] = {}
        self._workers: dict[Any, _PoolWorker] = {}
        self._batch_seq = 0
        self._degraded = False
        #: Tool and program caches of the in-process drain, seeded with the
        #: given instances (``Campaign.run`` passes its caller's).
        self._programs: dict[str, Any] = {program.name: program for program in programs}
        self._tools: dict[tuple[str, str], Any] = {
            (tool.name, name): tool for tool in tools for name in self._programs
        }

    # -- batching -------------------------------------------------------
    def _make_batch(self, specs: list, attempts: list[int], not_before: float = 0.0) -> _Batch:
        self._batch_seq += 1
        return _Batch(
            batch_id=self._batch_seq,
            specs=list(specs),
            attempts=list(attempts),
            wires=[wire_slice(spec) for spec in specs],
            budget=sum(spec.budget for spec in specs),
            not_before=not_before,
        )

    def _pack(self, specs: list) -> list[_Batch]:
        from repro.harness.allocator import pack_batches

        total = sum(spec.budget for spec in specs)
        largest = max(spec.budget for spec in specs)
        waves = max(1, self.size) * BATCH_WAVES
        cap = max(largest, -(-total // waves))
        return [
            self._make_batch(group, [1] * len(group))
            for group in pack_batches(specs, BATCH_SLICES, cap)
        ]

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

    def _idle_worker(self) -> _PoolWorker | None:
        for worker in self._workers.values():
            if worker.batch is None:
                return worker
        return None

    @staticmethod
    def _kill(worker: _PoolWorker) -> None:
        worker.proc.terminate()
        worker.proc.join(timeout=5)
        if worker.proc.is_alive():  # pragma: no cover - terminate() suffices
            worker.proc.kill()
            worker.proc.join()
        worker.conn.close()

    def close(self) -> None:
        """Shut every worker down (clean message first, then force)."""
        for worker in self._workers.values():
            if worker.batch is not None:
                # Abort path: a batch is still in flight; don't wait for it.
                self._kill(worker)
                continue
            try:
                worker.conn.send(("shutdown",))
            except OSError:
                pass
        for worker in self._workers.values():
            if worker.batch is not None:
                continue
            worker.proc.join(timeout=5)
            if worker.proc.is_alive():  # pragma: no cover - shutdown suffices
                worker.proc.terminate()
                worker.proc.join()
            worker.conn.close()
            self.sink.emit(
                "worker_exit", pid=worker.proc.pid, exitcode=worker.proc.exitcode, kind="ok"
            )
        self._workers.clear()

    # -- slice bookkeeping ----------------------------------------------
    def _start(self, batch: _Batch, index: int) -> None:
        """Emit ``cell_start`` for slice ``index`` of ``batch``, if any.

        A worker runs its batch in order, so slice ``index`` starts when
        slice ``index - 1`` replies (or, for index 0, when the batch is
        sent); emitting then keeps queued slices' waits out of their time.
        """
        if index < len(batch.specs):
            spec = batch.specs[index]
            self.sink.emit(
                "cell_start",
                tool=spec.tool,
                program=spec.program,
                trial=spec.trial,
                attempt=batch.attempts[index],
            )

    def _fail(self, spec, attempts: int, kind: str, detail: str) -> BugSearchResult:
        """A cell that cannot complete: telemetry, then its structured error result."""
        self.stats["failed"] += 1
        self.sink.emit(
            "cell_error",
            tool=spec.tool,
            program=spec.program,
            trial=spec.trial,
            attempts=attempts,
            kind=kind,
            detail=detail,
        )
        return BugSearchResult(
            tool=spec.tool,
            program=spec.program,
            trial=spec.trial,
            found=False,
            schedules_to_bug=None,
            executions=0,
            outcome=None,
            error=f"{kind} after {attempts} attempt(s): {detail}",
        )

    # -- dispatch/replay ------------------------------------------------
    def _dispatch(self, worker: _PoolWorker, batch: _Batch) -> bool:
        try:
            worker.conn.send(("batch", batch.batch_id, batch.wires))
        except OSError:
            return False
        now = time.perf_counter()
        worker.batch = batch
        worker.last_progress = now
        worker.last_beat = now
        self.sink.emit(
            "batch_dispatch",
            pid=worker.proc.pid,
            batch=batch.batch_id,
            slices=len(batch.specs),
            budget=batch.budget,
        )
        self._start(batch, 0)
        return True

    def _recycle(
        self,
        worker: _PoolWorker,
        kind: str,
        ready: deque,
        waiting: list[_Batch],
        record: Recorder,
    ) -> None:
        """Retire a dead or killed worker.

        Only the slice it was running (the first unfinished one) costs an
        attempt; the batch's never-started slices go back to the ready
        queue unchanged.
        """
        engine = self.engine
        del self._workers[worker.conn]
        if kind == "crash":
            worker.proc.join()
            worker.conn.close()
        else:
            self._kill(worker)
        exitcode = worker.proc.exitcode
        batch = worker.batch
        unfinished = [] if batch is None else batch.unfinished()
        self.sink.emit("worker_exit", pid=worker.proc.pid, exitcode=exitcode, kind=kind)
        self.sink.emit(
            "worker_recycle",
            pid=worker.proc.pid,
            exitcode=exitcode,
            kind=kind,
            unfinished=len(unfinished),
        )
        if not unfinished:
            return
        running, never_started = unfinished[0], unfinished[1:]
        if never_started:
            ready.appendleft(
                self._make_batch(
                    [batch.specs[i] for i in never_started],
                    [batch.attempts[i] for i in never_started],
                )
            )
        spec, attempt = batch.specs[running], batch.attempts[running]
        kinds = self._failure_kinds.setdefault(spec.key, [])
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
            record(spec.key, self._fail(spec, attempt, kind, detail))
            return
        self.stats["retries"] += 1
        delay = backoff_delay(attempt)
        identity = {"tool": spec.tool, "program": spec.program, "trial": spec.trial}
        self.sink.emit("cell_retry", **identity, attempt=attempt, kind=kind)
        self.sink.emit("lease_reassign", **identity, attempt=attempt, kind=kind, delay=delay)
        waiting.append(
            self._make_batch([spec], [attempt + 1], not_before=time.perf_counter() + delay)
        )

    def _pump(
        self, worker: _PoolWorker, ready: deque, waiting: list[_Batch], record: Recorder
    ) -> None:
        """Drain every buffered message of one worker pipe."""
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
                identity = message[2]
                if identity is not None:
                    self.sink.emit(
                        "heartbeat",
                        pid=worker.proc.pid,
                        tool=identity[0],
                        program=identity[1],
                        trial=identity[2],
                        seq=message[1],
                    )
            elif tag in ("slice_done", "slice_error"):
                _, _, index, payload = message
                batch = worker.batch
                batch.done[index] = True
                worker.last_progress = now
                spec, attempt = batch.specs[index], batch.attempts[index]
                if tag == "slice_done":
                    outcome = _decode_outcome(payload)
                    _emit_cell_end(spec, attempt, outcome, self.sink)
                    result = outcome.result
                else:
                    # Deterministic in-worker exception; retrying cannot help.
                    result = self._fail(spec, attempt, "error", payload)
                # The worker has already moved on to the next slice: mark
                # its start before the (store-appending) record of this one.
                self._start(batch, index + 1)
                record(spec.key, result)
            elif tag == "batch_end":
                worker.batch = None

    def _drain_serial(self, ready: deque, waiting: list[_Batch], record: Recorder) -> None:
        """Run every remaining slice in this process (pool size 0, or no
        worker could be started)."""
        # Worker faults fire in workers only: a kill here would end the campaign.
        profile = replace(self.profile, chaos=None)
        while ready or waiting:
            batch = ready.popleft() if ready else waiting.pop(0)
            for index in batch.unfinished():
                spec, attempt = batch.specs[index], batch.attempts[index]
                self._start(batch, index)
                try:
                    outcome = _run_slice(
                        batch.wires[index], profile, self._tools, self._programs
                    )
                except Exception as exc:  # deterministic failure: no retry in-process
                    detail = f"{type(exc).__name__}: {exc}"
                    record(spec.key, self._fail(spec, attempt, "error", detail))
                    continue
                _emit_cell_end(spec, attempt, outcome, self.sink)
                record(spec.key, outcome.result)

    # -- the dispatch loop ----------------------------------------------
    def execute(self, pending: list[PendingSlice], record: Recorder) -> None:
        """Run every pending slice through the pool (one round barrier).

        Returns when every slice has been recorded (success or structured
        failure).  Workers left idle at return stay alive for the next call.
        """
        if not pending:
            return
        specs = [
            CellSpec(tool, program, trial, seed, budget, self.refs.get(tool))
            for (tool, program, trial), seed, budget in pending
        ]
        engine = self.engine
        ready: deque[_Batch] = deque(self._pack(specs))
        #: Retried slices waiting out their backoff delay.
        waiting: list[_Batch] = []
        if self.size == 0 or self._degraded:
            self._drain_serial(ready, waiting, record)
            return
        # Imported here: in-process campaigns never wait on a pipe.
        from multiprocessing import connection as mp_connection

        while ready or waiting or any(w.batch is not None for w in self._workers.values()):
            now = time.perf_counter()
            for batch in [b for b in waiting if b.not_before <= now]:
                waiting.remove(batch)
                ready.append(batch)
            while ready:
                worker = self._idle_worker()
                if worker is None and len(self._workers) < self.size:
                    worker = self._spawn()
                    if worker is None and not self._workers:
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
                if worker is None:
                    break
                batch = ready.popleft()
                if not self._dispatch(worker, batch):
                    # The idle worker died between batches; replace it and
                    # put the batch back — nothing of it ran yet.
                    self._recycle(worker, "crash", ready, waiting, record)
                    ready.appendleft(batch)
            if not self._workers:
                if waiting and not ready:
                    # Everything is backing off and no worker is alive yet;
                    # sleep to the nearest retry-ready time, don't spin.
                    time.sleep(
                        max(0.0, min(b.not_before for b in waiting) - time.perf_counter())
                    )
                continue
            deadlines = [b.not_before for b in waiting]
            for worker in self._workers.values():
                if worker.batch is not None and engine.cell_timeout is not None:
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
                    worker.batch is not None
                    and engine.cell_timeout is not None
                    and now - worker.last_progress >= engine.cell_timeout
                ):
                    self._recycle(worker, "timeout", ready, waiting, record)
                elif now - worker.last_beat >= engine.lease_seconds:
                    self._recycle(worker, "lease", ready, waiting, record)
