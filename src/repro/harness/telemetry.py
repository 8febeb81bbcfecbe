"""Structured telemetry for campaigns: counters, event sinks, aggregation.

The paper's experiments are (tool × program × trial) cells over up to 50
cores (Appendix A.2); at that scale a campaign without observability is a
black box — no per-cell cost, no throughput, no visibility into worker
failures.  This module provides the instrumentation layer the parallel
engine emits into:

* :class:`Counters` — cheap always-on integer counters incremented by the
  executor and the fuzzer (executions, steps, crashes, corpus admissions);
  the process-global :data:`GLOBAL_COUNTERS` instance lets a worker report
  exactly what one campaign cell cost.
* :class:`TelemetrySink` — the emit interface.  :class:`JsonlSink` appends
  one JSON object per line to a file (append-only, flushed per record, so a
  crashed campaign still leaves a readable log); :class:`TelemetryAggregator`
  keeps records in memory and computes throughput summaries;
  :class:`ProgressSink` turns ``cell_start`` into a progress callback;
  :class:`MultiSink` fans out to several sinks.
* :data:`EVENT_SCHEMA` / :func:`validate_record` — the golden schema every
  emitted record must satisfy, used by tests and by consumers that parse
  the JSONL stream.

Telemetry never influences results: sinks observe, they do not steer.
"""

from __future__ import annotations

import json
import os
import time
import weakref
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Iterable

try:  # pragma: no cover - fcntl is present on every POSIX CI target
    import fcntl
except ImportError:  # pragma: no cover - windows fallback: no advisory locks
    fcntl = None  # type: ignore[assignment]

#: Lock-holding file objects closed in every child forked from this process.
_LOCKED_FILES: "weakref.WeakSet[Any]" = weakref.WeakSet()


def unlock_in_forked_children(handle: Any) -> None:
    """Close ``handle`` in every child later forked from this process.

    An ``flock`` belongs to the open file description, which a forked child
    shares.  A pool worker that kept its inherited copy would keep the lock
    of a SIGKILLed campaign alive and lock its resume out; closing the
    child's copy leaves the parent's lock intact.
    """
    _LOCKED_FILES.add(handle)


def _close_locked_files() -> None:
    for handle in list(_LOCKED_FILES):
        handle.close()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_close_locked_files)

#: Bumped whenever a record type gains/loses required fields.
SCHEMA_VERSION = 1

# ----------------------------------------------------------------------
# Always-on counters (wired through runtime/executor.py and core/fuzzer.py)
# ----------------------------------------------------------------------
@dataclass
class Counters:
    """Monotonic per-process counters; integer increments only, so keeping
    them always-on costs nanoseconds per execution."""

    #: Completed executions (one per Executor.run()).
    executions: int = 0
    #: Total executed events across all executions.
    steps: int = 0
    #: Crashing executions observed by the fuzzer.
    crashes: int = 0
    #: Schedules admitted into a fuzzer corpus.
    corpus_adds: int = 0
    #: Findings emitted by online sanitizer stacks (one per report).
    sanitizer_reports: int = 0
    #: Executions killed by a guard watchdog (step budget or wall clock).
    timeouts: int = 0
    #: Executions killed by the guard's livelock detector.
    livelocks: int = 0
    #: Replay executions run by the reproduction verifier.
    replays: int = 0
    #: Bug buckets quarantined as FLAKY by replay verification.
    flaky_quarantined: int = 0

    # The pool snapshots and diffs these around every slice, so the methods
    # go through ``__dict__``: ``dataclasses.replace``/``fields``/``asdict``
    # cost several times more per call.
    def snapshot(self) -> "Counters":
        return Counters(**self.__dict__)

    def delta(self, since: "Counters") -> "Counters":
        """Counter increments accumulated after ``since`` was snapshotted."""
        base = since.__dict__
        return Counters(**{name: value - base[name] for name, value in self.__dict__.items()})

    def reset(self) -> None:
        self.__dict__.update(dict.fromkeys(self.__dict__, 0))

    def as_dict(self) -> dict[str, int]:
        return dict(self.__dict__)


#: The process-wide counter instance.  Workers snapshot it around each cell
#: and ship the delta back with the result.
GLOBAL_COUNTERS = Counters()


# ----------------------------------------------------------------------
# Event schema
# ----------------------------------------------------------------------
#: Fields present on every record, added by the sink itself.
COMMON_FIELDS = frozenset({"event", "ts", "schema"})

#: record type -> required payload fields.  Extra fields are allowed (the
#: schema is a floor, not a ceiling); missing fields are an error.
EVENT_SCHEMA: dict[str, frozenset[str]] = {
    "campaign_start": frozenset(
        {"tools", "programs", "trials", "total_cells", "resumed_cells", "processes"}
    ),
    "cell_start": frozenset({"tool", "program", "trial", "attempt"}),
    "cell_end": frozenset(
        {
            "tool",
            "program",
            "trial",
            "attempt",
            "wall_time",
            "executions",
            "schedules_per_sec",
            "found",
            "steps",
            "crashes",
            "corpus_adds",
        }
    ),
    "cell_retry": frozenset({"tool", "program", "trial", "attempt", "kind"}),
    "cell_error": frozenset({"tool", "program", "trial", "attempts", "kind", "detail"}),
    # No longer emitted; kept so telemetry files of older campaigns validate.
    "worker_start": frozenset({"pid", "tool", "program", "trial"}),
    "worker_exit": frozenset({"pid", "exitcode", "kind"}),
    "pool_degraded": frozenset({"reason"}),
    "sanitizer_report": frozenset(
        {"tool", "program", "trial", "sanitizer", "kind", "location", "pair"}
    ),
    # No longer emitted; kept so telemetry files of older campaigns validate.
    "checkpoint": frozenset({"path", "completed", "total"}),
    "campaign_end": frozenset(
        {"wall_time", "cells", "failed_cells", "retries", "executions", "schedules_per_sec"}
    ),
    # Generated-scenario pipeline (repro.harness.groundtruth).
    "gen_corpus": frozenset({"seed", "count", "config", "kinds"}),
    "gen_eval_end": frozenset(
        {"tools", "programs", "trials", "budget", "detected", "fn_rates"}
    ),
    # Adaptive budget allocation (repro.harness.allocator).
    "alloc_round": frozenset({"allocator", "round", "budget", "cells"}),
    "alloc_estimate": frozenset(
        {"allocator", "round", "tool", "program", "trial", "allocated", "estimate"}
    ),
    # Worker supervision (repro.harness.pool) and the store.
    "heartbeat": frozenset({"pid", "tool", "program", "trial", "seq"}),
    "lease_reassign": frozenset({"tool", "program", "trial", "attempt", "kind", "delay"}),
    # No longer emitted; kept so telemetry files of older campaigns validate.
    "batch_dispatch": frozenset({"pid", "batch", "slices", "budget"}),
    # Persistent worker pool (repro.harness.pool).
    "worker_recycle": frozenset({"pid", "exitcode", "kind", "unfinished"}),
    "store_compact": frozenset(
        {"path", "segments_before", "segments_after", "records_before", "records_after"}
    ),
}


def validate_record(record: dict[str, Any]) -> None:
    """Raise ``ValueError`` unless ``record`` satisfies the golden schema."""
    missing_common = COMMON_FIELDS - record.keys()
    if missing_common:
        raise ValueError(f"record missing common fields {sorted(missing_common)}: {record}")
    event = record["event"]
    if event not in EVENT_SCHEMA:
        raise ValueError(f"unknown telemetry event {event!r}; known: {sorted(EVENT_SCHEMA)}")
    missing = EVENT_SCHEMA[event] - record.keys()
    if missing:
        raise ValueError(f"{event!r} record missing fields {sorted(missing)}: {record}")
    if not isinstance(record["ts"], (int, float)):
        raise ValueError(f"record timestamp must be numeric: {record['ts']!r}")


def validate_jsonl(path: str | Path) -> list[dict[str, Any]]:
    """Validate every line of a telemetry JSONL file; returns the records."""
    records = []
    for line_number, line in enumerate(Path(path).read_text().splitlines(), start=1):
        if not line.strip():
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path}:{line_number}: invalid JSON: {exc}") from exc
        validate_record(record)
        records.append(record)
    return records


# ----------------------------------------------------------------------
# Sinks
# ----------------------------------------------------------------------
class TelemetrySink:
    """Base sink: ignores every record.  Subclasses override :meth:`emit`."""

    def emit(self, event: str, **fields: Any) -> None:  # noqa: ARG002 - interface
        pass

    def close(self) -> None:
        pass

    def __enter__(self) -> "TelemetrySink":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()


class SinkLockedError(RuntimeError):
    """Another process is writing the same telemetry path — two campaigns
    interleaving appends would tear each other's records."""


class JsonlSink(TelemetrySink):
    """Appends one JSON object per record; flushed per line so a killed
    campaign still leaves every completed record on disk.

    The sink holds an exclusive advisory ``flock`` on the file for its
    lifetime: a second campaign pointed at the same path fails fast with
    :class:`SinkLockedError` instead of silently interleaving records.
    Sequential reopen (close, then open again) is unaffected.
    """

    def __init__(self, path: str | Path, clock=time.time):
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._clock = clock
        self._handle = self.path.open("a", encoding="utf-8")
        if fcntl is not None:
            try:
                fcntl.flock(self._handle.fileno(), fcntl.LOCK_EX | fcntl.LOCK_NB)
            except OSError:
                self._handle.close()
                raise SinkLockedError(
                    f"{self.path}: another campaign is already writing this "
                    f"telemetry file; point each campaign at its own path"
                ) from None
            unlock_in_forked_children(self._handle)

    def emit(self, event: str, **fields: Any) -> None:
        record = {"event": event, "ts": self._clock(), "schema": SCHEMA_VERSION, **fields}
        validate_record(record)
        self._handle.write(json.dumps(record, sort_keys=True, default=str) + "\n")
        self._handle.flush()

    def close(self) -> None:
        if not self._handle.closed:
            self._handle.close()


class TelemetryAggregator(TelemetrySink):
    """In-memory sink computing the throughput summary of a campaign."""

    def __init__(self, clock=time.time):
        self.records: list[dict[str, Any]] = []
        self._clock = clock

    def emit(self, event: str, **fields: Any) -> None:
        record = {"event": event, "ts": self._clock(), "schema": SCHEMA_VERSION, **fields}
        validate_record(record)
        self.records.append(record)

    # -- accessors ------------------------------------------------------
    def of_type(self, event: str) -> list[dict[str, Any]]:
        return [r for r in self.records if r["event"] == event]

    @property
    def completed_cells(self) -> int:
        return len(self.of_type("cell_end"))

    @property
    def failed_cells(self) -> int:
        return len(self.of_type("cell_error"))

    @property
    def retries(self) -> int:
        return len(self.of_type("cell_retry"))

    @property
    def worker_restarts(self) -> int:
        """Worker exits that were not clean completions."""
        return sum(1 for r in self.of_type("worker_exit") if r["kind"] != "ok")

    @property
    def heartbeats(self) -> int:
        """Heartbeat messages received from pool workers."""
        return len(self.of_type("heartbeat"))

    @property
    def lease_reassignments(self) -> int:
        """Cells reassigned after a worker crash, hang, or lost lease."""
        return len(self.of_type("lease_reassign"))

    @property
    def worker_recycles(self) -> int:
        """Pool workers respawned after a crash, lost lease, or timeout."""
        return len(self.of_type("worker_recycle"))

    @property
    def total_executions(self) -> int:
        return sum(r["executions"] for r in self.of_type("cell_end"))

    @property
    def sanitizer_report_count(self) -> int:
        """Distinct sanitizer findings emitted across all cells."""
        return len(self.of_type("sanitizer_report"))

    def sanitizer_reports_by_name(self) -> dict[str, int]:
        """Finding counts per sanitizer (``race``/``lockset``/``lockorder``)."""
        counts: dict[str, int] = {}
        for record in self.of_type("sanitizer_report"):
            counts[record["sanitizer"]] = counts.get(record["sanitizer"], 0) + 1
        return counts

    @property
    def total_steps(self) -> int:
        return sum(r["steps"] for r in self.of_type("cell_end"))

    @property
    def total_wall_time(self) -> float:
        ends = self.of_type("campaign_end")
        if ends:
            return ends[-1]["wall_time"]
        return sum(r["wall_time"] for r in self.of_type("cell_end"))

    def cell_wall_times(self) -> dict[tuple[str, str, int], float]:
        """(tool, program, trial) -> wall seconds of the successful attempt."""
        return {
            (r["tool"], r["program"], r["trial"]): r["wall_time"] for r in self.of_type("cell_end")
        }

    def slowest_cells(self, count: int = 3) -> list[tuple[tuple[str, str, int], float]]:
        cells = sorted(self.cell_wall_times().items(), key=lambda kv: (-kv[1], kv[0]))
        return cells[:count]

    def schedules_per_sec(self) -> float:
        wall = self.total_wall_time
        return self.total_executions / wall if wall > 0 else 0.0

    def summary(self) -> dict[str, Any]:
        return {
            "cells": self.completed_cells,
            "failed_cells": self.failed_cells,
            "retries": self.retries,
            "worker_restarts": self.worker_restarts,
            "executions": self.total_executions,
            "steps": self.total_steps,
            "wall_time": self.total_wall_time,
            "schedules_per_sec": self.schedules_per_sec(),
            "sanitizer_reports": self.sanitizer_report_count,
        }


class ProgressSink(TelemetrySink):
    """Calls ``progress(tool, program, trial)`` on every ``cell_start``: once
    per executed slice attempt, never for one replayed from a store."""

    def __init__(self, progress: Callable[[str, str, int], Any]):
        self.progress = progress

    def emit(self, event: str, **fields: Any) -> None:
        if event == "cell_start":
            self.progress(fields["tool"], fields["program"], fields["trial"])


class MultiSink(TelemetrySink):
    """Fans every record out to several sinks (e.g. JSONL + aggregator)."""

    def __init__(self, sinks: Iterable[TelemetrySink]):
        self.sinks = list(sinks)

    def emit(self, event: str, **fields: Any) -> None:
        for sink in self.sinks:
            sink.emit(event, **fields)

    def close(self) -> None:
        for sink in self.sinks:
            sink.close()
