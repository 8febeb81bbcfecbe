"""Crash-safe, append-only corpus/findings store for durable campaigns.

A campaign that runs unattended for hours must survive SIGKILL at any
instant and resume *bit-identically* — no lost bugs, no duplicated cells,
no silent corruption.  :class:`CorpusStore` is the single write path, and
the only resume format, that serial
(:class:`~repro.harness.campaign.Campaign`) and parallel
(:class:`~repro.harness.parallel.ParallelCampaign`) campaigns share.  The
design is a miniature write-ahead log:

* **Append-only JSONL segments** (``segment-000000.jsonl`` …).  Each
  record is one checksummed JSON line
  (:func:`repro.harness.persist.attach_checksum`), appended and flushed;
  a killed writer leaves at most one torn trailing line, which reopening
  the store truncates away (:func:`repro.harness.persist.recover_jsonl`)
  so later appends can never manufacture a mid-file tear.
* **An atomically replaced manifest** (``MANIFEST.json``) naming the live
  segments, the campaign header, and the compaction count.  Every
  manifest update goes through write-temp → fsync → ``os.replace`` →
  fsync(directory), so the store always has exactly one authoritative
  manifest; segments not named by it are garbage from an interrupted
  compaction and are swept on the next writable open.
* **fsync barriers on bug admission.**  Ordinary records are flushed (safe
  against process death); records with ``found=True`` are additionally
  fsynced before :meth:`record_result` returns, so an admitted bug
  survives power loss, not just SIGKILL.
* **Checksum-verified reads.**  A record whose checksum fails to verify
  (at-rest corruption, or the ``corrupt`` chaos fault) is counted and
  skipped — its cell simply looks incomplete, and a resumed campaign
  re-runs it.  Dedup is first-wins per cell key, so a duplicated record
  cannot change results.
* **Advisory locking.**  Writers hold an exclusive ``flock`` on
  ``store.lock`` for their whole lifetime; readers take a shared one.
  A second campaign pointed at the same store fails fast with
  :class:`StoreLockedError` instead of interleaving records.

Chaos faults: when a :class:`~repro.harness.faults.ChaosPlan` is armed in
the environment, :meth:`record_result` consults
:func:`repro.harness.faults.store_chaos` per append — ``torn_write``
flushes half a line and raises :class:`~repro.harness.faults.ChaosKill`;
``corrupt`` commits the record with a poisoned checksum.  Both fire once
per injection point, so resumed campaigns provably converge.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterator

from repro.harness import faults
from repro.harness.persist import (
    attach_checksum,
    payload_checksum,
    read_jsonl,
    recover_jsonl,
    result_from_dict,
    result_to_dict,
)
from repro.harness.telemetry import unlock_in_forked_children
from repro.harness.tools import BugSearchResult

try:  # pragma: no cover - fcntl is present on every POSIX CI target
    import fcntl
except ImportError:  # pragma: no cover - windows fallback: no advisory locks
    fcntl = None  # type: ignore[assignment]

STORE_VERSION = 1
MANIFEST_NAME = "MANIFEST.json"
LOCK_NAME = "store.lock"
SEGMENT_FORMAT = "segment-{index:06d}.jsonl"
#: Default records-per-segment before the writer rolls to a fresh segment.
SEGMENT_MAX_RECORDS = 4096

#: A campaign cell's identity inside the store.
CellKey = tuple[str, str, int]

#: One allocation-round slice of a cell: (tool, program, trial, round).
SliceKey = tuple[str, str, int, int]


class StoreError(RuntimeError):
    """The store is unusable as asked (missing, corrupt, or misconfigured)."""


class StoreLockedError(StoreError):
    """Another process holds the store's advisory lock."""


class StoreMismatchError(StoreError):
    """The store belongs to a different campaign configuration."""


@dataclass(frozen=True)
class StoreInspection:
    """A point-in-time accounting of a store's contents and health."""

    path: str
    segments: int
    records: int
    cells: int
    bugs: int
    corrupt_records: int
    recovered_bytes: int
    compactions: int
    header: dict[str, Any] | None = field(default=None)
    #: Allocation-round slice records (adaptive campaigns only).
    slices: int = 0

    def as_dict(self) -> dict[str, Any]:
        return {
            "path": self.path,
            "segments": self.segments,
            "records": self.records,
            "cells": self.cells,
            "bugs": self.bugs,
            "corrupt_records": self.corrupt_records,
            "recovered_bytes": self.recovered_bytes,
            "compactions": self.compactions,
            "header": self.header,
            "slices": self.slices,
        }


def _fsync_dir(directory: Path) -> None:
    fd = os.open(directory, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def _atomic_write_json(payload: dict[str, Any], target: Path) -> None:
    """Write ``payload`` so ``target`` is either its old or new content —
    never a mixture — even across power loss."""
    tmp = target.with_suffix(target.suffix + ".tmp")
    with tmp.open("w", encoding="utf-8") as handle:
        handle.write(json.dumps(payload, indent=2, sort_keys=True) + "\n")
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(tmp, target)
    _fsync_dir(target.parent)


class CorpusStore:
    """The durable ledger one campaign's results live in.

    Open writable (the default) to record results, or ``readonly=True``
    to inspect a store another process may still be writing is *not*
    allowed — readers take a shared lock, so inspection waits until the
    writer is gone (or fails fast, which is the point).
    """

    def __init__(
        self,
        path: str | Path,
        *,
        readonly: bool = False,
        segment_max_records: int = SEGMENT_MAX_RECORDS,
    ) -> None:
        self.path = Path(path)
        self.readonly = readonly
        self.segment_max_records = segment_max_records
        self.recovered_bytes = 0
        self._handle = None
        self._lock_handle = None
        self._chaos_seq = 0
        if readonly:
            if not (self.path / MANIFEST_NAME).exists():
                raise StoreError(f"{self.path}: not a corpus store (no {MANIFEST_NAME})")
        else:
            self.path.mkdir(parents=True, exist_ok=True)
        self._acquire_lock()
        try:
            self._manifest = self._load_or_init_manifest()
            if not readonly:
                self._sweep_orphans()
                self._repair_active_segment()
                self._open_active_segment()
            self._chaos_seq = sum(1 for _ in self._iter_raw())
        except BaseException:
            self._release_lock()
            raise

    # -- locking -------------------------------------------------------
    def _acquire_lock(self) -> None:
        if fcntl is None:
            return
        lock_path = self.path / LOCK_NAME
        handle = lock_path.open("a")
        mode = fcntl.LOCK_SH if self.readonly else fcntl.LOCK_EX
        try:
            fcntl.flock(handle.fileno(), mode | fcntl.LOCK_NB)
        except OSError:
            handle.close()
            verb = "read" if self.readonly else "write to"
            raise StoreLockedError(
                f"{self.path}: cannot {verb} store — another campaign holds "
                f"its lock ({lock_path})"
            ) from None
        self._lock_handle = handle
        unlock_in_forked_children(handle)

    def _release_lock(self) -> None:
        if self._lock_handle is not None:
            if fcntl is not None:
                fcntl.flock(self._lock_handle.fileno(), fcntl.LOCK_UN)
            self._lock_handle.close()
            self._lock_handle = None

    # -- manifest / segments -------------------------------------------
    def _load_or_init_manifest(self) -> dict[str, Any]:
        manifest_path = self.path / MANIFEST_NAME
        if manifest_path.exists():
            manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
            if manifest.get("store_version") != STORE_VERSION:
                raise StoreError(
                    f"{self.path}: unsupported store_version "
                    f"{manifest.get('store_version')!r} (expected {STORE_VERSION})"
                )
            return manifest
        if self.readonly:  # pragma: no cover - guarded in __init__
            raise StoreError(f"{self.path}: not a corpus store")
        manifest = {
            "store_version": STORE_VERSION,
            "header": None,
            "segments": [SEGMENT_FORMAT.format(index=0)],
            "compactions": 0,
        }
        _atomic_write_json(manifest, manifest_path)
        return manifest

    def _write_manifest(self) -> None:
        _atomic_write_json(self._manifest, self.path / MANIFEST_NAME)

    @property
    def segments(self) -> list[Path]:
        return [self.path / name for name in self._manifest["segments"]]

    def _sweep_orphans(self) -> None:
        """Remove segments and temp files an interrupted compaction left
        behind — the manifest is the sole authority on what is live."""
        live = set(self._manifest["segments"])
        for entry in self.path.iterdir():
            if entry.name in live or entry.name in (MANIFEST_NAME, LOCK_NAME):
                continue
            if entry.name.startswith("segment-") or entry.suffix == ".tmp":
                entry.unlink()

    def _repair_active_segment(self) -> None:
        active = self.segments[-1]
        _, truncated = recover_jsonl(active)
        self.recovered_bytes += truncated

    def _open_active_segment(self) -> None:
        if self._handle is not None:
            self._handle.close()
        self._handle = self.segments[-1].open("a", encoding="utf-8")
        self._active_records = len(read_jsonl(self.segments[-1]))

    def _roll_segment(self) -> None:
        index = int(self.segments[-1].stem.split("-")[1]) + 1
        name = SEGMENT_FORMAT.format(index=index)
        (self.path / name).touch()
        self._manifest["segments"].append(name)
        self._write_manifest()
        self._open_active_segment()

    # -- campaign header -----------------------------------------------
    def begin_campaign(self, header: dict[str, Any]) -> None:
        """Bind this store to one campaign configuration.

        The first campaign to open the store stamps its header; any later
        open (a resume) must present the identical header, or it would
        silently mix results computed under different configurations."""
        if self.readonly:
            raise StoreError(f"{self.path}: store opened readonly")
        current = self._manifest.get("header")
        if current is None:
            self._manifest["header"] = header
            self._write_manifest()
        elif current != header:
            raise StoreMismatchError(
                f"{self.path}: store belongs to a different campaign "
                f"(stored header {current!r} != {header!r}) — use a fresh "
                f"--store directory or matching campaign options"
            )

    @property
    def header(self) -> dict[str, Any] | None:
        return self._manifest.get("header")

    # -- reading -------------------------------------------------------
    def _iter_raw(self) -> Iterator[dict[str, Any]]:
        for segment in self.segments:
            yield from read_jsonl(segment, tolerate_torn_tail=True)

    def _iter_valid(self) -> Iterator[tuple[dict[str, Any], bool]]:
        for record in self._iter_raw():
            ok = record.get("checksum") == payload_checksum(record)
            yield record, ok

    def completed(self) -> dict[CellKey, BugSearchResult]:
        """Every cell with a valid record, first occurrence winning.

        First-wins dedup makes a duplicated record (a cell re-recorded
        after a resume) harmless: the earlier record is the one read."""
        results: dict[CellKey, BugSearchResult] = {}
        for record, ok in self._iter_valid():
            if not ok or record.get("type") != "cell":
                continue
            result = result_from_dict(record["result"])
            key = (result.tool, result.program, result.trial)
            results.setdefault(key, result)
        return results

    def completed_slices(self) -> dict[SliceKey, BugSearchResult]:
        """Every allocation-round slice with a valid record, first-wins.

        Adaptive campaigns resume at slice granularity: a campaign killed
        mid-round replays its completed slices from here and re-runs only
        the missing ones, converging bit-identically."""
        results: dict[SliceKey, BugSearchResult] = {}
        for record, ok in self._iter_valid():
            if not ok or record.get("type") != "slice":
                continue
            result = result_from_dict(record["result"])
            key = (result.tool, result.program, result.trial, record["round"])
            results.setdefault(key, result)
        return results

    # -- writing -------------------------------------------------------
    def record_result(self, result: BugSearchResult) -> None:
        """Append one cell result; fsyncs when the record admits a bug."""
        if self.readonly:
            raise StoreError(f"{self.path}: store opened readonly")
        record = attach_checksum({"type": "cell", "result": result_to_dict(result)})
        self._append(record, durable=result.found)

    def record_slice(self, round_index: int, result: BugSearchResult) -> None:
        """Append one allocation-round slice result (adaptive campaigns)."""
        if self.readonly:
            raise StoreError(f"{self.path}: store opened readonly")
        record = attach_checksum(
            {"type": "slice", "round": round_index, "result": result_to_dict(result)}
        )
        self._append(record, durable=result.found)

    def _append(self, record: dict[str, Any], *, durable: bool) -> None:
        seq = self._chaos_seq
        self._chaos_seq += 1
        fault = faults.store_chaos(seq)
        if fault == "corrupt":
            record = dict(record)
            record["checksum"] = "0" * 64
        line = json.dumps(record, sort_keys=True) + "\n"
        if fault == "torn_write":
            # Model SIGKILL mid-write: half the line reaches the disk, then
            # the process is gone.  ChaosKill derives from BaseException so
            # no recovery path can paper over it.
            self._handle.write(line[: len(line) // 2])
            self._handle.flush()
            os.fsync(self._handle.fileno())
            raise faults.ChaosKill(f"torn write injected at append #{seq}")
        self._handle.write(line)
        self._handle.flush()
        if durable:
            os.fsync(self._handle.fileno())
        self._active_records += 1
        if self._active_records >= self.segment_max_records:
            self._roll_segment()

    # -- compaction ----------------------------------------------------
    def compact(self) -> dict[str, int]:
        """Rewrite the store as one deduplicated segment, atomically.

        The new segment is fully written and fsynced *before* the manifest
        switches over; a crash at any instant leaves either the old
        manifest (old segments intact) or the new one (orphaned old
        segments, swept at next open) in force."""
        if self.readonly:
            raise StoreError(f"{self.path}: store opened readonly")
        before_segments = len(self.segments)
        before_records = sum(1 for _ in self._iter_raw())
        live: dict[tuple, dict[str, Any]] = {}
        for record, ok in self._iter_valid():
            if not ok:
                continue
            record_type = record.get("type")
            if record_type == "cell":
                data = record["result"]
                live.setdefault(("cell", data["tool"], data["program"], data["trial"]), record)
            elif record_type == "slice":
                # Slice records survive compaction: a resumed adaptive
                # campaign replays them to rebuild allocator history.
                data = record["result"]
                live.setdefault(
                    ("slice", data["tool"], data["program"], data["trial"], record["round"]),
                    record,
                )
        self._handle.close()
        self._handle = None
        index = int(self.segments[-1].stem.split("-")[1]) + 1
        name = SEGMENT_FORMAT.format(index=index)
        tmp = self.path / (name + ".tmp")
        with tmp.open("w", encoding="utf-8") as handle:
            for record in live.values():
                handle.write(json.dumps(record, sort_keys=True) + "\n")
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, self.path / name)
        _fsync_dir(self.path)
        old = self.segments
        self._manifest["segments"] = [name]
        self._manifest["compactions"] += 1
        self._write_manifest()
        for segment in old:
            segment.unlink(missing_ok=True)
        self._open_active_segment()
        return {
            "segments_before": before_segments,
            "segments_after": 1,
            "records_before": before_records,
            "records_after": len(live),
        }

    # -- inspection ----------------------------------------------------
    def inspect(self) -> StoreInspection:
        records = 0
        corrupt = 0
        slices = 0
        cells: dict[CellKey, bool] = {}
        for record, ok in self._iter_valid():
            records += 1
            if not ok:
                corrupt += 1
                continue
            if record.get("type") == "cell":
                data = record["result"]
                key = (data["tool"], data["program"], data["trial"])
                cells.setdefault(key, bool(data["found"]))
            elif record.get("type") == "slice":
                slices += 1
        return StoreInspection(
            path=str(self.path),
            segments=len(self.segments),
            records=records,
            cells=len(cells),
            bugs=sum(1 for found in cells.values() if found),
            corrupt_records=corrupt,
            recovered_bytes=self.recovered_bytes,
            compactions=self._manifest["compactions"],
            header=self.header,
            slices=slices,
        )

    def verify(self) -> StoreInspection:
        """Inspect and *insist*: any corrupt record raises StoreError."""
        inspection = self.inspect()
        if inspection.corrupt_records:
            raise StoreError(
                f"{self.path}: {inspection.corrupt_records} record(s) failed "
                f"checksum verification — affected cells will re-run on resume"
            )
        return inspection

    # -- lifecycle -----------------------------------------------------
    def close(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None
        self._release_lock()

    def __enter__(self) -> "CorpusStore":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
