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
  (:func:`repro.harness.persist.attach_checksum`), appended and flushed
  to the last segment the manifest names.  A record is committed once
  its newline is on disk, so a killed writer leaves at most one torn
  tail: a last line that lacks its newline or does not parse.  A
  writable open truncates it, so later appends can never glue onto it
  and manufacture a mid-file tear.
* **One read per open.**  Opening the store reads each segment once, a
  line at a time, checks every record and indexes the valid ones as they
  are parsed; :meth:`completed`, :meth:`completed_slices` and
  :meth:`inspect` answer from that index, and every append keeps it
  current.
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
from typing import Any, Callable

from repro.harness import faults
from repro.harness.persist import (
    attach_checksum,
    payload_checksum,
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


def _read_segment(path: Path, repair: bool, visit: Callable[[dict[str, Any]], Any]) -> int:
    """Read one segment line by line, handing each committed record to
    ``visit``; returns the size of its torn tail.

    A record is committed once its newline is on disk, so the last
    non-blank line is a torn tail when it lacks its newline or does not
    parse.  A line is therefore parsed only once the next non-blank line
    shows it was not the last, so no more than one record is held at a
    time.  ``repair`` truncates the torn tail, so the next append starts a
    fresh line; otherwise it is skipped in place.  An unparseable line
    before the last cannot come from an interrupted append: it raises
    :class:`StoreError`."""
    try:
        handle = path.open("rb")
    except FileNotFoundError:
        return 0
    #: The last non-blank line so far: (line number, start offset, bytes).
    last = None
    end = 0
    with handle:
        for number, line in enumerate(handle, start=1):
            start, end = end, end + len(line)
            if not line.strip():
                continue
            if last is not None:
                try:
                    record = json.loads(last[2][:-1])
                except ValueError as exc:
                    raise StoreError(f"{path}:{last[0]}: torn line mid-file: {exc}") from exc
                visit(record)
            last = (number, start, line)
    if last is None:
        return 0
    _, start, line = last
    if line.endswith(b"\n"):
        try:
            record = json.loads(line[:-1])
        except ValueError:
            pass
        else:
            visit(record)
            return 0
    if repair:
        with path.open("rb+") as handle:
            handle.truncate(start)
    return end - start


class CorpusStore:
    """The durable ledger one campaign's results live in.

    Open writable (the default) to record results, or ``readonly=True``
    to inspect.  Readers take a shared lock, so a store another process
    is still writing cannot be inspected: the open fails fast instead.
    """

    def __init__(self, path: str | Path, *, readonly: bool = False) -> None:
        self.path = Path(path)
        self.readonly = readonly
        self.recovered_bytes = 0
        self._handle = None
        self._lock_handle = None
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
            self._load()
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

    def _load(self) -> None:
        """Read every live segment once, in manifest order, and index it.

        Only a writable store repairs, and only its active (last) segment,
        the one it then appends to."""
        #: Every committed record, corrupt ones included: the next
        #: append's chaos index.
        self._records = 0
        self._corrupt = 0
        #: Valid slice records, duplicates included.
        self._slice_records = 0
        self._cells: dict[CellKey, BugSearchResult] = {}
        self._slices: dict[SliceKey, BugSearchResult] = {}
        active = self.segments[-1]
        for segment in self.segments:
            repair = not self.readonly and segment == active
            torn = _read_segment(segment, repair, self._index)
            if repair:
                self.recovered_bytes += torn
        if not self.readonly:
            self._handle = active.open("a", encoding="utf-8")

    def _index(self, record: dict[str, Any]) -> None:
        """Count one committed record and index it first-wins if valid."""
        self._records += 1
        if record.get("checksum") != payload_checksum(record):
            self._corrupt += 1
            return
        kind = record.get("type")
        if kind == "cell":
            data = record["result"]
            key = (data["tool"], data["program"], data["trial"])
            if key not in self._cells:
                self._cells[key] = result_from_dict(data)
        elif kind == "slice":
            self._slice_records += 1
            data = record["result"]
            key = (data["tool"], data["program"], data["trial"], record["round"])
            if key not in self._slices:
                self._slices[key] = result_from_dict(data)

    def _require_writable(self) -> None:
        if self.readonly:
            raise StoreError(f"{self.path}: store opened readonly")

    # -- campaign header -----------------------------------------------
    def begin_campaign(self, header: dict[str, Any]) -> None:
        """Bind this store to one campaign configuration.

        The first campaign to open the store stamps its header; any later
        open (a resume) must present the identical header, or it would
        silently mix results computed under different configurations."""
        self._require_writable()
        current = self._manifest.get("header")
        if current is None:
            self._manifest["header"] = header
            self._write_manifest()
        elif current != header:
            missing = object()
            differing = "; ".join(
                f"{key}: stored {current.get(key)!r}, requested {header.get(key)!r}"
                for key in sorted(current.keys() | header.keys())
                if current.get(key, missing) != header.get(key, missing)
            )
            raise StoreMismatchError(
                f"{self.path}: store belongs to a different campaign "
                f"({differing}) — use a fresh --store directory or matching "
                f"campaign options"
            )

    @property
    def header(self) -> dict[str, Any] | None:
        return self._manifest.get("header")

    # -- reading -------------------------------------------------------
    def completed(self) -> dict[CellKey, BugSearchResult]:
        """Every cell with a valid record, first occurrence winning.

        First-wins dedup makes a duplicated record (a cell re-recorded
        after a resume) harmless: the earlier record is the one read."""
        return dict(self._cells)

    def completed_slices(self) -> dict[SliceKey, BugSearchResult]:
        """Every allocation-round slice with a valid record, first-wins.

        Adaptive campaigns resume at slice granularity: a campaign killed
        mid-round replays its completed slices from here and re-runs only
        the missing ones, converging bit-identically."""
        return dict(self._slices)

    # -- writing -------------------------------------------------------
    def record_result(self, result: BugSearchResult) -> None:
        """Append one cell result; fsyncs when the record admits a bug."""
        if self._append({"type": "cell", "result": result_to_dict(result)}, result.found):
            self._cells.setdefault((result.tool, result.program, result.trial), result)

    def record_slice(self, round_index: int, result: BugSearchResult) -> None:
        """Append one allocation-round slice result (adaptive campaigns)."""
        record = {"type": "slice", "round": round_index, "result": result_to_dict(result)}
        if self._append(record, result.found):
            self._slice_records += 1
            key = (result.tool, result.program, result.trial, round_index)
            self._slices.setdefault(key, result)

    def _append(self, record: dict[str, Any], durable: bool) -> bool:
        """Commit ``record`` as one checksummed line; False when a
        ``corrupt`` chaos fault poisoned its checksum."""
        self._require_writable()
        record = attach_checksum(record)
        seq = self._records
        fault = faults.store_chaos(seq)
        if fault == "corrupt":
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
        self._records += 1
        if fault == "corrupt":
            self._corrupt += 1
            return False
        return True

    # -- compaction ----------------------------------------------------
    def compact(self) -> dict[str, int]:
        """Rewrite the store as one deduplicated segment, atomically.

        The new segment is fully written and fsynced *before* the manifest
        switches over; a crash at any instant leaves either the old
        manifest (old segments intact) or the new one (orphaned old
        segments, swept at next open) in force."""
        self._require_writable()
        stats = {
            "segments_before": len(self.segments),
            "segments_after": 1,
            "records_before": self._records,
        }
        index = int(self.segments[-1].stem.split("-")[1]) + 1
        name = SEGMENT_FORMAT.format(index=index)
        tmp = self.path / (name + ".tmp")
        #: Keys of the records kept so far: the first valid one per key wins.
        live: set[tuple] = set()
        with tmp.open("w", encoding="utf-8") as handle:

            def keep(record: dict[str, Any]) -> None:
                kind = record.get("type")
                valid = record.get("checksum") == payload_checksum(record)
                # Slice records survive compaction: a resumed adaptive
                # campaign replays them to rebuild allocator history.
                if valid and kind in ("cell", "slice"):
                    data = record["result"]
                    key = (kind, data["tool"], data["program"], data["trial"], record.get("round"))
                    if key not in live:
                        live.add(key)
                        handle.write(json.dumps(record, sort_keys=True) + "\n")

            for segment in self.segments:
                _read_segment(segment, False, keep)
            handle.flush()
            os.fsync(handle.fileno())
        self._handle.close()
        self._handle = None
        os.replace(tmp, self.path / name)
        _fsync_dir(self.path)
        old = self.segments
        self._manifest["segments"] = [name]
        self._manifest["compactions"] += 1
        self._write_manifest()
        for segment in old:
            segment.unlink(missing_ok=True)
        self._load()
        return {**stats, "records_after": len(live)}

    # -- inspection ----------------------------------------------------
    def inspect(self) -> StoreInspection:
        return StoreInspection(
            path=str(self.path),
            segments=len(self.segments),
            records=self._records,
            cells=len(self._cells),
            bugs=sum(1 for result in self._cells.values() if result.found),
            corrupt_records=self._corrupt,
            recovered_bytes=self.recovered_bytes,
            compactions=self._manifest["compactions"],
            header=self.header,
            slices=self._slice_records,
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
