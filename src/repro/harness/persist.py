"""JSON persistence for traces, crashes and campaign results.

The paper's artifact ships raw experiment data alongside the tool; this
module provides the same affordance — everything the harness produces can
be serialised to JSON, reloaded, and (for crashes) *re-executed*: a crash
file is a checksummed bug file (:mod:`repro.harness.triage`) that carries
its runtime environment and replays like any repro artifact.  Campaign
results travel as :func:`result_to_dict` payloads with an attached
checksum; the JSONL segments that hold them belong to
:mod:`repro.harness.store`, which alone frames and repairs their lines.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Any

from repro.core.constraints import AbstractSchedule, Constraint
from repro.core.events import AbstractEvent, Event
from repro.core.fuzzer import CrashRecord, FuzzReport
from repro.core.trace import Trace
from repro.harness.tools import BugSearchResult

# ----------------------------------------------------------------------
# Events / traces
# ----------------------------------------------------------------------
def event_to_dict(event: Event) -> dict[str, Any]:
    out = {
        "eid": event.eid,
        "tid": event.tid,
        "kind": event.kind,
        "location": event.location,
        "loc": event.loc,
    }
    if event.rf is not None:
        out["rf"] = event.rf
    if isinstance(event.value, (int, float, str, bool)) or event.value is None:
        out["value"] = event.value
    else:
        out["value"] = repr(event.value)
    if isinstance(event.aux, (int, str)) or event.aux is None:
        out["aux"] = event.aux
    elif isinstance(event.aux, tuple):
        out["aux"] = list(event.aux)
    return out


def event_from_dict(data: dict[str, Any]) -> Event:
    aux = data.get("aux")
    if isinstance(aux, list):
        aux = tuple(aux)
    return Event(
        eid=data["eid"],
        tid=data["tid"],
        kind=data["kind"],
        location=data["location"],
        loc=data["loc"],
        rf=data.get("rf"),
        value=data.get("value"),
        aux=aux,
    )


def trace_to_dict(trace: Trace) -> dict[str, Any]:
    return {
        "events": [event_to_dict(e) for e in trace.events],
        "outcome": trace.outcome,
        "failure": trace.failure,
    }


def trace_from_dict(data: dict[str, Any]) -> Trace:
    return Trace(
        events=[event_from_dict(e) for e in data["events"]],
        outcome=data.get("outcome"),
        failure=data.get("failure"),
    )


# ----------------------------------------------------------------------
# Abstract schedules
# ----------------------------------------------------------------------
def _abstract_event_to_dict(event: AbstractEvent | None) -> dict[str, Any] | None:
    if event is None:
        return None
    return {"kind": event.kind, "location": event.location, "loc": event.loc}


def _abstract_event_from_dict(data: dict[str, Any] | None) -> AbstractEvent | None:
    if data is None:
        return None
    return AbstractEvent(kind=data["kind"], location=data["location"], loc=data["loc"])


def schedule_to_dict(schedule: AbstractSchedule) -> list[dict[str, Any]]:
    return [
        {
            "read": _abstract_event_to_dict(c.read),
            "write": _abstract_event_to_dict(c.write),
            "positive": c.positive,
        }
        for c in sorted(schedule.constraints, key=str)
    ]


def schedule_from_dict(data: list[dict[str, Any]]) -> AbstractSchedule:
    constraints = [
        Constraint(
            read=_abstract_event_from_dict(c["read"]),
            write=_abstract_event_from_dict(c["write"]),
            positive=c["positive"],
        )
        for c in data
    ]
    return AbstractSchedule(frozenset(constraints))


# ----------------------------------------------------------------------
# Crash records / fuzz reports
# ----------------------------------------------------------------------
def crash_to_dict(crash: CrashRecord) -> dict[str, Any]:
    out = {
        "execution_index": crash.execution_index,
        "outcome": crash.outcome,
        "failure": crash.failure,
        "abstract_schedule": schedule_to_dict(crash.abstract_schedule),
        "concrete_schedule": list(crash.concrete_schedule),
        "frames": list(crash.frames),
    }
    if crash.dedup_key is not None:
        out["dedup_key"] = list(crash.dedup_key)
    return out


def crash_from_dict(data: dict[str, Any]) -> CrashRecord:
    raw_key = data.get("dedup_key")
    return CrashRecord(
        execution_index=data["execution_index"],
        outcome=data["outcome"],
        failure=data["failure"],
        abstract_schedule=schedule_from_dict(data["abstract_schedule"]),
        concrete_schedule=tuple(data["concrete_schedule"]),
        dedup_key=tuple(raw_key) if raw_key is not None else None,
        frames=tuple(data.get("frames", ())),
    )


def result_to_dict(result: BugSearchResult) -> dict[str, Any]:
    out = {
        "tool": result.tool,
        "program": result.program,
        "trial": result.trial,
        "found": result.found,
        "schedules_to_bug": result.schedules_to_bug,
        "executions": result.executions,
        "outcome": result.outcome,
        "error": result.error,
    }
    if result.sanitizer_reports:
        out["sanitizer_reports"] = [r.to_dict() for r in result.sanitizer_reports]
    if result.bucket is not None:
        out["bucket"] = result.bucket
    if result.replay_verdict is not None:
        out["replay_verdict"] = result.replay_verdict
    if result.new_signatures:
        out["new_signatures"] = result.new_signatures
    return out


def result_from_dict(data: dict[str, Any]) -> BugSearchResult:
    """Exact inverse of :func:`result_to_dict` — resumed campaign cells must
    compare equal to freshly computed ones."""
    reports = data.get("sanitizer_reports", ())
    if reports:
        # Only a result with reports loads the sanitizer package.
        from repro.analysis.online import SanitizerReport

        reports = [SanitizerReport.from_dict(r) for r in reports]
    return BugSearchResult(
        tool=data["tool"],
        program=data["program"],
        trial=data["trial"],
        found=data["found"],
        schedules_to_bug=data["schedules_to_bug"],
        executions=data["executions"],
        outcome=data.get("outcome"),
        error=data.get("error"),
        sanitizer_reports=tuple(reports),
        bucket=data.get("bucket"),
        replay_verdict=data.get("replay_verdict"),
        new_signatures=data.get("new_signatures", 0),
    )


# ----------------------------------------------------------------------
# File-level helpers
# ----------------------------------------------------------------------
def save_json(payload: Any, path: str | Path) -> Path:
    """Write any of the dict forms above to ``path`` (pretty-printed)."""
    target = Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return target


def load_json(path: str | Path) -> Any:
    return json.loads(Path(path).read_text())


def save_crashes(report: FuzzReport, directory: str | Path) -> list[Path]:
    """Persist every crash of a fuzz report as a ``crash-NNN.json`` bug file
    that carries the report's runtime environment (see
    :func:`repro.harness.triage.crash_artifact`)."""
    from repro.harness.triage import crash_artifact  # triage imports this module

    base = Path(directory)
    written = []
    for index, crash in enumerate(report.crashes):
        payload = crash_artifact(report.program_name, crash, report.env)
        written.append(save_json(payload, base / f"crash-{index:03d}.json"))
    return written


def load_crash(path: str | Path) -> tuple[str, CrashRecord]:
    """Load one crash file (or a legacy crash dict); returns (program name,
    crash record)."""
    from repro.harness.triage import load_artifact  # triage imports this module

    payload = load_artifact(path)
    return payload["program"], crash_from_dict({**payload, "dedup_key": payload["signature"]})


# ----------------------------------------------------------------------
# Checksummed payloads (standalone repro artifacts)
# ----------------------------------------------------------------------
class ChecksumError(ValueError):
    """A checksummed payload failed verification (corrupt or hand-edited)."""


def payload_checksum(payload: dict[str, Any]) -> str:
    """SHA-256 of the canonical JSON form of ``payload`` minus its own
    ``checksum`` field, so the digest can be stored inside the payload."""
    body = {key: value for key, value in payload.items() if key != "checksum"}
    canonical = json.dumps(body, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def attach_checksum(payload: dict[str, Any]) -> dict[str, Any]:
    """Return ``payload`` with its ``checksum`` field (re)computed."""
    out = dict(payload)
    out["checksum"] = payload_checksum(out)
    return out


def verify_checksum(payload: dict[str, Any], source: str = "payload") -> dict[str, Any]:
    """Validate a checksummed payload; raises :class:`ChecksumError`."""
    stored = payload.get("checksum")
    if not stored:
        raise ChecksumError(f"{source}: missing checksum field")
    expected = payload_checksum(payload)
    if stored != expected:
        raise ChecksumError(
            f"{source}: checksum mismatch (stored {stored[:12]}…, computed "
            f"{expected[:12]}…) — the file is corrupt or was edited by hand"
        )
    return payload


def save_checksummed(payload: dict[str, Any], path: str | Path) -> Path:
    """Write ``payload`` with an attached checksum (pretty-printed JSON)."""
    return save_json(attach_checksum(payload), path)
