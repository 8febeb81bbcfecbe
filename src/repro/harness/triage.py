"""Triage: fold raw findings into bug buckets and ship verified reproducers.

A keep-going fuzzing run returns *findings* — every crashing schedule and
every novel sanitizer report.  Triage turns them into *bugs*:

1. **bucket** — findings are grouped by their stable dedup key
   (:func:`repro.core.reproduce.dedup_key` for crashes, the sanitizer's own
   dedup key for analysis findings); two schedules tripping the same
   assertion through the same frames and reads-from pairs are one bug.
2. **pick the reproducer** — each bucket keeps its shortest schedule (ties
   broken by discovery order), optionally shrunk further with
   bucket-constrained :func:`repro.core.minimize.minimize_schedule`.
3. **verify** — the reproducer is replayed N times
   (:func:`repro.core.reproduce.verify_replay`); only a bug whose replays
   all reproduce the identical outcome and dedup key is ``STABLE``.  FLAKY
   buckets are quarantined: they stay in the triage result (a flaky finding
   is information) but are never reported as reproduced and never shipped.
4. **ship** — STABLE bugs become standalone, checksummed JSON artifacts
   (program reference + concrete schedule + expected signature + runtime
   environment) that ``rff replay --verify`` re-triggers end-to-end.

A bug file is one format: :func:`make_artifact` writes it for triaged
bugs and :func:`crash_artifact` for the raw crashes ``save_crashes``
persists, and :func:`load_artifact` / :func:`verify_artifact` read and
replay either.  Every finding carries the :class:`RunEnv` it was found
under (``FuzzReport.env``), and bucketing, minimization and verification
all run in it.

Everything here is deterministic given the fuzz report: serial and parallel
campaigns that produced bit-identical reports triage bit-identically.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import TYPE_CHECKING, Any

from repro.core.fuzzer import CrashRecord, FuzzReport, SanitizerRecord
from repro.core.reproduce import (
    ReplayVerdict,
    RunEnv,
    bucket_id,
    dedup_key,
    same_bucket,
    sanitizer_key,
    verify_replay,
)
from repro.harness.persist import (
    attach_checksum,
    crash_from_dict,
    load_json,
    save_checksummed,
    schedule_to_dict,
    verify_checksum,
)
from repro.schedulers.replay import ReplayPolicy

if TYPE_CHECKING:  # pragma: no cover - type-only imports
    from repro.core.constraints import AbstractSchedule
    from repro.runtime.program import Program

ARTIFACT_KIND = "rff-repro"
ARTIFACT_VERSION = 1


@dataclass(frozen=True)
class TriagedBug:
    """One deduplicated bug: its bucket, reproducer and replay verdict."""

    program: str
    bucket: str
    #: (kind, frame hash, rf hash) triage signature; None (and no bucket)
    #: only for a legacy crash dict written before dedup keys existed.
    key: tuple[str, str, str]
    frames: tuple[str, ...]
    #: Findings folded into this bucket.
    count: int
    #: Expected crash outcome (None for sanitizer findings).
    outcome: str | None
    failure: str
    concrete_schedule: tuple[int, ...]
    abstract_schedule: "AbstractSchedule | None" = None
    #: Set for sanitizer findings: the sanitizer name and its native key.
    sanitizer: str | None = None
    sanitizer_dedup_key: tuple | None = None
    verdict: ReplayVerdict | None = None
    #: The runtime environment the bug was found under and replays in.
    env: RunEnv = RunEnv()

    @property
    def kind(self) -> str:
        return self.key[0]

    @property
    def reproduced(self) -> bool:
        """Verified STABLE — the only state that counts as reproduced."""
        return self.verdict is not None and self.verdict.stable

    @property
    def quarantined(self) -> bool:
        """Verified FLAKY — kept as information, never shipped."""
        return self.verdict is not None and not self.verdict.stable


@dataclass
class TriageResult:
    """All triaged bugs of one program, deterministically ordered."""

    program: str
    bugs: list[TriagedBug] = field(default_factory=list)
    #: Raw findings that went into the buckets.
    findings: int = 0
    replays: int = 0

    @property
    def stable(self) -> list[TriagedBug]:
        return [bug for bug in self.bugs if bug.reproduced]

    @property
    def quarantined(self) -> list[TriagedBug]:
        return [bug for bug in self.bugs if bug.quarantined]

    def summary(self) -> str:
        lines = [
            f"Triage: {self.program} — {self.findings} finding(s) -> "
            f"{len(self.bugs)} bug(s), {len(self.stable)} STABLE, "
            f"{len(self.quarantined)} FLAKY (quarantined), "
            f"{self.replays} verification replays"
        ]
        for bug in self.bugs:
            verdict = bug.verdict.verdict if bug.verdict is not None else "UNVERIFIED"
            schedule = f"{len(bug.concrete_schedule)}-step schedule"
            lines.append(
                f"  [{verdict}] {bug.bucket}: {bug.count} finding(s), {schedule}"
            )
            detail = bug.failure or bug.outcome or ""
            if detail:
                lines.append(f"      {detail}")
            if bug.frames:
                lines.append(f"      frames: {', '.join(bug.frames)}")
        return "\n".join(lines)


def crash_bucket_key(
    program: "Program", crash: CrashRecord, env: RunEnv = RunEnv()
) -> tuple[str, str, str]:
    """The crash's dedup key, recomputed by one replay in ``env`` when the
    record predates triage (files written before dedup keys existed)."""
    if crash.dedup_key is not None:
        return crash.dedup_key
    result = env.runner(program)(ReplayPolicy(list(crash.concrete_schedule)))
    if result.crashed:
        return dedup_key(result)
    # The schedule no longer crashes: key off the recorded outcome alone so
    # the finding still gets a bucket (it will fail verification anyway).
    return (crash.outcome, "unreproduced", "unreproduced")


def _crash_bug(
    program_name: str,
    key: tuple[str, str, str] | None,
    findings: list[CrashRecord],
    env: RunEnv,
) -> TriagedBug:
    """One crash bucket as a bug, reproduced by its shortest finding (ties
    broken by discovery order)."""
    best = min(findings, key=lambda c: (len(c.concrete_schedule), c.execution_index))
    return TriagedBug(
        program=program_name,
        bucket=bucket_id(key) if key is not None else None,
        key=key,
        frames=best.frames,
        count=len(findings),
        outcome=best.outcome,
        failure=best.failure,
        concrete_schedule=best.concrete_schedule,
        abstract_schedule=best.abstract_schedule,
        env=env,
    )


def _shrink_reproducer(program: "Program", bug: TriagedBug) -> TriagedBug:
    """Bucket-constrained ddmin, then hunt for a shorter concrete schedule.

    Minimization operates on the abstract schedule; a shorter *concrete*
    reproducer is adopted only when probing the minimized schedule yields a
    crashing execution in the same bucket with fewer steps.  Both run in the
    bug's environment."""
    from repro.core.minimize import minimize_schedule
    from repro.core.proactive import RffSchedulerPolicy

    if bug.abstract_schedule is None:
        return bug
    predicate = same_bucket(bug.key)
    outcome = minimize_schedule(
        program, bug.abstract_schedule, env=bug.env, still_failing=predicate
    )
    best = bug
    run = bug.env.runner(program)
    for probe in range(5):
        result = run(RffSchedulerPolicy(outcome.minimized, seed=31 * probe))
        if predicate(result) and len(result.schedule) < len(best.concrete_schedule):
            best = replace(
                best,
                concrete_schedule=tuple(result.schedule),
                abstract_schedule=outcome.minimized,
            )
    return best


def triage_report(
    program: "Program",
    report: FuzzReport,
    *,
    replays: int = 5,
    minimize: bool = False,
) -> TriageResult:
    """Bucket, deduplicate and replay-verify every finding of a fuzz run.

    Bucketing, minimization and verification all run in ``report.env``,
    the runtime the findings were observed under.  With ``minimize=True``
    each bucket's reproducer is additionally shrunk by bucket-constrained
    delta debugging before verification (slower; off by default)."""
    env = report.env

    # -- bucket crashes -------------------------------------------------
    crash_buckets: dict[tuple[str, str, str], list[CrashRecord]] = {}
    for crash in report.crashes:
        key = crash_bucket_key(program, crash, env)
        crash_buckets.setdefault(key, []).append(crash)

    # -- bucket sanitizer findings (already deduplicated by the fuzzer,
    #    but fold defensively in case records were merged from files) ----
    sanitizer_buckets: dict[tuple[str, str, str], list[SanitizerRecord]] = {}
    for record in report.sanitizer_records:
        sanitizer_buckets.setdefault(sanitizer_key(record.report), []).append(record)

    bugs: list[TriagedBug] = []
    for key in sorted(crash_buckets):
        bug = _crash_bug(program.name, key, crash_buckets[key], env)
        if minimize:
            bug = _shrink_reproducer(program, bug)
        verdict = verify_replay(
            program, bug.concrete_schedule, bug.outcome, bug.key, replays=replays, env=env
        )
        bugs.append(replace(bug, verdict=verdict))
    for key in sorted(sanitizer_buckets):
        findings = sanitizer_buckets[key]
        best = min(findings, key=lambda r: (len(r.concrete_schedule), r.execution_index))
        verdict = verify_replay(
            program,
            best.concrete_schedule,
            None,
            replays=replays,
            env=env,
            expected_sanitizer_key=best.report.dedup_key,
        )
        bugs.append(
            TriagedBug(
                program=program.name,
                bucket=bucket_id(key),
                key=key,
                frames=(best.report.location,),
                count=len(findings),
                outcome=None,
                failure=best.report.message,
                concrete_schedule=best.concrete_schedule,
                abstract_schedule=best.abstract_schedule,
                sanitizer=best.report.sanitizer,
                sanitizer_dedup_key=best.report.dedup_key,
                verdict=verdict,
                env=env,
            )
        )
    quarantined = sum(1 for bug in bugs if bug.quarantined)
    if quarantined:
        from repro.harness.telemetry import GLOBAL_COUNTERS

        GLOBAL_COUNTERS.flaky_quarantined += quarantined
    bugs.sort(key=lambda bug: bug.bucket)
    return TriageResult(
        program=program.name,
        bugs=bugs,
        findings=len(report.crashes) + len(report.sanitizer_records),
        replays=sum(bug.verdict.replays for bug in bugs),
    )


# ----------------------------------------------------------------------
# Standalone repro artifacts
# ----------------------------------------------------------------------
def make_artifact(bug: TriagedBug) -> dict[str, Any]:
    """The checksummed, self-contained JSON form of one bug.

    The artifact carries everything a fresh process needs to re-trigger the
    bug: the program reference, the exact concrete schedule, the runtime
    environment (memory model, guard, sanitizers, step budget) and the
    expected signature to compare against."""
    payload: dict[str, Any] = {
        "artifact": ARTIFACT_KIND,
        "version": ARTIFACT_VERSION,
        "program": bug.program,
        "bucket": bug.bucket,
        "signature": list(bug.key) if bug.key is not None else None,
        "outcome": bug.outcome,
        "failure": bug.failure,
        "frames": list(bug.frames),
        "concrete_schedule": list(bug.concrete_schedule),
        "abstract_schedule": (
            schedule_to_dict(bug.abstract_schedule)
            if bug.abstract_schedule is not None
            else None
        ),
        "sanitizer": bug.sanitizer,
        "sanitizer_key": (
            list(bug.sanitizer_dedup_key) if bug.sanitizer_dedup_key is not None else None
        ),
        "verdict": bug.verdict.verdict if bug.verdict is not None else None,
        "replays": bug.verdict.replays if bug.verdict is not None else 0,
        **bug.env.to_artifact(),
    }
    return attach_checksum(payload)


def crash_artifact(program_name: str, crash: CrashRecord, env: RunEnv) -> dict[str, Any]:
    """One fuzzer crash as a bug file: the :func:`make_artifact` payload,
    unverified (``verdict: null``), plus the crash's ``execution_index``."""
    bug = _crash_bug(program_name, crash.dedup_key, [crash], env)
    return attach_checksum({**make_artifact(bug), "execution_index": crash.execution_index})


def write_artifacts(
    result: TriageResult,
    directory: str | Path,
    stable_only: bool = True,
) -> list[Path]:
    """Persist one ``repro-<bucket>.json`` per bug; STABLE-only by default
    (quarantined bugs are never shipped as reproducers)."""
    base = Path(directory)
    written = []
    for bug in result.bugs:
        if stable_only and not bug.reproduced:
            continue
        path = base / f"repro-{_safe_name(bug.bucket)}.json"
        save_checksummed(make_artifact(bug), path)
        written.append(path)
    return written


def _safe_name(bucket: str) -> str:
    return "".join(c if c.isalnum() or c in "-_." else "_" for c in bucket)


def load_artifact(path: str | Path) -> dict[str, Any]:
    """Load a bug file, verifying its checksum and format.

    A legacy crash dict (no ``artifact`` key: ``save_crashes`` output from
    before crash files were artifacts) loads as the bug file of the SC,
    unguarded run it came from."""
    payload = load_json(path)
    if "artifact" not in payload:
        return crash_artifact(payload["program"], crash_from_dict(payload), RunEnv())
    verify_checksum(payload, source=str(path))
    if payload.get("artifact") != ARTIFACT_KIND:
        raise ValueError(f"{path}: not a {ARTIFACT_KIND} artifact")
    if payload.get("version") != ARTIFACT_VERSION:
        raise ValueError(
            f"{path}: artifact version {payload.get('version')} unsupported "
            f"(expected {ARTIFACT_VERSION})"
        )
    return payload


def verify_artifact(
    payload: dict[str, Any],
    replays: int | None = None,
    program: "Program | None" = None,
) -> ReplayVerdict:
    """Re-trigger a loaded artifact end-to-end and classify STABLE/FLAKY.

    Resolves the benchmark program by name (unless one is injected), then
    replays the artifact's concrete schedule under the recorded runtime
    environment and compares outcome + signature."""
    if program is None:
        from repro import bench

        program = bench.get(payload["program"])
    signature = payload.get("signature")
    sanitizer_raw = payload.get("sanitizer_key")
    return verify_replay(
        program,
        tuple(payload["concrete_schedule"]),
        payload.get("outcome"),
        tuple(signature) if signature is not None and sanitizer_raw is None else None,
        replays=replays if replays is not None else max(1, payload.get("replays") or 3),
        env=RunEnv.from_artifact(payload),
        expected_sanitizer_key=tuple(sanitizer_raw) if sanitizer_raw is not None else None,
    )
