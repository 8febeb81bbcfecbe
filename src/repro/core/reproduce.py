"""Bug identity and replay verification: the reproduction layer of triage.

A long campaign produces thousands of crashing executions of a handful of
underlying bugs.  Two facilities turn that pile into verified findings:

* **dedup keys** — :func:`dedup_key` summarises a crashing execution as
  ``(violation kind, frame hash, rf hash)``: the bug taxonomy kind, a hash
  of the stable ``function:line`` failure frames, and a hash of the
  abstract reads-from pairs observed *at those frames*.  All three
  components are execution-independent (no event ids, no schedule
  positions), so the same bug found through different interleavings folds
  into one bucket while distinct bugs at the same program point split on
  the rf component.
* **replay verification** — :func:`verify_replay` re-executes a recorded
  concrete schedule N times and demands the identical outcome, dedup key
  and zero divergence on every run.  Only then is a bug ``STABLE`` and
  worth shipping as a reproducer; anything else is ``FLAKY`` and must be
  quarantined, never reported as reproduced (rr's record-and-replay lesson:
  divergence detection is the hard part that must be engineered).
* **the runtime environment** — :class:`RunEnv` is everything besides the
  program and the schedule that decides what an execution does.  A finding
  carries the environment it was found under, and every replay runs in it.
"""

from __future__ import annotations

import dataclasses
import hashlib
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Iterable, Sequence

from repro.runtime.executor import DEFAULT_MAX_STEPS, ExecutionResult, Executor
from repro.runtime.guard import GuardConfig
from repro.schedulers.replay import ReplayPolicy

if TYPE_CHECKING:  # pragma: no cover - type-only imports
    from repro.analysis.online import SanitizerReport
    from repro.runtime.program import Program
    from repro.schedulers.base import SchedulerPolicy

#: Replay verdicts.
STABLE = "STABLE"
FLAKY = "FLAKY"

#: (violation kind, frame hash, rf hash) — the triage bucket signature.
DedupKey = tuple[str, str, str]


def _short_hash(parts: Iterable[str]) -> str:
    digest = hashlib.sha256("|".join(parts).encode("utf-8")).hexdigest()
    return digest[:12]


def failure_frames(result: ExecutionResult) -> tuple[str, ...]:
    """The stable frames of a crashing execution, with a last-event fallback."""
    frames = tuple(result.failure_frames)
    if not frames and result.trace.events:
        frames = (result.trace.events[-1].loc,)
    return frames


def dedup_key(result: ExecutionResult) -> DedupKey:
    """Execution-independent identity of a crashing execution's bug.

    ``(kind, frame hash, rf hash)``: the rf component hashes the abstract
    reads-from pairs whose reader executed at one of the failure frames, so
    two different bugs crashing at the same program point (e.g. reading two
    different stale variables) still split into separate buckets.
    """
    kind = result.outcome or "none"
    frames = failure_frames(result)
    frame_hash = _short_hash(frames)
    frame_locs = set(frames)
    pairs = sorted(
        str(pair) for pair in result.trace.rf_pairs() if pair[1].loc in frame_locs
    )
    return (kind, frame_hash, _short_hash(pairs))


def sanitizer_key(report: "SanitizerReport") -> DedupKey:
    """A sanitizer finding's identity in the same triage signature shape."""
    return (f"sanitizer:{report.sanitizer}", report.kind, _short_hash(report.pair))


def bucket_id(key: DedupKey) -> str:
    """Human-grep-able short bucket name, e.g. ``assertion-4f1a09c2b3d4``."""
    return f"{key[0]}-{_short_hash(key)}"


def same_bucket(expected_key: DedupKey) -> Callable[[ExecutionResult], bool]:
    """Predicate: the execution crashed *into the given bucket* (not merely
    crashed) — the invariant schedule minimization must preserve."""

    def predicate(result: ExecutionResult) -> bool:
        return result.crashed and dedup_key(result) == expected_key

    return predicate


# ----------------------------------------------------------------------
# The runtime environment
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class RunEnv:
    """The runtime an execution runs under, besides program and schedule.

    Built once by the caller (a campaign's ``WorkerProfile``, the CLI's
    flags) and passed down to every fuzzer, tool and explorer, carried
    with the findings (``FuzzReport.env``, ``TriagedBug.env``) and written
    into every bug file, so a replay runs the same memory model, step
    bound, sanitizer stack and guard as the run that found the bug.
    """

    #: "sc" (sequential consistency) or "tso" (see repro.runtime.tso).
    memory_model: str = "sc"
    #: Per-execution step bound (None = the program's, then the default).
    max_steps: int | None = None
    #: Online sanitizer names attached to every execution.
    sanitizers: tuple[str, ...] = ()
    #: Runtime guardrails (None = unguarded).
    guard: GuardConfig | None = None

    def runner(self, program: "Program") -> Callable[["SchedulerPolicy"], ExecutionResult]:
        """``run(policy)``: one execution of ``program`` in this environment.

        The executor class (SC or TSO) and the step bound (this env's, else
        the program's, else the default) are resolved here, once; every run
        gets a fresh sanitizer stack."""
        cls: type[Executor] = Executor
        if self.memory_model == "tso":
            from repro.runtime.tso import TsoExecutor as cls
        elif self.memory_model != "sc":
            raise ValueError(f"unknown memory model {self.memory_model!r}")
        steps = self.max_steps
        if steps is None:
            steps = program.max_steps if program.max_steps is not None else DEFAULT_MAX_STEPS
        guard = self.guard
        names = self.sanitizers
        if not names:
            return lambda policy: cls(program, policy, max_steps=steps, guard=guard).run()
        # Imported here: repro.analysis.directed imports this module.
        from repro.analysis.online import build_stack

        return lambda policy: cls(
            program, policy, max_steps=steps, sanitizers=build_stack(names), guard=guard
        ).run()

    def to_artifact(self) -> dict[str, Any]:
        """The bug file's ``memory_model``/``max_steps``/``sanitizers``/``guard`` keys."""
        return {
            "memory_model": self.memory_model,
            "max_steps": self.max_steps,
            "sanitizers": list(self.sanitizers),
            "guard": list(self.guard.as_tuple()) if self.guard is not None else None,
        }

    @classmethod
    def from_artifact(cls, payload: dict[str, Any]) -> "RunEnv":
        """Inverse of :meth:`to_artifact`; absent keys mean SC, unguarded."""
        guard = payload.get("guard")
        return cls(
            memory_model=payload.get("memory_model", "sc"),
            max_steps=payload.get("max_steps"),
            sanitizers=tuple(payload.get("sanitizers") or ()),
            guard=GuardConfig(*guard) if guard is not None else None,
        )


# ----------------------------------------------------------------------
# Replay verification
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ReplayRun:
    """One replay execution's observation, compared against expectations."""

    outcome: str | None
    key: DedupKey | None
    diverged: int | None
    steps: int
    matched: bool


@dataclass(frozen=True)
class ReplayVerdict:
    """Aggregate of N replay runs of one recorded bug."""

    verdict: str
    replays: int
    matches: int
    expected_outcome: str | None
    expected_key: DedupKey | None
    runs: tuple[ReplayRun, ...]

    @property
    def stable(self) -> bool:
        return self.verdict == STABLE

    @property
    def first_divergence(self) -> int | None:
        """Earliest divergence step across all replay runs (None = exact)."""
        points = [run.diverged for run in self.runs if run.diverged is not None]
        return min(points) if points else None


def verify_replay(
    program: "Program",
    schedule: Sequence[int],
    expected_outcome: str | None,
    expected_key: DedupKey | None = None,
    *,
    replays: int = 5,
    env: RunEnv = RunEnv(),
    expected_sanitizer_key: tuple | None = None,
) -> ReplayVerdict:
    """Re-execute ``schedule`` ``replays`` times in ``env`` and classify
    STABLE/FLAKY.

    A replay *matches* when it follows the recorded schedule without
    divergence and reproduces the expected outcome and dedup key (for
    sanitizer findings: a report with ``expected_sanitizer_key`` appears).
    STABLE requires every replay to match; anything less is FLAKY.
    ``env`` must be the environment the bug was found under: replay
    fidelity includes the runtime, not just the schedule.
    """
    if replays < 1:
        raise ValueError(f"replays must be >= 1, got {replays}")
    if env.guard is not None and env.guard.wall_seconds is not None:
        # The wall-clock watchdog is the one nondeterministic guard: a slow
        # machine (or a debugger pause) would flip a genuinely STABLE
        # reproducer to FLAKY.  Replay fidelity is already policed by the
        # deterministic step budget and divergence tracking, so strip the
        # wall clock for verification runs only.
        env = dataclasses.replace(env, guard=dataclasses.replace(env.guard, wall_seconds=None))
    run = env.runner(program)
    runs: list[ReplayRun] = []
    for _ in range(replays):
        result = run(ReplayPolicy(list(schedule)))
        followed = result.diverged is None
        if expected_sanitizer_key is not None:
            key = None
            matched = followed and any(
                report.dedup_key == expected_sanitizer_key
                for report in result.sanitizer_reports
            )
        else:
            key = dedup_key(result) if result.crashed else None
            matched = (
                followed
                and result.outcome == expected_outcome
                and (expected_key is None or key == expected_key)
            )
        runs.append(
            ReplayRun(
                outcome=result.outcome,
                key=key,
                diverged=result.diverged,
                steps=result.steps,
                matched=matched,
            )
        )
    matches = sum(1 for run in runs if run.matched)
    from repro.harness.telemetry import GLOBAL_COUNTERS

    GLOBAL_COUNTERS.replays += len(runs)
    return ReplayVerdict(
        verdict=STABLE if matches == len(runs) else FLAKY,
        replays=len(runs),
        matches=matches,
        expected_outcome=expected_outcome,
        expected_key=expected_key,
        runs=tuple(runs),
    )
