"""Crash-schedule minimization (delta debugging over constraints).

A crashing abstract schedule produced by the fuzzer often carries
constraints that are incidental to the failure — leftovers of the mutation
history.  :func:`minimize_schedule` greedily removes constraints while the
crash still reproduces under the proactive scheduler, yielding the smallest
explanation of the bug (the `α_violation` of the paper's Section 2 rather
than whatever mutant happened to trip it first).

Because the proactive scheduler is randomized around the constraints, each
candidate schedule is probed over several seeds; a constraint is dropped
only when the reduced schedule still crashes reliably.  "Still crashes"
means *the same bug*: by default the minimizer first probes the original
schedule, takes the triage dedup key of the crash it reproduces, and then
only accepts reductions that land in that same bucket — ddmin must not
morph one bug into a different, easier-to-trigger one mid-minimization.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.core.constraints import AbstractSchedule
from repro.core.fuzzer import RffConfig
from repro.core.proactive import RffSchedulerPolicy
from repro.core.reproduce import RunEnv, dedup_key, same_bucket
from repro.runtime.executor import ExecutionResult
from repro.runtime.program import Program

#: Accepts an execution as "still failing" during minimization.
FailurePredicate = Callable[[ExecutionResult], bool]


def any_crash(result: ExecutionResult) -> bool:
    """The permissive legacy predicate: any crash counts."""
    return result.crashed


@dataclass(frozen=True)
class MinimizationResult:
    """Outcome of one minimization run."""

    original: AbstractSchedule
    minimized: AbstractSchedule
    #: Fraction of probe seeds under which the minimized schedule crashes.
    reproduction_rate: float
    executions: int
    #: Dedup key of the bug being preserved (None when minimizing with a
    #: caller-supplied predicate or when the original never reproduced).
    target_key: tuple[str, str, str] | None = None

    @property
    def removed(self) -> int:
        return len(self.original) - len(self.minimized)


def crash_rate(
    program: Program,
    schedule: AbstractSchedule,
    probes: int = 5,
    base_seed: int = 0,
    env: RunEnv = RunEnv(),
    still_failing: FailurePredicate = any_crash,
) -> float:
    """Fraction of ``probes`` seeds under which ``schedule`` still fails in
    ``env`` according to ``still_failing`` (default: any crash)."""
    run = env.runner(program)
    failures = 0
    for probe in range(probes):
        result = run(RffSchedulerPolicy(schedule, seed=base_seed + 31 * probe))
        failures += bool(still_failing(result))
    return failures / probes


def _probe_target_key(
    program: Program,
    schedule: AbstractSchedule,
    probes: int,
    base_seed: int,
    env: RunEnv,
) -> tuple[tuple[str, str, str] | None, int]:
    """Dedup key of the bug the original schedule triggers (majority vote
    over the probe seeds), plus the executions spent probing."""
    run = env.runner(program)
    votes: dict[tuple[str, str, str], int] = {}
    for probe in range(probes):
        result = run(RffSchedulerPolicy(schedule, seed=base_seed + 31 * probe))
        if result.crashed:
            key = dedup_key(result)
            votes[key] = votes.get(key, 0) + 1
    if not votes:
        return None, probes
    # Majority bucket; ties broken deterministically by key.
    winner = min(votes, key=lambda k: (-votes[k], k))
    return winner, probes


def minimize_schedule(
    program: Program,
    schedule: AbstractSchedule,
    probes: int = 5,
    threshold: float = 0.6,
    base_seed: int = 0,
    config: RffConfig | None = None,
    still_failing: FailurePredicate | None = None,
) -> MinimizationResult:
    """Greedy one-constraint-at-a-time reduction (ddmin's 1-minimal core).

    A constraint is removed when the reduced schedule still fails on at
    least ``threshold`` of the probe seeds.  Runs until a fixpoint: the
    result is 1-minimal — removing any single remaining constraint drops
    the reproduction rate below the threshold.

    ``still_failing`` decides what counts as a reproduction.  When omitted,
    the original schedule is probed first and reductions must stay in the
    same triage bucket (:func:`repro.core.reproduce.dedup_key`) as the bug
    it triggers; if the original never reproduces, minimization degrades to
    the permissive any-crash predicate.  Every probe runs in the runtime
    environment of ``config`` (default: SC, unguarded): a ``timeout`` found
    under a step watchdog is only the same bug under that watchdog.
    """
    env = (config or RffConfig()).env
    executions = 0
    target_key: tuple[str, str, str] | None = None
    if still_failing is None:
        target_key, spent = _probe_target_key(program, schedule, probes, base_seed, env)
        executions += spent
        still_failing = same_bucket(target_key) if target_key is not None else any_crash
    current = schedule
    improved = True
    while improved:
        improved = False
        for constraint in sorted(current.constraints, key=str):
            candidate = current.delete(constraint)
            rate = crash_rate(
                program,
                candidate,
                probes=probes,
                base_seed=base_seed,
                env=env,
                still_failing=still_failing,
            )
            executions += probes
            if rate >= threshold:
                current = candidate
                improved = True
    final_rate = crash_rate(
        program,
        current,
        probes=probes,
        base_seed=base_seed + 7,
        env=env,
        still_failing=still_failing,
    )
    executions += probes
    return MinimizationResult(
        original=schedule,
        minimized=current,
        reproduction_rate=final_rate,
        executions=executions,
        target_key=target_key,
    )
