"""Race-directed schedule confirmation: predictive analysis driving RFF.

The paper's related-work section closes with: *"we believe predictive
testing can be used in conjunction with other concurrency techniques such
as RFF to achieve faster convergence"* (Section 6, Dynamic Analyses).  This
module is that integration:

1. sample a handful of schedules and run the happens-before race detector
   over their (typically passing) traces;
2. for every distinct predicted race involving a read, synthesise the two
   abstract schedules that force the racy pair one way and the other
   (``w --rf-> r`` and ``w -/rf/-> r``);
3. hand each to the proactive scheduler and see whether any ordering
   actually crashes the program — converting a *prediction* into a
   *witnessed* bug with a replayable schedule.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.hb import Race, find_races
from repro.core.constraints import AbstractSchedule, Constraint
from repro.core.proactive import RffSchedulerPolicy
from repro.core.reproduce import RunEnv
from repro.runtime.program import Program
from repro.schedulers.pos import PosPolicy


@dataclass(frozen=True)
class DirectedResult:
    """Outcome of confirming one predicted race."""

    location: str
    first_loc: str
    second_loc: str
    schedules_tried: int
    confirmed: bool
    crash_outcome: str | None = None
    crashing_schedule: AbstractSchedule | None = None
    crashing_concrete: tuple[int, ...] = ()


def _candidate_schedules(race: Race) -> list[AbstractSchedule]:
    """Both orderings of the racy pair, as abstract schedules."""
    first, second = race.first.abstract, race.second.abstract
    reads = [e for e in (first, second) if e.is_read and not e.is_write]
    writes = [e for e in (first, second) if e.is_write]
    candidates: list[AbstractSchedule] = []
    for read in reads:
        for write in writes:
            if write.location != read.location:
                continue
            candidates.append(AbstractSchedule.of(Constraint(read, write, positive=True)))
            candidates.append(AbstractSchedule.of(Constraint(read, write, positive=False)))
            # Also try forcing the read back to the initial value: for
            # check-then-act bugs the stale-read side is the dangerous one.
            candidates.append(AbstractSchedule.of(Constraint(read, None, positive=True)))
    if not candidates:
        # Write-write race: no read to constrain directly — probe around it
        # with unconstrained proactive (= POS) schedules.
        candidates.append(AbstractSchedule.empty())
    return candidates


def _dedupe(schedules: list[AbstractSchedule]) -> list[AbstractSchedule]:
    seen: set[frozenset] = set()
    out = []
    for schedule in schedules:
        if schedule.constraints not in seen:
            seen.add(schedule.constraints)
            out.append(schedule)
    return out


def predict_races(program: Program, executions: int = 10, seed: int = 0) -> list[Race]:
    """Phase 1: sample schedules and collect distinct predicted races."""
    run = RunEnv().runner(program)
    distinct: dict[tuple[str, str, str], Race] = {}
    for index in range(executions):
        result = run(PosPolicy(seed + 101 * index))
        for race in find_races(result.trace):
            key = (race.location, race.first.loc, race.second.loc)
            distinct.setdefault(key, race)
    return list(distinct.values())


def confirm_races(
    program: Program,
    executions: int = 10,
    probes_per_schedule: int = 4,
    seed: int = 0,
) -> list[DirectedResult]:
    """Predict races, then try to convert each prediction into a crash."""
    run = RunEnv().runner(program)
    results: list[DirectedResult] = []
    for race in predict_races(program, executions=executions, seed=seed):
        tried = 0
        confirmed = None
        for schedule in _dedupe(_candidate_schedules(race)):
            for probe in range(probes_per_schedule):
                policy = RffSchedulerPolicy(schedule, seed=seed + 977 * tried + probe)
                outcome = run(policy)
                tried += 1
                if outcome.crashed:
                    confirmed = (outcome, schedule)
                    break
            if confirmed:
                break
        if confirmed:
            outcome, schedule = confirmed
            results.append(
                DirectedResult(
                    location=race.location,
                    first_loc=race.first.loc,
                    second_loc=race.second.loc,
                    schedules_tried=tried,
                    confirmed=True,
                    crash_outcome=outcome.outcome,
                    crashing_schedule=schedule,
                    crashing_concrete=tuple(outcome.schedule),
                )
            )
        else:
            results.append(
                DirectedResult(
                    location=race.location,
                    first_loc=race.first.loc,
                    second_loc=race.second.loc,
                    schedules_tried=tried,
                    confirmed=False,
                )
            )
    return results
