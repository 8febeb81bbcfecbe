"""Uniform adapters around every testing technique the paper evaluates.

A :class:`TestingTool` answers one question — *how many schedules until the
first bug?* — which is the paper's primary metric (Section 5.1, "Bugs").
Tool names match the Figure 4 legend: ``RFF``, ``POS``, ``PCT3``,
``PERIOD``, ``QLearning RF``, ``GenMC`` (plus ``Random`` as an extra naive
baseline).  Every tool runs in the :class:`~repro.core.reproduce.RunEnv`
its caller passes to ``find_bug``, so all of them see the runtime a
campaign asked for.  The explorers of :mod:`repro.algos` load when a tool
that runs one is built or called, not with this module.
"""

from __future__ import annotations

import difflib
import random
from abc import ABC, abstractmethod
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Any, Callable

from repro.core.fuzzer import RffConfig, RffFuzzer
from repro.core.reproduce import (
    STABLE,
    RunEnv,
    bucket_id,
    dedup_key,
    sanitizer_key,
    verify_replay,
)
from repro.runtime.counters import GLOBAL_COUNTERS
from repro.runtime.program import Program
from repro.schedulers.base import SchedulerPolicy
from repro.schedulers.muzz_like import MuzzLikePolicy
from repro.schedulers.pct import PctPolicy
from repro.schedulers.pos import PosPolicy
from repro.schedulers.random_walk import RandomWalkPolicy

if TYPE_CHECKING:  # pragma: no cover - type-only import
    from repro.analysis.online import SanitizerReport


@dataclass(frozen=True)
class BugSearchResult:
    """Outcome of one trial of one tool on one program."""

    tool: str
    program: str
    trial: int
    found: bool
    #: 1-based schedule index of the first bug (None when not found).
    schedules_to_bug: int | None
    #: Total schedules executed by the trial.
    executions: int
    outcome: str | None = None
    #: Non-None when the tool could not run the program at all (the
    #: Appendix B "Error" cells, e.g. GenMC's unsupported programs).
    error: str | None = None
    #: Distinct online-sanitizer findings of the trial (when the tool ran
    #: with a sanitizer stack attached).
    sanitizer_reports: tuple["SanitizerReport", ...] = ()
    #: Triage bucket of the first bug (None when no bug / not computable).
    bucket: str | None = None
    #: Replay verification verdict of the first bug: ``"STABLE"`` when every
    #: verification replay reproduced the identical outcome and dedup key,
    #: ``"FLAKY"`` otherwise (the finding is quarantined), None when replay
    #: verification was off or the tool cannot replay (model checkers).
    replay_verdict: str | None = None
    #: Executions whose reads-from signature was new to this trial — the
    #: novelty counter adaptive budget allocators estimate from (0 for
    #: tools that do not track rf-signatures).
    new_signatures: int = 0


class TestingTool(ABC):
    """One bug-finding technique with a schedule budget."""

    name: str = "tool"
    #: Deterministic tools (model checkers, systematic explorers) need only
    #: one trial; the harness exploits this.
    deterministic: bool = False

    @abstractmethod
    def find_bug(
        self, program: Program, budget: int, seed: int, env: RunEnv = RunEnv(), verify_replays: int = 0
    ) -> BugSearchResult:
        """Run until the first bug or until ``budget`` schedules elapse.

        Every execution runs in ``env``; a tool that cannot attach
        sanitizers ignores ``env.sanitizers``.  ``verify_replays > 0``
        replays the first bug that many times for a STABLE/FLAKY verdict."""

    def _result(
        self,
        program: Program,
        trial_seed: int,
        schedules_to_bug: int | None,
        executions: int,
        outcome: str | None = None,
        error: str | None = None,
        sanitizer_reports: tuple["SanitizerReport", ...] = (),
        bucket: str | None = None,
        replay_verdict: str | None = None,
        new_signatures: int = 0,
    ) -> BugSearchResult:
        return BugSearchResult(
            tool=self.name,
            program=program.name,
            trial=trial_seed,
            found=schedules_to_bug is not None,
            schedules_to_bug=schedules_to_bug,
            executions=executions,
            outcome=outcome,
            error=error,
            sanitizer_reports=sanitizer_reports,
            bucket=bucket,
            replay_verdict=replay_verdict,
            new_signatures=new_signatures,
        )

    def _first_bug(
        self,
        program: Program,
        env: RunEnv,
        verify_replays: int,
        schedule: tuple[int, ...],
        outcome: str | None = None,
        key: tuple[str, str, str] | None = None,
        report: "SanitizerReport | None" = None,
    ) -> dict[str, Any]:
        """The ``_result`` fields of a first bug found in ``env``: a crash
        (``outcome`` in bucket ``key``) or a sanitizer ``report``, with its
        replay verdict when ``verify_replays > 0``."""
        if report is not None:
            outcome, key = f"sanitizer:{report.sanitizer}", sanitizer_key(report)
        verdict = None
        if verify_replays > 0:
            verdict = verify_replay(
                program,
                schedule,
                outcome,
                key,
                replays=verify_replays,
                env=env,
                expected_sanitizer_key=report.dedup_key if report is not None else None,
            ).verdict
            if verdict != STABLE:
                GLOBAL_COUNTERS.flaky_quarantined += 1
        return {"outcome": outcome, "bucket": bucket_id(key), "replay_verdict": verdict}


class RffTool(TestingTool):
    """The paper's tool: greybox fuzzing over abstract schedules."""

    def __init__(self, config: RffConfig | None = None, name: str = "RFF"):
        self.config = config or RffConfig()
        self.name = name

    def find_bug(
        self, program: Program, budget: int, seed: int, env: RunEnv = RunEnv(), verify_replays: int = 0
    ) -> BugSearchResult:
        fuzzer = RffFuzzer(program, seed=seed, config=self.config, env=env)
        report = fuzzer.run(budget, stop_on_first_crash=True)
        crash = report.crashes[0] if report.crashes else None
        record = report.sanitizer_records[0] if report.sanitizer_records else None
        bug: dict[str, Any] = {}
        if record is not None and (
            crash is None or record.execution_index < crash.execution_index
        ):
            # The sanitizer finding is the first bug.
            bug = self._first_bug(
                program, env, verify_replays, record.concrete_schedule, report=record.report
            )
        elif crash is not None:
            bug = self._first_bug(
                program, env, verify_replays, crash.concrete_schedule, crash.outcome, crash.dedup_key
            )
        return self._result(
            program,
            seed,
            report.first_bug_at,
            report.executions,
            sanitizer_reports=tuple(r.report for r in report.sanitizer_records),
            new_signatures=report.unique_signatures,
            **bug,
        )


class PerExecutionPolicyTool(TestingTool):
    """Run a fresh (or persistent) scheduler policy once per schedule.

    ``persistent=True`` keeps one policy object across executions — needed by
    PCT (execution-length estimate) and Q-learning (the Q table)."""

    def __init__(self, name: str, make_policy, persistent: bool = False):
        self.name = name
        self._make_policy = make_policy
        self.persistent = persistent

    def find_bug(
        self, program: Program, budget: int, seed: int, env: RunEnv = RunEnv(), verify_replays: int = 0
    ) -> BugSearchResult:
        rng = random.Random(seed)
        policy: SchedulerPolicy | None = self._make_policy(rng.randrange(2**63)) if self.persistent else None
        run = env.runner(program)
        seen_keys: set[tuple] = set()
        all_reports: list["SanitizerReport"] = []
        seen_signatures: set[int] = set()
        for index in range(1, budget + 1):
            current = policy if policy is not None else self._make_policy(rng.randrange(2**63))
            result = run(current)
            seen_signatures.add(result.trace.rf_sig_hash())
            new_reports = [
                r for r in result.sanitizer_reports if r.dedup_key not in seen_keys
            ]
            for report in new_reports:
                seen_keys.add(report.dedup_key)
                all_reports.append(report)
            if result.crashed or new_reports:
                schedule = tuple(result.schedule)
                if result.crashed:
                    bug = self._first_bug(
                        program, env, verify_replays, schedule, result.outcome, dedup_key(result)
                    )
                else:
                    bug = self._first_bug(
                        program, env, verify_replays, schedule, report=new_reports[0]
                    )
                return self._result(
                    program, seed, index, index,
                    sanitizer_reports=tuple(all_reports),
                    new_signatures=len(seen_signatures),
                    **bug,
                )
        return self._result(
            program, seed, None, budget,
            sanitizer_reports=tuple(all_reports),
            new_signatures=len(seen_signatures),
        )


def pos_tool() -> PerExecutionPolicyTool:
    """Partial Order Sampling, one fresh sampler per schedule."""
    return PerExecutionPolicyTool("POS", lambda s: PosPolicy(seed=s))


def random_tool() -> PerExecutionPolicyTool:
    """Uniform random walk baseline."""
    return PerExecutionPolicyTool("Random", lambda s: RandomWalkPolicy(seed=s))


def muzz_tool() -> PerExecutionPolicyTool:
    """MUZZ-style static-priority exploration (the Section 5.1 negative
    result): priorities are randomized once per thread at creation."""
    return PerExecutionPolicyTool("MUZZ-like", lambda s: MuzzLikePolicy(seed=s))


def pct_tool(depth: int = 3) -> PerExecutionPolicyTool:
    """PCT with the paper's depth 3; the length estimate persists."""
    return PerExecutionPolicyTool(
        f"PCT{depth}", lambda s: PctPolicy(depth=depth, seed=s), persistent=True
    )


def qlearning_tool() -> PerExecutionPolicyTool:
    """Q-Learning RF (Section 5.5); the Q table persists across schedules."""
    from repro.algos.qlearning import QLearningRfPolicy

    return PerExecutionPolicyTool("QLearning RF", lambda s: QLearningRfPolicy(seed=s), persistent=True)


class PeriodTool(TestingTool):
    """The PERIOD stand-in: iterative preemption-bounded exploration.
    It reports crashes only, so it runs ``env`` without its sanitizers."""

    name = "PERIOD"
    deterministic = True

    def __init__(self, max_bound: int = 4):
        self.max_bound = max_bound

    def find_bug(
        self, program: Program, budget: int, seed: int, env: RunEnv = RunEnv(), verify_replays: int = 0
    ) -> BugSearchResult:
        from repro.algos.period import PeriodExplorer

        explorer = PeriodExplorer(
            program, max_executions=budget, max_bound=self.max_bound, env=replace(env, sanitizers=())
        )
        report = explorer.run()
        return self._result(program, seed, report.first_bug_at, report.executions, report.bug_outcome)


class GenMcTool(TestingTool):
    """The GenMC stand-in: exhaustive rf-class enumeration where supported.
    It reports crashes only, so it runs ``env`` without its sanitizers."""

    name = "GenMC"
    deterministic = True

    def find_bug(
        self, program: Program, budget: int, seed: int, env: RunEnv = RunEnv(), verify_replays: int = 0
    ) -> BugSearchResult:
        from repro.algos.modelcheck import ModelChecker, UnsupportedProgram

        checker = ModelChecker(program, max_executions=budget, env=replace(env, sanitizers=()))
        try:
            report = checker.check()
        except UnsupportedProgram as exc:
            return self._result(program, seed, None, 0, error=str(exc))
        return self._result(
            program, seed, report.first_bug_at_class, report.executions, report.bug_outcome
        )


def paper_tools() -> list[TestingTool]:
    """The six techniques of Figure 4, in its legend order."""
    return [pct_tool(), PeriodTool(), RffTool(), pos_tool(), qlearning_tool(), GenMcTool()]


#: Tool name -> factory: the one table every tool name resolves through
#: (``rff run``/``campaign``/``eval-gen`` and ``ParallelCampaign``).
#: :func:`repro.harness.parallel.register_tool` adds custom tools to it.
TOOL_FACTORIES: dict[str, Callable[[], TestingTool]] = {
    "RFF": RffTool,
    "POS": pos_tool,
    "PCT3": pct_tool,
    "PERIOD": PeriodTool,
    "GenMC": GenMcTool,
    "QLearning RF": qlearning_tool,
    "Random": random_tool,
    "MUZZ-like": muzz_tool,
}


def tool_factory(name: str) -> Callable[[], TestingTool]:
    """The factory registered as ``name``; an unknown name raises a
    ``KeyError`` naming the closest matches."""
    try:
        return TOOL_FACTORIES[name]
    except KeyError:
        close = difflib.get_close_matches(name, TOOL_FACTORIES, n=3, cutoff=0.4)
        hint = f"; did you mean: {', '.join(close)}?" if close else ""
        raise KeyError(
            f"unknown tool {name!r}{hint} (known: {', '.join(sorted(TOOL_FACTORIES))})"
        ) from None
