"""Uniform adapters around every testing technique the paper evaluates.

A :class:`TestingTool` answers one question — *how many schedules until the
first bug?* — which is the paper's primary metric (Section 5.1, "Bugs").
Tool names match the Figure 4 legend: ``RFF``, ``POS``, ``PCT3``,
``PERIOD``, ``QLearning RF``, ``GenMC`` (plus ``Random`` as an extra naive
baseline).
"""

from __future__ import annotations

import difflib
import random
from abc import ABC, abstractmethod
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Callable

from repro.algos.modelcheck import ModelChecker, UnsupportedProgram
from repro.algos.period import PeriodExplorer
from repro.algos.qlearning import QLearningRfPolicy
from repro.core.fuzzer import RffConfig, RffFuzzer
from repro.core.reproduce import bucket_id, dedup_key, sanitizer_key, verify_replay
from repro.runtime.executor import DEFAULT_MAX_STEPS, Executor
from repro.runtime.guard import GuardConfig
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
    #: Online sanitizer names attached per execution.  The campaign harness
    #: sets this from ``CampaignConfig.sanitizers``; tools that do not
    #: support sanitizers simply ignore it.
    sanitizers: tuple[str, ...] = ()
    #: Replays per found bug for STABLE/FLAKY verification (0 = off).  Set
    #: by the campaign harness from ``CampaignConfig.verify_replays``.
    verify_replays: int = 0
    #: Runtime guardrails attached to every execution (None = unguarded).
    guard: GuardConfig | None = None
    #: Whether one tool instance may serve many ``find_bug`` calls.  Every
    #: built-in tool derives all per-search state (RNGs, policies, fuzzers)
    #: from the call's seed, so pooled workers cache instances across slices
    #: and allocation rounds.  A custom tool that accumulates cross-call
    #: state must set this to False; the worker pool then rebuilds it for
    #: every slice instead of caching it by (tool, program).
    reusable: bool = True

    @abstractmethod
    def find_bug(self, program: Program, budget: int, seed: int) -> BugSearchResult:
        """Run until the first bug or until ``budget`` schedules elapse."""

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

    def _verify(
        self,
        program: Program,
        schedule: tuple[int, ...],
        expected_outcome: str | None,
        expected_key: tuple[str, str, str] | None = None,
        expected_sanitizer_key: tuple | None = None,
        executor_class: type[Executor] | None = None,
        sanitizers: tuple[str, ...] | None = None,
        max_steps: int | None = None,
        guard: GuardConfig | None = None,
    ) -> str | None:
        """Replay-verify one found bug; returns STABLE/FLAKY or None (off)."""
        if self.verify_replays <= 0:
            return None
        verdict = verify_replay(
            program,
            schedule,
            expected_outcome,
            expected_key,
            replays=self.verify_replays,
            max_steps=max_steps,
            sanitizers=tuple(self.sanitizers) if sanitizers is None else sanitizers,
            expected_sanitizer_key=expected_sanitizer_key,
            executor_class=executor_class,
            guard=self.guard if guard is None else guard,
        )
        if not verdict.stable:
            from repro.harness.telemetry import GLOBAL_COUNTERS

            GLOBAL_COUNTERS.flaky_quarantined += 1
        return verdict.verdict


def _program_steps(program: Program) -> int:
    return program.max_steps if program.max_steps is not None else DEFAULT_MAX_STEPS


class RffTool(TestingTool):
    """The paper's tool: greybox fuzzing over abstract schedules."""

    def __init__(self, config: RffConfig | None = None, name: str = "RFF"):
        self.config = config or RffConfig()
        self.name = name

    def find_bug(self, program: Program, budget: int, seed: int) -> BugSearchResult:
        config = self.config
        if self.sanitizers and not config.sanitizers:
            config = replace(config, sanitizers=tuple(self.sanitizers))
        if self.guard is not None and config.guard is None:
            config = replace(config, guard=self.guard)
        fuzzer = RffFuzzer(program, seed=seed, config=config)
        report = fuzzer.run(budget, stop_on_first_crash=True)
        crash = report.crashes[0] if report.crashes else None
        record = report.sanitizer_records[0] if report.sanitizer_records else None
        if record is not None and (
            crash is None or record.execution_index < crash.execution_index
        ):
            crash = None  # the sanitizer finding is the first bug
        outcome = None
        bucket = None
        verdict = None
        executor_class = fuzzer._executor_class()
        if crash is not None:
            outcome = crash.outcome
            if crash.dedup_key is not None:
                bucket = bucket_id(crash.dedup_key)
            verdict = self._verify(
                program,
                crash.concrete_schedule,
                crash.outcome,
                crash.dedup_key,
                executor_class=executor_class,
                sanitizers=config.sanitizers,
                max_steps=config.max_steps,
                guard=config.guard,
            )
        elif record is not None:
            outcome = f"sanitizer:{record.report.sanitizer}"
            bucket = bucket_id(sanitizer_key(record.report))
            verdict = self._verify(
                program,
                record.concrete_schedule,
                None,
                expected_sanitizer_key=record.report.dedup_key,
                executor_class=executor_class,
                sanitizers=config.sanitizers,
                max_steps=config.max_steps,
                guard=config.guard,
            )
        return self._result(
            program,
            seed,
            report.first_bug_at,
            report.executions,
            outcome,
            sanitizer_reports=tuple(r.report for r in report.sanitizer_records),
            bucket=bucket,
            replay_verdict=verdict,
            new_signatures=report.unique_signatures,
        )


class PerExecutionPolicyTool(TestingTool):
    """Run a fresh (or persistent) scheduler policy once per schedule.

    ``persistent=True`` keeps one policy object across executions — needed by
    PCT (execution-length estimate) and Q-learning (the Q table)."""

    def __init__(self, name: str, make_policy, persistent: bool = False):
        self.name = name
        self._make_policy = make_policy
        self.persistent = persistent

    def find_bug(self, program: Program, budget: int, seed: int) -> BugSearchResult:
        rng = random.Random(seed)
        policy: SchedulerPolicy | None = self._make_policy(rng.randrange(2**63)) if self.persistent else None
        max_steps = _program_steps(program)
        stack_builder = None
        if self.sanitizers:
            from repro.analysis.online import build_stack

            stack_builder = build_stack
        seen_keys: set[tuple] = set()
        all_reports: list["SanitizerReport"] = []
        seen_signatures: set[int] = set()
        for index in range(1, budget + 1):
            current = policy if policy is not None else self._make_policy(rng.randrange(2**63))
            stack = stack_builder(self.sanitizers) if stack_builder else None
            result = Executor(
                program, current, max_steps=max_steps, sanitizers=stack, guard=self.guard
            ).run()
            seen_signatures.add(result.trace.rf_sig_hash())
            new_reports = [
                r for r in result.sanitizer_reports if r.dedup_key not in seen_keys
            ]
            for report in new_reports:
                seen_keys.add(report.dedup_key)
                all_reports.append(report)
            if result.crashed:
                key = dedup_key(result)
                verdict = self._verify(
                    program, tuple(result.schedule), result.outcome, key
                )
                return self._result(
                    program, seed, index, index, result.outcome,
                    sanitizer_reports=tuple(all_reports),
                    bucket=bucket_id(key),
                    replay_verdict=verdict,
                    new_signatures=len(seen_signatures),
                )
            if new_reports:
                first = new_reports[0]
                verdict = self._verify(
                    program,
                    tuple(result.schedule),
                    None,
                    expected_sanitizer_key=first.dedup_key,
                )
                return self._result(
                    program, seed, index, index,
                    f"sanitizer:{first.sanitizer}",
                    sanitizer_reports=tuple(all_reports),
                    bucket=bucket_id(sanitizer_key(first)),
                    replay_verdict=verdict,
                    new_signatures=len(seen_signatures),
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
    return PerExecutionPolicyTool("QLearning RF", lambda s: QLearningRfPolicy(seed=s), persistent=True)


class PeriodTool(TestingTool):
    """The PERIOD stand-in: iterative preemption-bounded exploration."""

    name = "PERIOD"
    deterministic = True

    def __init__(self, max_bound: int = 4):
        self.max_bound = max_bound

    def find_bug(self, program: Program, budget: int, seed: int) -> BugSearchResult:
        explorer = PeriodExplorer(
            program, max_executions=budget, max_bound=self.max_bound, max_steps=_program_steps(program)
        )
        report = explorer.run()
        return self._result(program, seed, report.first_bug_at, report.executions, report.bug_outcome)


class GenMcTool(TestingTool):
    """The GenMC stand-in: exhaustive rf-class enumeration where supported."""

    name = "GenMC"
    deterministic = True

    def find_bug(self, program: Program, budget: int, seed: int) -> BugSearchResult:
        checker = ModelChecker(program, max_executions=budget, max_steps=_program_steps(program))
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
