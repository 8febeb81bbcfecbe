"""Stateless systematic exploration: the engine behind the PERIOD and GenMC
stand-ins.

The runtime cannot snapshot generator state, so — like real stateless model
checkers — systematic tools re-execute the program from scratch for every
schedule.  A schedule is encoded as a *script*: the thread id chosen at each
scheduling point; beyond the script, a deterministic default rule applies
(continue the current thread while enabled, else the lowest thread id, i.e.
non-preemptive round-robin).  After each run, the explorer derives new
scripts by flipping one decision at a position not already owned by an
ancestor script — the classic stateless-search recipe.

Preemption bounding (used by the PERIOD stand-in) prunes scripts whose
flipped decision preempts a still-enabled thread once the budget of
preemptions is exceeded, following CHESS-style iterative context bounding.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.core.reproduce import RunEnv
from repro.core.trace import RfPair
from repro.runtime.program import Program
from repro.schedulers.base import SchedulerPolicy

if TYPE_CHECKING:  # pragma: no cover - type-only imports
    from repro.runtime.executor import Candidate


@dataclass
class StepLog:
    """What the explorer needs to branch at one scheduling point."""

    enabled: tuple[int, ...]
    chosen: int
    #: Thread that executed the previous event (None at the first step).
    current: int | None
    #: tid -> abstract event the thread was about to execute at this step;
    #: used for the thread-symmetry reduction when branching.
    pending: dict[int, "object"]


class ScriptPolicy(SchedulerPolicy):
    """Follow a decision script, then fall back to non-preemptive defaults."""

    def __init__(self, script: tuple[int, ...] = ()):
        self.script = script
        self.log: list[StepLog] = []
        self._current: int | None = None

    def choose(self, candidates: "list[Candidate]", execution) -> "Candidate":
        enabled = tuple(sorted(c.tid for c in candidates))
        step = len(self.log)
        wanted: int | None = self.script[step] if step < len(self.script) else None
        if wanted is None or wanted not in enabled:
            if self._current is not None and self._current in enabled:
                wanted = self._current
            else:
                wanted = enabled[0]
        self.log.append(
            StepLog(
                enabled=enabled,
                chosen=wanted,
                current=self._current,
                pending={c.tid: c.abstract for c in candidates},
            )
        )
        self._current = wanted
        for candidate in candidates:
            if candidate.tid == wanted:
                return candidate
        raise AssertionError("unreachable: wanted tid validated against enabled set")


def count_preemptions(log: list[StepLog]) -> int:
    """Preemptions in a run: switching away from a still-enabled thread."""
    return sum(
        1
        for step in log
        if step.current is not None and step.current in step.enabled and step.chosen != step.current
    )


@dataclass
class ExplorationReport:
    """Outcome of a systematic exploration."""

    executions: int = 0
    first_bug_at: int | None = None
    bug_outcome: str | None = None
    distinct_rf_classes: int = 0
    #: True when the script frontier was exhausted (search space covered up
    #: to the preemption bound), False when the execution budget ran out.
    exhausted: bool = False

    @property
    def found_bug(self) -> bool:
        return self.first_bug_at is not None


@dataclass
class StatelessExplorer:
    """Breadth-first stateless exploration with optional preemption bounding.

    Breadth-first order flips *early* decisions first, which (like PERIOD's
    period-by-period search) reaches shallow reorderings in few schedules and
    keeps exploration deterministic — zero variance across runs, matching the
    ``± 0`` PERIOD rows of the paper's Appendix B.
    """

    program: Program
    max_executions: int = 2000
    preemption_bound: int | None = None
    #: The runtime every run executes in (step bound, guard, sanitizers).
    env: RunEnv = RunEnv()
    #: Memory guard: scripts beyond this frontier size are dropped.
    max_frontier: int = 100_000
    stop_on_first_bug: bool = True
    #: Reads-from subsumption: a run whose abstract rf signature was already
    #: visited spawns no children.  This is the partial-order-reduction-style
    #: pruning that keeps systematic search tractable on permutation-heavy
    #: programs (many interleavings, one rf class); both the PERIOD and GenMC
    #: stand-ins enable it (DESIGN.md, substitution table).
    rf_subsume: bool = False
    #: Thread-symmetry reduction: do not branch to two alternatives that are
    #: about to execute the same abstract event (identical worker threads),
    #: and not to an alternative whose pending abstract event equals the one
    #: actually executed at that position.
    symmetry_reduction: bool = False
    report: ExplorationReport = field(default_factory=ExplorationReport)

    def run(self) -> ExplorationReport:
        """Explore until the frontier drains, the budget ends or a bug hits."""
        execute = self.env.runner(self.program)
        seen_classes: set[frozenset[RfPair]] = set()
        frontier: deque[tuple[int, ...]] = deque([()])
        while frontier and self.report.executions < self.max_executions:
            script = frontier.popleft()
            policy = ScriptPolicy(script)
            result = execute(policy)
            self.report.executions += 1
            signature = result.trace.rf_signature()
            novel_class = signature not in seen_classes
            if novel_class:
                seen_classes.add(signature)
                self.report.distinct_rf_classes += 1
            if result.crashed and self.report.first_bug_at is None:
                self.report.first_bug_at = self.report.executions
                self.report.bug_outcome = result.outcome
                if self.stop_on_first_bug:
                    return self.report
            if novel_class or not self.rf_subsume:
                self._push_children(script, policy.log, frontier)
        self.report.exhausted = not frontier
        return self.report

    def _push_children(
        self, script: tuple[int, ...], log: list[StepLog], frontier: deque
    ) -> None:
        chosen_prefix = tuple(step.chosen for step in log)
        # Prefix preemption counts: preempt_before[i] = preemptions in log[:i].
        preempt_before = [0] * (len(log) + 1)
        for i, step in enumerate(log):
            is_preemption = (
                step.current is not None and step.current in step.enabled and step.chosen != step.current
            )
            preempt_before[i + 1] = preempt_before[i] + is_preemption
        for position in range(len(script), len(log)):
            step = log[position]
            # Thread-symmetry reduction: among alternatives about to execute
            # the *same abstract event* (e.g. the n identical setter threads
            # of reorder_n), branching to one representative suffices — the
            # others differ only by a thread renaming.  Keep the lowest tid
            # per distinct pending abstract event.
            representatives: dict[object, int] = {}
            for tid in step.enabled:
                abstract = step.pending.get(tid)
                if abstract not in representatives:
                    representatives[abstract] = tid
            for alternative in step.enabled:
                if alternative == step.chosen:
                    continue
                if self.symmetry_reduction:
                    abstract = step.pending.get(alternative)
                    if representatives.get(abstract) != alternative or abstract == step.pending.get(
                        step.chosen
                    ):
                        continue
                if self.preemption_bound is not None:
                    extra = (
                        1
                        if step.current is not None
                        and step.current in step.enabled
                        and alternative != step.current
                        else 0
                    )
                    # Preemptions before `position` are shared with the parent
                    # run; the flipped decision may add one more.
                    if preempt_before[position] + extra > self.preemption_bound:
                        continue
                if len(frontier) >= self.max_frontier:
                    return
                frontier.append(chosen_prefix[:position] + (alternative,))
