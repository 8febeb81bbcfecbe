"""PERIOD stand-in: iterative preemption-bounded systematic testing.

PERIOD (Wen et al., ICSE 2022) systematically explores orderings of
serialized code "periods" below a depth bound using Linux deadline
scheduling.  We cannot reproduce a kernel scheduler in pure Python, so —
per the substitution table in DESIGN.md — we model it with the closest
classical systematic explorer: iterative context (preemption) bounding over
the same stateless search engine.  Both tools share the defining traits the
evaluation depends on: deterministic systematic coverage of bounded
reorderings, zero variance across trials, strong results on shallow bugs and
schedule-hungry behaviour on reads-from-sparse deep bugs.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.algos.exploration import ExplorationReport, StatelessExplorer
from repro.core.reproduce import RunEnv
from repro.runtime.program import Program


@dataclass
class PeriodReport:
    """Aggregate over the iterative-deepening rounds."""

    executions: int = 0
    first_bug_at: int | None = None
    bug_outcome: str | None = None
    highest_bound: int = 0

    @property
    def found_bug(self) -> bool:
        return self.first_bug_at is not None


class PeriodExplorer:
    """Iterative deepening on the preemption bound: d = 0, 1, 2, ...

    Each round re-runs the bounded breadth-first exploration with one more
    allowed preemption, counting every executed schedule toward the global
    budget (re-executions across rounds included, as CHESS does).
    """

    def __init__(
        self,
        program: Program,
        max_executions: int = 2000,
        max_bound: int = 4,
        env: RunEnv = RunEnv(),
    ):
        self.program = program
        self.max_executions = max_executions
        self.max_bound = max_bound
        self.env = env

    def run(self) -> PeriodReport:
        """Deepen the preemption bound until a bug, exhaustion or budget."""
        report = PeriodReport()
        for bound in range(self.max_bound + 1):
            report.highest_bound = bound
            remaining = self.max_executions - report.executions
            if remaining <= 0:
                break
            inner: ExplorationReport = StatelessExplorer(
                program=self.program,
                max_executions=remaining,
                preemption_bound=bound,
                env=self.env,
                rf_subsume=True,
                symmetry_reduction=True,
            ).run()
            if inner.found_bug:
                report.first_bug_at = report.executions + (inner.first_bug_at or 0)
                report.bug_outcome = inner.bug_outcome
                report.executions += inner.executions
                return report
            report.executions += inner.executions
            if not inner.exhausted:
                # Budget ran out inside this bound; deepening further would
                # only re-execute the same prefix schedules.
                break
        return report
