"""GenMC stand-in: an exhaustive stateless enumerator with rf-class pruning.

GenMC (Kokologiannakis & Vafeiadis, CAV 2021) enumerates one execution per
reads-from equivalence class of a program.  Our stand-in runs the stateless
search engine *unbounded* and reports the number of distinct rf classes it
visited before hitting the bug — the quantity comparable to GenMC's
"executions explored".  Like GenMC, it is deterministic.

The paper's Appendix B reports ``Error`` for GenMC on 36 of 49 programs
(unsupported LLVM IR constructs).  We reproduce that honestly with a
*supported-feature gate*: programs must be explicitly marked
``mc_supported`` (small, static, heap-free subjects — the same class of
programs GenMC succeeds on), otherwise :class:`UnsupportedProgram` is
raised and the harness records an ``Error`` cell.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.algos.exploration import ExplorationReport, StatelessExplorer
from repro.core.reproduce import RunEnv
from repro.runtime.program import Program


class UnsupportedProgram(Exception):
    """The model-checker stand-in does not accept this program."""


@dataclass
class ModelCheckReport:
    """Result of one (deterministic) model-checking run."""

    executions: int = 0
    rf_classes: int = 0
    first_bug_at_class: int | None = None
    bug_outcome: str | None = None
    #: True when the whole bounded search space was enumerated.
    complete: bool = False

    @property
    def found_bug(self) -> bool:
        return self.first_bug_at_class is not None


class ModelChecker:
    """Exhaustive stateless enumeration, reporting rf-class counts."""

    def __init__(
        self,
        program: Program,
        max_executions: int = 20_000,
        env: RunEnv = RunEnv(),
    ):
        self.program = program
        self.max_executions = max_executions
        self.env = env

    def check(self) -> ModelCheckReport:
        """Enumerate rf classes; raises UnsupportedProgram outside the gate."""
        if not self.program.mc_supported:
            raise UnsupportedProgram(
                f"{self.program.name}: not in the model checker's supported fragment"
            )
        explorer = StatelessExplorer(
            program=self.program,
            max_executions=self.max_executions,
            preemption_bound=None,
            env=self.env,
            rf_subsume=True,
        )
        inner: ExplorationReport = explorer.run()
        report = ModelCheckReport(
            executions=inner.executions,
            rf_classes=inner.distinct_rf_classes,
            complete=inner.exhausted,
        )
        if inner.found_bug:
            # GenMC counts explored executions ≙ distinct rf classes; the
            # crashing run's class was counted when it was first visited.
            report.first_bug_at_class = inner.distinct_rf_classes
            report.bug_outcome = inner.bug_outcome
        return report
