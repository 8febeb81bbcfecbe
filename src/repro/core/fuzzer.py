"""RFF: the greybox schedule fuzzer (paper Algorithm 1 + Section 4.2).

The fuzzing loop, faithful to Algorithm 1::

    S <- {ε}; S_fail <- {}
    repeat
        (σ, η_σ) <- PickNextAndAssignEnergy(S)      # round-robin + power schedule
        for i in 1..η_σ:
            σ_mut <- mutateSchedule(σ, S)           # insert/swap/delete/negate
            execute PUT under the proactive reads-from scheduler for σ_mut
            if crash:        S_fail <- S_fail ∪ {σ_mut}
            if interesting:  S <- S ∪ {σ_mut}       # new abstract rf pair
    until budget exhausted

Every design knob the paper ablates is a field of :class:`RffConfig`, so the
RQ2/RQ3 experiments and the extra ablation benches run the same engine with
components disabled.  The runtime is not a knob: executions run in the
:class:`~repro.core.reproduce.RunEnv` the caller passes in, whose sanitizer
findings and watchdog kills count as bugs and feed isInteresting like crashes.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.core.constraints import AbstractSchedule, Constraint
from repro.core.corpus import Corpus, CorpusEntry
from repro.core.feedback import RfFeedback
from repro.core.mutation import EventPool, ScheduleMutator
from repro.core.power import FlatSchedule, PowerSchedule
from repro.core.proactive import RffSchedulerPolicy
from repro.core.reproduce import RunEnv, dedup_key, failure_frames
from repro.core.trace import RfPair
from repro.runtime.executor import ExecutionResult
from repro.runtime.program import Program
from repro.schedulers.base import SchedulerPolicy
from repro.schedulers.pos import PosPolicy

if TYPE_CHECKING:  # pragma: no cover - type-only import
    from repro.analysis.online import SanitizerReport


@dataclass(frozen=True)
class RffConfig:
    """Tunable components of the fuzzer; defaults reproduce full RFF."""

    #: Admit novel schedules into the corpus (isInteresting feedback).
    #: Disabled for the "no greybox feedback" arm of RQ3.
    use_feedback: bool = True
    #: Use the cut-off exponential power schedule; otherwise 1 mutation/pick.
    use_power_schedule: bool = True
    #: Drive executions with the proactive constraint scheduler; otherwise
    #: run plain POS (the RQ2 "no abstract schedule" ablation).
    use_constraints: bool = True
    #: Upper bound on constraints per abstract schedule.
    max_constraints: int = 8
    #: Probability a freshly drawn constraint is positive.
    positive_bias: float = 0.7
    #: Power schedule hyperparameters (Section 4.2).
    beta: float = 2.0
    max_energy: int = 64
    #: Probability of a two-parent splice instead of a single-op mutation
    #: ("one (or more)" corpus members per Section 4; AFL's splice stage).
    splice_probability: float = 0.1


@dataclass(frozen=True)
class CrashRecord:
    """One crashing schedule (an element of S_fail)."""

    execution_index: int
    outcome: str
    failure: str
    abstract_schedule: AbstractSchedule
    concrete_schedule: tuple[int, ...]
    #: Triage bucket signature (kind, frame hash, rf hash); see
    #: :func:`repro.core.reproduce.dedup_key`.  None on records loaded from
    #: files written before triage existed.
    dedup_key: tuple[str, str, str] | None = None
    #: Program frames (``function:line``) where the failure manifested.
    frames: tuple[str, ...] = ()


@dataclass(frozen=True)
class SanitizerRecord:
    """One novel sanitizer finding and the schedule that exposed it."""

    execution_index: int
    report: "SanitizerReport"
    abstract_schedule: AbstractSchedule
    concrete_schedule: tuple[int, ...]


@dataclass
class FuzzReport:
    """Everything a campaign needs to know about one fuzzing run."""

    program_name: str
    executions: int = 0
    crashes: list[CrashRecord] = field(default_factory=list)
    #: Novel sanitizer findings (deduplicated by abstract-event pair).
    sanitizer_records: list[SanitizerRecord] = field(default_factory=list)
    corpus_size: int = 0
    pair_coverage: int = 0
    unique_signatures: int = 0
    truncated_runs: int = 0
    #: rf-signature -> observation count (the Figure 5 histogram data).
    signature_counts: dict[frozenset[RfPair], int] = field(default_factory=dict)
    #: The runtime environment every finding above was observed under.
    env: RunEnv = RunEnv()

    @property
    def found_bug(self) -> bool:
        return bool(self.crashes) or bool(self.sanitizer_records)

    @property
    def first_crash_at(self) -> int | None:
        """Schedules-to-first-crash (1-based)."""
        return self.crashes[0].execution_index if self.crashes else None

    @property
    def first_bug_at(self) -> int | None:
        """Schedules-to-first-bug — crash or sanitizer finding (1-based)."""
        firsts = [r.execution_index for r in (self.crashes[:1] + self.sanitizer_records[:1])]
        return min(firsts) if firsts else None


class RffFuzzer:
    """Greybox concurrency fuzzer over the abstract schedule space."""

    def __init__(
        self,
        program: Program,
        seed: int = 0,
        config: RffConfig | None = None,
        seeds: list[AbstractSchedule] | None = None,
        env: RunEnv = RunEnv(),
    ):
        self.program = program
        self.config = config or RffConfig()
        self.rng = random.Random(seed)
        self.feedback = RfFeedback()
        self.pool = EventPool()
        self.mutator = ScheduleMutator(
            self.rng,
            max_constraints=self.config.max_constraints,
            positive_bias=self.config.positive_bias,
        )
        if self.config.use_power_schedule:
            self.power = PowerSchedule(beta=self.config.beta, max_energy=self.config.max_energy)
        else:
            self.power = FlatSchedule()
        self.corpus = Corpus()
        initial = seeds if seeds else [AbstractSchedule.empty()]
        for schedule in initial:
            self.corpus.add(CorpusEntry(schedule=schedule))
        self._run = env.runner(program)
        self.report = FuzzReport(program_name=program.name, env=env)
        #: dedup keys of every sanitizer finding recorded so far.
        self._sanitizer_keys: set[tuple] = set()
        #: rf signature of the most recent execution (stage cut-off input).
        self._last_signature: frozenset | None = None
        # Lazy import: repro.harness imports this module at package init.
        from repro.harness.telemetry import GLOBAL_COUNTERS

        self._counters = GLOBAL_COUNTERS

    # ------------------------------------------------------------------
    def _make_policy(self, schedule: AbstractSchedule) -> SchedulerPolicy:
        seed = self.rng.randrange(2**63)
        if self.config.use_constraints:
            return RffSchedulerPolicy(schedule, seed=seed)
        return PosPolicy(seed=seed)

    def _execute(self, schedule: AbstractSchedule) -> tuple[ExecutionResult, SchedulerPolicy]:
        policy = self._make_policy(schedule)
        return self._run(policy), policy

    # ------------------------------------------------------------------
    def run(self, max_executions: int, stop_on_first_crash: bool = False) -> FuzzReport:
        """Run the fuzzing loop for at most ``max_executions`` schedules."""
        while self.report.executions < max_executions:
            entry = self.corpus.next_entry()
            energy = self.power.energy(entry, self.corpus, self.feedback)
            if energy == 0:
                entry.times_skipped += 1
                entry.chosen_since_skip = 0
                continue
            entry.times_chosen += 1
            entry.chosen_since_skip += 1
            for _ in range(energy):
                if self.report.executions >= max_executions:
                    break
                mutant = self._next_mutant(entry)
                done = self._run_one(mutant, parent=entry)
                if done and stop_on_first_crash:
                    return self._finalize()
                if self._stage_over_explored():
                    # Cut-off (Section 4.2): the stage has drifted into an
                    # over-explored reads-from combination — stop spending
                    # energy here and move to the next corpus entry.
                    break
        return self._finalize()

    def _next_mutant(self, entry: CorpusEntry) -> AbstractSchedule:
        if (
            len(self.corpus) > 1
            and self.rng.random() < self.config.splice_probability
        ):
            other = self.corpus.entries[self.rng.randrange(len(self.corpus))]
            if other is not entry:
                return self.mutator.splice(entry.schedule, other.schedule)
        return self.mutator.mutate(entry.schedule, self.pool)

    def _stage_over_explored(self) -> bool:
        """Whether the most recent execution hit an over-explored rf class."""
        if not self.config.use_power_schedule or not isinstance(self.power, PowerSchedule):
            return False
        mu = self.power.mean_frequency(self.corpus, self.feedback)
        return self._last_signature is not None and self.feedback.frequency(self._last_signature) > mu

    def _run_one(self, mutant: AbstractSchedule, parent: CorpusEntry) -> bool:
        """Execute one mutant schedule; returns True when it found a bug
        (a crash or a novel sanitizer finding)."""
        result, policy = self._execute(mutant)
        self.report.executions += 1
        if result.truncated:
            self.report.truncated_runs += 1
        observation = self.feedback.observe(result.trace)
        self._last_signature = observation.signature
        self.pool.observe(result.trace)
        crashed = result.crashed
        if crashed:
            self._counters.crashes += 1
            parent.crashes += 1
            self.report.crashes.append(
                CrashRecord(
                    execution_index=self.report.executions,
                    outcome=result.outcome or "crash",
                    failure=result.trace.failure or "",
                    abstract_schedule=mutant,
                    concrete_schedule=tuple(result.schedule),
                    dedup_key=dedup_key(result),
                    frames=failure_frames(result),
                )
            )
        new_reports = [
            report
            for report in result.sanitizer_reports
            if report.dedup_key not in self._sanitizer_keys
        ]
        for report in new_reports:
            self._sanitizer_keys.add(report.dedup_key)
            self.report.sanitizer_records.append(
                SanitizerRecord(
                    execution_index=self.report.executions,
                    report=report,
                    abstract_schedule=mutant,
                    concrete_schedule=tuple(result.schedule),
                )
            )
        admit = crashed or bool(new_reports) or observation.interesting
        if admit and self.config.use_feedback:
            self._counters.corpus_adds += 1
            satisfied, total = self._satisfaction(policy)
            self.corpus.add(
                CorpusEntry(
                    schedule=self._pin_novelty(mutant, observation.new_pairs),
                    signature=observation.signature,
                    new_pairs=len(observation.new_pairs) or 1,
                    satisfied_fraction=(satisfied / total) if total else 1.0,
                )
            )
        return crashed or bool(new_reports)

    def _pin_novelty(self, mutant: AbstractSchedule, new_pairs) -> AbstractSchedule:
        """Stitch the execution's novel rf pairs into the stored schedule.

        Admitting the raw mutant would often lose what made the execution
        novel (the new pairs may have come from scheduling noise, not the
        constraints).  Reifying them as positive constraints keeps future
        mutations of this entry anchored in the rare reads-from
        neighborhood — the paper's "extracting a list of events observed in
        previous schedules and stitching them" (Section 2).
        """
        schedule = mutant
        room = self.config.max_constraints - len(schedule)
        for writer, reader in sorted(new_pairs, key=str)[: max(0, room)]:
            try:
                schedule = schedule.insert(Constraint(reader, writer))
            except ValueError:
                continue  # pair not expressible as a constraint (kind mix)
        return schedule

    @staticmethod
    def _satisfaction(policy: SchedulerPolicy) -> tuple[int, int]:
        if isinstance(policy, RffSchedulerPolicy):
            return policy.satisfaction()
        return (0, 0)

    def _finalize(self) -> FuzzReport:
        self.report.corpus_size = len(self.corpus)
        self.report.pair_coverage = self.feedback.pair_coverage
        self.report.unique_signatures = self.feedback.unique_signatures
        self.report.signature_counts = dict(self.feedback.signature_counts)
        return self.report


def fuzz(
    program: Program,
    max_executions: int = 1000,
    seed: int = 0,
    config: RffConfig | None = None,
    stop_on_first_crash: bool = False,
    env: RunEnv = RunEnv(),
) -> FuzzReport:
    """One-call convenience API: fuzz ``program`` in ``env`` and return the report."""
    fuzzer = RffFuzzer(program, seed=seed, config=config, env=env)
    return fuzzer.run(max_executions, stop_on_first_crash=stop_on_first_crash)
