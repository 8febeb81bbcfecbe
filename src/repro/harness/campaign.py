"""Campaigns: tools × programs × trials, the data behind every figure.

The paper runs each tool for 5 wall-clock minutes per program, 20 trials
(Section 5.1).  Our budgets are *schedule counts* — the paper's own metric —
sized so a full campaign runs on one laptop core; everything scales through
:class:`CampaignConfig`.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Any

from repro.harness.allocator import AllocationRun, CellId, CellInfo, UniformAllocator, slice_seed
from repro.harness.telemetry import ProgressSink, TelemetrySink
from repro.harness.tools import BugSearchResult, TestingTool
from repro.runtime.guard import GuardConfig
from repro.runtime.program import Program

if TYPE_CHECKING:  # pragma: no cover - type-only import
    from repro.harness.stats import SummaryCell


@dataclass(frozen=True)
class CampaignConfig:
    """Trial counts and budgets for one campaign."""

    trials: int = 20
    #: Default schedules-to-run per (tool, program, trial).
    budget: int = 2000
    base_seed: int = 1234
    #: Per-program budget overrides (large programs get smaller budgets so
    #: laptop-scale campaigns stay fast).
    budget_overrides: dict[str, int] = field(default_factory=dict)
    #: Online sanitizer names to attach to every tool (see
    #: ``repro.analysis.online.SANITIZERS``); empty = crash oracle only.
    sanitizers: tuple[str, ...] = ()
    #: Replays per found bug for STABLE/FLAKY verification (0 = off).
    verify_replays: int = 0
    #: Runtime guardrails attached to every execution (None = unguarded).
    guard: GuardConfig | None = None
    #: Budget allocator (see ``repro.harness.allocator``).  None runs one
    #: uniform round and records no allocation ledger; an allocator
    #: instance runs the campaign in seeded allocation rounds.
    allocator: Any = None

    def budget_for(self, program_name: str) -> int:
        return self.budget_overrides.get(program_name, self.budget)


def campaign_header(
    config: CampaignConfig, tool_names: list[str], program_names: list[str]
) -> dict[str, Any]:
    """The identity of one campaign: everything that determines its results.

    Corpus stores stamp this header and refuse to resume a campaign whose
    header differs — results computed under one configuration must never
    be silently mixed with another's.  The ``checkpoint_version`` key is
    the on-disk format version.

    An adaptive allocator stamps its identity into the header, so resuming
    a store under a different allocator is refused by the same equality
    check.  The uniform allocator (and ``allocator=None``) stamps nothing —
    its headers stay byte-identical to pre-allocator campaigns, keeping
    old stores resumable.

    Execution choices never appear here: the engine and pool size affect
    only *how* slices are dispatched, never what they compute (the
    bit-identity contract), so a store written by a serial campaign
    resumes under a pooled one and vice versa.
    """
    header = {
        "checkpoint_version": 1,
        "base_seed": config.base_seed,
        "budget": config.budget,
        "budget_overrides": dict(sorted(config.budget_overrides.items())),
        "trials": config.trials,
        "tools": list(tool_names),
        "programs": list(program_names),
        "sanitizers": list(config.sanitizers),
        "verify_replays": config.verify_replays,
        "guard": (list(config.guard.as_tuple()) if config.guard is not None else None),
    }
    identity = config.allocator.identity() if config.allocator is not None else None
    if identity is not None:
        header["allocator"] = identity
    return header


@dataclass
class CampaignResult:
    """All trial results, keyed by (tool name, program name)."""

    config: CampaignConfig
    results: dict[tuple[str, str], list[BugSearchResult]] = field(default_factory=dict)
    #: Allocation ledger (rounds, slices, estimates) when the campaign ran
    #: under a configured budget allocator; None otherwise.
    allocation: dict[str, Any] | None = None

    def trials(self, tool: str, program: str) -> list[BugSearchResult]:
        return self.results.get((tool, program), [])

    def tools(self) -> list[str]:
        return sorted({tool for tool, _ in self.results})

    def programs(self) -> list[str]:
        return sorted({program for _, program in self.results})

    def schedules_to_bug(self, tool: str, program: str) -> list[int | None]:
        return [r.schedules_to_bug for r in self.trials(tool, program)]

    def cell(self, tool: str, program: str) -> SummaryCell:
        from repro.harness.stats import summarize

        return summarize(self.schedules_to_bug(tool, program))

    def is_error(self, tool: str, program: str) -> bool:
        trials = self.trials(tool, program)
        return bool(trials) and all(r.error is not None for r in trials)

    def bugs_found_per_trial(self, tool: str) -> list[int]:
        """#programs in which the bug was found, per trial index — the
        quantity behind "RFF finds 46.1 bugs on average" (Section 5.2)."""
        per_trial: dict[int, int] = {}
        for (result_tool, _), trials in self.results.items():
            if result_tool != tool:
                continue
            for index, result in enumerate(trials):
                per_trial[index] = per_trial.get(index, 0) + (1 if result.found else 0)
        return [per_trial[i] for i in sorted(per_trial)]

    def mean_bugs_found(self, tool: str) -> float:
        per_trial = self.bugs_found_per_trial(tool)
        return sum(per_trial) / len(per_trial) if per_trial else 0.0

    def cumulative_curve(self, tool: str) -> list[tuple[int, int]]:
        """Figure 4 data: for each bug found (any program, any trial), the
        schedule count at which it was found; returned as the sorted list of
        (schedules, cumulative bugs)."""
        # No per-result tool predicate: trials are already fetched per tool,
        # and results resumed from a store may carry whatever tool string
        # was stamped at record time — filtering on it dropped real hits.
        hits = sorted(
            r.schedules_to_bug
            for trials in (self.trials(tool, p) for p in self.programs())
            for r in trials
            if r.schedules_to_bug is not None
        )
        return [(schedules, index + 1) for index, schedules in enumerate(hits)]

    def one_shot_wins(self, tool: str) -> int:
        """#programs where the tool found the bug on the very first schedule
        of at least one trial (the QL-RF observation of Section 5.5)."""
        count = 0
        for program in self.programs():
            if any(r.schedules_to_bug == 1 for r in self.trials(tool, program)):
                count += 1
        return count


class Campaign:
    """Runs tools over programs and collects every trial result."""

    def __init__(self, config: CampaignConfig | None = None):
        self.config = config or CampaignConfig()

    def run(
        self,
        tools: list[TestingTool],
        programs: list[Program],
        progress=None,
        store=None,
    ) -> CampaignResult:
        """Execute the full cross product in this process, with the caller's
        tool and program instances; ``progress`` is an optional callback
        ``(tool_name, program_name, trial_index)`` called before every
        executed slice.

        This is the in-process front door of the one campaign engine:
        ``ParallelCampaign(config, processes=0)`` with the instances seeded
        into its caches, so tools and programs no registry knows still run,
        and a tool that raises becomes a structured error cell, exactly as
        in a pooled campaign.

        With ``store`` set (a :class:`~repro.harness.store.CorpusStore` or a
        path opened as one), every result is recorded durably as it
        completes and work already in the store is skipped — so a killed
        serial campaign resumes through the same ledger parallel ones use.

        With ``config.allocator`` set, the campaign runs in allocation
        rounds instead of a single uniform pass (see
        :mod:`repro.harness.allocator`).
        """
        from repro.harness.parallel import ParallelCampaign  # imports this module

        engine = ParallelCampaign(
            self.config,
            processes=0,
            store=store,
            telemetry=ProgressSink(progress) if progress is not None else TelemetrySink(),
        )
        return engine._run(
            [(tool.name, tool.deterministic) for tool in tools],
            [program.name for program in programs],
            refs={},
            tool_instances=tools,
            program_instances=programs,
        )


#: One slice to run: ``(tool, program, trial, seed, budget, factory_ref)``.
#: The factory reference is None for a tool instance seeded into the
#: in-process cache (``Campaign.run``), which is never rebuilt.
Slice = tuple[str, str, int, int, int, str | None]


def run_rounds(
    config: CampaignConfig,
    tools: list[tuple[str, bool]],
    programs: list[str],
    pool: Any,
    *,
    store: Any = None,
) -> CampaignResult:
    """The campaign round loop every campaign runs.

    ``tools`` are ``(name, deterministic)`` pairs.  Each round the
    allocator (``config.allocator``, or a one-round
    :class:`~repro.harness.allocator.UniformAllocator` when None) plans one
    slice budget per live cell; slices the store already holds are
    replayed, and the rest go as :data:`Slice` tuples, with their tool's
    factory reference from ``pool.refs``, to ``pool.execute(pending,
    record)`` (a :class:`~repro.harness.pool.WorkerPool`), which calls
    ``record(key, result)`` once per pending slice.  Slice results feed the
    allocator's estimates and merge into one result per cell.

    The store is the only resume format.  A one-round plan records whole
    cells, multi-round plans record every slice as it completes plus each
    merged cell at the end, so a killed campaign resumes slice-granularly
    and converges to the same bits as an uninterrupted one.

    The pool's sink receives ``campaign_start``, the allocation events
    (only when an allocator was configured) and, after the pool has been
    closed, ``campaign_end`` with the pool's ``retries``/``failed`` counts.
    """
    sink = pool.sink
    tool_names = [name for name, _ in tools]
    deterministic = {name for name, is_deterministic in tools if is_deterministic}
    cells = [
        CellInfo(
            tool=tool_name,
            program=program_name,
            trial=trial,
            budget=config.budget_for(program_name),
            one_shot=tool_name in deterministic,
        )
        for tool_name in tool_names
        for program_name in programs
        for trial in range(1 if tool_name in deterministic else config.trials)
    ]
    allocator = config.allocator or UniformAllocator()
    single_round = allocator.rounds == 1
    executions = 0
    owned = isinstance(store, (str, Path))
    if owned:
        # Lazy import: the store depends on persist, which imports tools
        # from this package; campaign stays import-light.
        from repro.harness.store import CorpusStore

        store = CorpusStore(store)
    try:
        done_cells: dict[CellId, BugSearchResult] = {}
        done_slices: dict[tuple[str, str, int, int], BugSearchResult] = {}
        if store is not None:
            store.begin_campaign(campaign_header(config, tool_names, programs))
            done_cells = store.completed()
            done_slices = store.completed_slices()
        sliced_cells = {key[:3] for key in done_slices}
        run_state = AllocationRun(allocator, cells, config.base_seed)
        start = time.perf_counter()
        sink.emit(
            "campaign_start",
            tools=tool_names,
            programs=list(programs),
            trials=config.trials,
            total_cells=len(cells),
            resumed_cells=sum(
                1 for cell in cells if cell.key in done_cells or cell.key in sliced_cells
            ),
            processes=pool.size,
        )
        while (plan := run_state.next_plan()) is not None:
            round_index = run_state.round_index
            if config.allocator is not None:
                sink.emit(
                    "alloc_round",
                    allocator=allocator.name,
                    round=round_index,
                    budget=sum(plan.values()),
                    cells=len(plan),
                )
                estimates = run_state.estimates()
            round_results: dict[CellId, BugSearchResult] = {}
            pending: list[Slice] = []
            for key in sorted(plan):
                if config.allocator is not None:
                    sink.emit(
                        "alloc_estimate",
                        allocator=allocator.name,
                        round=round_index,
                        tool=key[0],
                        program=key[1],
                        trial=key[2],
                        allocated=plan[key],
                        estimate=estimates.get(key),
                    )
                if (*key, round_index) in done_slices:
                    round_results[key] = done_slices[(*key, round_index)]
                elif round_index == 0 and key in done_cells and key not in sliced_cells:
                    # A whole-cell record: written by a one-round campaign
                    # (only header-compatible under the same allocator).
                    round_results[key] = done_cells[key]
                else:
                    seed = slice_seed(config.base_seed, key[2], round_index)
                    pending.append((*key, seed, plan[key], pool.refs.get(key[0])))

            def record(key: CellId, result: BugSearchResult) -> None:
                nonlocal executions
                round_results[key] = result
                executions += result.executions
                if store is None:
                    return
                if single_round:
                    store.record_result(result)
                else:
                    store.record_slice(round_index, result)

            if pending:
                pool.execute(pending, record)
            run_state.observe(plan, round_results)
        merged = run_state.merged()
        if store is not None and not single_round:
            already = store.completed()
            for key in sorted(merged):
                if key not in already:
                    store.record_result(merged[key])
    finally:
        pool.close()
        if owned:
            store.close()
    wall_time = time.perf_counter() - start
    sink.emit(
        "campaign_end",
        wall_time=wall_time,
        cells=len(merged),
        failed_cells=pool.stats["failed"],
        retries=pool.stats["retries"],
        executions=executions,
        schedules_per_sec=executions / wall_time if wall_time > 0 else 0.0,
    )
    outcome = CampaignResult(config=config)
    for tool_name in tool_names:
        trials = 1 if tool_name in deterministic else config.trials
        for program_name in programs:
            results = [merged[(tool_name, program_name, trial)] for trial in range(trials)]
            if tool_name in deterministic and config.trials > 1:
                # Replicate the single deterministic result so per-trial
                # aggregates stay comparable across tools.
                results = results * config.trials
            outcome.results[(tool_name, program_name)] = results
    if config.allocator is not None:
        outcome.allocation = run_state.ledger()
    return outcome
