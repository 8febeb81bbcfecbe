"""Adaptive cross-target budget allocation for campaigns.

Campaigns historically split schedule budgets uniformly across every
(tool, program, trial) cell — :meth:`CampaignConfig.budget_for` — which
wastes executions on targets that stopped yielding novelty long ago.  This
module adds the allocation layer ROADMAP item 3 names: campaigns run in
*rounds*, an allocator hands each live cell a slice of the global budget,
slice results feed per-cell estimates back, and the next round's plan
shifts budget toward cells whose reads-from signatures are still producing
new behaviour.

Three allocators:

* :class:`UniformAllocator` — one round, every cell gets its full nominal
  budget.  Bit-for-bit identical to the pre-allocator campaign split, and
  stamps nothing into the campaign header, so legacy stores resume.
* :class:`LaplaceAllocator` — hypofuzz-style: each cell's residual
  bug-finding rate is estimated by a Laplace rule-of-succession posterior
  ``(novel_signatures + 1) / (executions + 2)`` over its whole history,
  and round budgets are apportioned proportionally.
* :class:`NoveltyBiasAllocator` — MUZZ-style: weight by the *recent* rate
  of novel rf-signatures (last slice only), so a cell that has gone dry is
  demoted quickly but can win budget back the moment it produces novelty.

The determinism contract, which every engine and the property suite lean
on:

* :meth:`BudgetAllocator.plan` is a **pure function** of
  ``(cells, history, round_index, base_seed)`` — no hidden state, no wall
  clock, no global RNG.  Cells are canonically sorted before any draw, so
  iteration order cannot leak into the plan.
* Tie-breaking randomness comes from ``random.Random(f"{base_seed}:{name}:
  {round}")`` — string seeding is stable across platforms and Python
  versions we support.
* Every round's plan sums to exactly that round's share of the global
  budget (largest-remainder apportionment), every live cell receives at
  least the ``min_cell_budget`` floor (clamped so the floor itself cannot
  overcommit), and one-shot cells (deterministic tools) receive their full
  budget in round 0 and are never re-sliced.

Because plans depend only on (seed, history) and slice seeds derive from
``slice_seed(base_seed, trial, round)``, serial, pooled and
SIGKILL-resumed campaigns replay the identical sequence of slices for a
fixed (seed, allocator) pair — the differential suite proves it.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from typing import Any, Mapping, Sequence

from repro.harness.tools import BugSearchResult

#: A campaign cell's identity: (tool name, program name, trial index).
CellId = tuple[str, str, int]

#: Seed stride between allocation rounds.  Round 0 reproduces the legacy
#: per-trial seed exactly (``base_seed + 7919 * trial``); later rounds of
#: the same cell step by a large prime so slices never reuse a seed.
ROUND_SEED_STRIDE = 15485863


def slice_seed(base_seed: int, trial: int, round_index: int) -> int:
    """The RNG seed of one cell slice; round 0 equals the legacy seed."""
    return base_seed + 7919 * trial + ROUND_SEED_STRIDE * round_index


@dataclass(frozen=True)
class CellInfo:
    """Static description of one campaign cell the allocator plans over."""

    tool: str
    program: str
    trial: int
    #: Nominal (uniform-split) budget of this cell; the adaptive pool is
    #: the sum of these over non-one-shot cells.
    budget: int
    #: Deterministic tools explore systematically and cannot resume from a
    #: slice boundary: they get their full budget in round 0 and retire.
    one_shot: bool = False

    @property
    def key(self) -> CellId:
        return (self.tool, self.program, self.trial)


@dataclass(frozen=True)
class SliceObservation:
    """What one completed slice taught the allocator about its cell."""

    round: int
    allocated: int
    executions: int
    found: bool
    error: bool
    #: Executions whose rf-signature was new to the slice's trial.
    new_signatures: int = 0


#: Everything the allocator may condition on: per-cell, ordered by round.
History = Mapping[CellId, Sequence[SliceObservation]]


def _retired(observations: Sequence[SliceObservation]) -> bool:
    """A cell that found its bug or errored needs no further budget."""
    return any(o.found or o.error for o in observations)


def _apportion(
    budget: int,
    ids: list[CellId],
    weights: dict[CellId, float],
    floor: int,
    rng: random.Random,
) -> dict[CellId, int]:
    """Split ``budget`` across ``ids`` proportionally to ``weights``.

    Largest-remainder apportionment: exact conservation (the result sums
    to ``budget``), a per-cell floor (clamped to ``budget // len(ids)`` so
    the floor itself cannot overcommit), and deterministic seeded
    tie-breaks for equal fractional remainders.  ``ids`` must already be
    canonically sorted — every RNG draw happens in that order, which is
    what makes plans insensitive to caller iteration order.
    """
    if budget <= 0 or not ids:
        return {}
    count = len(ids)
    if budget < count:
        # Not even one schedule per cell: the highest-weighted cells get 1.
        ranked = sorted(ids, key=lambda i: (-weights[i], i))
        return {i: 1 for i in ranked[:budget]}
    floor_eff = max(1, min(floor, budget // count))
    alloc = {i: floor_eff for i in ids}
    rest = budget - floor_eff * count
    if rest > 0:
        total = sum(weights[i] for i in ids)
        quotas = {i: rest * weights[i] / total for i in ids}
        shares = {i: int(quotas[i]) for i in ids}
        for i in ids:
            alloc[i] += shares[i]
        leftover = rest - sum(shares.values())
        if leftover > 0:
            jitter = {i: rng.random() for i in ids}
            ranked = sorted(ids, key=lambda i: (-(quotas[i] - shares[i]), jitter[i], i))
            for i in ranked[:leftover]:
                alloc[i] += 1
    return alloc


@dataclass(frozen=True)
class BudgetAllocator:
    """The allocator protocol: a pure, seeded planner over campaign cells.

    Subclasses set :attr:`name` and implement :meth:`_weights`; the base
    class owns round arithmetic, retirement, the floor, and conservation.
    """

    #: How many allocation rounds the campaign runs.
    rounds: int = 1
    #: Minimum schedules any live cell receives per round (starvation
    #: freedom); clamped per round so the floor never overcommits.
    min_cell_budget: int = 1

    name = "abstract"

    def identity(self) -> dict[str, Any] | None:
        """What this allocator stamps into the campaign header.

        ``None`` means "stamp nothing" — the uniform allocator returns
        None so its headers stay byte-identical to pre-allocator
        campaigns and legacy stores resume cleanly.  Adaptive allocators
        return their full identity, and the store header
        equality check then refuses to resume under a different one.
        """
        return {
            "name": self.name,
            "rounds": self.rounds,
            "min_cell_budget": self.min_cell_budget,
        }

    # -- planning -------------------------------------------------------
    def plan(
        self,
        cells: Sequence[CellInfo],
        history: History,
        round_index: int,
        base_seed: int,
    ) -> dict[CellId, int]:
        """The slice budgets of round ``round_index``.

        Pure in ``(cells, history, round_index, base_seed)``: callers may
        replay any prefix of a campaign and get the identical plan.
        """
        if round_index >= self.rounds:
            return {}
        ordered = sorted(cells, key=lambda c: c.key)
        plan: dict[CellId, int] = {}
        if round_index == 0:
            for cell in ordered:
                if cell.one_shot:
                    plan[cell.key] = cell.budget
        adaptive = [c for c in ordered if not c.one_shot]
        pool = sum(c.budget for c in adaptive)
        share = pool // self.rounds + (1 if round_index < pool % self.rounds else 0)
        live = [c for c in adaptive if not _retired(history.get(c.key, ()))]
        if live and share > 0:
            rng = random.Random(f"{base_seed}:{self.name}:{round_index}")
            weights = self.estimates(live, history)
            plan.update(
                _apportion(share, [c.key for c in live], weights, self.min_cell_budget, rng)
            )
        return plan

    def estimates(self, cells: Sequence[CellInfo], history: History) -> dict[CellId, float]:
        """Per-cell residual-rate estimates over the *live* cells given.

        These are the proportional weights :meth:`plan` apportions by;
        they also feed ``alloc_estimate`` telemetry and the allocation
        ledger.  Pure and iteration-order-insensitive like ``plan``.
        """
        live = [c for c in cells if not c.one_shot and not _retired(history.get(c.key, ()))]
        return {c.key: self._weight(history.get(c.key, ())) for c in live}

    def _weight(self, observations: Sequence[SliceObservation]) -> float:
        raise NotImplementedError


@dataclass(frozen=True)
class UniformAllocator(BudgetAllocator):
    """Today's split, bit-for-bit: one round, full nominal budget per cell."""

    rounds: int = 1

    name = "uniform"

    def identity(self) -> dict[str, Any] | None:
        # Stamp nothing: uniform campaigns are header-identical to
        # pre-allocator campaigns, so their stores interoperate.
        return None

    def plan(
        self,
        cells: Sequence[CellInfo],
        history: History,
        round_index: int,
        base_seed: int,
    ) -> dict[CellId, int]:
        if round_index >= 1:
            return {}
        return {c.key: c.budget for c in sorted(cells, key=lambda c: c.key)}

    def estimates(self, cells: Sequence[CellInfo], history: History) -> dict[CellId, float]:
        return {}


@dataclass(frozen=True)
class LaplaceAllocator(BudgetAllocator):
    """Posterior residual-rate allocation (hypofuzz's ``bayes.py`` style).

    Each cell's weight is the Laplace rule-of-succession estimate of its
    probability that the *next* execution exhibits a novel rf-signature:
    ``(novel + 1) / (executions + 2)`` over the cell's whole history.  An
    unobserved cell sits at the maximally-uncertain 1/2, so round 0 is
    uniform over the adaptive pool and exploration is automatic.
    """

    rounds: int = 4

    name = "laplace"

    def _weight(self, observations: Sequence[SliceObservation]) -> float:
        executions = sum(o.executions for o in observations)
        novel = sum(o.new_signatures for o in observations)
        return (novel + 1) / (executions + 2)


@dataclass(frozen=True)
class NoveltyBiasAllocator(BudgetAllocator):
    """Recency-biased novelty allocation (MUZZ-style energy scheduling).

    Weight is the novel-signature rate of the cell's *last* slice only —
    ``(new_signatures + 1) / (executions + 1)`` — so stale cells decay
    immediately instead of coasting on early novelty, while the +1
    smoothing (and the per-round floor) keeps every live cell probing.
    """

    rounds: int = 4

    name = "novelty"

    def _weight(self, observations: Sequence[SliceObservation]) -> float:
        if not observations:
            return 1.0
        last = observations[-1]
        return (last.new_signatures + 1) / (max(last.executions, 1) + 1)


#: CLI name -> allocator class.
ALLOCATORS: dict[str, type[BudgetAllocator]] = {
    "uniform": UniformAllocator,
    "laplace": LaplaceAllocator,
    "novelty": NoveltyBiasAllocator,
}


def make_allocator(
    name: str,
    *,
    rounds: int | None = None,
    min_cell_budget: int | None = None,
) -> BudgetAllocator:
    """Build a named allocator with optional knob overrides."""
    try:
        cls = ALLOCATORS[name]
    except KeyError:
        raise ValueError(f"unknown allocator {name!r}; known: {sorted(ALLOCATORS)}") from None
    kwargs: dict[str, Any] = {}
    if rounds is not None and cls is not UniformAllocator:
        kwargs["rounds"] = rounds
    if min_cell_budget is not None:
        kwargs["min_cell_budget"] = min_cell_budget
    return cls(**kwargs)


# ----------------------------------------------------------------------
# Slice batching (pooled dispatch)
# ----------------------------------------------------------------------
def pack_batches(
    slices: Sequence[Any],
    max_slices: int,
    budget_cap: int,
    budget: Any = None,
) -> list[list[Any]]:
    """Greedily pack slices into dispatch batches, preserving order.

    A batch closes when it holds ``max_slices`` slices *or* adding the next
    slice would push its total schedule budget past ``budget_cap`` — the
    budget bound is what keeps one over-packed batch from holding a round
    barrier hostage while every other worker idles.  Packing is pure and
    deterministic in the input order, so batch composition never influences
    results (each slice still runs with its own seed and budget); it only
    shapes dispatch granularity.  A slice whose own budget exceeds the cap
    still gets a (singleton) batch.
    """
    if max_slices < 1:
        raise ValueError(f"max_slices must be >= 1, got {max_slices}")
    cost = budget or (lambda item: item.budget)
    batches: list[list[Any]] = []
    current: list[Any] = []
    current_budget = 0
    for item in slices:
        item_cost = cost(item)
        if current and (
            len(current) >= max_slices or current_budget + item_cost > budget_cap
        ):
            batches.append(current)
            current = []
            current_budget = 0
        current.append(item)
        current_budget += item_cost
    if current:
        batches.append(current)
    return batches


# ----------------------------------------------------------------------
# Slice merging
# ----------------------------------------------------------------------
def merge_slices(slices: Sequence[BugSearchResult]) -> BugSearchResult:
    """Fold one cell's slice results (in round order) into one cell result.

    ``schedules_to_bug`` is global across the cell: the executions of every
    slice before the finding one count toward it, so merged results remain
    comparable with uniform campaigns on the paper's primary metric.
    Sanitizer reports are unioned first-wins by dedup key; novelty counters
    sum.  A single-slice cell merges to its slice unchanged — which is what
    keeps :class:`UniformAllocator` campaigns bit-identical to legacy ones.
    """
    if not slices:
        raise ValueError("cannot merge an empty slice list")
    if len(slices) == 1:
        return slices[0]
    reports: list[Any] = []
    seen: set[Any] = set()
    total_new = 0
    prior_execs = 0
    for result in slices:
        for report in result.sanitizer_reports:
            if report.dedup_key not in seen:
                seen.add(report.dedup_key)
                reports.append(report)
        total_new += result.new_signatures
        if result.found or result.error is not None:
            return replace(
                result,
                schedules_to_bug=(
                    prior_execs + result.schedules_to_bug
                    if result.schedules_to_bug is not None
                    else None
                ),
                executions=prior_execs + result.executions,
                sanitizer_reports=tuple(reports),
                new_signatures=total_new,
            )
        prior_execs += result.executions
    return replace(
        slices[-1],
        executions=prior_execs,
        sanitizer_reports=tuple(reports),
        new_signatures=total_new,
    )


# ----------------------------------------------------------------------
# The engine-agnostic round state machine
# ----------------------------------------------------------------------
class AllocationRun:
    """Round bookkeeping of the campaign round loop
    (:func:`repro.harness.campaign.run_rounds`), so serial and pooled
    campaigns drive the allocator through the identical (plan, observe)
    sequence and assemble the identical ledger."""

    def __init__(
        self, allocator: BudgetAllocator, cells: Sequence[CellInfo], base_seed: int
    ) -> None:
        self.allocator = allocator
        self.cells = sorted(cells, key=lambda c: c.key)
        self.base_seed = base_seed
        self.history: dict[CellId, list[SliceObservation]] = {}
        self.slices: dict[CellId, list[BugSearchResult]] = {}
        self.round_index = 0
        self._ledger_rounds: list[dict[str, Any]] = []

    def next_plan(self) -> dict[CellId, int] | None:
        """The current round's plan, or None when all rounds have run."""
        if self.round_index >= max(1, self.allocator.rounds):
            return None
        return self.allocator.plan(self.cells, self.history, self.round_index, self.base_seed)

    def estimates(self) -> dict[CellId, float]:
        """The estimates the *current* round's plan was computed from."""
        return self.allocator.estimates(self.cells, self.history)

    def observe(self, plan: dict[CellId, int], results: dict[CellId, BugSearchResult]) -> None:
        """Feed one completed round back: history, slices, ledger entry."""
        estimates = self.estimates()
        entries = []
        for key in sorted(plan):
            allocated = plan[key]
            result = results[key]
            self.slices.setdefault(key, []).append(result)
            self.history.setdefault(key, []).append(
                SliceObservation(
                    round=self.round_index,
                    allocated=allocated,
                    executions=result.executions,
                    found=result.found,
                    error=result.error is not None,
                    new_signatures=result.new_signatures,
                )
            )
            entries.append(
                {
                    "tool": key[0],
                    "program": key[1],
                    "trial": key[2],
                    "allocated": allocated,
                    "estimate": estimates.get(key),
                    "executions": result.executions,
                    "found": result.found,
                }
            )
        self._ledger_rounds.append(
            {
                "round": self.round_index,
                "budget": sum(plan.values()),
                "cells": len(plan),
                "slices": entries,
            }
        )
        self.round_index += 1

    def merged(self) -> dict[CellId, BugSearchResult]:
        """One merged result per cell.

        A cell that never won a slice (degenerate budgets smaller than the
        cell count) merges to an empty not-found result so assembly stays
        total."""
        out: dict[CellId, BugSearchResult] = {}
        for cell in self.cells:
            slices = self.slices.get(cell.key)
            if slices:
                out[cell.key] = merge_slices(slices)
            else:
                out[cell.key] = BugSearchResult(
                    tool=cell.tool,
                    program=cell.program,
                    trial=cell.trial,
                    found=False,
                    schedules_to_bug=None,
                    executions=0,
                )
        return out

    def ledger(self) -> dict[str, Any]:
        """The campaign's allocation ledger (see ``allocation_summary``)."""
        return {
            "allocator": self.allocator.name,
            "rounds": self._ledger_rounds,
            "min_cell_budget": self.allocator.min_cell_budget,
        }
