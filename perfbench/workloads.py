"""The benchmark's workloads: which campaign each one runs (README.md
says why).

Importing this module does not import ``repro``; the functions below do,
when called.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any


@dataclass(frozen=True)
class Workload:
    name: str
    #: "bench49", "py13" or "gen50".
    family: str
    tools: tuple[str, ...]
    trials: int
    budget: int
    budget_overrides: dict[str, int] = field(default_factory=dict)
    #: None runs the serial ``Campaign`` (``rff campaign`` without
    #: ``--parallel``); a number runs ``ParallelCampaign`` with that many
    #: worker processes, a corpus store and a JSONL telemetry sink.
    processes: int | None = None
    sanitizers: tuple[str, ...] = ()
    verify_replays: int = 0
    #: Rounds of a ``LaplaceAllocator`` (0 = no allocator).
    alloc_rounds: int = 0

    @property
    def pooled(self) -> bool:
        return self.processes is not None


WORKLOADS: dict[str, Workload] = {
    workload.name: workload
    for workload in (
        Workload(
            name="bench49-serial",
            family="bench49",
            tools=("RFF", "PCT3", "POS"),
            trials=3,
            budget=8,
            # The largest CS programs cost 10-20x more per schedule than the
            # rest; capped so no single cell dominates the campaign.
            budget_overrides={
                "CS/twostage_100": 2,
                "CS/twostage_50": 4,
                "CS/reorder_100": 4,
                "CS/twostage_20": 6,
                "CS/reorder_50": 6,
            },
        ),
        Workload(
            name="py13-substrate",
            family="py13",
            tools=("RFF", "PCT3", "POS"),
            trials=10,
            budget=15,
        ),
        Workload(
            name="gen50-pooled",
            family="gen50",
            tools=("RFF", "Random"),
            trials=1,
            budget=30,
            processes=2,
            sanitizers=("race", "lockset", "lockorder"),
            verify_replays=3,
            alloc_rounds=4,
        ),
    )
}

GEN_SEEDS = range(2000, 2050)


def program_names(workload: Workload) -> list[str]:
    """The campaign's program names (needs ``repro`` importable)."""
    from repro import bench

    if workload.family == "bench49":
        return bench.names() + ["extras/ticket_lock"]
    if workload.family == "py13":
        return bench.py_names()
    return [f"gen:{seed}" for seed in GEN_SEEDS]


def get_program(name: str) -> Any:
    """Resolve a program name, including the ``extras/`` control."""
    from repro import bench

    if name.startswith("extras/"):
        from repro.bench.extras import extras_programs

        return {p.name: p for p in extras_programs()}[name]
    return bench.get(name)


def config(workload: Workload, seed: int) -> Any:
    """The campaign configuration of ``workload`` for benchmark ``seed``."""
    from repro.harness import CampaignConfig

    allocator = None
    if workload.alloc_rounds:
        from repro.harness.allocator import LaplaceAllocator

        allocator = LaplaceAllocator(rounds=workload.alloc_rounds)
    return CampaignConfig(
        trials=workload.trials,
        budget=workload.budget,
        base_seed=seed,
        budget_overrides=dict(workload.budget_overrides),
        sanitizers=workload.sanitizers,
        verify_replays=workload.verify_replays,
        allocator=allocator,
    )
