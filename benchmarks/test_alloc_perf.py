"""Bench: budget-allocator machinery overhead (campaign wall time).

A ``UniformAllocator`` campaign runs every cell once with its full budget
and its round-0 seed, which is exactly a bare loop of ``find_bug`` calls
over the same cells and seeds.  The wall-time ratio between the campaign
and that bare loop therefore measures pure round/slice/merge bookkeeping.
This bench pins the equality of the two, writes
``results/BENCH_alloc.json``, and asserts the machinery stays within a
1.05x slowdown; adaptive Laplace numbers are reported alongside for
context (not gated: retirement changes the executed workload itself).

Plain ``time.perf_counter`` loops (not pytest-benchmark) so the numbers
are produced on every run, including CI's plain ``pytest`` invocation.
"""

from __future__ import annotations

import json
import time
from dataclasses import replace
from pathlib import Path

from repro import bench
from repro.harness.allocator import CellInfo, LaplaceAllocator, UniformAllocator
from repro.harness.campaign import Campaign, CampaignConfig
from repro.harness.tools import random_tool

RESULTS_DIR = Path(__file__).resolve().parent.parent / "results"

#: Subjects RandomWalk essentially never cracks at this budget, so every
#: sample executes the full budget and per-execution cost dominates the
#: timing (fixed per-campaign setup would otherwise drown the signal).
PROGRAMS = ["CS/reorder_10", "CS/reorder_20"]
CONFIG = CampaignConfig(trials=1, budget=1500, base_seed=20240809)
MAX_OVERHEAD = 1.05
SAMPLES = 3


def _run_campaign(allocator):
    config = replace(CONFIG, allocator=allocator)
    programs = [bench.get(name) for name in PROGRAMS]
    return Campaign(config).run([random_tool()], programs).results


def _bare_loop():
    """The reference: one ``find_bug`` call per cell, nothing else."""
    tool = random_tool()
    results = {}
    for name in PROGRAMS:
        program = bench.get(name)
        results[(tool.name, name)] = [
            replace(
                tool.find_bug(program, CONFIG.budget, CONFIG.base_seed + 7919 * trial),
                trial=trial,
            )
            for trial in range(CONFIG.trials)
        ]
    return results


def _best_of(variants: dict) -> dict[str, float]:
    """Best-of-N wall time per variant, samples interleaved round-robin so
    cache warm-up and machine drift cannot favour one variant."""
    best = {name: float("inf") for name in variants}
    for _ in range(SAMPLES):
        for name, run in variants.items():
            start = time.perf_counter()
            run()
            best[name] = min(best[name], time.perf_counter() - start)
    return best


def test_allocator_machinery_overhead_within_budget():
    # Warm imports/caches outside the timed loops, and pin the equivalence
    # that makes the timing comparison honest: the uniform campaign
    # executes schedule-for-schedule the same work as the bare loop.
    bare_results = _bare_loop()
    assert _run_campaign(UniformAllocator()) == bare_results

    walls = _best_of(
        {
            "bare": _bare_loop,
            "uniform": lambda: _run_campaign(UniformAllocator()),
            "laplace": lambda: _run_campaign(LaplaceAllocator(rounds=4)),
        }
    )
    bare_wall, uniform_wall, laplace_wall = walls["bare"], walls["uniform"], walls["laplace"]
    overhead = uniform_wall / bare_wall

    executions = sum(r.executions for trials in bare_results.values() for r in trials)
    payload = {
        "max_overhead": MAX_OVERHEAD,
        "programs": PROGRAMS,
        "budget": CONFIG.budget,
        "executions_per_sample": executions,
        "samples": SAMPLES,
        "bare_wall_s": round(bare_wall, 4),
        "uniform_wall_s": round(uniform_wall, 4),
        "laplace_wall_s": round(laplace_wall, 4),
        "uniform_overhead": round(overhead, 3),
        "laplace_ratio": round(laplace_wall / bare_wall, 3),
        "plan_microseconds": _plan_microbench(),
    }
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / "BENCH_alloc.json").write_text(json.dumps(payload, indent=2) + "\n")
    assert overhead <= MAX_OVERHEAD, (
        f"allocator machinery costs {overhead:.3f}x the bare find_bug loop's "
        f"wall time (budget {MAX_OVERHEAD}x); see results/BENCH_alloc.json"
    )


def _plan_microbench(cells: int = 98, iterations: int = 200) -> float:
    """Microseconds per ``plan()`` call at full-bench campaign width."""
    allocator = LaplaceAllocator(rounds=4)
    infos = [
        CellInfo("Random", f"prog/{index}", 0, 400) for index in range(cells)
    ]
    history = {
        info.key: []
        for info in infos
    }
    allocator.plan(infos, history, 0, 1234)  # warm
    start = time.perf_counter()
    for _ in range(iterations):
        allocator.plan(infos, history, 1, 1234)
    return round((time.perf_counter() - start) / iterations * 1e6, 1)
