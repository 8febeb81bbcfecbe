"""Bench: how busy the pool keeps its workers (campaign wall time).

The pool exists to amortize process spawn and tool/program construction
across slices — exactly the costs that dominate allocated campaigns with
many small slices.  Its figure of merit is the *busy share*: the time
workers spend inside ``find_bug`` (the sum of ``cell_end.wall_time``)
divided by the worker-seconds the campaign had (processes × campaign
wall).  Dispatch overhead, round barriers and idle workers all lower it.
This bench runs the full 49-program bench × Random/PCT3 under four
Laplace allocation rounds (≈250 small slices) on two workers, pins
bit-identity with the in-process run, writes ``results/BENCH_pool.json``,
and gates the best share at :data:`MIN_BUSY_SHARE`.  The gate needs a
machine with at least :data:`PROCESSES` cores.

Plain ``time.perf_counter`` loops (not pytest-benchmark) so the numbers
are produced on every run, including CI's plain ``pytest`` invocation.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

from repro import bench
from repro.harness.allocator import LaplaceAllocator
from repro.harness.campaign import CampaignConfig
from repro.harness.parallel import ParallelCampaign
from repro.harness.telemetry import TelemetryAggregator

RESULTS_DIR = Path(__file__).resolve().parent.parent / "results"

TOOLS = ["Random", "PCT3"]
#: Small per-cell budgets keep each slice cheap, so dispatch overhead
#: weighs on the busy share the way it does in real allocated sweeps over
#: many targets.
CONFIG = CampaignConfig(
    trials=1, budget=24, base_seed=20240809, allocator=LaplaceAllocator(rounds=4)
)
#: A process-per-slice engine keeps its workers busy about a quarter to
#: half of the time on this campaign; the pool, about nine tenths.
MIN_BUSY_SHARE = 0.7
SAMPLES = 2
PROCESSES = 2


def _run(processes: int):
    """(result, busy share) of one campaign."""
    aggregator = TelemetryAggregator()
    start = time.perf_counter()
    result = ParallelCampaign(CONFIG, processes=processes, telemetry=aggregator).run(
        TOOLS, bench.names()
    )
    wall = time.perf_counter() - start
    busy = sum(r["wall_time"] for r in aggregator.of_type("cell_end"))
    return result, busy / (max(1, processes) * wall), wall


def test_pool_keeps_workers_busy():
    # Warm imports/caches outside the measured samples, and pin the
    # equivalence that makes the measurement honest: the pool executes
    # schedule-for-schedule the campaign the in-process run does.
    inprocess_result, inprocess_share, _ = _run(0)
    pool_result, _, _ = _run(PROCESSES)
    assert pool_result.results == inprocess_result.results
    assert pool_result.allocation == inprocess_result.allocation

    samples = [_run(PROCESSES)[1:] for _ in range(SAMPLES)]
    share, wall = max(samples)

    slices = sum(round_["cells"] for round_ in pool_result.allocation["rounds"])
    payload = {
        "min_busy_share": MIN_BUSY_SHARE,
        "tools": TOOLS,
        "programs": len(bench.names()),
        "budget": CONFIG.budget,
        "allocator": "laplace",
        "rounds": 4,
        "slices_per_sample": slices,
        "processes": PROCESSES,
        "samples": SAMPLES,
        "pool_wall_s": round(wall, 4),
        "busy_share": round(share, 3),
        "inprocess_busy_share": round(inprocess_share, 3),
    }
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / "BENCH_pool.json").write_text(json.dumps(payload, indent=2) + "\n")
    assert share >= MIN_BUSY_SHARE, (
        f"pool workers were busy only {share:.2f} of the campaign's worker-seconds "
        f"(gate {MIN_BUSY_SHARE}); see results/BENCH_pool.json"
    )
