"""Chaos suite for the pool: kill mid-batch, replay, converge.

The crash-replay contract of ``repro.harness.pool``: a worker killed
mid-batch costs the slice it was running one attempt and nothing else —
completed slices are never re-run (no duplication), never-started ones go
back to the queue at their current attempt, nothing is dropped (no loss) —
and a pooled campaign driven through the durable store, killed and
resumed as the faults demand, converges bit-identically to the
fault-free serial result.  Same plans, same claim-once state, same
assertions as ``tests/test_chaos.py``.
"""

from __future__ import annotations

import pytest

from repro import bench
from repro.harness import faults
from repro.harness.campaign import Campaign, CampaignConfig
from repro.harness.faults import ChaosKill, ChaosPlan
from repro.harness.parallel import ParallelCampaign
from repro.harness.store import CorpusStore
from repro.harness.telemetry import TelemetryAggregator
from repro.harness.tools import RffTool, random_tool

TOOLS = ["RFF", "Random"]
PROGRAMS = ["CS/account", "Splash2/lu"]
CONFIG = CampaignConfig(trials=2, budget=80, base_seed=7)
ALL_KEYS = {
    (tool, program, trial)
    for tool in TOOLS
    for program in PROGRAMS
    for trial in range(CONFIG.trials)
}


@pytest.fixture(scope="module")
def serial():
    return Campaign(CONFIG).run(
        [RffTool(), random_tool()], [bench.get(p) for p in PROGRAMS]
    )


def seed_with_kill() -> int:
    for seed in range(200):
        plan = ChaosPlan(seed=seed, kill=0.3)
        points = plan.injection_points(
            [faults.cell_key(*key) for key in sorted(ALL_KEYS)]
        )
        if "kill" in points.values():
            return seed
    raise AssertionError("no seed in range produces a kill injection")


def arm(monkeypatch, tmp_path, plan: ChaosPlan) -> None:
    state = tmp_path / "chaos-state"
    state.mkdir(exist_ok=True)
    for key, value in plan.to_env(state).items():
        monkeypatch.setenv(key, value)


@pytest.mark.usefixtures("fast_retries")
class TestKillMidBatchReplay:
    def test_replays_only_unfinished_slices(self, serial, tmp_path, monkeypatch):
        """A chaos-killed pool worker loses its batch remainder, nothing else."""
        arm(monkeypatch, tmp_path, ChaosPlan(seed=seed_with_kill(), kill=0.3))
        aggregator = TelemetryAggregator()
        result = ParallelCampaign(
            CONFIG,
            processes=2,
            telemetry=aggregator,
            heartbeat_seconds=0.05,
        ).run(TOOLS, PROGRAMS)
        # The worker really died mid-batch and was recycled...
        recycles = aggregator.of_type("worker_recycle")
        assert recycles and any(r["kind"] == "crash" for r in recycles)
        crash_exits = [
            r for r in aggregator.of_type("worker_exit") if r["kind"] == "crash"
        ]
        assert any(r["exitcode"] == faults.CRASH_EXIT_CODE for r in crash_exits)
        # ...replaying some slices (cell_retry), but never re-recording a
        # completed one and never dropping one: every cell lands exactly once.
        assert aggregator.retries >= 1
        keys = [
            (r["tool"], r["program"], r["trial"])
            for r in aggregator.of_type("cell_end")
        ]
        assert len(keys) == len(set(keys))
        assert set(keys) == ALL_KEYS
        # And the survivors are bit-identical to the fault-free serial run.
        assert result == serial

    def test_crasher_at_batch_head_costs_only_its_own_cell(self, tmp_path, monkeypatch):
        """A deterministic crasher at the head of a multi-slice batch
        exhausts its own retries; the slices queued behind it never ran,
        so they are re-queued unchanged instead of inheriting its
        attempts, and they all complete."""
        config = CampaignConfig(trials=10, budget=40, base_seed=7)
        programs = ["CS/account", "Splash2/lu"]
        serial = Campaign(config).run([random_tool()], [bench.get(p) for p in programs])
        poisoned = faults.cell_key("Random", "CS/account", 0)
        arm(monkeypatch, tmp_path, ChaosPlan(seed=0, cells={poisoned: "poison"}))
        aggregator = TelemetryAggregator()
        result = ParallelCampaign(config, processes=1, telemetry=aggregator).run(
            ["Random"], programs
        )
        first = aggregator.of_type("batch_dispatch")[0]
        assert first["slices"] > 1  # the crasher heads a multi-slice batch
        errors = [r for trials in result.results.values() for r in trials if r.error]
        assert len(errors) == 1
        (failed,) = errors
        assert (failed.tool, failed.program, failed.trial) == ("Random", "CS/account", 0)
        assert f"exit code {faults.CRASH_EXIT_CODE}" in failed.error
        assert "deterministic crasher" in failed.error
        assert aggregator.retries == 2  # the crasher's own retry budget only
        for key, trials in serial.results.items():
            for index, expected in enumerate(trials):
                if (key, index) != (("Random", "CS/account"), 0):
                    assert result.results[key][index] == expected


@pytest.mark.usefixtures("fast_retries")
class TestDurablePoolConvergence:
    def run_until_converged(self, store_dir, max_rounds: int = 10, **engine_kwargs):
        for _ in range(max_rounds):
            engine = ParallelCampaign(
                CONFIG,
                processes=2,
                store=store_dir,
                heartbeat_seconds=0.05,
                **engine_kwargs,
            )
            try:
                result = engine.run(TOOLS, PROGRAMS)
            except ChaosKill:
                continue  # the simulated SIGKILL: resume through the store
            with CorpusStore(store_dir, readonly=True) as store:
                if set(store.completed()) == ALL_KEYS:
                    return result
        raise AssertionError(f"campaign did not converge in {max_rounds} rounds")

    def test_kills_and_torn_writes_converge(self, serial, tmp_path, monkeypatch):
        """Worker kills + torn store writes; killed-and-resumed == serial."""
        seed = next(
            s
            for s in range(200)
            if ChaosPlan(seed=s, torn_write=0.2).store_fault(1) == "torn_write"
        )
        arm(monkeypatch, tmp_path, ChaosPlan(seed=seed, kill=0.2, torn_write=0.2))
        result = self.run_until_converged(tmp_path / "store")
        assert result == serial
