"""Worker supervision: heartbeats, leases, backoff, triage.

Every ``ParallelCampaign`` supervises its pool workers: liveness is judged
by heartbeats against a lease, wedged workers are killed and their slices
reassigned with exponential backoff — and none of it may change results.
Every scenario here ends in full dataclass equality with the serial
``Campaign``.
"""

from __future__ import annotations

import pytest

from repro import bench
from repro.harness import faults, pool
from repro.harness.campaign import Campaign, CampaignConfig
from repro.harness.parallel import ParallelCampaign
from repro.harness.telemetry import TelemetryAggregator
from repro.harness.tools import PeriodTool, RffTool, pos_tool

TOOLS = ["RFF", "POS", "PERIOD"]
PROGRAMS = ["CS/account", "Splash2/lu"]
CONFIG = CampaignConfig(trials=2, budget=120, base_seed=7)


@pytest.fixture(scope="module")
def serial():
    return Campaign(CONFIG).run(
        [RffTool(), pos_tool(), PeriodTool()], [bench.get(p) for p in PROGRAMS]
    )


class TestDeterminism:
    def test_supervised_bit_identical_to_serial(self, serial):
        supervised = ParallelCampaign(CONFIG, processes=2).run(TOOLS, PROGRAMS)
        assert supervised == serial

    def test_serial_engine_mode_bit_identical(self, serial):
        assert ParallelCampaign(CONFIG, processes=0).run(TOOLS, PROGRAMS) == serial

    def test_heartbeats_observed_from_slowed_workers(self, serial, tmp_path, monkeypatch):
        # A 100%-skew chaos plan makes every worker sleep 0.3s mid-cell, so a
        # 0.05s heartbeat interval must land several beats per cell.
        plan = faults.ChaosPlan(seed=1, skew=1.0, skew_seconds=0.3)
        for key, value in plan.to_env(tmp_path).items():
            monkeypatch.setenv(key, value)
        aggregator = TelemetryAggregator()
        supervised = ParallelCampaign(
            CONFIG,
            processes=2,
            telemetry=aggregator,
            heartbeat_seconds=0.05,
        ).run(TOOLS, PROGRAMS)
        assert supervised == serial
        assert aggregator.heartbeats > 0
        assert aggregator.lease_reassignments == 0  # skew is benign


class TestLeases:
    def test_hung_worker_loses_lease_and_cell_is_reassigned(self, serial, fault_env):
        fault_env("RFF", "CS/account", 1, kind="hang")
        aggregator = TelemetryAggregator()
        supervised = ParallelCampaign(
            CONFIG,
            processes=2,
            telemetry=aggregator,
            heartbeat_seconds=0.05,
            lease_seconds=0.5,
        ).run(TOOLS, PROGRAMS)
        assert supervised == serial
        assert aggregator.lease_reassignments == 1
        lease_exits = [
            r for r in aggregator.of_type("worker_exit") if r["kind"] == "lease"
        ]
        assert len(lease_exits) == 1
        reassign = aggregator.of_type("lease_reassign")[0]
        assert (reassign["tool"], reassign["program"], reassign["trial"]) == (
            "RFF",
            "CS/account",
            1,
        )
        assert reassign["kind"] == "lease"
        assert reassign["delay"] == pytest.approx(0.01)

    def test_crashed_worker_reassigned_with_backoff(self, serial, fault_env):
        fault_env("POS", "Splash2/lu", 0, kind="kill")
        aggregator = TelemetryAggregator()
        supervised = ParallelCampaign(
            CONFIG,
            processes=2,
            telemetry=aggregator,
        ).run(TOOLS, PROGRAMS)
        assert supervised == serial
        assert aggregator.lease_reassignments == 1
        assert aggregator.retries == 1
        crash_exits = [
            r for r in aggregator.of_type("worker_exit") if r["kind"] == "crash"
        ]
        assert crash_exits[0]["exitcode"] == faults.CRASH_EXIT_CODE


class TestTriage:
    def test_deterministic_crasher_classified(self, fault_env):
        fault_env("RFF", "CS/account", 0, kind="poison")
        aggregator = TelemetryAggregator()
        result = ParallelCampaign(
            CampaignConfig(trials=1, budget=60, base_seed=7),
            processes=2,
            max_retries=2,
            telemetry=aggregator,
        ).run(["RFF"], ["CS/account"])
        (cell,) = result.results[("RFF", "CS/account")]
        assert cell.error is not None
        assert "deterministic crasher" in cell.error
        assert aggregator.retries == 2  # the full retry budget burned
        error = aggregator.of_type("cell_error")[0]
        assert "deterministic crasher" in error["detail"]

    def test_mixed_failure_kinds_classified_flaky(self):
        assert "flaky environment" in pool.classify_failures(["crash", "lease", "crash"])
        assert "deterministic crasher" in pool.classify_failures(["crash", "crash", "crash"])
