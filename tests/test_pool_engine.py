"""Differential + unit suite for the persistent worker pool.

The pool's contract: for a fixed (seed, allocator) it is a pure
wall-clock optimisation — serial == pool, bit for bit, under every start
method the platform offers (fork, and forkserver which is the 3.12+
default).  These tests pin that, plus the telemetry of slice starts and
of the workers that ran them, and per-worker profiling.
"""

from __future__ import annotations

import os
import sys

import pytest

from repro import bench
from repro.harness.allocator import LaplaceAllocator
from repro.harness.campaign import Campaign, CampaignConfig
from repro.harness.parallel import ParallelCampaign, _default_start_method
from repro.harness.telemetry import TelemetryAggregator, validate_record
from repro.harness.tools import pct_tool, random_tool

TOOLS = ["Random", "PCT3"]
PROGRAMS = ["CS/reorder_3", "CS/account", "CS/deadlock01", "Splash2/lu"]
CONFIG = CampaignConfig(trials=2, budget=30, base_seed=11)
ALLOC_CONFIG = CampaignConfig(
    trials=2, budget=40, base_seed=7, allocator=LaplaceAllocator(rounds=3)
)


@pytest.fixture(scope="module")
def serial():
    return Campaign(CONFIG).run(
        [random_tool(), pct_tool()], [bench.get(p) for p in PROGRAMS]
    )


@pytest.fixture(scope="module")
def serial_allocated():
    return Campaign(ALLOC_CONFIG).run(
        [random_tool(), pct_tool()], [bench.get(p) for p in PROGRAMS]
    )


# ----------------------------------------------------------------------
# Bit-identity under both start methods
# ----------------------------------------------------------------------
START_METHODS = ["fork", "forkserver"]


class TestPoolBitIdentity:
    @pytest.mark.parametrize("start_method", START_METHODS)
    def test_single_pass_matches_serial(self, serial, start_method):
        pool = ParallelCampaign(CONFIG, processes=2, start_method=start_method).run(
            TOOLS, PROGRAMS
        )
        assert pool.results == serial.results

    @pytest.mark.parametrize("start_method", START_METHODS)
    def test_allocated_supervised_matches_serial(self, serial_allocated, start_method):
        pool = ParallelCampaign(
            ALLOC_CONFIG,
            processes=2,
            start_method=start_method,
            heartbeat_seconds=0.05,
        ).run(TOOLS, PROGRAMS)
        assert pool.results == serial_allocated.results
        assert pool.allocation == serial_allocated.allocation


class TestStartMethodDefault:
    def test_prefers_forkserver_on_312(self, monkeypatch):
        monkeypatch.setattr(sys, "version_info", (3, 12, 0, "final", 0))
        assert _default_start_method() == "forkserver"

    def test_keeps_fork_before_312(self, monkeypatch):
        monkeypatch.setattr(sys, "version_info", (3, 11, 7, "final", 0))
        assert _default_start_method() == "fork"


# ----------------------------------------------------------------------
# Telemetry + caches
# ----------------------------------------------------------------------
class TestPoolTelemetry:
    def test_batch_dispatch_events_are_schema_valid(self):
        # The pool no longer emits batch_dispatch; the schema keeps its row
        # so telemetry files of older campaigns still validate.
        validate_record(
            {"event": "batch_dispatch", "ts": 1.0, "schema": 1,
             "pid": 7, "batch": 1, "slices": 8, "budget": 240}
        )
        # The aggregator validates every record against EVENT_SCHEMA on
        # emit, so a completed run proves the events carry their required
        # fields.
        aggregator = TelemetryAggregator()
        ParallelCampaign(CONFIG, processes=2, telemetry=aggregator).run(TOOLS, PROGRAMS)
        assert not aggregator.of_type("batch_dispatch")
        # Every cell completed exactly once: no loss, no duplication.
        keys = [
            (r["tool"], r["program"], r["trial"]) for r in aggregator.of_type("cell_end")
        ]
        assert len(keys) == len(set(keys)) == len(TOOLS) * len(PROGRAMS) * CONFIG.trials

    def test_cell_starts_name_their_worker(self):
        aggregator = TelemetryAggregator()
        ParallelCampaign(CONFIG, processes=2, telemetry=aggregator).run(TOOLS, PROGRAMS)
        # Every slice started on a pool worker that later exited.
        records = aggregator.records
        starts = 0
        for index, record in enumerate(records):
            if record["event"] != "cell_start":
                continue
            starts += 1
            assert record["pid"] != os.getpid()
            assert any(
                later["event"] == "worker_exit" and later["pid"] == record["pid"]
                for later in records[index + 1:]
            )
        assert starts == len(TOOLS) * len(PROGRAMS) * CONFIG.trials

    def test_in_process_cell_starts_carry_the_campaign_pid(self):
        aggregator = TelemetryAggregator()
        ParallelCampaign(CONFIG, processes=0, telemetry=aggregator).run(TOOLS, PROGRAMS)
        starts = aggregator.of_type("cell_start")
        assert len(starts) == len(TOOLS) * len(PROGRAMS) * CONFIG.trials
        assert {r["pid"] for r in starts} == {os.getpid()}
        assert not aggregator.of_type("worker_exit")

    def test_cell_start_marks_the_real_slice_start(self):
        """A worker runs one slice at a time, so at no point in the
        telemetry may more cells be started-but-unended than there are
        workers — the slice queued behind a running one starts when its
        predecessor replies, not when it is sent."""
        aggregator = TelemetryAggregator()
        ParallelCampaign(ALLOC_CONFIG, processes=2, telemetry=aggregator).run(
            TOOLS, PROGRAMS
        )
        running: set[tuple[str, str, int]] = set()
        peak = 0
        for record in aggregator.records:
            if record["event"] not in ("cell_start", "cell_end", "cell_error", "cell_retry"):
                continue
            key = (record["tool"], record["program"], record["trial"])
            if record["event"] == "cell_start":
                assert key not in running
                running.add(key)
            else:
                running.remove(key)
            peak = max(peak, len(running))
        assert not running
        assert 1 <= peak <= 2

    def test_pool_amortizes_processes(self):
        # The point of the fork server: far fewer worker processes than
        # slices.  2 pool workers serve all 16 cells.
        aggregator = TelemetryAggregator()
        ParallelCampaign(CONFIG, processes=2, telemetry=aggregator).run(TOOLS, PROGRAMS)
        exits = aggregator.of_type("worker_exit")
        assert 1 <= len(exits) <= 2
        assert all(r["kind"] == "ok" for r in exits)


# ----------------------------------------------------------------------
# Profiling satellite
# ----------------------------------------------------------------------
class TestProfiling:
    def test_profile_dumps_and_summary(self, tmp_path, serial):
        from repro.harness.reporting import profile_summary

        profile_dir = tmp_path / "prof"
        result = ParallelCampaign(CONFIG, processes=2, profile_dir=profile_dir).run(
            TOOLS, PROGRAMS
        )
        assert result.results == serial.results  # profiling never changes results
        dumps = list(profile_dir.glob("worker-*.pstats"))
        assert 1 <= len(dumps) <= 2
        summary = profile_summary(profile_dir, top=5)
        assert "Worker profile" in summary
        assert "cumulative" in summary

    def test_profile_summary_empty_dir(self, tmp_path):
        from repro.harness.reporting import profile_summary

        assert "no .pstats dumps" in profile_summary(tmp_path)


# ----------------------------------------------------------------------
# CLI surface
# ----------------------------------------------------------------------
class TestCli:
    def test_pool_campaign_from_cli(self, capsys, tmp_path):
        from repro.cli import main

        code = main(
            [
                "campaign",
                "--parallel", "2",
                "--profile", str(tmp_path / "prof"),
                "--tools", "Random",
                "--programs", "CS/reorder_3", "CS/account",
                "--trials", "2",
                "--budget", "25",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "worker restarts:  0" in out  # no worker died
        assert "Worker profile" in out

    def test_pool_campaign_reports_recycles(self, capsys, fault_env):
        from repro.cli import main

        fault_env("Random", "CS/account", 0, kind="kill")
        code = main(
            [
                "campaign",
                "--parallel", "2",
                "--tools", "Random",
                "--programs", "CS/reorder_3", "CS/account",
                "--trials", "2",
                "--budget", "25",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "worker restarts:  1" in out
