"""Fault-tolerant parallel campaign engine: determinism, faults, resume.

The engine's contract is that parallelism, worker failure and resume are
all invisible in the final result: a ``ParallelCampaign`` — crashed
workers, killed workers, hung workers, degraded pools, campaigns resumed
from their store and all — produces a ``CampaignResult`` bit-identical
(full dataclass equality) to the serial ``Campaign`` over the same grid.
The corpus store is the campaign's checkpoint: the only resume format.
"""

from __future__ import annotations

import json

import pytest

from repro import bench
from repro.harness import faults
from repro.harness.campaign import Campaign, CampaignConfig
from repro.harness.parallel import ParallelCampaign, register_tool
from repro.harness.pool import WorkerPool
from repro.harness.store import CorpusStore, StoreMismatchError
from repro.harness.telemetry import TelemetryAggregator
from repro.harness.tools import (
    TOOL_FACTORIES,
    PerExecutionPolicyTool,
    PeriodTool,
    RffTool,
    pos_tool,
)
from repro.schedulers.random_walk import RandomWalkPolicy

TOOLS = ["RFF", "POS", "PERIOD"]
PROGRAMS = ["CS/account", "Splash2/lu"]
CONFIG = CampaignConfig(trials=2, budget=120, base_seed=7)


def _serial_result():
    return Campaign(CONFIG).run(
        [RffTool(), pos_tool(), PeriodTool()], [bench.get(p) for p in PROGRAMS]
    )


@pytest.fixture(scope="module")
def serial():
    return _serial_result()


class TestDeterminism:
    def test_parallel_bit_identical_to_serial(self, serial):
        parallel = ParallelCampaign(CONFIG, processes=2).run(TOOLS, PROGRAMS)
        assert parallel == serial

    def test_serial_engine_mode_bit_identical(self, serial):
        assert ParallelCampaign(CONFIG, processes=0).run(TOOLS, PROGRAMS) == serial

    def test_spawn_start_method_bit_identical(self, serial):
        parallel = ParallelCampaign(CONFIG, processes=2, start_method="spawn").run(
            TOOLS, PROGRAMS
        )
        assert parallel == serial

    def test_unknown_tool_rejected(self):
        with pytest.raises(KeyError):
            ParallelCampaign(CONFIG).run(["NotATool"], PROGRAMS)


class TestSanitizerDeterminism:
    SANITIZED = CampaignConfig(
        trials=2, budget=120, base_seed=7, sanitizers=("race", "lockset", "lockorder")
    )

    def _serial(self):
        tools = [RffTool(), pos_tool(), PeriodTool()]
        return Campaign(self.SANITIZED).run(tools, [bench.get(p) for p in PROGRAMS])

    def test_parallel_reports_bit_identical_to_serial(self):
        serial = self._serial()
        parallel = ParallelCampaign(self.SANITIZED, processes=2).run(TOOLS, PROGRAMS)
        assert parallel == serial
        # The equality above covers sanitizer_reports (dataclass field), but
        # assert the payload is actually exercised: at least one cell found
        # a discipline violation on the racy account benchmark.
        found = [
            report
            for (_, program), trials in serial.results.items()
            for result in trials
            for report in result.sanitizer_reports
            if program == "CS/account"
        ]
        assert found

    @pytest.mark.parametrize("processes", [0, 2])
    def test_unknown_sanitizer_rejected_when_built(self, processes):
        config = CampaignConfig(trials=1, budget=3, base_seed=1, sanitizers=("racee",))
        with pytest.raises(ValueError, match="unknown sanitizer 'racee'; known: race, lockset"):
            ParallelCampaign(config, processes=processes)

    def test_telemetry_carries_sanitizer_reports(self):
        telemetry = TelemetryAggregator()
        ParallelCampaign(self.SANITIZED, processes=0, telemetry=telemetry).run(
            TOOLS, PROGRAMS
        )
        records = telemetry.of_type("sanitizer_report")
        assert records
        assert {r["sanitizer"] for r in records} <= {"race", "lockset", "lockorder"}
        assert telemetry.sanitizer_report_count == len(records)


class TestFaultTolerance:
    def test_worker_crash_retried_bit_identical(self, serial, fault_env):
        """A hard-killed worker (os._exit, the SIGKILL model) costs one
        attempt; the retried campaign result is bit-identical.  The plan is
        armed in the environment alone: no engine argument enables it."""
        fault_env("RFF", "CS/account", 1, kind="kill")
        telemetry = TelemetryAggregator()
        parallel = ParallelCampaign(CONFIG, processes=2, telemetry=telemetry).run(
            TOOLS, PROGRAMS
        )
        assert parallel == serial
        assert telemetry.retries == 1
        assert telemetry.worker_restarts == 1
        crash_exits = [r for r in telemetry.of_type("worker_exit") if r["kind"] == "crash"]
        assert crash_exits and crash_exits[0]["exitcode"] == faults.CRASH_EXIT_CODE

    @pytest.mark.parametrize("degraded", [False, True], ids=["processes-0", "degraded"])
    def test_in_process_drain_runs_no_worker_faults(
        self, serial, tmp_path, monkeypatch, degraded
    ):
        """Worker faults fire only in workers: under a plan that kills every
        cell, the in-process drain (processes=0, or a pool whose workers
        cannot start) completes, equals the serial result and claims
        nothing."""
        state = tmp_path / "chaos-state"
        state.mkdir()
        poisoned = faults.cell_key("RFF", "CS/account", 0)
        plan = faults.ChaosPlan(seed=0, kill=1.0, cells={poisoned: "poison"})
        for key, value in plan.to_env(state).items():
            monkeypatch.setenv(key, value)
        if degraded:
            monkeypatch.setattr(WorkerPool, "_spawn", lambda self: None)
        telemetry = TelemetryAggregator()
        result = ParallelCampaign(
            CONFIG, processes=2 if degraded else 0, telemetry=telemetry
        ).run(TOOLS, PROGRAMS)
        assert result == serial
        assert telemetry.failed_cells == 0
        assert faults.claimed_tokens(str(state)) == []
        assert bool(telemetry.of_type("pool_degraded")) == degraded

    def test_hung_worker_timed_out_and_retried(self, serial, fault_env):
        fault_env("POS", "Splash2/lu", 0, kind="hang")
        telemetry = TelemetryAggregator()
        parallel = ParallelCampaign(
            CONFIG,
            processes=2,
            cell_timeout=2.0,
            telemetry=telemetry,
        ).run(TOOLS, PROGRAMS)
        assert parallel == serial
        timeouts = [r for r in telemetry.of_type("worker_exit") if r["kind"] == "timeout"]
        assert len(timeouts) == 1
        assert telemetry.retries == 1

    def test_exhausted_retries_isolated_as_structured_error(self, fault_env, tmp_path):
        """With zero retries a crashing cell becomes an error result and the
        rest of the campaign completes untouched."""
        fault_env("RFF", "CS/account", 0, kind="kill")
        telemetry = TelemetryAggregator()
        parallel = ParallelCampaign(
            CONFIG,
            processes=2,
            max_retries=0,
            telemetry=telemetry,
        ).run(TOOLS, PROGRAMS)
        failed = parallel.trials("RFF", "CS/account")[0]
        assert failed.error is not None and "crash" in failed.error
        assert not failed.found and failed.executions == 0
        assert telemetry.failed_cells == 1
        # every other cell ran normally
        assert parallel.trials("POS", "CS/account")[0].error is None
        assert parallel.trials("RFF", "Splash2/lu")[0].error is None

    def test_dead_pool_degrades_to_serial(self, serial, monkeypatch):
        """When worker processes cannot start at all, the engine runs the
        cells in-process instead of failing the campaign."""
        monkeypatch.setattr(WorkerPool, "_spawn", lambda self: None)
        telemetry = TelemetryAggregator()
        parallel = ParallelCampaign(CONFIG, processes=2, telemetry=telemetry).run(
            TOOLS, PROGRAMS
        )
        assert parallel == serial
        assert telemetry.of_type("pool_degraded")


class TestCheckpointResume:
    def test_resume_from_truncated_checkpoint_bit_identical(self, serial, tmp_path):
        """The acceptance scenario: a campaign killed mid-run resumes from
        its store and yields a bit-identical result."""
        store = tmp_path / "store"
        first = ParallelCampaign(CONFIG, processes=2, store=store).run(TOOLS, PROGRAMS)
        assert first == serial
        # Simulate a SIGKILL mid-campaign: keep the first three completed
        # cells, tear the fourth record in half.
        segment = store / "segment-000000.jsonl"
        lines = segment.read_text().splitlines()
        assert len(lines) > 4
        segment.write_text("\n".join(lines[:3]) + "\n" + lines[3][: len(lines[3]) // 2])
        telemetry = TelemetryAggregator()
        resumed = ParallelCampaign(
            CONFIG, processes=2, store=store, telemetry=telemetry
        ).run(TOOLS, PROGRAMS)
        assert resumed == serial
        start = telemetry.of_type("campaign_start")[0]
        assert start["resumed_cells"] == 3
        # only the missing cells were executed again
        assert telemetry.completed_cells == start["total_cells"] - 3

    def test_resume_after_injected_crash_bit_identical(self, serial, fault_env, tmp_path):
        """Worker killed on the first attempt *and* resumed from the store:
        both fault paths compose and the result is still bit-identical."""
        store = tmp_path / "store"
        fault_env("POS", "CS/account", 1, kind="kill")
        first = ParallelCampaign(CONFIG, processes=2, store=store).run(TOOLS, PROGRAMS)
        assert first == serial
        resumed = ParallelCampaign(CONFIG, processes=2, store=store).run(TOOLS, PROGRAMS)
        assert resumed == serial

    def test_completed_checkpoint_runs_nothing(self, serial, tmp_path):
        store = tmp_path / "store"
        ParallelCampaign(CONFIG, processes=2, store=store).run(TOOLS, PROGRAMS)
        telemetry = TelemetryAggregator()
        resumed = ParallelCampaign(
            CONFIG, processes=2, store=store, telemetry=telemetry
        ).run(TOOLS, PROGRAMS)
        assert resumed == serial
        assert telemetry.completed_cells == 0

    def test_mismatched_checkpoint_rejected(self, tmp_path):
        store = tmp_path / "store"
        ParallelCampaign(CONFIG, processes=2, store=store).run(TOOLS, PROGRAMS)
        other = CampaignConfig(trials=2, budget=120, base_seed=8)
        with pytest.raises(StoreMismatchError, match="different campaign"):
            ParallelCampaign(other, processes=2, store=store).run(TOOLS, PROGRAMS)

    def test_checkpoint_lines_are_valid_results(self, tmp_path):
        store_dir = tmp_path / "store"
        ParallelCampaign(CONFIG, processes=2, store=store_dir).run(TOOLS, PROGRAMS)
        with CorpusStore(store_dir, readonly=True) as store:
            assert store.header["checkpoint_version"] == 1
            assert store.header["base_seed"] == CONFIG.base_seed
        lines = (store_dir / "segment-000000.jsonl").read_text().splitlines()
        records = [json.loads(line) for line in lines]
        cells = [r["result"] for r in records]
        assert all({"tool", "program", "trial", "found"} <= r.keys() for r in cells)


# Module-level factory: a spawn-started worker re-imports it by reference.
def custom_random_factory() -> PerExecutionPolicyTool:
    return PerExecutionPolicyTool("CustomRandom", lambda s: RandomWalkPolicy(seed=s))


class TestSpawnSafeRegistry:
    def test_custom_tool_under_spawn(self):
        """The old registry silently fell back to default tools in spawned
        workers; factory references in the cell spec fix that."""
        register_tool("CustomRandom", custom_random_factory)
        try:
            config = CampaignConfig(trials=2, budget=60, base_seed=11)
            serial = Campaign(config).run(
                [custom_random_factory()], [bench.get("CS/account")]
            )
            parallel = ParallelCampaign(config, processes=2, start_method="spawn").run(
                ["CustomRandom"], ["CS/account"]
            )
            assert parallel == serial
            assert parallel.trials("CustomRandom", "CS/account")[0].tool == "CustomRandom"
        finally:
            TOOL_FACTORIES.pop("CustomRandom", None)

    def test_non_importable_factory_rejected_eagerly(self):
        with pytest.raises(ValueError, match="importable"):
            register_tool("bad", lambda: PerExecutionPolicyTool("bad", RandomWalkPolicy))

    def test_local_function_factory_rejected(self):
        def local_factory():
            return PerExecutionPolicyTool("local", RandomWalkPolicy)

        with pytest.raises(ValueError):
            register_tool("local", local_factory)
