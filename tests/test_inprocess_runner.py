"""The one in-process runner: ``Campaign`` is the pool's size-0 path.

``Campaign.run`` seeds the caller's tool and program instances into the
in-process caches of ``ParallelCampaign(processes=0)`` and runs every
slice through ``WorkerPool._drain_serial``.  These tests pin what that
buys: unregistered tools and programs still run, a raising tool is the
same structured error cell everywhere, ``progress`` is a ``cell_start``
listener, and the campaign's guard config reaches every slice intact,
and every tool honours it, while an earlier campaign's settings never do.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro import bench
from repro.bench.extras import extras_programs
from repro.core.reproduce import RunEnv
from repro.harness import campaign as campaign_module
from repro.harness.allocator import LaplaceAllocator, slice_seed
from repro.harness.campaign import Campaign, CampaignConfig
from repro.harness.parallel import ParallelCampaign, register_tool
from repro.harness.telemetry import TelemetryAggregator
from repro.harness.tools import (
    TOOL_FACTORIES,
    PerExecutionPolicyTool,
    RffTool,
    TestingTool,
    pos_tool,
)
from repro.runtime.guard import GuardConfig
from repro.schedulers.random_walk import RandomWalkPolicy

CONFIG = CampaignConfig(trials=2, budget=40, base_seed=5)


class RaisingTool(TestingTool):
    name = "Raising"

    def find_bug(self, program, budget, seed, env=RunEnv(), verify_replays=0):
        raise RuntimeError(f"cannot search {program.name}")


class GuardEcho(TestingTool):
    """Reports the guard it was handed as its outcome, so the check works
    across process boundaries too."""

    name = "GuardEcho"

    def find_bug(self, program, budget, seed, env=RunEnv(), verify_replays=0):
        return self._result(program, seed, None, 1, outcome=repr(env.guard))


@pytest.fixture
def registered():
    """Register the module's tools by name for the named-tool engines."""
    register_tool("Raising", RaisingTool)
    register_tool("GuardEcho", GuardEcho)
    yield
    TOOL_FACTORIES.pop("Raising", None)
    TOOL_FACTORIES.pop("GuardEcho", None)


def campaign_events(monkeypatch) -> TelemetryAggregator:
    """Capture the telemetry of ``Campaign.run`` (which exposes no sink)."""
    captured = TelemetryAggregator()
    monkeypatch.setattr(campaign_module, "TelemetrySink", lambda: captured)
    return captured


def without_ts(records: list[dict]) -> list[dict]:
    return [{k: v for k, v in record.items() if k != "ts"} for record in records]


class TestFailingTools:
    def test_raising_tool_is_the_same_error_cell_everywhere(self, registered, monkeypatch):
        programs = ["CS/account", "Splash2/lu"]
        serial_events = campaign_events(monkeypatch)
        serial = Campaign(CONFIG).run([RaisingTool()], [bench.get(p) for p in programs])
        in_process = TelemetryAggregator()
        engine = ParallelCampaign(CONFIG, processes=0, telemetry=in_process).run(
            ["Raising"], programs
        )
        assert serial == engine
        result = serial.trials("Raising", "CS/account")[0]
        assert result.error == "error after 1 attempt(s): RuntimeError: cannot search CS/account"
        assert not result.found and result.executions == 0
        assert serial.is_error("Raising", "Splash2/lu")
        errors = without_ts(serial_events.of_type("cell_error"))
        assert errors == without_ts(in_process.of_type("cell_error"))
        assert len(errors) == len(programs) * CONFIG.trials
        assert serial_events.of_type("campaign_end")[0]["failed_cells"] == len(errors)


class TestProgress:
    def test_fires_once_per_executed_slice(self, tmp_path):
        config = replace(CONFIG, allocator=LaplaceAllocator(rounds=3))
        tools = [PerExecutionPolicyTool("Walk", lambda s: RandomWalkPolicy(seed=s))]
        programs = [bench.get("CS/account"), bench.get("CS/reorder_3")]
        calls: list[tuple[str, str, int]] = []
        result = Campaign(config).run(
            tools, programs, progress=lambda *key: calls.append(key), store=tmp_path / "s"
        )
        executed = [
            (entry["tool"], entry["program"], entry["trial"])
            for round_ in result.allocation["rounds"]
            for entry in round_["slices"]
        ]
        assert sorted(calls) == sorted(executed)
        replayed: list[tuple[str, str, int]] = []
        again = Campaign(config).run(
            tools, programs, progress=lambda *key: replayed.append(key), store=tmp_path / "s"
        )
        assert again.results == result.results
        assert replayed == []


class TestUnregisteredInstances:
    def test_lambda_tool_over_unresolvable_program_equals_bare_loop(self):
        """Neither the tool (a lambda policy) nor ``extras/ticket_lock``
        resolves by name; both run from the seeded caches."""
        ticket_lock = next(p for p in extras_programs() if p.name == "extras/ticket_lock")
        with pytest.raises(KeyError):
            bench.get(ticket_lock.name)
        programs = [ticket_lock, bench.get("CS/account")]
        tool = PerExecutionPolicyTool("LambdaWalk", lambda s: RandomWalkPolicy(seed=s))
        result = Campaign(CONFIG).run([tool], programs)
        bare = {
            (tool.name, program.name): [
                replace(
                    tool.find_bug(program, CONFIG.budget, slice_seed(CONFIG.base_seed, trial, 0)),
                    trial=trial,
                )
                for trial in range(CONFIG.trials)
            ]
            for program in programs
        }
        assert result.results == bare


class TestGuardConfig:
    GUARD = GuardConfig(wall_seconds=60, wall_check_interval=1)

    @pytest.mark.parametrize("processes", [None, 0, 2])
    def test_every_slice_gets_the_campaign_guard(self, registered, processes):
        """``None`` is the serial ``Campaign``.  The whole frozen config
        travels, ``wall_check_interval`` included: its 3-field identity
        tuple would reset that field to its default of 64."""
        config = replace(CONFIG, guard=self.GUARD)
        programs = ["CS/account", "Splash2/lu"]
        if processes is None:
            result = Campaign(config).run([GuardEcho()], [bench.get(p) for p in programs])
        else:
            result = ParallelCampaign(config, processes=processes).run(["GuardEcho"], programs)
        outcomes = {r.outcome for trials in result.results.values() for r in trials}
        assert outcomes == {repr(self.GUARD)}

    @pytest.mark.parametrize("tool", sorted(TOOL_FACTORIES))
    def test_every_tool_honours_the_campaign_guard(self, tool):
        """A 5-step watchdog kills CS/account's first schedule before its
        assertion, whichever tool schedules it: systematic explorers and
        model checkers included."""
        config = CampaignConfig(trials=1, budget=50, base_seed=1, guard=GuardConfig(step_budget=5))
        result = ParallelCampaign(config, processes=0).run([tool], ["CS/account"])
        (cell,) = result.trials(tool, "CS/account")
        assert (cell.outcome, cell.schedules_to_bug) == ("timeout", 1)


class TestSettingsDoNotLeak:
    @pytest.mark.parametrize("factory", [pos_tool, RffTool], ids=["POS", "RFF"])
    def test_second_campaign_equals_a_fresh_instance_run(self, factory):
        """``Campaign.run`` seeds the caller's instances into the pool, so a
        campaign must assign every setting, not only the ones it turns on."""
        programs = [bench.get("CS/account")]
        plain = CampaignConfig(trials=1, budget=50)
        checked = replace(plain, sanitizers=("race",), verify_replays=2)
        reused = factory()
        first = Campaign(checked).run([reused], programs)
        (cell,) = first.trials(reused.name, "CS/account")
        assert cell.sanitizer_reports and cell.replay_verdict == "STABLE"
        assert Campaign(plain).run([reused], programs) == Campaign(plain).run(
            [factory()], programs
        )
