"""Executable companion to docs/TUTORIAL.md — keeps the tutorial honest.

Every claim the tutorial makes about its single-flight example is asserted
here; if a library change invalidates the walkthrough, this file fails.
"""

from __future__ import annotations

from repro import RunEnv, fuzz, program, run_program
from repro.analysis import check_lock_discipline, find_races
from repro.harness import Campaign, CampaignConfig, appendix_b_table, paper_tools
from repro.harness.persist import load_crash, save_crashes
from repro.harness.triage import load_artifact, verify_artifact
from repro.schedulers import PosPolicy


def refresher(t, my_flag, other_flag, refreshes):
    yield t.write(my_flag, 1)
    other_busy = yield t.read(other_flag)
    if not other_busy:
        yield t.add(refreshes, 1)


@program("tutorial/single_flight", bug_kinds=("assertion",))
def single_flight(t):
    flag_a = t.var("flag_a", 0)
    flag_b = t.var("flag_b", 0)
    refreshes = t.var("refreshes", 0)
    h1 = yield t.spawn(refresher, flag_a, flag_b, refreshes)
    h2 = yield t.spawn(refresher, flag_b, flag_a, refreshes)
    yield t.join(h1)
    yield t.join(h2)
    total = yield t.read(refreshes)
    t.require(total <= 1, f"cache refreshed {total} times")


def fenced_refresher(t, my_flag, other_flag, refreshes):
    yield t.write(my_flag, 1)
    yield t.add(my_flag, 0)  # fence: repairs the protocol under TSO
    other_busy = yield t.read(other_flag)
    if not other_busy:
        yield t.add(refreshes, 1)


@program("tutorial/single_flight_fenced")
def single_flight_fenced(t):
    flag_a = t.var("flag_a", 0)
    flag_b = t.var("flag_b", 0)
    refreshes = t.var("refreshes", 0)
    h1 = yield t.spawn(fenced_refresher, flag_a, flag_b, refreshes)
    h2 = yield t.spawn(fenced_refresher, flag_b, flag_a, refreshes)
    yield t.join(h1)
    yield t.join(h2)
    total = yield t.read(refreshes)
    t.require(total <= 1, f"cache refreshed {total} times")


class TestTutorialSection3:
    def test_sc_fuzzing_finds_nothing(self):
        report = fuzz(single_flight, max_executions=1000, seed=0, stop_on_first_crash=True)
        assert not report.found_bug
        assert report.unique_signatures > 1  # evidence, not silence


class TestTutorialSection4:
    def test_tso_fuzzing_finds_the_bug(self):
        report = fuzz(
            single_flight,
            max_executions=1000,
            seed=0,
            env=RunEnv(memory_model="tso"),
            stop_on_first_crash=True,
        )
        assert report.found_bug
        assert report.crashes[0].outcome == "assertion"

    def test_fence_repairs_the_protocol(self):
        report = fuzz(
            single_flight_fenced,
            max_executions=600,
            seed=0,
            env=RunEnv(memory_model="tso"),
            stop_on_first_crash=True,
        )
        assert not report.found_bug

    def test_crashing_trace_contains_flush_events(self):
        report = fuzz(
            single_flight,
            max_executions=1000,
            seed=1,
            env=RunEnv(memory_model="tso"),
            stop_on_first_crash=True,
        )
        from repro.runtime.tso import TsoExecutor
        from repro.schedulers import ReplayPolicy

        crash = report.crashes[0]
        replayed = TsoExecutor(
            single_flight, ReplayPolicy(list(crash.concrete_schedule))
        ).run()
        assert replayed.crashed
        assert any(e.kind == "flush" for e in replayed.trace)


class TestTutorialSection5:
    def test_persist_and_replay_under_tso(self, tmp_path):
        report = fuzz(
            single_flight,
            max_executions=1000,
            seed=2,
            env=RunEnv(memory_model="tso"),
            stop_on_first_crash=True,
        )
        paths = save_crashes(report, tmp_path)
        name, crash = load_crash(paths[0])
        assert name == "tutorial/single_flight"
        assert crash == report.crashes[0]
        bug = load_artifact(paths[0])
        assert bug["memory_model"] == "tso"
        assert verify_artifact(bug, replays=5, program=single_flight).verdict == "STABLE"


class TestTutorialSection6:
    def test_races_visible_on_sc_runs(self):
        trace = run_program(single_flight, PosPolicy(3)).trace
        report = find_races(trace)
        assert {"var:flag_a", "var:flag_b"} & report.racy_locations

    def test_lockset_flags_unprotected_flags(self):
        trace = run_program(single_flight, PosPolicy(3)).trace
        flagged = check_lock_discipline(trace).flagged_locations
        # The flags are written by one thread and read by another with no
        # lock at all; at least one side must be implicated.
        assert flagged & {"var:flag_a", "var:flag_b"}


class TestTutorialSection7:
    def test_mini_campaign_renders(self):
        campaign = Campaign(CampaignConfig(trials=2, budget=120)).run(
            paper_tools(), [single_flight]
        )
        table = appendix_b_table(campaign)
        assert "tutorial/single_flight" in table
        # SC-unreachable bug: every tool's cell must be '-' or Error.
        for tool in campaign.tools():
            cell = campaign.cell(tool, "tutorial/single_flight")
            assert cell.none_found or campaign.is_error(tool, "tutorial/single_flight")
