"""Differential chaos suite: injected-fault campaigns converge bit-identically.

The acceptance criterion of the durable fabric: under seeded worker-kill /
hang / torn-write / store-corruption injection, a campaign driven through
the corpus store — killed and resumed as many times as the faults demand —
ends with bug ledgers, corpus contents and triage buckets *bit-identical*
to the fault-free serial ``Campaign``.  And a real ``SIGKILL`` of a real
``rff campaign --store`` process, followed by ``--resume``, recovers
without loss or duplication.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro import bench
from repro.harness import faults
from repro.harness.campaign import Campaign, CampaignConfig
from repro.harness.faults import ChaosKill, ChaosPlan
from repro.harness.parallel import ParallelCampaign
from repro.harness.store import CorpusStore
from repro.harness.tools import RffTool, random_tool

REPO_ROOT = Path(__file__).resolve().parent.parent
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


def seed_with_injections(check) -> int:
    """The first seed whose plan satisfies ``check`` — keeps the suite
    honest: every scenario provably injects at least one fault."""
    for seed in range(200):
        if check(seed):
            return seed
    raise AssertionError("no seed in range produces the wanted injection")


def arm(monkeypatch, tmp_path, plan: ChaosPlan) -> None:
    state = tmp_path / "chaos-state"
    state.mkdir(exist_ok=True)
    for key, value in plan.to_env(state).items():
        monkeypatch.setenv(key, value)


def run_until_converged(store_dir, max_rounds: int = 10, **engine_kwargs):
    """Drive (possibly chaos-killed) campaigns through one store until the
    ledger covers every cell; returns the final completed run's result.

    This is exactly the operational loop a durable deployment runs: start,
    die (maybe), resume — the store carries all state between attempts.
    """
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


def cell_keys(plan: ChaosPlan) -> dict[str, str]:
    return plan.injection_points([faults.cell_key(*key) for key in sorted(ALL_KEYS)])


@pytest.mark.usefixtures("fast_retries")
class TestDifferentialConvergence:
    def test_worker_kills_converge(self, serial, tmp_path, monkeypatch):
        seed = seed_with_injections(
            lambda s: "kill" in cell_keys(ChaosPlan(seed=s, kill=0.3)).values()
        )
        arm(monkeypatch, tmp_path, ChaosPlan(seed=seed, kill=0.3))
        result = run_until_converged(tmp_path / "store")
        assert result == serial

    def test_hangs_past_lease_converge(self, serial, tmp_path, monkeypatch):
        seed = seed_with_injections(
            lambda s: "hang" in cell_keys(ChaosPlan(seed=s, hang=0.3)).values()
        )
        arm(monkeypatch, tmp_path, ChaosPlan(seed=seed, hang=0.3))
        result = run_until_converged(tmp_path / "store", lease_seconds=0.5)
        assert result == serial

    def test_torn_writes_converge(self, serial, tmp_path, monkeypatch):
        plan = ChaosPlan(
            seed=seed_with_injections(
                lambda s: ChaosPlan(seed=s, torn_write=0.3).store_fault(2) == "torn_write"
            ),
            torn_write=0.3,
        )
        arm(monkeypatch, tmp_path, plan)
        result = run_until_converged(tmp_path / "store")
        assert result == serial
        # The torn half-line was truncated on some resume, never re-read.
        with CorpusStore(tmp_path / "store", readonly=True) as store:
            assert store.verify().corrupt_records == 0

    def test_store_corruption_converges(self, serial, tmp_path, monkeypatch):
        plan = ChaosPlan(
            seed=seed_with_injections(
                lambda s: ChaosPlan(seed=s, corrupt=0.3).store_fault(1) == "corrupt"
            ),
            corrupt=0.3,
        )
        arm(monkeypatch, tmp_path, plan)
        result = run_until_converged(tmp_path / "store")
        assert result == serial
        # Corrupt records stay on disk (append-only) but never reach results;
        # compaction drops them.
        with CorpusStore(tmp_path / "store") as store:
            store.compact()
            assert store.verify().cells == len(ALL_KEYS)

    def test_combined_chaos_converges(self, serial, tmp_path, monkeypatch):
        arm(
            monkeypatch,
            tmp_path,
            ChaosPlan(seed=11, kill=0.2, hang=0.1, skew=0.2, torn_write=0.15, corrupt=0.15),
        )
        result = run_until_converged(tmp_path / "store", lease_seconds=0.5)
        assert result == serial

    def test_serial_campaign_through_store_converges(self, serial, tmp_path, monkeypatch):
        plan = ChaosPlan(
            seed=seed_with_injections(
                lambda s: ChaosPlan(seed=s, torn_write=0.4).store_fault(0) == "torn_write"
            ),
            torn_write=0.4,
        )
        arm(monkeypatch, tmp_path, plan)
        tools = [RffTool(), random_tool()]
        programs = [bench.get(p) for p in PROGRAMS]
        result = None
        for _ in range(10):
            try:
                result = Campaign(CONFIG).run(tools, programs, store=tmp_path / "store")
            except ChaosKill:
                continue
            with CorpusStore(tmp_path / "store", readonly=True) as store:
                if set(store.completed()) == ALL_KEYS:
                    break
        assert result == serial

    def test_injection_accounting_is_exact(self, serial, tmp_path, monkeypatch):
        """Every planned worker fault fires exactly once, and retries match
        the fired claims one-to-one."""
        seed = seed_with_injections(
            lambda s: len(cell_keys(ChaosPlan(seed=s, kill=0.3))) >= 2
        )
        plan = ChaosPlan(seed=seed, kill=0.3)
        arm(monkeypatch, tmp_path, plan)
        from repro.harness.telemetry import TelemetryAggregator

        aggregator = TelemetryAggregator()
        result = run_until_converged(tmp_path / "store", telemetry=aggregator)
        assert result == serial
        fired = faults.claimed_tokens(str(tmp_path / "chaos-state"))
        planned = sorted(f"{kind}:{key}" for key, kind in cell_keys(plan).items())
        assert fired == planned
        # One retry per fired kill (all kills hit first attempts here, and
        # the retry budget is never exhausted).
        assert aggregator.retries == len(planned)


def _live_processes() -> dict[int, int]:
    """pid -> parent pid of every live (non-zombie) process, read from
    Linux ``/proc``; empty where there is no ``/proc``."""
    table: dict[int, int] = {}
    for stat in Path("/proc").glob("[0-9]*/stat"):
        try:
            state, ppid = stat.read_text().rsplit(")", 1)[1].split()[:2]
        except (OSError, ValueError):
            continue
        if state != "Z":
            table[int(stat.parent.name)] = int(ppid)
    return table


def _descendants(pid: int) -> set[int]:
    table = _live_processes()
    found: set[int] = set()
    frontier = {pid}
    while frontier:
        frontier = {child for child, ppid in table.items() if ppid in frontier} - found
        found |= frontier
    return found


class TestRealSigkill:
    def test_sigkill_then_resume_recovers_without_loss_or_duplication(self, tmp_path):
        """Launch a real durable campaign, SIGKILL it mid-flight, resume it,
        and check the ledger against an in-process fault-free baseline.
        The killed campaign's workers must not outlive it, nor keep the
        store locked against the resume."""
        store_dir = tmp_path / "store"
        config = CampaignConfig(trials=2, budget=1500, base_seed=1234)
        argv = [
            sys.executable,
            "-m",
            "repro.cli",
            "campaign",
            "--store",
            str(store_dir),
            "--parallel",
            "2",
            "--trials",
            "2",
            "--budget",
            "1500",
            "--tools",
            "RFF",
            "Random",
            "--programs",
            *PROGRAMS,
        ]
        env = {**os.environ, "PYTHONPATH": "src"}
        proc = subprocess.Popen(
            argv, cwd=REPO_ROOT, env=env, stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
        )
        try:
            # Kill as soon as the store holds at least one record — a point
            # chosen by the campaign's own progress, not a fixed sleep.
            deadline = time.monotonic() + 60
            while time.monotonic() < deadline and proc.poll() is None:
                if store_dir.exists():
                    segments = list(store_dir.glob("segment-*.jsonl"))
                    if any(s.stat().st_size > 0 for s in segments):
                        break
                time.sleep(0.05)
            workers = _descendants(proc.pid)
            if proc.poll() is None:
                os.kill(proc.pid, signal.SIGKILL)
            proc.wait(timeout=30)
        finally:
            if proc.poll() is None:  # pragma: no cover - cleanup on failure
                proc.kill()
        resumed = subprocess.run(
            argv + ["--resume"], cwd=REPO_ROOT, env=env, capture_output=True,
            text=True, timeout=600,
        )
        assert resumed.returncode == 0, resumed.stderr
        deadline = time.monotonic() + 10
        while workers & set(_live_processes()) and time.monotonic() < deadline:
            time.sleep(0.1)
        assert not workers & set(_live_processes()), "orphaned workers outlived the campaign"
        baseline = Campaign(config).run(
            [RffTool(), random_tool()], [bench.get(p) for p in PROGRAMS]
        )
        with CorpusStore(store_dir, readonly=True) as store:
            completed = store.completed()
            inspection = store.inspect()
        expected = {
            (tool, program, trial): baseline.results[(tool, program)][trial]
            for tool in TOOLS
            for program in PROGRAMS
            for trial in range(config.trials)
        }
        assert completed == expected  # no loss, bit-identical cells
        assert inspection.records == len(expected)  # no duplication
        assert inspection.corrupt_records == 0
