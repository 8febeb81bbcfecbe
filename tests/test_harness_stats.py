"""Statistics: summary cells, Mann-Whitney U, censored log-rank."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.harness.stats import (
    logrank,
    logrank_direction,
    mann_whitney_u,
    summarize,
)


class TestSummarize:
    def test_all_found(self):
        cell = summarize([10, 12, 14])
        assert cell.mean == 12
        assert cell.found == 3 and cell.all_found
        assert cell.render() == "12 ± 2"

    def test_some_missed_gets_star(self):
        cell = summarize([10, None, 14])
        assert cell.render().endswith("*")
        assert cell.found == 2

    def test_none_found_renders_dash(self):
        assert summarize([None, None]).render() == "-"

    def test_single_sample_zero_std(self):
        cell = summarize([5])
        assert cell.std == 0
        assert cell.render() == "5 ± 0"


class TestMannWhitney:
    def test_separated_samples_significant(self):
        fast = [44, 45, 46, 46, 47] * 4
        slow = [30, 31, 30, 29, 31] * 4
        assert mann_whitney_u(fast, slow) < 0.001

    def test_identical_samples_not_significant(self):
        same = [5, 5, 5, 5]
        assert mann_whitney_u(same, same) == pytest.approx(1.0)

    def test_empty_inputs_degenerate(self):
        assert mann_whitney_u([], [1, 2]) == 1.0

    def test_symmetric(self):
        a, b = [1, 2, 3, 4, 8, 9], [5, 6, 7, 10, 11, 12]
        assert mann_whitney_u(a, b) == pytest.approx(mann_whitney_u(b, a))


class TestLogRank:
    def test_clearly_faster_group_significant(self):
        fast = [2, 3, 2, 4, 3, 2, 3, 4, 2, 3]
        slow = [200, 300, 250, 400, 350, 500, 450, 300, 250, 280]
        result = logrank(fast, slow, budget_a=1000)
        assert result.significant()

    def test_identical_groups_not_significant(self):
        times = [5, 10, 15, 20]
        result = logrank(times, times, budget_a=100)
        assert not result.significant()
        assert result.p_value > 0.9

    def test_censoring_counts_against_group(self):
        finds = [3, 4, 5, 3, 4, 5, 3, 4]
        never = [None] * 8
        result = logrank(finds, never, budget_a=1000)
        assert result.significant()

    def test_all_censored_degenerate(self):
        result = logrank([None, None], [None, None], budget_a=100)
        assert result.p_value == 1.0

    def test_p_value_in_unit_interval(self):
        result = logrank([1, 5, 9, None], [2, 6, None, None], budget_a=50)
        assert 0.0 <= result.p_value <= 1.0

    def test_direction_prefers_faster_group(self):
        assert logrank_direction([1, 2, 3], [100, 200, 300]) == -1
        assert logrank_direction([100, 200, 300], [1, 2, 3]) == 1

    def test_direction_tie(self):
        assert logrank_direction([5, 5], [5, 5]) == 0

    def test_direction_penalises_censoring(self):
        assert logrank_direction([5, 5, 5], [5, None, None]) == -1


#: The eight modeled suites, which only plain benchmark names need.
SUITE_MODULES = tuple(
    f"repro.bench.{name}"
    for name in ("cb", "chess", "convul", "cs", "inspect_suite", "radbench", "safestack", "splash2")
)

#: Modules that importing the harness and the CLI must not load: each
#: serves only a command, target family or engine that asks for it.
LAZY_MODULES = (
    "ctypes",
    "concurrent.futures",
    "multiprocessing",
    "queue",
    "repro.substrate",
    "repro.bench.pybench",
    "repro.algos",
    "repro.gen",
    "repro.analysis",
    "repro.harness.persist",
    "repro.harness.pool",
    "repro.harness.reporting",
    "repro.harness.stats",
    "repro.harness.store",
    *SUITE_MODULES,
)


def run_fresh(code: str) -> None:
    """Run ``code`` in a fresh interpreter over this checkout; it must exit 0."""
    src = Path(__file__).resolve().parent.parent / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


class TestImportCost:
    def test_harness_imports_without_scipy(self):
        """Only the two tests use scipy and nothing uses networkx, so
        importing the harness (every ``rff`` command, every campaign
        process) must load neither, nor any of :data:`LAZY_MODULES`; the
        lock-order cycle search must work without networkx."""
        code = (
            "import sys\n"
            "sys.modules['scipy'] = None\n"
            "sys.modules['networkx'] = None\n"
            "import repro.harness, repro.cli\n"
            f"loaded = [name for name in {LAZY_MODULES!r} if name in sys.modules]\n"
            "assert not loaded, loaded\n"
            "from repro.harness import summarize\n"
            "assert summarize([3, None]).found == 1\n"
            "from repro import bench\n"
            "from repro.analysis import predict_deadlocks\n"
            "from repro.runtime import run_program\n"
            "from repro.schedulers import RandomWalkPolicy\n"
            "result = run_program(bench.get('CS/deadlock01'), RandomWalkPolicy(3))\n"
            "assert not result.crashed\n"
            "cycles = [p.cycle for p in predict_deadlocks(result.trace).predictions]\n"
            "assert cycles == [('mutex:A', 'mutex:B')], cycles\n"
        )
        run_fresh(code)

    def test_lookups_load_only_what_the_name_needs(self):
        """perfbench's child imports ``tool_factories`` for every workload; a
        plain name loads no generator or sanitizer code, and a ``py:`` name
        none of the modeled suites."""
        run_fresh(
            "import sys\n"
            "from repro.harness.groundtruth import tool_factories\n"
            "from repro import bench\n"
            "bench.get('CS/account')\n"
            "loaded = [m for m in ('repro.gen', 'repro.analysis') if m in sys.modules]\n"
            "assert not loaded, loaded\n"
        )
        run_fresh(
            "import sys\n"
            "from repro import bench\n"
            "bench.get('py:counter_race')\n"
            f"loaded = [name for name in {SUITE_MODULES!r} if name in sys.modules]\n"
            "assert not loaded, loaded\n"
        )

    def test_plain_fuzz_loads_no_harness(self):
        """The runtime and core count into ``repro.runtime.counters``, so a
        library fuzz call loads nothing of the experiment harness."""
        run_fresh(
            "import sys\n"
            "import repro\n"
            "from repro import bench\n"
            "report = repro.fuzz(bench.get('CS/account'), 20)\n"
            "assert report.executions == 20\n"
            "loaded = [m for m in sys.modules if m.startswith('repro.harness')]\n"
            "assert not loaded, loaded\n"
            "from repro.harness import telemetry\n"
            "from repro.runtime import GLOBAL_COUNTERS\n"
            "assert telemetry.GLOBAL_COUNTERS is GLOBAL_COUNTERS\n"
            "assert GLOBAL_COUNTERS.executions == 20\n"
        )

    def test_every_harness_export_resolves(self):
        """Re-exports and submodules that load on first access all resolve."""
        run_fresh(
            "import types\n"
            "import repro.harness as harness\n"
            "missing = [name for name in harness.__all__ if getattr(harness, name, None) is None]\n"
            "assert not missing, missing\n"
            "for name in ('persist', 'reporting', 'stats', 'store'):\n"
            "    assert isinstance(getattr(harness, name), types.ModuleType), name\n"
            "from repro.harness import *\n"
            "assert CorpusStore is harness.store.CorpusStore\n"
            "assert summarize is harness.stats.summarize\n"
            "try:\n"
            "    harness.no_such_name\n"
            "except AttributeError:\n"
            "    pass\n"
            "else:\n"
            "    raise AssertionError('unknown attribute resolved')\n"
        )

    def test_sanitizer_stack_loads_only_for_a_sanitized_campaign(self):
        """Building a sanitized campaign loads the stack in the parent, so
        fork workers inherit it; an unsanitized campaign never loads it."""
        run_fresh(
            "import sys\n"
            "from repro.harness import CampaignConfig, ParallelCampaign\n"
            "config = CampaignConfig(trials=1, budget=3, base_seed=1)\n"
            "result = ParallelCampaign(config, processes=0).run(['RFF'], ['CS/account'])\n"
            "assert result.trials('RFF', 'CS/account')[0].error is None\n"
            "assert 'repro.analysis' not in sys.modules\n"
            "sanitized = CampaignConfig(trials=1, budget=3, base_seed=1, sanitizers=('race',))\n"
            "ParallelCampaign(sanitized, processes=2)\n"
            "assert 'repro.analysis.online' in sys.modules\n"
        )
