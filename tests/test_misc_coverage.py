"""Coverage of smaller API surfaces: reporting corners, program metadata,
common bench helpers, exploration guards, CLI replay/analyze."""

from __future__ import annotations

import pytest

from repro.harness.campaign import CampaignConfig, CampaignResult
from repro.harness.reporting import figure4_ascii
from repro.runtime import program, run_program
from repro.runtime.program import Program
from repro.schedulers import PosPolicy, RandomWalkPolicy


class TestProgramMetadata:
    def test_empty_name_rejected(self):
        with pytest.raises(ValueError):
            Program(name="", main=lambda t: iter(()))

    def test_suite_derived_from_name(self):
        @program("Foo/bar")
        def prog(t):
            yield t.pause()

        assert prog.suite == "Foo"

    def test_description_from_docstring(self):
        @program("t/docd")
        def prog(t):
            """Does something."""
            yield t.pause()

        assert prog.description == "Does something."

    def test_has_bug_flag(self):
        @program("t/buggy", bug_kinds=("assertion",))
        def buggy(t):
            yield t.pause()

        @program("t/clean")
        def clean(t):
            yield t.pause()

        assert buggy.has_bug and not clean.has_bug

    def test_str_is_name(self):
        @program("t/named")
        def prog(t):
            yield t.pause()

        assert str(prog) == "t/named"


class TestCommonHelpers:
    def test_locked_read_returns_value(self):
        from repro.bench.common import locked_read, locked_write

        @program("t/lockedrw")
        def prog(t):
            m = t.mutex("m")
            x = t.var("x", 0)
            yield from locked_write(t, m, x, 9)
            value = yield from locked_read(t, m, x)
            t.require(value == 9)

        assert not run_program(prog, RandomWalkPolicy(0)).crashed

    def test_locked_add_returns_new_value(self):
        from repro.bench.common import locked_add

        @program("t/lockedadd")
        def prog(t):
            m = t.mutex("m")
            x = t.var("x", 10)
            new = yield from locked_add(t, m, x, 5)
            t.require(new == 15)

        assert not run_program(prog, RandomWalkPolicy(0)).crashed

    def test_spawn_all_returns_handles(self):
        from repro.bench.common import join_all, spawn_all

        @program("t/spawnall")
        def prog(t):
            def worker(t, x):
                yield t.add(x, 1)

            x = t.var("x", 0)
            handles = yield from spawn_all(t, worker, 4, x)
            t.require(len(handles) == 4)
            yield from join_all(t, handles)

        assert not run_program(prog, RandomWalkPolicy(0)).crashed

    def test_busywork_emits_reads(self):
        from repro.bench.common import busywork

        @program("t/busy")
        def prog(t):
            x = t.var("x", 0)
            yield from busywork(t, x, 5)

        result = run_program(prog, RandomWalkPolicy(0))
        assert sum(1 for e in result.trace if e.kind == "r") == 5


class TestReportingCorners:
    def test_figure4_ascii_empty_campaign(self):
        empty = CampaignResult(config=CampaignConfig(trials=1, budget=10))
        assert "no bugs" in figure4_ascii(empty)

    def test_summary_cell_star_rendering(self):
        from repro.harness.stats import summarize

        cell = summarize([3, None])
        rendered = cell.render()
        assert rendered.startswith("3") and rendered.endswith("*")


class TestExplorationGuards:
    def test_max_frontier_bounds_memory(self, reorder3):
        from repro.algos.exploration import StatelessExplorer

        explorer = StatelessExplorer(reorder3, max_executions=50, max_frontier=5)
        report = explorer.run()
        assert report.executions <= 50

    def test_script_policy_ignores_disabled_tid(self, reorder3):
        from repro.algos.exploration import ScriptPolicy

        # tid 99 never exists: policy must fall back to defaults throughout.
        policy = ScriptPolicy((99, 99, 99))
        result = run_program(reorder3, policy)
        assert result.steps > 0


class TestCliExtras:
    def test_replay_roundtrip(self, tmp_path, capsys):
        from repro.cli import main

        code = main(
            ["fuzz", "CS/account", "--budget", "300", "--seed", "1",
             "--save-crashes", str(tmp_path)]
        )
        assert code == 0
        crash_file = tmp_path / "crash-000.json"
        assert crash_file.exists()
        capsys.readouterr()
        assert main(["replay", str(crash_file), "--trace", "4"]) == 0
        out = capsys.readouterr().out
        assert "replayed: assertion" in out

    def test_analyze_command(self, capsys):
        from repro.cli import main

        assert main(["analyze", "CS/account", "--executions", "8"]) == 0
        out = capsys.readouterr().out
        assert "happens-before races" in out
        assert "var:balance" in out

    def test_analyze_runs_the_programs_step_bound(self, capsys, monkeypatch):
        """A program's declared ``max_steps`` holds in ``rff analyze``,
        ``rff dpor`` and the explorers as everywhere else (they used to run
        at the default bound)."""
        from repro import cli
        from repro.algos.exploration import StatelessExplorer
        from repro.algos.period import PeriodExplorer

        @program("t/crash_past_bound", max_steps=5)
        def prog(t):
            x = t.var("x", 0)
            for _ in range(10):
                yield t.write(x, 1)
            t.require(False, "reached past the step bound")

        monkeypatch.setattr(cli.bench, "get", lambda name: prog)
        assert cli.main(["analyze", "t/crash_past_bound", "--executions", "2"]) == 0
        assert "(0 crashed)" in capsys.readouterr().out
        assert cli.main(["dpor", "t/crash_past_bound"]) == 0
        assert "first bug at class: None (None)" in capsys.readouterr().out
        assert not StatelessExplorer(prog).run().found_bug
        assert not PeriodExplorer(prog).run().found_bug

    def test_fuzz_minimize_flag(self, capsys):
        from repro.cli import main

        assert main(["fuzz", "CS/reorder_5", "--budget", "300", "--minimize"]) == 0
        out = capsys.readouterr().out
        assert "minimized schedule" in out

    def test_fuzz_tso_flag(self, capsys):
        from repro.cli import main

        assert main(["fuzz", "CS/account", "--budget", "50", "--memory-model", "tso"]) == 0
        out = capsys.readouterr().out
        assert "memory model:       tso" in out


class TestExecutorIntrospection:
    def test_thread_counts(self, reorder3):
        from repro.runtime.executor import Executor

        executor = Executor(reorder3, PosPolicy(0))
        executor.run()
        assert executor.thread_count() == 5  # main + 3 setters + checker
        assert executor.live_thread_count() in (0, 1)

    def test_last_write_event_tracking(self):
        from repro.runtime.executor import Executor

        @program("t/lw")
        def prog(t):
            x = t.var("x", 0)
            yield t.write(x, 1)
            yield t.write(x, 2)

        executor = Executor(prog, PosPolicy(0))
        executor.run()
        last = executor.last_write_event("var:x")
        assert last is not None and last.value == 2
        assert executor.last_write_eid("var:x") == last.eid
        assert executor.last_write_eid("var:nonexistent") == 0
