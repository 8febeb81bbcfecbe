"""The ``rff`` command-line interface."""

from __future__ import annotations

import pytest

from repro.cli import main


class TestList:
    def test_lists_all_programs(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "CS/reorder_100" in out
        assert out.count("\n") == 49

    def test_marks_mc_supported(self, capsys):
        main(["list"])
        out = capsys.readouterr().out
        assert "[mc]" in out


class TestFuzz:
    def test_fuzz_finds_reorder(self, capsys):
        assert main(["fuzz", "CS/reorder_10", "--budget", "200", "--seed", "1"]) == 0
        out = capsys.readouterr().out
        assert "first crash at:" in out
        assert "assertion" in out

    def test_fuzz_ablation_flags(self, capsys):
        code = main(
            ["fuzz", "CS/reorder_20", "--budget", "100", "--no-constraints", "--seed", "0"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "first crash at:     None" in out

    def test_unknown_program_exits_cleanly(self):
        # A typo must exit with a did-you-mean diagnostic, not a traceback.
        with pytest.raises(SystemExit) as excinfo:
            main(["fuzz", "CS/bogus"])
        assert "did you mean" in str(excinfo.value)


class TestRun:
    def test_run_pos(self, capsys):
        assert main(["run", "CS/account", "--tool", "POS", "--budget", "300"]) == 0
        assert "POS on CS/account" in capsys.readouterr().out

    def test_run_genmc_error_goes_to_stderr(self, capsys):
        assert main(["run", "CS/reorder_10", "--tool", "GenMC"]) == 2
        captured = capsys.readouterr()
        assert "Error" in captured.err
        assert "Error" not in captured.out

    def test_unknown_tool_exits(self):
        with pytest.raises(SystemExit):
            main(["run", "CS/account", "--tool", "NotATool"])


class TestCampaign:
    def test_small_campaign(self, capsys):
        code = main(
            [
                "campaign",
                "--trials", "2",
                "--budget", "100",
                "--programs", "CS/account", "Splash2/lu",
                "--tools", "RFF", "POS",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "mean bugs found" in out
        assert "cumulative bugs" in out


class TestOneRunner:
    """Every campaign runs through ParallelCampaign; only --parallel picks
    the worker count, and misuse fails before anything runs."""

    ARGS = ["campaign", "--trials", "2", "--budget", "60", "--tools", "RFF", "POS"]

    @pytest.mark.parametrize("parallel", [[], ["--parallel", "2"]], ids=["default", "parallel-2"])
    @pytest.mark.parametrize(
        "names, hint",
        [
            (["--programs", "CS/acount", "--tools", "RFF"], "did you mean: CS/account"),
            (["--programs", "CS/account", "--tools", "Randon"], "did you mean: Random"),
            (["--programs", "NoSuch", "--tools", "RFF"], "unknown benchmark 'NoSuch'"),
            (["--programs", "CS/account", "--tools", "NotATool"], "unknown tool 'NotATool'"),
        ],
    )
    def test_unknown_names_exit_2_before_running(self, capsys, parallel, names, hint):
        assert main(["campaign", "--trials", "1", "--budget", "20"] + names + parallel) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert hint in captured.err

    @pytest.mark.parametrize("parallel", [[], ["--parallel", "0"]], ids=["default", "parallel-0"])
    @pytest.mark.parametrize(
        "flag",
        [
            ["--timeout", "5"],
            ["--profile", "prof"],
            ["--timeout", "5", "--profile", "prof"],
        ],
    )
    def test_worker_flags_require_workers(self, capsys, tmp_path, monkeypatch, parallel, flag):
        monkeypatch.chdir(tmp_path)
        assert main(CAMPAIGN_ARGS + flag + parallel) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--parallel N" in captured.err
        # The error names every worker-only flag given, not just the first.
        for name in flag[::2]:
            assert name in captured.err
        assert not (tmp_path / "prof").exists()

    @pytest.mark.parametrize("command", [["campaign"], ["eval-gen"]])
    def test_negative_parallel_exits_2(self, capsys, command):
        # A negative worker count would neither start a worker nor run
        # in-process: the dispatch loop would wait forever.
        with pytest.raises(SystemExit) as exc:
            main(command + ["--parallel", "-1"])
        assert exc.value.code == 2
        assert "must be >= 0" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flags, named",
        [
            (["--timeout", "0"], "--timeout"),
            (["--lease-seconds", "0"], "--lease-seconds"),
            (["--heartbeat-seconds", "0"], "--heartbeat-seconds"),
            (["--heartbeat-seconds", "-1"], "--heartbeat-seconds"),
            (["--heartbeat-seconds", "2", "--lease-seconds", "1"], "--heartbeat-seconds"),
            (["--heartbeat-seconds", "1", "--lease-seconds", "1"], "--lease-seconds"),
            (["--retries", "-1"], "--retries"),
        ],
        ids=["timeout-0", "lease-0", "heartbeat-0", "heartbeat-negative",
             "heartbeat-above-lease", "heartbeat-equals-lease", "retries-negative"],
    )
    def test_supervision_flags_that_cannot_work_exit_2(self, capsys, flags, named):
        """A zero timeout or lease kills healthy workers, a zero heartbeat
        silently disables heartbeats and the orphaned-worker exit, and a
        heartbeat no faster than the lease loses every lease."""
        try:
            code = main(CAMPAIGN_ARGS + ["--parallel", "2"] + flags)
        except SystemExit as exc:
            code = exc.code
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert named in captured.err

    def test_store_and_telemetry_run_in_process(self, capsys, tmp_path):
        from repro.harness.store import CorpusStore
        from repro.harness.telemetry import validate_jsonl

        args = self.ARGS + ["--programs", "CS/account", "Splash2/lu"]
        telemetry = tmp_path / "t.jsonl"
        assert main(args + ["--store", str(tmp_path / "a"), "--telemetry", str(telemetry)]) == 0
        in_process = capsys.readouterr().out
        assert main(args + ["--store", str(tmp_path / "b"), "--parallel", "2"]) == 0
        pooled = capsys.readouterr().out
        records = validate_jsonl(telemetry)
        start = next(r for r in records if r["event"] == "campaign_start")
        assert start["processes"] == 0
        assert not [r for r in records if r["event"] == "batch_dispatch"]
        table = lambda text: text.split("\n\n")[0]  # the Appendix-B table
        assert "mean bugs found" in table(in_process)
        assert table(in_process) == table(pooled)
        with CorpusStore(tmp_path / "a", readonly=True) as a, CorpusStore(
            tmp_path / "b", readonly=True
        ) as b:
            assert a.completed() == b.completed()

    def test_verbose_reports_each_slice_start(self, capsys):
        assert main(CAMPAIGN_ARGS + ["--trials", "2", "--verbose"]) == 0
        err = capsys.readouterr().err
        assert err.splitlines() == [
            "... RFF / CS/account / trial 0",
            "... RFF / CS/account / trial 1",
        ]


class TestGen:
    def test_gen_prints_corpus_table(self, capsys):
        assert main(["gen", "--seed", "5", "--count", "6"]) == 0
        out = capsys.readouterr().out
        assert "gen:5" in out and "gen:10" in out
        assert "6 programs" in out

    def test_gen_writes_jsonl(self, capsys, tmp_path):
        target = tmp_path / "corpus.jsonl"
        assert main(
            ["gen", "--seed", "5", "--count", "3", "--quiet", "--out", str(target)]
        ) == 0
        lines = target.read_text().splitlines()
        assert len(lines) == 3
        import json

        record = json.loads(lines[0])
        assert record["spec"]["seed"] == 5
        assert "ground_truth" in record

    def test_gen_with_config_token(self, capsys):
        assert main(["gen", "--seed", "1", "--count", "2", "--config", "t=2"]) == 0
        assert "gen:1:t=2" in capsys.readouterr().out

    def test_gen_rejects_bad_config_token(self):
        with pytest.raises(SystemExit):
            main(["gen", "--config", "zz=9"])

    def test_fuzz_accepts_gen_name(self, capsys):
        assert main(["fuzz", "gen:3", "--budget", "50", "--seed", "0"]) == 0
        assert "gen:3" in capsys.readouterr().out

    def test_gen_json_success_is_parseable(self, capsys):
        import json

        assert main(["gen", "--seed", "5", "--count", "3", "--json"]) == 0
        captured = capsys.readouterr()
        payload = json.loads(captured.out)
        assert payload["ok"] is True
        assert payload["seed"] == 5
        assert len(payload["programs"]) == 3
        assert all("kind" in row and "name" in row for row in payload["programs"])
        # Human summary stays off the JSON stream.
        assert "3 programs" in captured.err

    def test_gen_json_failure_is_parseable(self, capsys):
        import json

        assert main(["gen", "--config", "zz=9", "--json"]) == 2
        payload = json.loads(capsys.readouterr().out)
        assert payload["ok"] is False
        assert "zz" in payload["error"]
        assert "valid knobs:" in payload["error"]


class TestSubstrate:
    def test_list_py_namespace(self, capsys):
        assert main(["list", "--substrate", "py"]) == 0
        out = capsys.readouterr().out
        assert "py:counter_race" in out
        assert "CS/reorder_100" not in out

    def test_run_py_target_with_bare_name(self, capsys):
        code = main(
            ["run", "counter_race", "--substrate", "py",
             "--tool", "RFF", "--budget", "200"]
        )
        assert code == 0
        assert "py:counter_race" in capsys.readouterr().out

    def test_py_program_rejects_tso(self):
        with pytest.raises(SystemExit) as excinfo:
            main(
                ["fuzz", "py:counter_race", "--substrate", "py",
                 "--memory-model", "tso", "--budget", "10"]
            )
        assert "real memory" in str(excinfo.value)

    def test_replay_substrate_mismatch_exits_2(self, capsys, tmp_path):
        import json

        crash_file = tmp_path / "crash.json"
        crash_file.write_text(json.dumps({"program": "CS/account", "schedule": []}))
        code = main(["replay", str(crash_file), "--substrate", "py"])
        assert code == 2
        captured = capsys.readouterr()
        assert "dsl substrate" in captured.err
        assert captured.out == ""


class TestReplay:
    """Every bug file goes through one load -> replay -> verify path."""

    def _crash_file(self, tmp_path, capsys, *fuzz_args):
        assert main(["fuzz", *fuzz_args, "--save-crashes", str(tmp_path)]) == 0
        capsys.readouterr()
        return tmp_path / "crash-000.json"

    def test_tso_crash_file_verifies_stable(self, capsys, tmp_path):
        crash = self._crash_file(tmp_path, capsys, "CS/lazy01", "--memory-model", "tso")
        assert main(["replay", str(crash), "--verify"]) == 0
        assert "verdict:  STABLE (5/5 matched)" in capsys.readouterr().out

    def test_watchdog_crash_file_replays_as_timeout(self, capsys, tmp_path):
        crash = self._crash_file(
            tmp_path, capsys, "CS/account", "--watchdog-steps", "5", "--budget", "5"
        )
        assert main(["replay", str(crash), "--verify"]) == 0
        out = capsys.readouterr().out
        assert "replayed: timeout" in out
        assert "verdict:  STABLE (5/5 matched)" in out

    def test_artifact_trace_prints_the_requested_events(self, capsys, tmp_path):
        assert main(
            ["triage", "CS/account", "--budget", "300", "--replays", "2",
             "--artifacts", str(tmp_path)]
        ) == 0
        [artifact] = tmp_path.glob("repro-*.json")
        capsys.readouterr()
        assert main(["replay", str(artifact), "--trace", "5"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len([line for line in lines if line.startswith("#")]) == 5
        assert "... (4 more events)" in lines

    def test_legacy_crash_dict_still_replays(self, capsys, tmp_path):
        import json

        from repro import bench
        from repro.core.fuzzer import fuzz
        from repro.harness.persist import crash_to_dict

        report = fuzz(bench.get("CS/account"), max_executions=300, seed=1, stop_on_first_crash=True)
        legacy = {"program": "CS/account", **crash_to_dict(report.crashes[0])}
        keyless = {key: value for key, value in legacy.items() if key != "dedup_key"}
        for name, payload in (("legacy", legacy), ("keyless", keyless)):
            path = tmp_path / f"{name}.json"
            path.write_text(json.dumps(payload))
            assert main(["replay", str(path), "--verify"]) == 0, name
            assert "verdict:  STABLE (5/5 matched)" in capsys.readouterr().out


class TestEvalGen:
    def test_small_eval_writes_report(self, capsys, tmp_path):
        target = tmp_path / "report.json"
        code = main(
            [
                "eval-gen",
                "--seed", "2000",
                "--count", "4",
                "--tools", "RFF",
                "--trials", "1",
                "--budget", "60",
                "--sanitizer-budget", "20",
                "--out", str(target),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "Crash channel" in out
        assert "Sanitizer channel" in out
        import json

        payload = json.loads(target.read_text())
        assert payload["schema"] == 1
        assert set(payload["tools"]) == {"RFF"}
        assert set(payload["sanitizers"]) == {"race", "lockset", "lockorder"}
        assert len(payload["corpus"]["programs"]) == 4

    def test_telemetry_records_the_crash_channel(self, capsys, tmp_path):
        from repro.harness.telemetry import validate_jsonl

        telemetry = tmp_path / "t.jsonl"
        code = main(
            [
                "eval-gen",
                "--seed", "2000",
                "--count", "2",
                "--tools", "RFF",
                "--trials", "1",
                "--budget", "30",
                "--sanitizer-budget", "10",
                "--out", str(tmp_path / "report.json"),
                "--telemetry", str(telemetry),
            ]
        )
        assert code == 0
        records = validate_jsonl(telemetry)
        events = [r["event"] for r in records]
        assert events[0] == "gen_corpus" and events[-1] == "gen_eval_end"
        start = records[events.index("campaign_start")]
        assert start["processes"] == 0  # --parallel defaults to in-process
        assert events.count("cell_end") == 2


class TestFigure5:
    def test_figure5_runs(self, capsys):
        code = main(["figure5", "--program", "CS/reorder_3", "--executions", "60"])
        assert code == 0
        out = capsys.readouterr().out
        assert out.count("rf signatures") == 2  # POS and RFF blocks


CAMPAIGN_ARGS = [
    "campaign",
    "--trials", "1",
    "--budget", "80",
    "--programs", "CS/account",
    "--tools", "RFF",
]


class TestResumeDiagnostics:
    def test_resume_without_target_is_an_error(self, capsys):
        assert main(CAMPAIGN_ARGS + ["--resume"]) == 2
        err = capsys.readouterr().err
        assert "error:" in err
        assert "--resume requires" in err

    def test_resume_missing_checkpoint_is_an_error(self, capsys, tmp_path):
        """The store is the campaign's checkpoint; resuming a missing one
        is a typo, not a fresh start."""
        missing = tmp_path / "absent"
        code = main(CAMPAIGN_ARGS + ["--store", str(missing), "--resume"])
        assert code == 2
        err = capsys.readouterr().err
        assert "does not exist" in err
        assert "drop --resume" in err
        assert not missing.exists()

    def test_resume_empty_checkpoint_is_an_error(self, capsys, tmp_path):
        empty = tmp_path / "empty"
        empty.mkdir()
        code = main(CAMPAIGN_ARGS + ["--store", str(empty), "--resume"])
        assert code == 2
        assert "is empty" in capsys.readouterr().err

    def test_diagnostics_go_to_stderr_only(self, capsys):
        main(CAMPAIGN_ARGS + ["--resume"])
        captured = capsys.readouterr()
        assert captured.out == ""


class TestDurableCampaign:
    @pytest.mark.parametrize(
        "flag",
        [
            ["--engine", "pool"],
            ["--durable"],
            ["--checkpoint", "ck.jsonl"],
            ["--pool-size", "2"],
            ["--batch-size", "4"],
            ["--fault-hook", "repro.harness.faults:chaos_hook"],
        ],
    )
    def test_removed_flags_exit_2(self, capsys, flag):
        with pytest.raises(SystemExit) as exc:
            main(CAMPAIGN_ARGS + flag)
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_help_lists_no_removed_flags(self, capsys):
        with pytest.raises(SystemExit):
            main(["campaign", "--help"])
        out = capsys.readouterr().out
        for flag in (
            "--engine", "--durable", "--checkpoint", "--pool-size", "--batch-size", "--fault-hook"
        ):
            assert flag not in out

    def test_existing_store_requires_resume(self, capsys, tmp_path):
        store = tmp_path / "store"
        assert main(CAMPAIGN_ARGS + ["--store", str(store)]) == 0
        capsys.readouterr()
        assert main(CAMPAIGN_ARGS + ["--store", str(store)]) == 2
        assert "pass --resume" in capsys.readouterr().err

    def test_durable_campaign_then_resume(self, capsys, tmp_path):
        store = tmp_path / "store"
        args = CAMPAIGN_ARGS + ["--store", str(store)]
        assert main(args) == 0
        fresh = capsys.readouterr().out
        assert main(args + ["--resume"]) == 0
        resumed = capsys.readouterr().out
        # The resumed run replays the ledger: identical Appendix-B table
        # (throughput lines differ — replayed cells run no schedules).
        assert "mean bugs found" in resumed
        table = lambda text: [l for l in text.splitlines() if "CS/account" in l and "cells" not in l]
        assert table(fresh) == table(resumed)


class TestStoreCommands:
    def _populate(self, tmp_path):
        store = tmp_path / "store"
        assert main(CAMPAIGN_ARGS + ["--store", str(store)]) == 0
        return store

    def test_inspect(self, capsys, tmp_path):
        store = self._populate(tmp_path)
        capsys.readouterr()
        assert main(["store", "inspect", str(store)]) == 0
        out = capsys.readouterr().out
        assert "Corpus store" in out
        assert "records:" in out

    def test_verify_ok(self, capsys, tmp_path):
        store = self._populate(tmp_path)
        capsys.readouterr()
        assert main(["store", "verify", str(store)]) == 0
        assert "verify: ok" in capsys.readouterr().out

    def test_verify_detects_corruption(self, capsys, tmp_path):
        store = self._populate(tmp_path)
        capsys.readouterr()
        segment = next(store.glob("segment-*.jsonl"))
        text = segment.read_text()
        segment.write_text(text.replace('"found": true', '"found": false', 1))
        assert main(["store", "verify", str(store)]) == 2
        assert "checksum" in capsys.readouterr().err

    def test_compact(self, capsys, tmp_path):
        store = self._populate(tmp_path)
        capsys.readouterr()
        assert main(["store", "compact", str(store)]) == 0
        assert "compacted" in capsys.readouterr().out

    def test_inspect_missing_store_is_an_error(self, capsys, tmp_path):
        assert main(["store", "inspect", str(tmp_path / "nope")]) == 2
        assert "not a corpus store" in capsys.readouterr().err
