"""The RFF fuzzing loop (Algorithm 1) end to end."""

from __future__ import annotations

from repro.core.constraints import AbstractSchedule
from repro.core.fuzzer import RffConfig, RffFuzzer, fuzz
from repro.core.reproduce import RunEnv

from tests.conftest import make_reorder


class TestFuzzingLoop:
    def test_budget_respected(self, reorder3):
        report = fuzz(reorder3, max_executions=25, seed=0)
        assert report.executions == 25

    def test_stop_on_first_crash(self, reorder3):
        report = fuzz(reorder3, max_executions=500, seed=0, stop_on_first_crash=True)
        assert report.found_bug
        assert report.executions == report.first_crash_at

    def test_corpus_grows_beyond_seed(self, reorder3):
        report = fuzz(reorder3, max_executions=50, seed=0)
        assert report.corpus_size > 1

    def test_crash_records_carry_schedules(self, reorder3):
        report = fuzz(reorder3, max_executions=500, seed=1, stop_on_first_crash=True)
        crash = report.crashes[0]
        assert crash.outcome == "assertion"
        assert isinstance(crash.abstract_schedule, AbstractSchedule)
        assert crash.concrete_schedule  # replayable thread-id sequence

    def test_crash_replay_via_recorded_schedule(self, reorder3):
        from repro.runtime import run_program
        from repro.schedulers import ReplayPolicy

        report = fuzz(reorder3, max_executions=500, seed=2, stop_on_first_crash=True)
        crash = report.crashes[0]
        replay = run_program(reorder3, ReplayPolicy(list(crash.concrete_schedule)))
        assert replay.crashed
        assert replay.outcome == crash.outcome

    def test_signature_counts_sum_to_executions(self, reorder3):
        report = fuzz(reorder3, max_executions=60, seed=3)
        assert sum(report.signature_counts.values()) == report.executions

    def test_determinism_across_identical_runs(self, reorder3):
        a = fuzz(reorder3, max_executions=40, seed=9)
        b = fuzz(reorder3, max_executions=40, seed=9)
        assert a.first_crash_at == b.first_crash_at
        assert a.pair_coverage == b.pair_coverage
        assert a.unique_signatures == b.unique_signatures

    def test_different_seeds_differ(self, reorder3):
        firsts = {fuzz(reorder3, max_executions=200, seed=s, stop_on_first_crash=True).first_crash_at
                  for s in range(8)}
        assert len(firsts) > 1


class TestPaperHeadline:
    def test_reorder_100_found_in_few_schedules(self):
        """Section 2: 'RFF exposes the bug in about 6 iterations in each of
        the 20 trials' — the paper's headline example."""
        hits = []
        for trial in range(10):
            report = fuzz(make_reorder(100), max_executions=100, seed=trial,
                          stop_on_first_crash=True)
            assert report.found_bug, f"trial {trial} missed the reorder_100 bug"
            hits.append(report.first_crash_at)
        assert sum(hits) / len(hits) <= 20

    def test_pos_ablation_misses_reorder_20(self):
        """RQ2: without abstract-schedule constraints RFF degrades to POS,
        which cannot find high-thread-count reorder bugs."""
        config = RffConfig(use_constraints=False)
        report = fuzz(make_reorder(20), max_executions=300, seed=0, config=config,
                      stop_on_first_crash=True)
        assert not report.found_bug

    def test_full_rff_beats_ablation_on_reorder(self):
        full = fuzz(make_reorder(20), max_executions=300, seed=0, stop_on_first_crash=True)
        assert full.found_bug


class TestConfigKnobs:
    def test_no_feedback_keeps_corpus_at_seed(self, reorder3):
        config = RffConfig(use_feedback=False)
        report = fuzz(reorder3, max_executions=50, seed=0, config=config)
        assert report.corpus_size == 1

    def test_no_power_schedule_still_finds_bugs(self, reorder3):
        config = RffConfig(use_power_schedule=False)
        report = fuzz(reorder3, max_executions=300, seed=0, config=config,
                      stop_on_first_crash=True)
        assert report.found_bug

    def test_max_constraints_respected_in_corpus(self, reorder3):
        config = RffConfig(max_constraints=2)
        fuzzer = RffFuzzer(reorder3, seed=0, config=config)
        fuzzer.run(100)
        assert all(len(entry.schedule) <= 2 for entry in fuzzer.corpus)

    def test_max_steps_override(self, reorder3):
        report = fuzz(reorder3, max_executions=10, seed=0, env=RunEnv(max_steps=5))
        assert report.truncated_runs == 10

    def test_seed_corpus_used(self, reorder3):
        seeds = [AbstractSchedule.empty()]
        fuzzer = RffFuzzer(reorder3, seed=0, seeds=seeds)
        assert len(fuzzer.corpus) == 1

    def test_bug_free_program_never_crashes(self, racefree):
        report = fuzz(racefree, max_executions=150, seed=0)
        assert not report.found_bug
        assert report.executions == 150


class TestDeadlockAndHeapBugs:
    def test_fuzzer_finds_deadlock(self, abba_deadlock):
        report = fuzz(abba_deadlock, max_executions=300, seed=0, stop_on_first_crash=True)
        assert report.found_bug
        assert report.crashes[0].outcome == "deadlock"

    def test_fuzzer_finds_memory_safety_bug(self, uaf):
        report = fuzz(uaf, max_executions=300, seed=0, stop_on_first_crash=True)
        assert report.found_bug
        assert report.crashes[0].outcome in ("use-after-free", "null-dereference")
