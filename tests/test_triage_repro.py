"""Triage & reproduction: dedup keys, replay verification, artifacts.

The differential property at the bottom is the subsystem's contract over
the whole benchmark suite: any bug found under RandomWalk or PCT either
replays 20× with the identical outcome and dedup key (STABLE) or is
explicitly quarantined as FLAKY — there is no third state in which a
finding silently counts as reproduced.
"""

from __future__ import annotations

import json

import pytest

from repro import bench
from repro.core.fuzzer import RffConfig, RffFuzzer
from repro.core.minimize import any_crash, crash_rate, minimize_schedule
from repro.core.reproduce import (
    FLAKY,
    STABLE,
    RunEnv,
    bucket_id,
    dedup_key,
    same_bucket,
    verify_replay,
)
from repro.harness.persist import (
    ChecksumError,
    TornLineError,
    append_jsonl,
    attach_checksum,
    crash_from_dict,
    crash_to_dict,
    load_crash,
    payload_checksum,
    read_jsonl,
    result_from_dict,
    result_to_dict,
    save_crashes,
    verify_checksum,
)
from repro.harness.telemetry import GLOBAL_COUNTERS
from repro.harness.triage import (
    load_artifact,
    make_artifact,
    triage_report,
    verify_artifact,
    write_artifacts,
)
from repro.runtime import program, run_program
from repro.runtime.guard import GuardConfig
from repro.schedulers import PctPolicy, RandomWalkPolicy, ReplayPolicy
from repro.schedulers.replay import ReplayDivergence


def _reader_a(t, x):
    value = yield t.read(x)
    t.require(value == 0, "bug A: reader saw the x write")


def _reader_b(t, y):
    value = yield t.read(y)
    t.require(value == 0, "bug B: reader saw the y write")


@program("test/twobugs", bug_kinds=("assertion",))
def twobugs_program(t):
    """Two independent bugs in one program: schedule decides which fires."""
    x = t.var("x", 0)
    y = t.var("y", 0)
    ha = yield t.spawn(_reader_a, x)
    hb = yield t.spawn(_reader_b, y)
    yield t.write(x, 1)
    yield t.write(y, 1)
    yield t.join(ha)
    yield t.join(hb)


def _find_crash(prog, predicate, max_seeds=200):
    for seed in range(max_seeds):
        result = run_program(prog, RandomWalkPolicy(seed))
        if result.crashed and predicate(result):
            return result
    raise AssertionError("no matching crash found")


# ----------------------------------------------------------------------
# Dedup keys
# ----------------------------------------------------------------------
class TestDedupKey:
    def test_same_bug_same_key_across_schedules(self):
        hits = []
        for seed in range(100):
            result = run_program(twobugs_program, RandomWalkPolicy(seed))
            if result.crashed and "bug A" in (result.trace.failure or ""):
                hits.append(result)
        assert len(hits) >= 2
        keys = {dedup_key(r) for r in hits}
        assert len(keys) == 1
        schedules = {tuple(r.schedule) for r in hits}
        assert len(schedules) > 1  # different interleavings, one bucket

    def test_distinct_bugs_distinct_keys(self):
        a = _find_crash(twobugs_program, lambda r: "bug A" in r.trace.failure)
        b = _find_crash(twobugs_program, lambda r: "bug B" in r.trace.failure)
        assert dedup_key(a) != dedup_key(b)
        assert dedup_key(a)[0] == dedup_key(b)[0] == "assertion"

    def test_bucket_id_is_stable_and_greppable(self):
        a = _find_crash(twobugs_program, lambda r: "bug A" in r.trace.failure)
        bucket = bucket_id(dedup_key(a))
        assert bucket.startswith("assertion-")
        assert bucket == bucket_id(dedup_key(a))


# ----------------------------------------------------------------------
# Strict replay & divergence surfacing
# ----------------------------------------------------------------------
class TestReplayDivergence:
    def test_exact_replay_has_no_divergence(self):
        found = _find_crash(twobugs_program, lambda r: r.crashed)
        replayed = run_program(
            twobugs_program, ReplayPolicy(list(found.schedule))
        )
        assert replayed.diverged is None
        assert replayed.outcome == found.outcome

    def test_nonstrict_records_first_divergence(self):
        found = _find_crash(twobugs_program, lambda r: r.crashed)
        # Thread 99 never exists: the first step already diverges.
        bogus = [99] + list(found.schedule)
        replayed = run_program(twobugs_program, ReplayPolicy(bogus))
        assert replayed.diverged == 0

    def test_strict_mode_raises(self):
        found = _find_crash(twobugs_program, lambda r: r.crashed)
        bogus = [99] + list(found.schedule)
        with pytest.raises(ReplayDivergence) as excinfo:
            run_program(twobugs_program, ReplayPolicy(bogus, strict=True))
        assert excinfo.value.step == 0
        assert excinfo.value.wanted == 99

    def test_strict_past_end_raises(self):
        # An empty strict schedule diverges at step 0 (program outlives it).
        with pytest.raises(ReplayDivergence) as excinfo:
            run_program(twobugs_program, ReplayPolicy([], strict=True))
        assert excinfo.value.wanted is None


# ----------------------------------------------------------------------
# Replay verification
# ----------------------------------------------------------------------
class TestVerifyReplay:
    def test_stable_bug(self):
        found = _find_crash(twobugs_program, lambda r: "bug A" in r.trace.failure)
        key = dedup_key(found)
        verdict = verify_replay(
            twobugs_program, tuple(found.schedule), found.outcome, key, replays=20
        )
        assert verdict.verdict == STABLE
        assert verdict.matches == verdict.replays == 20
        assert all(run.key == key for run in verdict.runs)
        assert verdict.first_divergence is None

    def test_outcome_mismatch_is_flaky(self):
        clean = None
        for seed in range(100):
            result = run_program(twobugs_program, RandomWalkPolicy(seed))
            if not result.crashed:
                clean = result
                break
        assert clean is not None
        verdict = verify_replay(
            twobugs_program, tuple(clean.schedule), "assertion", replays=3
        )
        assert verdict.verdict == FLAKY
        assert verdict.matches == 0

    def test_verification_is_deterministic(self):
        found = _find_crash(twobugs_program, lambda r: r.crashed)
        key = dedup_key(found)
        verdicts = [
            verify_replay(
                twobugs_program, tuple(found.schedule), found.outcome, key, replays=5
            )
            for _ in range(2)
        ]
        assert verdicts[0] == verdicts[1]

    def test_replays_counter(self):
        found = _find_crash(twobugs_program, lambda r: r.crashed)
        before = GLOBAL_COUNTERS.snapshot()
        verify_replay(
            twobugs_program, tuple(found.schedule), found.outcome, replays=4
        )
        assert GLOBAL_COUNTERS.delta(before).replays == 4

    def test_replays_must_be_positive(self):
        with pytest.raises(ValueError, match="replays"):
            verify_replay(twobugs_program, (), "assertion", replays=0)

    def test_wall_clock_guard_cannot_flip_stable_to_flaky(self):
        from repro.runtime.guard import GuardConfig

        found = _find_crash(twobugs_program, lambda r: r.crashed)
        key = dedup_key(found)
        # An absurdly tight wall clock would time out every replay if it
        # were honoured; verification must strip it (it is the one
        # machine-speed-dependent guard) while keeping the step budget.
        guard = GuardConfig(wall_seconds=1e-9, step_budget=100_000)
        verdict = verify_replay(
            twobugs_program,
            tuple(found.schedule),
            found.outcome,
            key,
            replays=5,
            env=RunEnv(guard=guard),
        )
        assert verdict.verdict == STABLE
        assert verdict.matches == 5
        # The caller's config object is untouched.
        assert guard.wall_seconds == 1e-9

    def test_step_budget_still_enforced_during_verification(self):
        from repro.runtime.guard import GuardConfig

        found = _find_crash(twobugs_program, lambda r: r.crashed)
        key = dedup_key(found)
        verdict = verify_replay(
            twobugs_program,
            tuple(found.schedule),
            found.outcome,
            key,
            replays=3,
            env=RunEnv(guard=GuardConfig(wall_seconds=1e-9, step_budget=1)),
        )
        # One step is never enough to reach the bug: deterministic budget
        # violations must still surface as FLAKY, only the wall clock is
        # exempt.
        assert verdict.verdict == FLAKY


# ----------------------------------------------------------------------
# Bucket-preserving minimization (regression: ddmin must not morph bugs)
# ----------------------------------------------------------------------
class TestBucketPreservingMinimize:
    def _crashing_schedule(self):
        fuzzer = RffFuzzer(twobugs_program, seed=9)
        report = fuzzer.run(300, stop_on_first_crash=False)
        keys = {c.dedup_key for c in report.crashes}
        assert len(keys) >= 2, "fuzzer should trip both bugs of the program"
        return report

    def test_minimize_pins_the_original_bucket(self):
        report = self._crashing_schedule()
        # The most-constrained crash: its schedule actually pins a bug.
        crash = max(report.crashes, key=lambda c: len(c.abstract_schedule))
        outcome = minimize_schedule(twobugs_program, crash.abstract_schedule)
        # The default predicate derives the target bucket from the original
        # schedule and only accepts reductions that stay inside it.
        assert outcome.target_key is not None
        assert outcome.reproduction_rate > 0
        rate = crash_rate(
            twobugs_program,
            outcome.minimized,
            probes=5,
            base_seed=7,
            still_failing=same_bucket(outcome.target_key),
        )
        assert rate == outcome.reproduction_rate

    def test_explicit_predicate_respected(self):
        report = self._crashing_schedule()
        by_key: dict = {}
        for crash in report.crashes:
            by_key.setdefault(crash.dedup_key, crash)
        for key, crash in list(by_key.items())[:2]:
            outcome = minimize_schedule(
                twobugs_program,
                crash.abstract_schedule,
                still_failing=same_bucket(key),
            )
            assert outcome.target_key is None  # caller-supplied predicate
            final = crash_rate(
                twobugs_program,
                outcome.minimized,
                probes=10,
                base_seed=7,
                still_failing=same_bucket(key),
            )
            assert final > 0  # the minimized schedule still hits *this* bug

    def test_minimize_runs_in_the_configs_environment(self):
        # A 5-step watchdog kills CS/account before its assertion: the bug
        # found is a timeout, and minimization must pin that bucket.
        config = RffConfig(guard=GuardConfig(step_budget=5))
        prog = bench.get("CS/account")
        crash = RffFuzzer(prog, config=config).run(5, stop_on_first_crash=True).crashes[0]
        assert crash.outcome == "timeout"
        outcome = minimize_schedule(prog, crash.abstract_schedule, config=config)
        assert outcome.target_key == crash.dedup_key

    def test_any_crash_predicate_is_the_permissive_legacy(self):
        report = self._crashing_schedule()
        crash = report.crashes[0]
        strict = crash_rate(
            twobugs_program,
            crash.abstract_schedule,
            still_failing=same_bucket(crash.dedup_key),
        )
        loose = crash_rate(
            twobugs_program, crash.abstract_schedule, still_failing=any_crash
        )
        assert loose >= strict  # any-crash accepts at least as much


# ----------------------------------------------------------------------
# Triage + artifacts
# ----------------------------------------------------------------------
class TestTriage:
    @pytest.fixture(scope="class")
    def triaged(self):
        fuzzer = RffFuzzer(twobugs_program, seed=9)
        report = fuzzer.run(300, stop_on_first_crash=False)
        return report, triage_report(twobugs_program, report, replays=5)

    def test_buckets_fold_findings(self, triaged):
        report, result = triaged
        assert result.findings == len(report.crashes)
        assert len(result.bugs) == 2  # both bugs, deduplicated
        assert sum(bug.count for bug in result.bugs) == result.findings
        assert [bug.bucket for bug in result.bugs] == sorted(
            bug.bucket for bug in result.bugs
        )

    def test_every_bug_has_a_verdict(self, triaged):
        _, result = triaged
        for bug in result.bugs:
            assert bug.verdict is not None
            assert bug.verdict.verdict in (STABLE, FLAKY)
        assert result.stable and not result.quarantined

    def test_shortest_reproducer_kept(self, triaged):
        report, result = triaged
        for bug in result.bugs:
            lengths = [
                len(c.concrete_schedule)
                for c in report.crashes
                if c.dedup_key == bug.key
            ]
            assert len(bug.concrete_schedule) == min(lengths)

    def test_triage_is_deterministic(self, triaged):
        report, result = triaged
        again = triage_report(twobugs_program, report, replays=5)
        assert [b.bucket for b in again.bugs] == [b.bucket for b in result.bugs]
        assert [b.concrete_schedule for b in again.bugs] == [
            b.concrete_schedule for b in result.bugs
        ]
        assert [b.verdict for b in again.bugs] == [b.verdict for b in result.bugs]

    def test_artifact_roundtrip_and_verify(self, triaged, tmp_path):
        _, result = triaged
        written = write_artifacts(result, tmp_path)
        assert len(written) == len(result.stable)
        for path in written:
            payload = load_artifact(path)
            verdict = verify_artifact(payload, replays=3, program=twobugs_program)
            assert verdict.verdict == STABLE

    def test_tampered_artifact_rejected(self, triaged, tmp_path):
        _, result = triaged
        path = write_artifacts(result, tmp_path)[0]
        payload = json.loads(path.read_text())
        payload["concrete_schedule"] = payload["concrete_schedule"][:-1]
        path.write_text(json.dumps(payload))
        with pytest.raises(ChecksumError, match="checksum mismatch"):
            load_artifact(path)

    def test_wrong_kind_rejected(self, tmp_path):
        path = tmp_path / "not-an-artifact.json"
        path.write_text(json.dumps(attach_checksum({"artifact": "other"})))
        with pytest.raises(ValueError, match="not a rff-repro artifact"):
            load_artifact(path)

    def test_minimized_triage_stays_in_bucket(self, triaged):
        report, plain = triaged
        shrunk = triage_report(twobugs_program, report, replays=3, minimize=True)
        assert [b.key for b in shrunk.bugs] == [b.key for b in plain.bugs]
        for small, big in zip(shrunk.bugs, plain.bugs):
            assert len(small.concrete_schedule) <= len(big.concrete_schedule)
            assert small.verdict is not None and small.verdict.stable


# ----------------------------------------------------------------------
# Persistence hardening
# ----------------------------------------------------------------------
class TestPersistHardening:
    def test_crash_record_roundtrips_triage_fields(self):
        fuzzer = RffFuzzer(twobugs_program, seed=9)
        report = fuzzer.run(200, stop_on_first_crash=True)
        crash = report.crashes[0]
        assert crash.dedup_key is not None and crash.frames
        again = crash_from_dict(crash_to_dict(crash))
        assert again == crash

    def test_legacy_crash_dict_still_loads(self):
        fuzzer = RffFuzzer(twobugs_program, seed=9)
        report = fuzzer.run(200, stop_on_first_crash=True)
        legacy = crash_to_dict(report.crashes[0])
        del legacy["dedup_key"]
        del legacy["frames"]
        loaded = crash_from_dict(legacy)
        assert loaded.dedup_key is None and loaded.frames == ()

    def test_crash_files_are_bug_files(self, tmp_path):
        config = RffConfig(memory_model="tso", guard=GuardConfig(step_budget=5000))
        fuzzer = RffFuzzer(twobugs_program, seed=9, config=config)
        report = fuzzer.run(200, stop_on_first_crash=True)
        [path] = save_crashes(report, tmp_path)
        payload = load_artifact(path)
        assert RunEnv.from_artifact(payload) == report.env == config.env
        assert payload["verdict"] is None
        assert payload["execution_index"] == report.crashes[0].execution_index
        assert load_crash(path) == (twobugs_program.name, report.crashes[0])
        verdict = verify_artifact(payload, replays=3, program=twobugs_program)
        assert verdict.verdict == STABLE
        payload["memory_model"] = "sc"
        path.write_text(json.dumps(payload))
        with pytest.raises(ChecksumError, match="checksum mismatch"):
            load_artifact(path)

    def test_result_roundtrips_bucket_and_verdict(self):
        from repro.harness.tools import random_tool

        tool = random_tool()
        tool.verify_replays = 3
        result = tool.find_bug(bench.get("CS/account"), budget=300, seed=1)
        assert result.found and result.bucket and result.replay_verdict
        assert result_from_dict(result_to_dict(result)) == result

    def test_torn_tail_tolerated_and_counted(self, tmp_path):
        path = tmp_path / "log.jsonl"
        append_jsonl({"a": 1}, path)
        append_jsonl({"b": 2}, path)
        with path.open("a") as handle:
            handle.write('{"torn": tr')
        before = GLOBAL_COUNTERS.snapshot()
        assert read_jsonl(path) == [{"a": 1}, {"b": 2}]
        assert GLOBAL_COUNTERS.delta(before).torn_lines == 1

    def test_torn_tail_rejected_when_intolerant(self, tmp_path):
        path = tmp_path / "log.jsonl"
        append_jsonl({"a": 1}, path)
        with path.open("a") as handle:
            handle.write('{"torn": tr')
        with pytest.raises(TornLineError, match="torn trailing line"):
            read_jsonl(path, tolerate_torn_tail=False)

    def test_torn_middle_always_rejected(self, tmp_path):
        path = tmp_path / "log.jsonl"
        append_jsonl({"a": 1}, path)
        with path.open("a") as handle:
            handle.write('{"torn": tr\n')
        append_jsonl({"b": 2}, path)
        with pytest.raises(TornLineError, match="mid-file"):
            read_jsonl(path)

    def test_checksum_primitives(self):
        payload = attach_checksum({"x": 1, "y": [1, 2]})
        assert payload["checksum"] == payload_checksum(payload)
        verify_checksum(payload)
        payload["x"] = 2
        with pytest.raises(ChecksumError):
            verify_checksum(payload)
        with pytest.raises(ChecksumError, match="missing checksum"):
            verify_checksum({"x": 1})


# ----------------------------------------------------------------------
# Campaign integration: serial == parallel, watchdogs included
# ----------------------------------------------------------------------
class TestCampaignDeterminism:
    def _config(self):
        from repro.harness.campaign import CampaignConfig
        from repro.runtime.guard import GuardConfig

        return CampaignConfig(
            trials=2,
            budget=150,
            base_seed=77,
            verify_replays=2,
            guard=GuardConfig(step_budget=5000, livelock_window=2000),
        )

    def test_serial_equals_parallel_with_guard_and_verify(self):
        from repro.harness.campaign import Campaign
        from repro.harness.parallel import ParallelCampaign
        from repro.harness.tools import random_tool

        programs = ["CS/account", "CS/reorder_4"]
        serial = Campaign(self._config()).run(
            [random_tool()], [bench.get(name) for name in programs]
        )
        for processes in (0, 2):
            parallel = ParallelCampaign(self._config(), processes=processes).run(
                ["Random"], programs
            )
            assert parallel.results == serial.results
        for trials in serial.results.values():
            for result in trials:
                if result.found:
                    assert result.bucket is not None
                    assert result.replay_verdict in (STABLE, FLAKY)

    def test_watchdog_kills_are_bit_identical_serial_vs_parallel(self):
        from repro.harness.campaign import Campaign, CampaignConfig
        from repro.harness.parallel import ParallelCampaign
        from repro.harness.tools import random_tool
        from repro.runtime.guard import GuardConfig

        # A 10-step budget kills every execution of this ~15-step program:
        # the kill becomes a deterministic "timeout" finding with a bucket.
        config = CampaignConfig(
            trials=2,
            budget=20,
            base_seed=5,
            verify_replays=3,
            guard=GuardConfig(step_budget=10),
        )
        programs = ["CS/reorder_4"]
        serial = Campaign(config).run(
            [random_tool()], [bench.get(name) for name in programs]
        )
        parallel = ParallelCampaign(config, processes=2).run(["Random"], programs)
        assert parallel.results == serial.results
        for trials in serial.results.values():
            for result in trials:
                assert result.found and result.outcome == "timeout"
                assert result.bucket.startswith("timeout-")
                assert result.replay_verdict == STABLE

    def test_checkpoint_resume_preserves_triage_fields(self, tmp_path):
        from repro.harness.parallel import ParallelCampaign

        store = tmp_path / "store"
        first = ParallelCampaign(self._config(), processes=0, store=store).run(
            ["Random"], ["CS/account"]
        )
        resumed = ParallelCampaign(self._config(), processes=0, store=store).run(
            ["Random"], ["CS/account"]
        )
        assert resumed.results == first.results


# ----------------------------------------------------------------------
# Differential property over the whole suite
# ----------------------------------------------------------------------
def _first_crash(prog, policy_factory, budget=40):
    for index in range(budget):
        result = run_program(
            prog, policy_factory(index), max_steps=prog.max_steps or 20000
        )
        if result.crashed:
            return result
    return None


@pytest.mark.parametrize("name", sorted(bench.all_programs()))
def test_found_bugs_replay_or_quarantine(name):
    """Every bug found under RandomWalk/PCT replays 20× with the identical
    outcome + dedup key, or is explicitly quarantined as FLAKY."""
    prog = bench.get(name)
    factories = {
        "random": lambda seed: RandomWalkPolicy(11 + seed),
        "pct": lambda seed: PctPolicy(depth=3, seed=11 + seed),
    }
    for label, factory in factories.items():
        found = _first_crash(prog, factory)
        if found is None:
            continue
        key = dedup_key(found)
        verdict = verify_replay(
            prog,
            tuple(found.schedule),
            found.outcome,
            key,
            replays=20,
        )
        assert verdict.replays == 20, (name, label)
        if verdict.verdict == STABLE:
            assert verdict.matches == 20, (name, label)
            assert all(run.key == key and run.diverged is None for run in verdict.runs)
        else:
            # Explicit quarantine: FLAKY, never silently "reproduced".
            assert verdict.verdict == FLAKY, (name, label)
            assert verdict.matches < 20, (name, label)
