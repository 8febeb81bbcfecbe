"""Online sanitizer pipeline: executor hooks, detectors, fuzzer wiring.

The core property is *differential*: the streaming sanitizers driven by the
executor must produce exactly the same verdicts as the offline analyzers
re-scanning the recorded trace — the epoch-optimized online race detector
bit-for-bit equal to ``find_races``, the lockset/lockorder sanitizers equal
by shared construction.
"""

from __future__ import annotations

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import bench
from repro.analysis import check_lock_discipline, find_races, predict_deadlocks
from repro.analysis.lockgraph import DeadlockPrediction, cycle_predictions
from repro.analysis.online import (
    SANITIZERS,
    OnlineLockOrderSanitizer,
    OnlineLocksetSanitizer,
    OnlineRaceSanitizer,
    Sanitizer,
    SanitizerReport,
    build_stack,
    parse_sanitizers,
)
from repro.core.fuzzer import RffConfig, RffFuzzer
from repro.core.reproduce import RunEnv
from repro.runtime import program, run_program
from repro.schedulers import PctPolicy, RandomWalkPolicy


@program("test/wronglock", bug_kinds=())
def wronglock_program(t):
    """Both threads lock, but different mutexes: discipline violation."""

    def worker(t, m, x):
        yield t.lock(m)
        value = yield t.read(x)
        yield t.write(x, value + 1)
        yield t.unlock(m)

    ma = t.mutex("A")
    mb = t.mutex("B")
    x = t.var("x", 0)
    h1 = yield t.spawn(worker, ma, x)
    h2 = yield t.spawn(worker, mb, x)
    yield t.join(h1)
    yield t.join(h2)


@pytest.fixture
def wronglock():
    return wronglock_program


#: Lock-order graphs over up to six locks, self-loops included, with 0-3
#: contributing thread ids per edge.
LOCK_EDGES = st.dictionaries(
    st.tuples(*[st.sampled_from([f"mutex:{name}" for name in "ABCDEF"])] * 2),
    st.sets(st.integers(0, 3), max_size=3),
    max_size=36,
)


def brute_force_cycles(edges):
    """Reference cycle search: every ordering of every lock subset that
    starts at its minimal lock and whose consecutive pairs, the closing pair
    included, are all edges, kept when at least two threads contribute."""
    locks = sorted({lock for edge in edges for lock in edge})
    predictions = []
    for size in range(2, len(locks) + 1):
        for ordering in itertools.permutations(locks, size):
            pairs = list(zip(ordering, ordering[1:] + ordering[:1]))
            if ordering[0] != min(ordering) or not all(pair in edges for pair in pairs):
                continue
            threads = frozenset().union(*(edges[pair] for pair in pairs))
            if len(threads) >= 2:
                predictions.append(DeadlockPrediction(cycle=ordering, threads=threads))
    return sorted(predictions, key=lambda prediction: prediction.cycle)


def run_with(prog, policy, names=("race", "lockset", "lockorder")):
    stack = build_stack(tuple(names))
    result = run_program(prog, policy, sanitizers=stack)
    return result, stack


# ----------------------------------------------------------------------
# Registry and report plumbing
# ----------------------------------------------------------------------
class TestRegistry:
    def test_parse_all_and_none(self):
        assert parse_sanitizers("all") == ("race", "lockset", "lockorder")
        assert parse_sanitizers("") == ()
        assert parse_sanitizers("none") == ()

    def test_parse_subset_canonical_order(self):
        assert parse_sanitizers("lockset,race") == ("race", "lockset")
        assert parse_sanitizers(" race , race ") == ("race",)

    def test_parse_unknown_rejected(self):
        with pytest.raises(ValueError, match="unknown sanitizer"):
            parse_sanitizers("race,tsan")

    def test_build_stack_fresh_instances(self):
        a = build_stack(("race",))
        b = build_stack(("race",))
        assert a[0] is not b[0]
        with pytest.raises(ValueError):
            build_stack(("nope",))

    def test_registry_names_match_instances(self):
        for name, cls in SANITIZERS.items():
            assert cls().name == name
            assert issubclass(cls, Sanitizer)

    def test_report_roundtrip_and_str(self):
        report = SanitizerReport(
            sanitizer="race",
            kind="write-write",
            location="var:x",
            pair=("w(var:x)@a:1", "w(var:x)@b:1"),
            message="boom",
            eids=(3, 7),
        )
        assert SanitizerReport.from_dict(report.to_dict()) == report
        assert report.dedup_key == ("race", "write-write", "w(var:x)@a:1", "w(var:x)@b:1")
        assert str(report) == "[race] boom"

    def test_canonical_cycle_rotation(self):
        """Cycles start at their minimal lock and come sorted, whatever
        order the lock-order graph was built in."""
        edges = {
            ("mutex:B", "mutex:A"): {2},
            ("mutex:A", "mutex:B"): {1},
            ("mutex:D", "mutex:C"): {1},
            ("mutex:C", "mutex:D"): {2},
        }
        for ordered in (edges, dict(reversed(list(edges.items())))):
            assert [p.cycle for p in cycle_predictions(ordered)] == [
                ("mutex:A", "mutex:B"),
                ("mutex:C", "mutex:D"),
            ]

    @settings(max_examples=300, deadline=None)
    @given(edges=LOCK_EDGES)
    def test_cycle_search_matches_brute_force(self, edges):
        """The cycle search reports exactly the inter-thread elementary
        cycles an exhaustive search over lock orderings finds."""
        assert cycle_predictions(edges) == brute_force_cycles(edges)
        assert cycle_predictions(dict(reversed(list(edges.items())))) == cycle_predictions(edges)


# ----------------------------------------------------------------------
# Executor hooks
# ----------------------------------------------------------------------
class _RecordingSanitizer(Sanitizer):
    name = "recording"

    def __init__(self):
        self.starts: list[tuple[int, int | None]] = []
        self.exits: list[int] = []
        self.events: list = []
        self.finished = 0

    def on_thread_start(self, tid, parent_tid):
        self.starts.append((tid, parent_tid))

    def on_event(self, event):
        self.events.append(event)

    def on_thread_exit(self, tid):
        self.exits.append(tid)

    def finish(self):
        self.finished += 1
        return [
            SanitizerReport(
                sanitizer=self.name,
                kind="probe",
                location="-",
                pair=("-", "-"),
                message=f"saw {len(self.events)} events",
            )
        ]


class TestExecutorHooks:
    def test_hooks_fire_in_trace_order(self, racefree):
        probe = _RecordingSanitizer()
        result = run_program(racefree, RandomWalkPolicy(0), sanitizers=[probe])
        assert probe.events == result.trace.events
        assert probe.finished == 1
        # Main thread starts with no parent; workers carry their spawner.
        assert probe.starts[0] == (0, None)
        assert all(parent == 0 for _, parent in probe.starts[1:])
        assert {tid for tid, _ in probe.starts[1:]} == set(probe.exits) - {0}

    def test_finish_reports_on_result(self, sequential):
        probe = _RecordingSanitizer()
        result = run_program(sequential, RandomWalkPolicy(0), sanitizers=[probe])
        assert len(result.sanitizer_reports) == 1
        assert result.sanitizer_reports[0].message == f"saw {len(result.trace)} events"

    def test_finish_called_even_on_crash(self, racy_counter):
        for seed in range(300):
            probe = _RecordingSanitizer()
            result = run_program(racy_counter, RandomWalkPolicy(seed), sanitizers=[probe])
            if result.crashed:
                assert probe.finished == 1
                assert result.sanitizer_reports
                return
        raise AssertionError("expected a crashing schedule in 300 runs")

    def test_no_sanitizers_is_default(self, sequential):
        result = run_program(sequential, RandomWalkPolicy(0))
        assert result.sanitizer_reports == []


# ----------------------------------------------------------------------
# Individual detectors on known-good / known-bad programs
# ----------------------------------------------------------------------
class TestDetectors:
    def test_race_found_on_racy_counter(self, racy_counter):
        result, stack = run_with(racy_counter, RandomWalkPolicy(1), ("race",))
        assert any(r.sanitizer == "race" for r in result.sanitizer_reports)
        assert all(r.location == "var:x" for r in result.sanitizer_reports)

    def test_race_silent_on_locked_program(self, racefree):
        result, _ = run_with(racefree, RandomWalkPolicy(1), ("race",))
        assert result.sanitizer_reports == []

    def test_lockset_flags_wronglock(self, wronglock):
        # Discipline violations are schedule-insensitive: any interleaving
        # where both threads run implicates var:x.
        result, _ = run_with(wronglock, RandomWalkPolicy(0), ("lockset",))
        assert any(
            r.kind == "lock-discipline" and r.location == "var:x"
            for r in result.sanitizer_reports
        )

    def test_lockorder_predicts_abba(self, abba_deadlock):
        for seed in range(100):
            result = run_program(
                abba_deadlock,
                RandomWalkPolicy(seed),
                sanitizers=build_stack(("lockorder",)),
            )
            if result.crashed:
                continue  # actual deadlock: both locks never fully acquired
            if result.sanitizer_reports:
                report = result.sanitizer_reports[0]
                assert report.kind == "lock-order-cycle"
                assert report.pair[0] == "mutex:A -> mutex:B"
                return
        raise AssertionError("no ABBA prediction in 100 non-deadlocking runs")

    def test_benign_race_after_join_not_reported(self, racefree):
        # Joins transfer happens-before: the main thread's final read is
        # ordered after both workers, so no race — and lockset ownership
        # transfer keeps the post-join read benign too.
        result, _ = run_with(racefree, RandomWalkPolicy(3))
        assert result.sanitizer_reports == []


# ----------------------------------------------------------------------
# Differential property: online == offline
# ----------------------------------------------------------------------
def _policies():
    return [RandomWalkPolicy(11), PctPolicy(depth=3, seed=11)]


@pytest.mark.parametrize("name", sorted(bench.all_programs()))
def test_online_matches_offline(name):
    prog = bench.get(name)
    for policy in _policies():
        stack = build_stack(("race", "lockset", "lockorder"))
        result = run_program(
            prog, policy, max_steps=prog.max_steps or 20000, sanitizers=stack
        )
        race, lockset, lockorder = stack
        trace = result.trace

        offline_races = find_races(trace)
        assert race.report.races == offline_races.races

        offline_lockset = check_lock_discipline(trace)
        assert lockset.report.violations == offline_lockset.violations
        assert lockset.report.candidate_locksets == offline_lockset.candidate_locksets
        assert lockset.report.states == offline_lockset.states

        offline_graph = predict_deadlocks(trace)
        assert lockorder.report.predictions == offline_graph.predictions


def test_finish_is_deterministic():
    prog = bench.get("CS/account")
    runs = []
    for _ in range(2):
        stack = build_stack(("race", "lockset", "lockorder"))
        result = run_program(prog, RandomWalkPolicy(5), sanitizers=stack)
        runs.append(result.sanitizer_reports)
    assert runs[0] == runs[1]


# ----------------------------------------------------------------------
# Fuzzer integration
# ----------------------------------------------------------------------
class TestFuzzerIntegration:
    def test_sanitizer_records_are_bugs(self, racy_counter):
        env = RunEnv(sanitizers=("race",))
        report = RffFuzzer(racy_counter, seed=3, env=env).run(60)
        assert report.sanitizer_records
        assert report.found_bug
        record = report.sanitizer_records[0]
        assert record.report.sanitizer == "race"
        assert record.abstract_schedule is not None
        assert report.first_bug_at is not None
        assert report.first_bug_at <= report.executions

    def test_records_deduped_across_executions(self, racy_counter):
        env = RunEnv(sanitizers=("race", "lockset"))
        report = RffFuzzer(racy_counter, seed=3, env=env).run(80)
        keys = [r.report.dedup_key for r in report.sanitizer_records]
        assert len(keys) == len(set(keys))

    def test_no_sanitizers_no_records(self, racy_counter):
        report = RffFuzzer(racy_counter, seed=3, config=RffConfig()).run(30)
        assert report.sanitizer_records == []

    def test_sanitized_fuzzing_is_deterministic(self, reorder3):
        # Same seed, same sanitizer stack: identical exploration and records.
        env = RunEnv(sanitizers=("race", "lockset"))
        a = RffFuzzer(reorder3, seed=9, env=env).run(50)
        b = RffFuzzer(reorder3, seed=9, env=env).run(50)
        assert a.signature_counts == b.signature_counts
        assert a.sanitizer_records == b.sanitizer_records

    def test_stop_on_first_bug_counts_sanitizer_findings(self, racy_counter):
        env = RunEnv(sanitizers=("race",))
        fuzzer = RffFuzzer(racy_counter, seed=3, env=env)
        report = fuzzer.run(200, stop_on_first_crash=True)
        assert report.found_bug
        first = report.first_bug_at
        assert first is not None
        # The run halted at the finding rather than exhausting the budget.
        assert report.executions < 200 or first == report.executions
