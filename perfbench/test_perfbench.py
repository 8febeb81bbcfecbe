"""Tests of the benchmark's own arithmetic.

    python3 -m pytest perfbench/test_perfbench.py -q
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import child  # noqa: E402
import run  # noqa: E402
from stats import (  # noqa: E402
    failed_share,
    highest_percentile,
    percentile,
    rank,
    supported,
    valid_name,
)
from tracer import Tracer, layer_metrics  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


# -- the percentile rule ------------------------------------------------
def test_nearest_rank_percentile():
    values = list(range(1, 101))  # 1..100
    assert percentile(values, 50) == 50
    assert percentile(values, 90) == 90
    assert percentile(reversed(values), 90) == 90
    assert percentile([7.0], 90) == 7.0
    assert rank(50, 3) == 2
    with pytest.raises(ValueError):
        percentile([], 50)


def test_highest_percentile_needs_ten_samples_beyond_it():
    assert highest_percentile(0) is None
    assert highest_percentile(19) is None  # p50 is rank 10: 9 beyond
    assert highest_percentile(20) == 50.0  # p50 is rank 10: 10 beyond
    assert highest_percentile(99) == 50.0  # p90 is rank 90: 9 beyond
    assert highest_percentile(100) == 90.0  # p90 is rank 90: 10 beyond
    assert highest_percentile(999) == 90.0
    assert highest_percentile(1000) == 99.0  # p99 is rank 990: 10 beyond
    assert highest_percentile(10000) == 99.9
    assert supported(90, 100) and not supported(90, 99)


# -- self time on a synthetic span tree ---------------------------------
class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_time_on_a_synthetic_span_tree():
    # root(1) -> [child_a(2) -> leaf(4)] (3) -> child_b(5) (6)
    # Spans: root 0..21, child_a 1..10 with leaf 3..7, child_b 13..18.
    clock = FakeClock()
    tracer = Tracer(clock=clock)

    def tick(seconds):
        clock.now += seconds

    leaf = tracer.span("L3", "leaf", lambda: tick(4))
    b = tracer.span("L2", "child_b", lambda: tick(5))

    def a_body():
        tick(2)
        leaf()
        tick(3)

    a = tracer.span("L2", "child_a", a_body)

    def root_body():
        tick(1)
        a()
        tick(3)
        b()
        tick(3)

    root = tracer.span("L1", "root", root_body)
    root()
    assert tracer.total_s == {"leaf": 4, "child_a": 9, "child_b": 5, "root": 21}
    # root: 21 - (9 + 5); L2: (9 - 4) + 5; L3: 4.
    assert tracer.self_s == {"L1": 7, "L2": 10, "L3": 4}
    assert tracer.attributed_s() == 21
    assert tracer.calls["leaf"] == 1 and tracer.layer_calls["L2"] == 2


def test_span_survives_exceptions_and_ignores_other_threads():
    import threading

    clock = FakeClock()
    tracer = Tracer(clock=clock)

    def fail():
        clock.now += 2
        raise KeyError("boom")

    inner = tracer.span("inner", "inner", fail)

    def outer_body():
        with pytest.raises(KeyError):
            inner()
        clock.now += 1

    tracer.span("outer", "outer", outer_body)()
    assert tracer.self_s == {"outer": 1, "inner": 2}
    thread = threading.Thread(target=lambda: pytest.raises(KeyError, inner))
    thread.start()
    thread.join(timeout=10)
    assert not thread.is_alive()
    assert tracer.calls["inner"] == 1  # the other thread's call is not a span


# -- failed_share counting ---------------------------------------------
def test_failed_share_counts_each_cell_once():
    attempted = [("RFF", "p", 0), ("RFF", "p", 1), ("POS", "p", 0), ("POS", "q", 0)]
    errored = [("RFF", "p", 0)]
    mismatched = [("RFF", "p", 0), ("POS", "q", 0), ("PCT3", "elsewhere", 0)]
    assert failed_share(attempted, errored, mismatched) == (2, 0.5)
    assert failed_share(attempted, [], []) == (0, 0.0)
    with pytest.raises(ValueError):
        failed_share([], [], [])


def test_cell_clock_sums_slices(monkeypatch):
    now = iter([0.0, 1.0, 1.5, 4.0, 10.0, 10.25])
    monkeypatch.setattr(child.time, "monotonic", lambda: next(now))
    clock = child.CellClock()
    clock.start(("RFF", "p", 0))  # 0.0
    clock.stop(("RFF", "p", 0))  # 1.0
    clock.progress("RFF", "p", 0)  # 1.5: a second slice of the same cell
    clock.progress("POS", "p", 0)  # 4.0 ends it, 10.0 starts the next
    clock.stop_all()  # 10.25
    assert clock.first_dispatch == 0.0
    assert clock.spent == {("RFF", "p", 0): 3.5, ("POS", "p", 0): 0.25}
    assert clock.slice_latencies == [1.0, 2.5, 0.25]


# -- name validation ----------------------------------------------------
@pytest.mark.parametrize(
    "name", ["wall_s", "runtime.executor.self_s", "bench49-serial", "9lives", "a" * 64]
)
def test_valid_names(name):
    assert valid_name(name)


@pytest.mark.parametrize(
    "name", ["", "_hidden", ".dot", "-dash", "has space", "slash/name", "é", "a" * 65, "x\n"]
)
def test_invalid_names(name):
    assert not valid_name(name)


def test_benchmark_json_matches_the_benchmark():
    spec = run.SPEC
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    names = [w["name"] for w in spec["workloads"]] + [
        m["name"] for m in spec["end_to_end"] + spec["per_layer"]
    ]
    assert all(valid_name(name) for name in names)
    assert len(set(names)) == len(names)
    assert all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"])
    # The traced run reports every per-layer metric: the tracer's own plus
    # the run-level ones run.trace() adds.
    run_level = {
        "harness.dispatch.slices",
        "harness.dispatch.retries",
        "harness.dispatch.slice_latency_p50_s",
        "setup.import_s",
        "trace.unattributed_s",
        "trace.overhead_s",
    }
    assert set(layer_metrics(Tracer())) | run_level == set(run.PER_LAYER)
