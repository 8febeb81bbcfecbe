"""Bench: raw engine throughput, with a perf-regression gate.

Not a paper figure — these keep the substrate honest: executor event
throughput and fuzzer schedules/second are the quantities that determine how
far a fixed wall-clock budget goes, the paper's justification for using
timeouts rather than schedule counts (Section 5.1).

Plain ``time.perf_counter`` loops (not pytest-benchmark) so the numbers are
produced on every run, including CI's plain ``pytest`` invocation.  Every
subject (and the calibration loop) is timed ``SAMPLES`` times and the best
rate kept, which suppresses GC/scheduler noise.  Each run writes
``results/BENCH_engine.json`` with:

* raw steps/sec per executor subject and schedules/sec per fuzzer
  subject (``steps_per_sec`` / ``schedules_per_sec``);
* a *normalized* rate — steps/sec divided by a pure-Python calibration
  loop's ops/sec — so numbers from machines of different speeds are
  comparable;
* the speedup over the checked-in pre-PR-5 baseline (the engine before the
  hot-path overhaul), measured via normalized rates.

The regression gate compares normalized rates against the checked-in
``benchmarks/engine_baseline.json`` and fails when any subject regresses
more than ``MAX_REGRESSION`` (20%).  Refresh the gate baseline after an
intentional perf change with::

    RFF_REGEN_PERF_BASELINE=gate PYTHONPATH=src python -m pytest benchmarks/test_engine_perf.py -q

(``RFF_REGEN_PERF_BASELINE=pre_pr`` exists only to document how the frozen
pre-optimization section was captured; do not overwrite it.)
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path

from repro import bench
from repro.core.fuzzer import RffFuzzer
from repro.runtime.executor import Executor
from repro.schedulers.pct import PctPolicy
from repro.schedulers.pos import PosPolicy
from repro.schedulers.random_walk import RandomWalkPolicy

RESULTS_DIR = Path(__file__).resolve().parent.parent / "results"
BASELINE_PATH = Path(__file__).resolve().parent / "engine_baseline.json"

#: Fail the gate when a subject's normalized rate drops below 80% of baseline.
MAX_REGRESSION = 0.20

#: Timed samples per subject (and per calibration); the best is kept.  A
#: min-wall estimator is robust to GC pauses and scheduler hiccups, which
#: otherwise dominate run-to-run variance on short subjects.
SAMPLES = 5

#: (label, program name, policy factory, executions per sample).
EXECUTOR_SUBJECTS = [
    ("executor/account-randomwalk", "CS/account", lambda: RandomWalkPolicy(1), 120),
    ("executor/reorder_100-randomwalk", "CS/reorder_100", lambda: RandomWalkPolicy(1), 20),
    ("executor/reorder_10-pos", "CS/reorder_10", lambda: PosPolicy(1), 60),
    ("executor/safestack-pos", "SafeStack", lambda: PosPolicy(2), 24),
    # Lock-contended: ~50 threads wait on one mutex at most steps.
    ("executor/twostage_50-pct", "CS/twostage_50", lambda: PctPolicy(seed=1), 20),
]

#: (label, program name, schedules per fuzzer run, repetitions).
FUZZER_SUBJECTS = [
    ("fuzzer/reorder_5-rff", "CS/reorder_5", 20, 6),
    # Mutated abstract schedules put constraints on the contended mutex.
    ("fuzzer/twostage_20-rff", "CS/twostage_20", 20, 3),
]


def _calibrate_once(duration: float) -> float:
    """Ops/sec of a fixed pure-Python loop: a machine-speed yardstick.

    The loop mixes dict access, attribute-free arithmetic and method calls —
    roughly the instruction mix of the executor hot path — so normalizing
    steps/sec by it cancels out raw machine speed when comparing against a
    baseline captured elsewhere.
    """
    table = {i: i for i in range(64)}
    acc = 0
    ops = 0
    deadline = time.perf_counter() + duration
    while time.perf_counter() < deadline:
        for i in range(1000):
            acc += table[i & 63]
            table[i & 63] = acc & 1023
        ops += 1000
    return ops / duration


def _calibrate(duration: float = 0.05) -> float:
    return max(_calibrate_once(duration) for _ in range(SAMPLES))


def _sample_executor(label: str, program_name: str, policy_factory, executions: int) -> dict:
    program = bench.get(program_name)
    max_steps = program.max_steps or 4000
    # Warm up generators/caches outside the timed loops.
    Executor(program, policy_factory(), max_steps=max_steps).run()
    best: dict = {}
    for _ in range(SAMPLES):
        steps = 0
        start = time.perf_counter()
        for _ in range(executions):
            steps += Executor(program, policy_factory(), max_steps=max_steps).run().steps
        wall = time.perf_counter() - start
        if not best or steps / wall > best["rate"]:
            best = {"label": label, "unit": "steps", "count": steps, "wall": wall, "rate": steps / wall}
    return best


def _sample_fuzzer(label: str, program_name: str, budget: int, reps: int) -> dict:
    program = bench.get(program_name)
    RffFuzzer(program, seed=3).run(budget)
    best: dict = {}
    for _ in range(SAMPLES):
        schedules = 0
        start = time.perf_counter()
        for seed in range(reps):
            schedules += RffFuzzer(program, seed=seed).run(budget).executions
        wall = time.perf_counter() - start
        if not best or schedules / wall > best["rate"]:
            best = {
                "label": label,
                "unit": "schedules",
                "count": schedules,
                "wall": wall,
                "rate": schedules / wall,
            }
    return best


def _load_baseline() -> dict:
    if BASELINE_PATH.exists():
        return json.loads(BASELINE_PATH.read_text())
    return {}


def test_engine_throughput_and_regression_gate():
    calibration = _calibrate()
    samples = [_sample_executor(*subject) for subject in EXECUTOR_SUBJECTS]
    samples += [_sample_fuzzer(*subject) for subject in FUZZER_SUBJECTS]

    baseline = _load_baseline()
    regen = os.environ.get("RFF_REGEN_PERF_BASELINE")
    if regen:
        section = {
            "calibration_ops_per_sec": round(calibration, 1),
            "subjects": {s["label"]: round(s["rate"], 1) for s in samples},
        }
        baseline[regen] = section
        BASELINE_PATH.write_text(json.dumps(baseline, indent=2, sort_keys=True) + "\n")

    payload: dict = {
        "calibration_ops_per_sec": round(calibration, 1),
        "max_regression": MAX_REGRESSION,
        "subjects": {},
    }
    pre = baseline.get("pre_pr")
    gate = baseline.get("gate")
    regressions = []
    for sample in samples:
        label = sample["label"]
        normalized = sample["rate"] / calibration
        unit = sample["unit"]
        entry = {
            unit: sample["count"],
            "wall_sec": round(sample["wall"], 4),
            f"{unit}_per_sec": round(sample["rate"], 1),
            "normalized": round(normalized, 6),
        }
        if pre and label in pre["subjects"]:
            pre_normalized = pre["subjects"][label] / pre["calibration_ops_per_sec"]
            entry["pre_pr_steps_per_sec"] = pre["subjects"][label]
            entry["speedup_vs_pre_pr"] = round(normalized / pre_normalized, 3)
        if gate and label in gate["subjects"]:
            gate_normalized = gate["subjects"][label] / gate["calibration_ops_per_sec"]
            ratio = normalized / gate_normalized
            entry["vs_gate_baseline"] = round(ratio, 3)
            if ratio < 1.0 - MAX_REGRESSION:
                regressions.append(f"{label}: {ratio:.2f}x of gate baseline")
        payload["subjects"][label] = entry

    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / "BENCH_engine.json").write_text(json.dumps(payload, indent=2) + "\n")

    assert all(s["count"] > 0 for s in samples)
    if not regen:
        assert not regressions, (
            "engine throughput regressed >20% vs benchmarks/engine_baseline.json: "
            + "; ".join(regressions)
            + " (see results/BENCH_engine.json; refresh with RFF_REGEN_PERF_BASELINE=gate "
            "after an intentional change)"
        )
