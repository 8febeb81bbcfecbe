"""Bench: the reproduction's extensions beyond the paper's evaluation.

* weak memory (the paper's stated future work): the store-buffer litmus and
  Dekker's algorithm are SC-safe and TSO-broken, and RFF fuzzes TSO
  executions directly;
* race-directed confirmation (the Section 6 suggestion): predicted HB races
  converted into witnessed crashes via targeted abstract schedules;
* coverage estimation: Chao1/Good-Turing richness of the rf-class space
  explored by RFF vs POS.
"""

from __future__ import annotations

from collections import Counter

from repro import bench
from repro.analysis import confirm_races
from repro.bench.extras import extras_programs
from repro.core.fuzzer import RffFuzzer
from repro.core.reproduce import RunEnv
from repro.harness.coverage import estimate_coverage
from repro.runtime import run_program_tso
from repro.schedulers import PosPolicy

from benchmarks.conftest import record_claim


def _extra(name: str):
    return next(p for p in extras_programs() if p.name == name)


def test_tso_exposes_dekker(benchmark):
    prog = _extra("extras/dekker")

    def run():
        return sum(
            run_program_tso(prog, PosPolicy(s), max_steps=prog.max_steps or 2000).crashed
            for s in range(150)
        )

    crashes = benchmark.pedantic(run, rounds=1, iterations=1)
    record_claim(
        f"extension(weak memory): Dekker under TSO — {crashes}/150 schedules violate "
        "mutual exclusion (0/∞ under SC)"
    )
    assert crashes > 0


def test_rff_fuzzes_under_tso(benchmark):
    prog = _extra("extras/peterson")

    def run():
        fuzzer = RffFuzzer(prog, seed=3, env=RunEnv(memory_model="tso"))
        return fuzzer.run(300, stop_on_first_crash=True)

    report = benchmark.pedantic(run, rounds=1, iterations=1)
    record_claim(
        f"extension(weak memory): RFF-TSO on Peterson — bug at schedule {report.first_crash_at}"
    )
    assert report.found_bug


def test_directed_confirmation_rate(benchmark):
    probe_set = ["CS/account", "CS/reorder_10", "CB/aget-bug2", "Splash2/barnes"]

    def run():
        confirmed = tried = 0
        for name in probe_set:
            results = confirm_races(bench.get(name), executions=8)
            tried += len(results)
            confirmed += sum(r.confirmed for r in results)
        return confirmed, tried

    confirmed, tried = benchmark.pedantic(run, rounds=1, iterations=1)
    record_claim(
        f"extension(directed): {confirmed}/{tried} predicted races converted into "
        "witnessed crashes via targeted abstract schedules"
    )
    assert confirmed > 0


def test_coverage_estimates_rff_vs_pos(benchmark):
    prog = bench.get("SafeStack")
    executions = 400

    def run():
        from repro.runtime.executor import Executor

        pos_counts: Counter = Counter()
        for seed in range(executions):
            result = Executor(prog, PosPolicy(seed), max_steps=prog.max_steps or 4000).run()
            pos_counts[result.trace.rf_signature()] += 1
        fuzzer = RffFuzzer(prog, seed=0)
        report = fuzzer.run(executions)
        return estimate_coverage(pos_counts), estimate_coverage(Counter(report.signature_counts))

    pos_estimate, rff_estimate = benchmark.pedantic(run, rounds=1, iterations=1)
    record_claim(
        "extension(coverage): SafeStack rf-class richness — "
        f"POS saw {pos_estimate.observed_classes} (chao1 {pos_estimate.estimated_classes:.0f}), "
        f"RFF saw {rff_estimate.observed_classes} (chao1 {rff_estimate.estimated_classes:.0f}); "
        f"discovery probability POS {pos_estimate.discovery_probability:.2f} vs "
        f"RFF {rff_estimate.discovery_probability:.2f}"
    )
    assert pos_estimate.executions == executions
    assert rff_estimate.executions == executions
