"""Ground-truth oracle contract on the pinned 50-program corpus.

The corpus ``gen:2000 .. gen:2049`` is the one CI's ``gen-smoke`` job
evaluates; these tests pin the three facts the whole ground-truth story
rests on:

* the corpus itself is frozen — same seeds, same kind breakdown, same
  bytes — so the checked-in baseline keeps meaning something;
* **every planted bug is reachable**: the model checker (where the spec
  is small enough) or a fuzzing witness finds the labelled crash, i.e.
  no ground-truth label is vacuous;
* the sanitizer channel's FN/FP rates stay inside the bounds the
  checked-in ``results/groundtruth_baseline.json`` declares.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

from repro.algos.exploration import StatelessExplorer
from repro.core.fuzzer import fuzz
from repro.gen.oracle import aggregate_sanitizers
from repro.gen.synth import corpus
from repro.harness.groundtruth import (
    GroundTruthConfig,
    GroundTruthHarness,
    check_baseline,
    load_baseline,
    tool_factories,
)

CORPUS_SEED = 2000
CORPUS_COUNT = 50
#: sha256 over the concatenated canonical JSON of all 50 programs.  This
#: changes whenever the generator's output changes — which is exactly the
#: point: regenerate it (and re-run ``rff eval-gen``) deliberately, never
#: by accident.
CORPUS_DIGEST = "aebc1872361fcc82bfcf9c12f1a21322ec72dc0ace31b02afeff0178dd81d23e"
BASELINE_PATH = Path(__file__).resolve().parent.parent / "results" / "groundtruth_baseline.json"

#: Escalating fuzz budgets for non-model-checkable programs; the slowest
#: witness in the pinned corpus needs well under the first tier.
FUZZ_TIERS = ((300, 0), (1500, 1), (4000, 2))


@pytest.fixture(scope="module")
def pinned_corpus():
    return corpus(CORPUS_SEED, CORPUS_COUNT)


@pytest.fixture(scope="module")
def baseline():
    return load_baseline(BASELINE_PATH)


class TestPinnedCorpus:
    def test_kind_breakdown_is_frozen(self, pinned_corpus):
        kinds: dict[str, int] = {}
        for generated in pinned_corpus:
            kind = generated.ground_truth.kind
            kinds[kind] = kinds.get(kind, 0) + 1
        assert kinds == {"race": 18, "atomicity": 9, "deadlock": 13, "none": 10}

    def test_corpus_bytes_are_frozen(self, pinned_corpus):
        blob = "\n".join(g.to_json() for g in pinned_corpus).encode()
        assert hashlib.sha256(blob).hexdigest() == CORPUS_DIGEST

    def test_baseline_matches_pinned_corpus(self, baseline):
        assert baseline["corpus"] == {
            "seed": CORPUS_SEED,
            "count": CORPUS_COUNT,
            "gen_config": "",
        }
        assert set(baseline["max_fn_rate"]) == {"race", "lockset", "lockorder"}
        assert set(baseline["min_detection_rate"]) >= {"RFF"}
        assert set(baseline["min_detection_rate"]) <= set(tool_factories())


class TestReachability:
    def test_every_planted_bug_has_a_witness(self, pinned_corpus):
        """No vacuous labels: MC or a fuzzing witness hits every plant."""
        unfound = []
        for generated in pinned_corpus:
            truth = generated.ground_truth
            if truth.kind == "none":
                continue
            if generated.spec.mc_supported:
                report = StatelessExplorer(
                    generated.program,
                    max_executions=2000,
                    rf_subsume=True,
                ).run()
                if report.found_bug:
                    continue
            for budget, seed in FUZZ_TIERS:
                report = fuzz(
                    generated.program,
                    max_executions=budget,
                    seed=seed,
                    stop_on_first_crash=True,
                )
                if report.crashes:
                    break
            else:
                unfound.append(generated.name)
        assert not unfound, f"planted bugs with no witness: {unfound}"

    def test_bug_free_programs_survive_fuzzing(self, pinned_corpus):
        for generated in pinned_corpus:
            if generated.ground_truth.kind != "none":
                continue
            report = fuzz(
                generated.program, max_executions=100, seed=0, stop_on_first_crash=True
            )
            assert not report.crashes, f"{generated.name} crashed without a plant"


class TestSanitizerChannel:
    @pytest.fixture(scope="class")
    def sweep(self, pinned_corpus):
        harness = GroundTruthHarness(
            GroundTruthConfig(seed=CORPUS_SEED, count=CORPUS_COUNT)
        )
        return aggregate_sanitizers(harness.run_sanitizer_sweep(pinned_corpus))

    def test_fn_rates_within_checked_in_bounds(self, sweep, baseline):
        for name, bound in baseline["max_fn_rate"].items():
            assert sweep[name]["fn_rate"] <= bound, (
                f"{name} fn_rate {sweep[name]['fn_rate']:.3f} exceeds "
                f"baseline bound {bound:.3f}"
            )

    def test_fp_rates_within_checked_in_bounds(self, sweep, baseline):
        for name, bound in baseline["max_fp_rate"].items():
            assert sweep[name]["fp_rate"] <= bound

    def test_every_expected_sanitizer_fires_somewhere(self, sweep):
        """Each sanitizer has planted work in the corpus and finds some."""
        for name, cell in sweep.items():
            assert cell["expected_programs"] > 0, f"{name} never expected"
            assert cell["tp"] > 0, f"{name} found nothing it should"


class TestBaselineChecker:
    def _payload(self, fn_rate=0.0, fp_rate=0.0, detected=40, spurious=0):
        cell = {"fn_rate": fn_rate, "fp_rate": fp_rate}
        return {
            "sanitizers": {n: dict(cell) for n in ("race", "lockset", "lockorder")},
            "tools": {
                "RFF": {
                    "planted_total": 40,
                    "detected_total": detected,
                    "spurious_crashes": spurious,
                }
            },
        }

    def test_clean_payload_passes(self, baseline):
        baseline = dict(baseline, min_detection_rate={"RFF": 0.95})
        assert check_baseline(self._payload(), baseline) == []

    def test_fn_regression_is_flagged(self, baseline):
        problems = check_baseline(self._payload(fn_rate=0.5), baseline)
        assert any("fn_rate" in p for p in problems)

    def test_missed_detection_is_flagged(self, baseline):
        baseline = dict(baseline, min_detection_rate={"RFF": 0.95})
        problems = check_baseline(self._payload(detected=20), baseline)
        assert any("detection rate" in p for p in problems)

    def test_spurious_crash_is_always_a_violation(self, baseline):
        problems = check_baseline(self._payload(spurious=2), baseline)
        assert any("spurious" in p for p in problems)

    def test_baseline_file_is_valid_json_with_bounds(self):
        parsed = json.loads(BASELINE_PATH.read_text())
        for section in ("max_fn_rate", "max_fp_rate", "min_detection_rate"):
            assert section in parsed
            assert all(0.0 <= v <= 1.0 for v in parsed[section].values())
