"""Ground-truth differential evaluation over generated corpora.

Where :mod:`repro.harness.campaign` measures tools against the paper's 49
hand-modeled benchmarks, this harness measures them against *synthesized*
programs whose bugs are planted and therefore known exactly
(:mod:`repro.gen`).  Two channels are scored:

* **crash channel** — every configured tool searches every generated
  program for its planted crash; the result is the familiar
  schedules-to-bug data (cumulative curves, per-kind detection counts),
  but judged against ground truth instead of against "whatever the 49
  programs happen to contain".
* **sanitizer channel** — RFF fuzzes each program with the full online
  sanitizer stack attached and the planted label decides whether each
  report is a true detection or a false positive, and each silence a true
  negative or a false negative.  The aggregated FN/FP rates are the
  numbers the CI baseline (``results/groundtruth_baseline.json``) pins.

Determinism: the corpus is a pure function of ``(seed, count, GenConfig)``;
trial seeds derive exactly as in serial campaigns (``base_seed + 7919 *
trial``); generated programs resolve by *name* through the benchmark
registry, so the parallel engine's workers rebuild byte-identical programs
and serial == parallel holds for the whole report.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

from repro.core.fuzzer import RffFuzzer
from repro.core.reproduce import RunEnv
from repro.gen.oracle import (
    SANITIZER_NAMES,
    aggregate_sanitizers,
    judge_result,
    judge_sanitizers,
)
from repro.gen.synth import GenConfig, GeneratedProgram, corpus
from repro.harness.campaign import CampaignConfig, CampaignResult
from repro.harness.parallel import ParallelCampaign
from repro.harness.telemetry import TelemetrySink
from repro.harness.tools import TOOL_FACTORIES, TestingTool


def tool_factories() -> dict[str, Callable[[], TestingTool]]:
    """Name -> constructor for every tool eval-gen can run."""
    return dict(TOOL_FACTORIES)


@dataclass(frozen=True)
class GroundTruthConfig:
    """One ground-truth evaluation: corpus shape + measurement budgets."""

    #: First corpus seed; programs are ``gen:<seed> .. gen:<seed+count-1>``.
    seed: int = 0
    count: int = 50
    gen_config: GenConfig = field(default_factory=GenConfig)
    #: Crash-channel tools (keys of :func:`tool_factories`).
    tools: tuple[str, ...] = ("RFF", "Random", "PCT3", "POS")
    trials: int = 3
    #: Schedules per (tool, program, trial) in the crash channel.
    budget: int = 400
    base_seed: int = 1234
    #: Schedules of sanitizer-instrumented RFF fuzzing per program.
    sanitizer_budget: int = 80
    sanitizers: tuple[str, ...] = SANITIZER_NAMES

    def corpus(self) -> list[GeneratedProgram]:
        return corpus(self.seed, self.count, self.gen_config)


class GroundTruthHarness:
    """Runs both measurement channels and assembles the JSON report."""

    def __init__(
        self,
        config: GroundTruthConfig | None = None,
        sink: TelemetrySink | None = None,
    ):
        self.config = config or GroundTruthConfig()
        self.sink = sink or TelemetrySink()

    # -- corpus ---------------------------------------------------------
    def corpus(self) -> list[GeneratedProgram]:
        return self.config.corpus()

    def _emit_corpus(self, programs: list[GeneratedProgram]) -> dict[str, int]:
        kinds: dict[str, int] = {}
        for generated in programs:
            kind = generated.ground_truth.kind
            kinds[kind] = kinds.get(kind, 0) + 1
        self.sink.emit(
            "gen_corpus",
            seed=self.config.seed,
            count=self.config.count,
            config=self.config.gen_config.to_token(),
            kinds=kinds,
        )
        return kinds

    # -- crash channel --------------------------------------------------
    def run_campaign(self, processes: int | None = 0) -> CampaignResult:
        """Crash-channel search over the corpus, with this harness's sink.

        The campaign engine gets the ``gen:`` *names*: ``processes=0``
        (default) runs every slice in-process, ``N`` in ``N`` worker
        processes that re-synthesize each program from its name — the
        results are bit-identical either way.
        """
        names = [generated.name for generated in self.corpus()]
        campaign_config = CampaignConfig(
            trials=self.config.trials,
            budget=self.config.budget,
            base_seed=self.config.base_seed,
        )
        engine = ParallelCampaign(campaign_config, processes=processes, telemetry=self.sink)
        return engine.run(list(self.config.tools), names)

    # -- sanitizer channel ----------------------------------------------
    def run_sanitizer_sweep(self, programs: list[GeneratedProgram]) -> list:
        """Fuzz each program with the sanitizer stack; judge every verdict."""
        judgements = []
        env = RunEnv(sanitizers=tuple(self.config.sanitizers))
        for generated in programs:
            fuzzer = RffFuzzer(generated.program, seed=self.config.base_seed, env=env)
            report = fuzzer.run(self.config.sanitizer_budget, stop_on_first_crash=False)
            reports = [record.report for record in report.sanitizer_records]
            judgements.extend(
                judge_sanitizers(
                    generated.ground_truth,
                    reports,
                    program=generated.name,
                    sanitizers=self.config.sanitizers,
                )
            )
        return judgements

    # -- full evaluation ------------------------------------------------
    def evaluate(self, processes: int | None = 0) -> dict[str, Any]:
        """Both channels end to end; returns the BENCH_groundtruth payload."""
        programs = self.corpus()
        kinds = self._emit_corpus(programs)
        truths = {generated.name: generated.ground_truth for generated in programs}

        campaign = self.run_campaign(processes=processes)
        tool_sections: dict[str, Any] = {}
        for tool in self.config.tools:
            detected: dict[str, int] = {}
            planted: dict[str, int] = {}
            spurious = 0
            hits: list[int] = []
            for generated in programs:
                truth = truths[generated.name]
                trials = campaign.trials(tool, generated.name)
                verdicts = [judge_result(truth, result) for result in trials]
                if truth.kind != "none":
                    planted[truth.kind] = planted.get(truth.kind, 0) + 1
                    if any(v["verdict"] == "detected" for v in verdicts):
                        detected[truth.kind] = detected.get(truth.kind, 0) + 1
                spurious += sum(1 for v in verdicts if v["verdict"] == "spurious")
                hits.extend(
                    v["schedules_to_bug"]
                    for v in verdicts
                    if v["verdict"] == "detected" and v["schedules_to_bug"] is not None
                )
            tool_sections[tool] = {
                "planted": planted,
                "detected": detected,
                "detected_total": sum(detected.values()),
                "planted_total": sum(planted.values()),
                "spurious_crashes": spurious,
                "mean_schedules_to_bug": (sum(hits) / len(hits)) if hits else None,
                "cumulative_curve": campaign.cumulative_curve(tool),
            }

        judgements = self.run_sanitizer_sweep(programs)
        sanitizer_summary = aggregate_sanitizers(judgements)

        payload = {
            "schema": 1,
            "config": {
                "seed": self.config.seed,
                "count": self.config.count,
                "gen_config": self.config.gen_config.to_token(),
                "tools": list(self.config.tools),
                "trials": self.config.trials,
                "budget": self.config.budget,
                "base_seed": self.config.base_seed,
                "sanitizer_budget": self.config.sanitizer_budget,
                "sanitizers": list(self.config.sanitizers),
            },
            "corpus": {
                "kinds": kinds,
                "programs": {
                    generated.name: generated.ground_truth.to_dict()
                    for generated in programs
                },
            },
            "tools": tool_sections,
            "sanitizers": sanitizer_summary,
        }
        self.sink.emit(
            "gen_eval_end",
            tools=list(self.config.tools),
            programs=len(programs),
            trials=self.config.trials,
            budget=self.config.budget,
            detected={name: section["detected_total"] for name, section in tool_sections.items()},
            fn_rates={name: cell["fn_rate"] for name, cell in sanitizer_summary.items()},
        )
        return payload


# ----------------------------------------------------------------------
# Baseline regression checking (CI gen-smoke)
# ----------------------------------------------------------------------
def check_baseline(payload: dict[str, Any], baseline: dict[str, Any]) -> list[str]:
    """Compare a report against the checked-in baseline; returns violations.

    The baseline pins *bounds*, not exact numbers, so hardware and
    parallelism never flake CI: per-sanitizer maximum FN/FP rates and a
    per-tool minimum detection fraction.  An empty list means no
    regression.
    """
    problems: list[str] = []
    for name, bound in baseline.get("max_fn_rate", {}).items():
        cell = payload["sanitizers"].get(name)
        if cell is None:
            problems.append(f"sanitizer {name!r} missing from report")
        elif cell["fn_rate"] > bound:
            problems.append(
                f"sanitizer {name!r} fn_rate {cell['fn_rate']:.3f} > baseline {bound:.3f}"
            )
    for name, bound in baseline.get("max_fp_rate", {}).items():
        cell = payload["sanitizers"].get(name)
        if cell is not None and cell["fp_rate"] > bound:
            problems.append(
                f"sanitizer {name!r} fp_rate {cell['fp_rate']:.3f} > baseline {bound:.3f}"
            )
    for tool, bound in baseline.get("min_detection_rate", {}).items():
        section = payload["tools"].get(tool)
        if section is None:
            problems.append(f"tool {tool!r} missing from report")
            continue
        total = section["planted_total"]
        rate = (section["detected_total"] / total) if total else 1.0
        if rate < bound:
            problems.append(
                f"tool {tool!r} detection rate {rate:.3f} < baseline {bound:.3f}"
            )
    for section in payload["tools"].values():
        if section["spurious_crashes"]:
            problems.append(
                f"{section['spurious_crashes']} spurious crash(es) on bug-free programs"
            )
            break
    return problems


def load_baseline(path: str | Path) -> dict[str, Any]:
    return json.loads(Path(path).read_text())


def write_report(payload: dict[str, Any], path: str | Path) -> Path:
    """Write the BENCH_groundtruth.json artifact (stable key order)."""
    target = Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return target
