"""Shared infrastructure for the experiment benches.

One full campaign (every tool x every benchmark program x N trials) is run
once per pytest session and shared by the Figure 4 / Appendix B / RQ-claim
benches.  Scale is controlled by environment variables so the same benches
run at laptop scale by default and at paper scale on demand:

    RFF_BENCH_TRIALS   trials per randomized tool     (default 3;  paper 20)
    RFF_BENCH_BUDGET   schedules per (tool, program)  (default 250; paper ~5 min)

Rendered tables and figures are written to ``results/`` and echoed into the
pytest terminal summary, so ``pytest benchmarks/ --benchmark-only | tee ...``
captures every artifact.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

import pytest

from repro import bench
from repro.harness.campaign import Campaign, CampaignConfig, CampaignResult
from repro.harness.tools import paper_tools

# pytest loads this file as ``conftest`` and the benches import it as
# ``benchmarks.conftest``: one module object keeps one set of claims.
sys.modules.setdefault("benchmarks.conftest", sys.modules[__name__])

TRIALS = int(os.environ.get("RFF_BENCH_TRIALS", "3"))
BUDGET = int(os.environ.get("RFF_BENCH_BUDGET", "250"))

#: Heavy subjects get smaller budgets at laptop scale (documented in
#: DESIGN.md "Scaling note"); remove the overrides for paper-scale runs.
BUDGET_OVERRIDES = {
    "SafeStack": min(BUDGET, 80),
    "RADBench/bug5": min(BUDGET, 120),
}

ROOT = Path(__file__).resolve().parent.parent
RESULTS_DIR = ROOT / "results"

#: Starts the line naming the bench file whose claims follow in claims.txt.
CLAIMS_HEADER = "# "

#: Claim lines accumulated by benches, echoed in the terminal summary.
_SUMMARY_LINES: list[str] = []
#: Bench file (e.g. ``benchmarks/test_figure4.py``) -> the claim lines its
#: tests recorded this session; a file is a key once one of its tests ran.
_CLAIMS: dict[str, list[str]] = {}
_running_file = ""


def record_artifact(name: str, content: str) -> Path:
    """Persist a rendered table/figure under results/ and summarise it."""
    RESULTS_DIR.mkdir(exist_ok=True)
    path = RESULTS_DIR / name
    path.write_text(content + "\n")
    return path


def record_claim(line: str) -> None:
    """Queue one paper-vs-measured claim line for the terminal summary and
    for results/claims.txt (EXPERIMENTS.md source data), under the bench
    file whose test is running."""
    _SUMMARY_LINES.append(line)
    _CLAIMS[_running_file].append(line)


@pytest.fixture(scope="session")
def campaign() -> CampaignResult:
    """The full RQ1 campaign: 6 tools x 49 programs x TRIALS trials."""
    programs = [bench.get(name) for name in bench.names()]
    config = CampaignConfig(
        trials=TRIALS,
        budget=BUDGET,
        base_seed=20240427,
        budget_overrides=dict(BUDGET_OVERRIDES),
    )
    return Campaign(config).run(paper_tools(), programs)


@pytest.hookimpl(tryfirst=True)
def pytest_runtest_call(item):
    global _running_file
    _running_file = item.path.relative_to(ROOT).as_posix()
    _CLAIMS.setdefault(_running_file, [])


def pytest_sessionfinish(session, exitstatus):
    """Rewrite the claims.txt groups of the bench files that ran, keeping
    every other file's group, so a partial bench run drops no claims."""
    if not _CLAIMS:
        return
    path = RESULTS_DIR / "claims.txt"
    groups: dict[str, list[str]] = {}
    current = ""
    for line in path.read_text().splitlines() if path.exists() else ():
        if line.startswith(CLAIMS_HEADER):
            current = line[len(CLAIMS_HEADER):]
            groups[current] = []
        else:
            groups.setdefault(current, []).append(line)
    groups.update(_CLAIMS)
    lines = [
        line
        for bench_file in sorted(groups)
        if groups[bench_file]
        for line in (CLAIMS_HEADER + bench_file, *groups[bench_file])
    ]
    RESULTS_DIR.mkdir(exist_ok=True)
    path.write_text("".join(line + "\n" for line in lines))


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _SUMMARY_LINES:
        return
    terminalreporter.section("paper-vs-measured claims")
    for line in _SUMMARY_LINES:
        terminalreporter.write_line(line)
