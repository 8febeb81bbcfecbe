"""Output oracles: judge a campaign's cells against what the programs are.

The oracles run in the benchmark process, after the campaign process has
exited, and read only the reported cells plus each program's own label:
``bug_kinds`` for the modeled and ``py:`` programs, the planted
``GroundTruth`` (re-synthesized here) for ``gen:`` programs.  Each oracle
returns ``{cell key: reason}`` for the cells that fail it.
"""

from __future__ import annotations

from typing import Any

Key = tuple[str, str, int]


def check(family: str, cells: list[dict[str, Any]]) -> dict[Key, str]:
    if family == "gen50":
        return _gen(cells)
    failures = _bug_kinds(cells)
    if family == "py13":
        failures.update(_planted_found(cells))
    return failures


def _bug_kinds(cells: list[dict[str, Any]]) -> dict[Key, str]:
    """Every found outcome is one of the program's ``bug_kinds``; a program
    with no bug kinds (a control) is never found."""
    from workloads import get_program

    kinds: dict[str, frozenset[str]] = {}
    failures: dict[Key, str] = {}
    for cell in cells:
        tool, program, trial = cell["key"]
        if program not in kinds:
            kinds[program] = frozenset(get_program(program).bug_kinds)
        if cell["found"] and cell["outcome"] not in kinds[program]:
            failures[(tool, program, trial)] = (
                f"outcome {cell['outcome']!r} not in bug_kinds {sorted(kinds[program])}"
            )
    return failures


def _planted_found(cells: list[dict[str, Any]]) -> dict[Key, str]:
    """Every program with a planted bug is found by at least one cell."""
    from workloads import get_program

    found: dict[str, bool] = {}
    for cell in cells:
        program = cell["key"][1]
        found[program] = found.get(program, False) or cell["found"]
    failures: dict[Key, str] = {}
    for cell in cells:
        tool, program, trial = cell["key"]
        if get_program(program).bug_kinds and not found[program]:
            failures[(tool, program, trial)] = "planted bug found by no tool"
    return failures


def _gen(cells: list[dict[str, Any]]) -> dict[Key, str]:
    """``judge_result`` on the crash channel, ``judge_sanitizers`` on the
    sanitizer channel, and a STABLE replay verdict for every found bug."""
    from types import SimpleNamespace

    from repro.gen.oracle import judge_result, judge_sanitizers
    from repro.gen.synth import from_name

    failures: dict[Key, str] = {}
    for cell in cells:
        tool, program, trial = cell["key"]
        key = (tool, program, trial)
        truth = from_name(program).ground_truth
        outcome = cell["outcome"]
        if cell["found"] and outcome.startswith("sanitizer:"):
            if outcome.partition(":")[2] not in truth.sanitizers:
                failures[key] = f"{outcome} on a program labelled {truth.kind}"
        elif cell["found"]:
            judged = judge_result(truth, SimpleNamespace(found=True, outcome=outcome))
            if not judged["outcome_match"]:
                failures[key] = (
                    f"crash {outcome!r} judged {judged['verdict']}, "
                    f"planted {truth.crash_outcome!r}"
                )
        false_alarms = [
            j.sanitizer
            for j in judge_sanitizers(truth, [{"sanitizer": s} for s in cell["sanitizers"]])
            if j.verdict == "fp"
        ]
        if false_alarms:
            failures[key] = f"sanitizer false positive: {', '.join(false_alarms)}"
        if cell["found"] and cell["replay_verdict"] != "STABLE":
            failures[key] = f"replay verdict {cell['replay_verdict']!r}, expected STABLE"
    return failures
