"""Differential proof that engine optimizations do not change semantics.

The PR-5 hot-path overhaul (dispatch tables, abstract-event interning,
incremental reads-from collection, sanitizer fast paths) is only admissible
if it is *bit-identical* to the engine it replaces: same traces, same
schedules, same reads-from signatures, same sanitizer findings.  This test
locks that in two ways:

1. **Golden recordings** — ``tests/golden/engine_golden.json`` holds digests
   captured from the pre-optimization engine for every bench program under
   RandomWalk, PCT and POS (two seeds each, full sanitizer stack).  Any
   semantic drift in the optimized engine changes a digest and fails the
   comparison with a per-program, per-policy message.
2. **Replay closure** — for each combination the recorded concrete schedule
   is re-executed under :class:`ReplayPolicy` and must reproduce the exact
   trace digest with zero divergence (serial == replay), under the SC
   executor and under :class:`TsoExecutor`, whose schedules also record
   store-buffer flush choices.

Regenerate the goldens (only after intentionally changing semantics) with::

    RFF_REGEN_GOLDEN=1 PYTHONPATH=src python -m pytest tests/test_engine_differential.py -q
"""

from __future__ import annotations

import hashlib
import json
import os
import re
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import bench
from repro.analysis.online import build_stack
from repro.core.events import AbstractEvent, intern_abstract
from repro.runtime.executor import Executor
from repro.runtime.tso import TsoExecutor
from repro.schedulers.pct import PctPolicy
from repro.schedulers.pos import PosPolicy
from repro.schedulers.random_walk import RandomWalkPolicy
from repro.schedulers.replay import ReplayPolicy

GOLDEN_PATH = Path(__file__).resolve().parent / "golden" / "engine_golden.json"

#: Step cap for the differential runs: deterministic truncation is still
#: deterministic, and it keeps the 49-program sweep fast enough for tier-1.
MAX_STEPS = 4000
SEEDS = (0, 1)
STACK = ("race", "lockset", "lockorder")

POLICIES = {
    "RandomWalk": lambda seed: RandomWalkPolicy(seed),
    "PCT": lambda seed: PctPolicy(depth=3, seed=seed),
    "POS": lambda seed: PosPolicy(seed),
}

#: CPython reprs of objects without a custom __repr__ embed memory
#: addresses; scrub them so digests are stable across runs and machines.
_ADDRESS = re.compile(r"0x[0-9a-fA-F]+")


def _stable(value: object) -> str:
    return _ADDRESS.sub("0xX", repr(value))


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _trace_digest(result) -> str:
    lines = [
        f"{e.eid}|{e.tid}|{e.kind}|{e.location}|{e.loc}|{e.rf}|{_stable(e.value)}|{_stable(e.aux)}"
        for e in result.trace.events
    ]
    lines.append(f"outcome={result.trace.outcome}")
    lines.append(f"failure={result.trace.failure}")
    lines.append(f"frames={list(result.failure_frames)}")
    lines.append(f"truncated={result.truncated}")
    return _digest("\n".join(lines))


def _record(program, policy_name: str, seed: int) -> dict:
    """One execution under the full sanitizer stack, summarised as digests."""
    policy = POLICIES[policy_name](seed)
    result = Executor(
        program, policy, max_steps=MAX_STEPS, sanitizers=build_stack(STACK)
    ).run()
    rf_lines = sorted(f"{writer}<-{reader}" for writer, reader in result.trace.rf_pairs())
    san_lines = sorted("|".join(r.dedup_key) for r in result.sanitizer_reports)
    return {
        "steps": result.steps,
        "trace": _trace_digest(result),
        "schedule": _digest(",".join(map(str, result.schedule))),
        "rf": _digest("\n".join(rf_lines)),
        "sanitizers": _digest("\n".join(san_lines)),
    }


def _replay_digest(program, schedule: list[int], executor=Executor) -> tuple[str, int | None]:
    result = executor(program, ReplayPolicy(schedule), max_steps=MAX_STEPS).run()
    return (
        _digest(
            "\n".join(
                f"{e.eid}|{e.tid}|{e.kind}|{e.location}|{e.loc}|{e.rf}" for e in result.trace.events
            )
        ),
        result.diverged,
    )


def _compute_all() -> dict:
    recordings: dict = {}
    for name in bench.names():
        program = bench.get(name)
        per_program: dict = {}
        for policy_name in POLICIES:
            for seed in SEEDS:
                per_program[f"{policy_name}/seed{seed}"] = _record(program, policy_name, seed)
        recordings[name] = per_program
    return recordings


@pytest.mark.skipif(
    not os.environ.get("RFF_REGEN_GOLDEN") and not GOLDEN_PATH.exists(),
    reason="golden recordings missing; run with RFF_REGEN_GOLDEN=1 to create them",
)
def test_engine_bit_identical_to_golden_recordings():
    """The engine reproduces the pre-optimization goldens bit-for-bit."""
    current = _compute_all()
    if os.environ.get("RFF_REGEN_GOLDEN"):
        GOLDEN_PATH.parent.mkdir(exist_ok=True)
        GOLDEN_PATH.write_text(json.dumps(current, indent=1, sort_keys=True) + "\n")
        return
    golden = json.loads(GOLDEN_PATH.read_text())
    assert set(current) == set(golden), "bench program set changed; regenerate goldens"
    for name, per_program in golden.items():
        for combo, expected in per_program.items():
            got = current[name][combo]
            assert got == expected, (
                f"{name} under {combo} diverged from the pre-optimization engine:\n"
                f"  expected {expected}\n  got      {got}"
            )


#: Kinds cover reads, writes, both (rmw), neither (spawn) and arbitrary text;
#: locations/locs exercise the prefixes the analyses branch on plus noise.
_kinds = st.sampled_from(["r", "w", "hw", "rmw", "lock", "unlock", "spawn", "flush", "zz"])
_texts = st.one_of(
    st.sampled_from(["var:x", "heap:obj.f", "mutex:m", "worker:3", ""]),
    st.text(max_size=12),
)


@settings(max_examples=200, deadline=None)
@given(kind=_kinds, location=_texts, loc=_texts)
def test_interned_abstract_events_equal_fresh_ones(kind, location, loc):
    """Interning is invisible: interned instances compare, hash, derive and
    print exactly like freshly constructed AbstractEvents."""
    interned = intern_abstract(kind, location, loc)
    fresh = AbstractEvent(kind, location, loc)
    assert interned == fresh
    assert fresh == interned
    assert hash(interned) == hash(fresh)
    assert str(interned) == str(fresh)
    assert repr(interned) == repr(fresh)
    assert interned.is_read == fresh.is_read
    assert interned.is_write == fresh.is_write
    # Interning makes identity coincide with equality...
    assert intern_abstract(kind, location, loc) is interned
    # ...and set/dict membership is interchangeable between the two.
    assert fresh in {interned}
    assert interned in {fresh}
    # A structurally different abstract event never collides.
    other = AbstractEvent(kind + "'", location, loc)
    assert interned != other


@pytest.mark.parametrize(
    "policy_name, executor",
    [(name, Executor) for name in sorted(POLICIES)]
    + [(name, TsoExecutor) for name in sorted(POLICIES)],
    ids=[*sorted(POLICIES), *(f"{name}-tso" for name in sorted(POLICIES))],
)
def test_replay_reproduces_recorded_schedule(policy_name, executor):
    """serial == replay: re-running the recorded schedule is bit-identical."""
    for name in bench.names():
        program = bench.get(name)
        policy = POLICIES[policy_name](0)
        result = executor(program, policy, max_steps=MAX_STEPS).run()
        original = _digest(
            "\n".join(
                f"{e.eid}|{e.tid}|{e.kind}|{e.location}|{e.loc}|{e.rf}" for e in result.trace.events
            )
        )
        replayed, diverged = _replay_digest(program, result.schedule, executor)
        assert diverged is None, f"{name}: replay diverged at step {diverged}"
        assert replayed == original, f"{name}: replayed trace differs under {policy_name}"
