"""RFF's proactive scheduler, pinned bit for bit.

Two contracts:

* **Golden sweep.**  ``tests/golden/rff_sweep_golden.json`` holds one
  digest per program of the RFF tool's results over the 49 bench programs
  plus the ``extras/ticket_lock`` clean control (small budget, fixed
  seed).  ``engine_golden.json`` and ``uniform_sweep_golden.json`` pin the
  baseline policies; this file pins ``RffSchedulerPolicy``.
* **Reference choose.**  :class:`ReferenceRffPolicy` keeps the
  straightforward scheduler: every active tracker is asked about every
  candidate, and every active tracker observes every event.  Over
  hypothesis-drawn abstract schedules on lock-contended programs, the
  shipped policy must pick the same candidate, leave the same RNG state
  and move its trackers through the same states at every step.

Regenerate the golden only after intentionally changing semantics::

    RFF_REGEN_GOLDEN=1 PYTHONPATH=src python -m pytest tests/test_rff_differential.py -q
"""

from __future__ import annotations

import hashlib
import json
import os
from functools import lru_cache
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import bench
from repro.bench.extras import ticket_lock
from repro.core.constraints import AbstractSchedule, Constraint
from repro.core.proactive import Bias, RffSchedulerPolicy, TrackerState, make_tracker
from repro.core.reproduce import RunEnv
from repro.harness.campaign import Campaign, CampaignConfig
from repro.harness.persist import result_to_dict
from repro.harness.tools import RffTool
from repro.schedulers import PosPolicy
from repro.schedulers.base import SchedulerPolicy

GOLDEN_PATH = Path(__file__).resolve().parent / "golden" / "rff_sweep_golden.json"
SWEEP_CONFIG = CampaignConfig(trials=2, budget=40, base_seed=7)


def sweep_programs():
    return [bench.get(name) for name in bench.names()] + [ticket_lock]


def sweep_digests() -> dict[str, str]:
    """One digest per program: its RFF trial results in persist form."""
    result = Campaign(SWEEP_CONFIG).run([RffTool()], sweep_programs())
    return {
        program: hashlib.sha256(
            json.dumps([result_to_dict(r) for r in trials], sort_keys=True).encode()
        ).hexdigest()[:16]
        for (_tool, program), trials in sorted(result.results.items())
    }


def test_rff_sweep_matches_golden():
    current = sweep_digests()
    if os.environ.get("RFF_REGEN_GOLDEN"):
        GOLDEN_PATH.write_text(json.dumps(current, indent=1, sort_keys=True) + "\n")
    golden = json.loads(GOLDEN_PATH.read_text())
    assert len(golden) == 50
    assert set(current) == set(golden), "sweep program set changed; regenerate the golden"
    diverged = sorted(name for name in golden if current[name] != golden[name])
    assert not diverged, f"RFF results diverged from the golden: {diverged}"


# ----------------------------------------------------------------------
# The shipped choose == the per-candidate x per-tracker reference
# ----------------------------------------------------------------------
class ReferenceRffPolicy(RffSchedulerPolicy):
    """The unindexed scheduler: every active tracker judges every candidate
    and observes every event."""

    def begin(self, execution):
        self.pos.begin(execution)
        self.trackers = [make_tracker(c) for c in sorted(self.schedule.constraints, key=str)]

    def choose(self, candidates, execution):
        if len(candidates) == 1:
            only = candidates[0]
            self.pos.score_of(only, execution)
            return only
        active = [t for t in self.trackers if t.state is TrackerState.ACTIVE]
        if not active:
            return self.pos.choose(candidates, execution)
        prioritized, neutral, deprioritized = [], [], []
        for candidate in candidates:
            boost = delay = False
            for tracker in active:
                opinion = tracker.bias(candidate, execution)
                if opinion is Bias.PRIORITIZE:
                    boost = True
                elif opinion is Bias.DEPRIORITIZE:
                    delay = True
            if boost and not delay:
                prioritized.append(candidate)
            elif delay and not boost:
                deprioritized.append(candidate)
            else:
                neutral.append(candidate)
        return self.pos.choose(prioritized or neutral or deprioritized, execution)

    def notify(self, event, execution):
        for tracker in self.trackers:
            if tracker.state is TrackerState.ACTIVE:
                tracker.observe(event, execution)
        self.pos.notify(event, execution)


class Lockstep(SchedulerPolicy):
    """Drive the shipped and the reference policy side by side over one
    execution, checking after every decision that they agree."""

    def __init__(self, schedule: AbstractSchedule, seed: int):
        self.shipped = RffSchedulerPolicy(schedule, seed=seed)
        self.reference = ReferenceRffPolicy(schedule, seed=seed)
        self.decisions = 0

    def _states(self, policy):
        return [tracker.state for tracker in policy.trackers]

    def begin(self, execution):
        self.shipped.begin(execution)
        self.reference.begin(execution)

    def choose(self, candidates, execution):
        want = self.reference.choose(candidates, execution)
        got = self.shipped.choose(candidates, execution)
        assert got is want, f"step {execution.step_index}: chose {got}, reference {want}"
        assert self.shipped.rng.getstate() == self.reference.rng.getstate()
        assert self.shipped.pos.rng.getstate() == self.reference.pos.rng.getstate()
        self.decisions += 1
        return got

    def notify(self, event, execution):
        self.shipped.notify(event, execution)
        self.reference.notify(event, execution)
        assert self._states(self.shipped) == self._states(self.reference)


#: Lock-contended programs: many candidates share a lock's abstract event.
LOCKSTEP_PROGRAMS = ["CS/account", "CS/twostage", "CS/twostage_20", "CS/wronglock", "CS/deadlock01"]


@lru_cache(maxsize=None)
def constraint_pool(name: str) -> tuple[Constraint, ...]:
    """Every abstract rf pair a few POS runs of ``name`` exercise."""
    program = bench.get(name)
    pairs = set()
    for seed in range(4):
        pairs |= RunEnv().runner(program)(PosPolicy(seed)).trace.rf_pairs()
    return tuple(sorted((Constraint(read, write) for write, read in pairs), key=str))


@st.composite
def lockstep_cases(draw):
    name = draw(st.sampled_from(LOCKSTEP_PROGRAMS))
    pool = constraint_pool(name)
    picked = draw(st.lists(st.sampled_from(pool), max_size=6, unique=True))
    polarity = draw(st.lists(st.booleans(), min_size=len(picked), max_size=len(picked)))
    schedule = AbstractSchedule.of(
        *(c if positive else c.negated() for c, positive in zip(picked, polarity))
    )
    memory_model = draw(st.sampled_from(["sc", "sc", "tso"]))
    return name, schedule, draw(st.integers(0, 2**32)), memory_model


@settings(max_examples=60, deadline=None)
@given(lockstep_cases())
def test_choose_matches_reference(case):
    name, schedule, seed, memory_model = case
    policy = Lockstep(schedule, seed)
    result = RunEnv(memory_model=memory_model).runner(bench.get(name))(policy)
    assert result.steps > 0 and policy.decisions > 0
    assert policy.shipped.satisfaction() == policy.reference.satisfaction()


@pytest.mark.parametrize("name", LOCKSTEP_PROGRAMS)
def test_choose_matches_reference_under_every_pair(name):
    """All of a program's positive constraints at once: the most trackers
    per location, on every seed."""
    schedule = AbstractSchedule.of(*constraint_pool(name))
    for seed in range(3):
        policy = Lockstep(schedule, seed)
        RunEnv().runner(bench.get(name))(policy)
        assert policy.decisions > 0
