"""Chaos plans: seeded determinism, rate partitioning, exact accounting.

A chaos plan is only useful if it is a *pure function of its seed*: the
differential suite replays campaigns against the same plan and asserts
convergence, which is meaningless if the injection points drift.  The
hypothesis properties pin that purity down over the whole parameter space,
and the accounting tests tie claimed injection state to the exact retry
and backoff arithmetic the pool supervisor performs.
"""

from __future__ import annotations

import json

from hypothesis import given, settings
from hypothesis import strategies as st

import pytest

from repro.harness import faults, pool
from repro.harness.faults import ChaosPlan, cell_key, claim_once, claimed_tokens

KEYS = [
    cell_key(tool, program, trial)
    for tool in ("RFF", "POS", "PCT3", "Random")
    for program in ("CS/account", "Splash2/lu", "SafeStack")
    for trial in range(4)
]

rates = st.floats(min_value=0.0, max_value=0.5, allow_nan=False)
targets = st.dictionaries(st.sampled_from(KEYS), st.sampled_from(faults.WORKER_FAULTS))


def plans(**overrides):
    base = {
        "seed": st.integers(min_value=0, max_value=2**32),
        "kill": rates,
        "hang": rates,
        "skew": rates,
        "torn_write": rates,
        "corrupt": rates,
        "cells": targets,
    }
    base.update(overrides)
    return st.builds(ChaosPlan, **base)


class TestDeterminism:
    @settings(max_examples=50)
    @given(plans())
    def test_same_seed_same_injection_points(self, plan):
        rebuilt = ChaosPlan(**json.loads(json.dumps(plan.__dict__)))
        assert plan.injection_points(KEYS) == rebuilt.injection_points(KEYS)
        assert [plan.store_fault(i) for i in range(50)] == [
            rebuilt.store_fault(i) for i in range(50)
        ]

    @settings(max_examples=50)
    @given(plans())
    def test_env_round_trip(self, plan):
        env = plan.to_env("/tmp/chaos-state")  # to_env never touches the fs
        assert ChaosPlan.from_env(env) == (plan, "/tmp/chaos-state")

    def test_unarmed_without_either_variable(self):
        env = ChaosPlan(seed=1, kill=1.0).to_env("/tmp/chaos-state")
        for name in env:
            assert ChaosPlan.from_env({k: v for k, v in env.items() if k != name}) is None

    @settings(max_examples=25)
    @given(st.integers(min_value=0, max_value=2**32))
    def test_different_rates_never_invent_new_draws(self, seed):
        """Raising a rate can only *grow* the injected set for the kinds whose
        band expanded — the underlying uniform draw per key is fixed."""
        low = ChaosPlan(seed=seed, kill=0.1)
        high = ChaosPlan(seed=seed, kill=0.4)
        low_kills = {k for k, v in low.injection_points(KEYS).items() if v == "kill"}
        high_kills = {k for k, v in high.injection_points(KEYS).items() if v == "kill"}
        assert low_kills <= high_kills


class TestRatePartition:
    def test_zero_rates_inject_nothing(self):
        plan = ChaosPlan(seed=3)
        assert plan.injection_points(KEYS) == {}
        assert all(plan.store_fault(i) is None for i in range(100))

    def test_full_rate_injects_everywhere(self):
        plan = ChaosPlan(seed=3, kill=1.0)
        assert set(plan.injection_points(KEYS).values()) == {"kill"}
        assert len(plan.injection_points(KEYS)) == len(KEYS)
        assert all(ChaosPlan(seed=3, torn_write=1.0).store_fault(i) == "torn_write"
                   for i in range(20))

    @settings(max_examples=50)
    @given(plans())
    def test_bands_partition_one_draw(self, plan):
        """A key draws at most ONE fault, and only from the worker kinds;
        store indices likewise only draw store kinds."""
        for key, kind in plan.injection_points(KEYS).items():
            assert kind in faults.WORKER_FAULTS
            assert kind != "poison" or key in plan.cells  # targeted only
        for index in range(30):
            kind = plan.store_fault(index)
            assert kind is None or kind in faults.STORE_FAULTS

    @settings(max_examples=30)
    @given(st.integers(min_value=0, max_value=2**32), rates, rates)
    def test_mass_is_cumulative(self, seed, kill, hang):
        """kill+hang at rates (a, b) injects exactly where kill alone at
        rate a+b would — the bands tile one uniform draw."""
        combined = ChaosPlan(seed=seed, kill=kill, hang=hang)
        merged = ChaosPlan(seed=seed, kill=kill + hang)
        assert set(combined.injection_points(KEYS)) == set(merged.injection_points(KEYS))


class TestTargetedCells:
    def test_targeted_kind_wins_over_the_draw(self):
        key = cell_key("RFF", "CS/account", 0)
        plan = ChaosPlan(seed=3, kill=1.0, cells={key: "hang"})
        points = plan.injection_points(KEYS)
        assert points[key] == "hang"
        assert set(points.values()) == {"kill", "hang"}
        assert ChaosPlan(seed=3, cells={key: "poison"}).injection_points(KEYS) == {
            key: "poison"
        }

    def test_unknown_kind_is_rejected(self):
        with pytest.raises(ValueError, match="unknown worker fault"):
            ChaosPlan(seed=0, cells={cell_key("RFF", "CS/account", 0): "crash"})


class TestClaimAccounting:
    def test_claim_once_is_exactly_once(self, tmp_path):
        assert claim_once(str(tmp_path), "kill:RFF|CS/account|0")
        assert not claim_once(str(tmp_path), "kill:RFF|CS/account|0")
        assert claim_once(str(tmp_path), "kill:RFF|CS/account|1")
        assert claimed_tokens(str(tmp_path)) == [
            "kill:RFF|CS/account|0",
            "kill:RFF|CS/account|1",
        ]

    def test_store_chaos_unarmed_is_inert(self, monkeypatch):
        monkeypatch.delenv(faults.ENV_PLAN, raising=False)
        monkeypatch.delenv(faults.ENV_PLAN_STATE, raising=False)
        assert faults.store_chaos(0) is None

    def test_store_chaos_fires_each_index_once(self, tmp_path, monkeypatch):
        plan = ChaosPlan(seed=5, corrupt=1.0)
        for key, value in plan.to_env(tmp_path).items():
            monkeypatch.setenv(key, value)
        assert faults.store_chaos(0) == "corrupt"
        assert faults.store_chaos(0) is None  # claimed: a retry writes clean
        assert faults.store_chaos(1) == "corrupt"
        assert claimed_tokens(str(tmp_path)) == ["corrupt:write-0", "corrupt:write-1"]


class TestBackoffArithmetic:
    def test_backoff_is_capped_exponential(self):
        assert (pool.BACKOFF_BASE, pool.BACKOFF_CAP) == (0.1, 5.0)
        assert [pool.backoff_delay(a) for a in range(1, 9)] == [
            0.1,
            0.2,
            0.4,
            0.8,
            1.6,
            3.2,
            5.0,
            5.0,
        ]
