"""Property suite for the budget allocator protocol.

The allocator's determinism contract (see ``repro.harness.allocator``) is
what lets serial, parallel, supervised and resumed campaigns share plans:

* **purity** — ``plan`` is a pure function of (cells, history, round,
  seed);
* **conservation** — every round's slices sum to exactly that round's
  share, and with no retirements the slices over all rounds sum to
  exactly the global budget;
* **starvation freedom** — every live cell receives at least the
  (clamped) ``min_cell_budget`` floor;
* **order insensitivity** — neither cell order nor history-dict order can
  leak into plans or estimates.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.harness.allocator import (
    ALLOCATORS,
    CellInfo,
    LaplaceAllocator,
    NoveltyBiasAllocator,
    SliceObservation,
    UniformAllocator,
    make_allocator,
    merge_slices,
    slice_seed,
)
from repro.harness.tools import BugSearchResult

ADAPTIVE = [LaplaceAllocator, NoveltyBiasAllocator]


# ----------------------------------------------------------------------
# Strategies
# ----------------------------------------------------------------------
@st.composite
def cell_lists(draw):
    count = draw(st.integers(min_value=1, max_value=8))
    cells = []
    for index in range(count):
        cells.append(
            CellInfo(
                tool=draw(st.sampled_from(["RFF", "Random", "PCT3"])),
                program=f"prog/{index}",
                trial=draw(st.integers(min_value=0, max_value=3)),
                budget=draw(st.integers(min_value=1, max_value=200)),
                one_shot=draw(st.booleans()),
            )
        )
    # Deduplicate by key: a campaign never has two cells with one identity.
    unique = {c.key: c for c in cells}
    return list(unique.values())


@st.composite
def histories(draw, cells):
    history = {}
    for cell in cells:
        if cell.one_shot or not draw(st.booleans()):
            continue
        observations = []
        for round_index in range(draw(st.integers(min_value=1, max_value=3))):
            allocated = draw(st.integers(min_value=1, max_value=60))
            executions = draw(st.integers(min_value=0, max_value=allocated))
            observations.append(
                SliceObservation(
                    round=round_index,
                    allocated=allocated,
                    executions=executions,
                    found=draw(st.booleans()),
                    error=False,
                    new_signatures=draw(st.integers(min_value=0, max_value=executions)),
                )
            )
        history[cell.key] = observations
    return history


@st.composite
def scenarios(draw):
    cells = draw(cell_lists())
    history = draw(histories(cells))
    allocator = draw(st.sampled_from(ADAPTIVE))(
        rounds=draw(st.integers(min_value=1, max_value=5)),
        min_cell_budget=draw(st.integers(min_value=1, max_value=10)),
    )
    round_index = draw(st.integers(min_value=0, max_value=allocator.rounds - 1))
    seed = draw(st.integers(min_value=0, max_value=2**31))
    return allocator, cells, history, round_index, seed


# ----------------------------------------------------------------------
# Purity
# ----------------------------------------------------------------------
@settings(max_examples=150, deadline=None)
@given(scenarios())
def test_plan_is_pure(scenario):
    allocator, cells, history, round_index, seed = scenario
    first = allocator.plan(cells, history, round_index, seed)
    second = allocator.plan(cells, history, round_index, seed)
    assert first == second
    # A fresh, equal allocator instance plans identically too: no state.
    clone = type(allocator)(rounds=allocator.rounds, min_cell_budget=allocator.min_cell_budget)
    assert clone.plan(cells, history, round_index, seed) == first


@settings(max_examples=60, deadline=None)
@given(scenarios(), st.integers(min_value=0, max_value=2**31))
def test_plan_depends_on_seed_only_through_tiebreaks(scenario, other_seed):
    """Different seeds may permute tie-broken units but never change the
    round total or violate the floor — the seed is jitter, not policy."""
    allocator, cells, history, round_index, seed = scenario
    first = allocator.plan(cells, history, round_index, seed)
    second = allocator.plan(cells, history, round_index, other_seed)
    assert sum(first.values()) == sum(second.values())
    assert set(first) == set(second)


# ----------------------------------------------------------------------
# Conservation
# ----------------------------------------------------------------------
@settings(max_examples=150, deadline=None)
@given(scenarios())
def test_round_conserves_its_share(scenario):
    allocator, cells, history, round_index, seed = scenario
    plan = allocator.plan(cells, history, round_index, seed)
    adaptive = [c for c in cells if not c.one_shot]
    pool = sum(c.budget for c in adaptive)
    share = pool // allocator.rounds + (1 if round_index < pool % allocator.rounds else 0)
    one_shot_total = sum(c.budget for c in cells if c.one_shot) if round_index == 0 else 0
    live = [c for c in adaptive if not any(o.found or o.error for o in history.get(c.key, ()))]
    expected = one_shot_total + (share if live and share > 0 else 0)
    assert sum(plan.values()) == expected


@settings(max_examples=80, deadline=None)
@given(cell_lists(), st.integers(min_value=1, max_value=5), st.integers(min_value=0, max_value=2**31))
@pytest.mark.parametrize("allocator_class", ADAPTIVE)
def test_full_campaign_conserves_global_budget(allocator_class, cells, rounds, seed):
    """With no cell retiring, the slices over all rounds sum to exactly
    the global budget (every cell's nominal budget spent somewhere)."""
    allocator = allocator_class(rounds=rounds)
    history = {}
    total = 0
    for round_index in range(allocator.rounds):
        plan = allocator.plan(cells, history, round_index, seed)
        total += sum(plan.values())
        for key, allocated in plan.items():
            history.setdefault(key, []).append(
                SliceObservation(
                    round=round_index,
                    allocated=allocated,
                    executions=allocated,
                    found=False,
                    error=False,
                    new_signatures=0,
                )
            )
    assert total == sum(c.budget for c in cells)


def test_uniform_allocates_nominal_budgets_in_one_round():
    cells = [
        CellInfo("RFF", "p/a", 0, 50),
        CellInfo("RFF", "p/b", 1, 70),
        CellInfo("GenMC", "p/a", 0, 50, one_shot=True),
    ]
    allocator = UniformAllocator()
    plan = allocator.plan(cells, {}, 0, 1234)
    assert plan == {c.key: c.budget for c in cells}
    assert allocator.plan(cells, {}, 1, 1234) == {}
    assert allocator.identity() is None  # header-invisible: legacy stores resume


# ----------------------------------------------------------------------
# Starvation freedom
# ----------------------------------------------------------------------
@settings(max_examples=150, deadline=None)
@given(scenarios())
def test_every_live_cell_gets_at_least_the_floor(scenario):
    allocator, cells, history, round_index, seed = scenario
    plan = allocator.plan(cells, history, round_index, seed)
    adaptive = [c for c in cells if not c.one_shot]
    live = [c for c in adaptive if not any(o.found or o.error for o in history.get(c.key, ()))]
    pool = sum(c.budget for c in adaptive)
    share = pool // allocator.rounds + (1 if round_index < pool % allocator.rounds else 0)
    if not live or share <= 0:
        return
    if share < len(live):
        # Degenerate: fewer schedules than live cells — the plan still
        # spends every one of them, one per highest-weighted cell.
        assert sum(plan.get(c.key, 0) for c in live) == share
        return
    floor = max(1, min(allocator.min_cell_budget, share // len(live)))
    for cell in live:
        assert plan[cell.key] >= floor


@settings(max_examples=100, deadline=None)
@given(scenarios())
def test_retired_cells_get_nothing(scenario):
    allocator, cells, history, round_index, seed = scenario
    plan = allocator.plan(cells, history, round_index, seed)
    for cell in cells:
        if cell.one_shot:
            continue
        if any(o.found or o.error for o in history.get(cell.key, ())):
            assert cell.key not in plan


# ----------------------------------------------------------------------
# Order insensitivity
# ----------------------------------------------------------------------
@settings(max_examples=100, deadline=None)
@given(scenarios(), st.randoms(use_true_random=False))
def test_plan_and_estimates_ignore_iteration_order(scenario, rng):
    allocator, cells, history, round_index, seed = scenario
    plan = allocator.plan(cells, history, round_index, seed)
    estimates = allocator.estimates(cells, history)
    shuffled_cells = list(cells)
    rng.shuffle(shuffled_cells)
    shuffled_keys = list(history)
    rng.shuffle(shuffled_keys)
    shuffled_history = {key: history[key] for key in shuffled_keys}
    assert allocator.plan(shuffled_cells, shuffled_history, round_index, seed) == plan
    assert allocator.estimates(shuffled_cells, shuffled_history) == estimates


# ----------------------------------------------------------------------
# Seeds, merging, construction helpers
# ----------------------------------------------------------------------
def test_round_zero_slice_seed_matches_legacy_campaign_seed():
    for base_seed in (0, 7, 1234):
        for trial in range(5):
            assert slice_seed(base_seed, trial, 0) == base_seed + 7919 * trial


@given(
    st.integers(min_value=0, max_value=2**31),
    st.integers(min_value=0, max_value=19),
    st.integers(min_value=0, max_value=7),
    st.integers(min_value=0, max_value=7),
)
def test_slice_seeds_never_collide_across_rounds(base_seed, trial, round_a, round_b):
    if round_a != round_b:
        assert slice_seed(base_seed, trial, round_a) != slice_seed(base_seed, trial, round_b)


def _slice(found=False, schedules=None, executions=10, new_signatures=0, error=None):
    return BugSearchResult(
        tool="Random",
        program="p/a",
        trial=0,
        found=found,
        schedules_to_bug=schedules,
        executions=executions,
        error=error,
        new_signatures=new_signatures,
    )


def test_merge_single_slice_is_identity():
    result = _slice(found=True, schedules=3, executions=3)
    assert merge_slices([result]) is result


def test_merge_accumulates_schedules_to_bug_across_slices():
    merged = merge_slices(
        [
            _slice(executions=40, new_signatures=5),
            _slice(found=True, schedules=7, executions=7, new_signatures=2),
        ]
    )
    assert merged.found
    assert merged.schedules_to_bug == 47  # 40 fruitless + 7 in the finding slice
    assert merged.executions == 47
    assert merged.new_signatures == 7


def test_merge_without_a_find_sums_executions():
    merged = merge_slices([_slice(executions=40), _slice(executions=25)])
    assert not merged.found
    assert merged.schedules_to_bug is None
    assert merged.executions == 65


def test_merge_stops_at_first_error_slice():
    merged = merge_slices(
        [_slice(executions=12), _slice(executions=0, error="boom"), _slice(executions=99)]
    )
    assert merged.error == "boom"
    assert merged.executions == 12


def test_make_allocator_knows_all_names():
    for name in ALLOCATORS:
        assert make_allocator(name).name == name
    assert make_allocator("laplace", rounds=7, min_cell_budget=3).rounds == 7
    # Uniform is single-round by definition; the rounds knob does not apply.
    assert make_allocator("uniform", rounds=9).rounds == 1
    with pytest.raises(ValueError):
        make_allocator("bandit")


@pytest.mark.parametrize("allocator_class", [*ADAPTIVE, UniformAllocator])
@pytest.mark.parametrize("knobs", [{"rounds": 0}, {"rounds": -2}, {"min_cell_budget": 0}])
def test_fewer_than_one_round_or_schedule_is_refused(allocator_class, knobs):
    """A zero-round campaign would run no schedule and report every cell
    as not found; both knobs are counts of at least one."""
    with pytest.raises(ValueError, match=next(iter(knobs))):
        allocator_class(**knobs)
