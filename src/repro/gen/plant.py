"""Bug-planting transforms over generated :class:`ProgramSpec` s.

Each transform perturbs exactly one site of a crash-free base spec and
returns the mutated spec together with machine-readable
:class:`GroundTruth` — the planted label that the differential oracle
(:mod:`repro.gen.oracle`) later compares tool results and sanitizer
reports against.

The three planted kinds, their observable crash and the online sanitizers
expected to flag them:

Every transform *prepends* its planted sections at position 0 of the
involved thread bodies — before any condvar or barrier op, so nothing in
the program's synchronization skeleton can order the two sections and the
bug is reachable under every scheduler (a mid-body plant could end up
barrier-ordered against every partner section, making the "planted" bug
statically impossible).  Run-to-completion of the partner thread means the
counter plants need exactly one preemption inside the window.

``race``
    Prepend an *unlocked* counter update window (``ctr_read``, ``window``
    padding ops, ``ctr_write``) to the victim thread and a properly locked
    partner update section to a second thread.  One preemption inside the
    window loses an update and the main thread's final counter assertion
    fails.  Crash: ``assertion``; expected sanitizers: ``race``
    (FastTrack) and ``lockset`` (Eraser).  Minimal depth 1.

``atomicity``
    Same shape, but the victim's read and write each hold the mutex — the
    atomicity of the read-modify-write is what breaks, not the locking
    discipline.  Every access is locked, so no sanitizer fires by design:
    the planted bug is *invisible* to the online sanitizers and measures
    their false-negative blind spot.  Crash: ``assertion``; minimal
    depth 1 (preempt in the unlocked gap; the partner runs to completion).

``deadlock``
    Prepend ABBA sections over two fresh mutexes to two thread bodies
    (lock-order inversion).  Crash: ``deadlock``; expected sanitizer:
    ``lockorder`` (the inverted order is visible in completed runs too).
    Minimal depth 2 — each thread must be preempted inside its window.

``none`` keeps the base spec: the corpus share with no planted bug is what
false-positive rates are measured on.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from typing import Any

from repro.gen.synth import (
    BUG_KINDS,
    OpSpec,
    ProgramSpec,
    ThreadSpec,
    compute_budget,
)

#: GroundTruth.kind -> (crash outcome, expected sanitizers, minimal depth).
_KIND_TABLE: dict[str, tuple[str, tuple[str, ...], int]] = {
    "race": ("assertion", ("race", "lockset"), 1),
    "atomicity": ("assertion", (), 1),
    "deadlock": ("deadlock", ("lockorder",), 2),
    "none": ("", (), 0),
}


@dataclass(frozen=True)
class GroundTruth:
    """Machine-readable label of the planted bug.

    ``threads`` are the involved tids (spec thread ``i`` runs as tid
    ``i + 1``; the asserting main thread is tid 0 and never listed).
    ``objects`` name the involved shared objects (``var:``/``mutex:``
    qualified); ``ops`` are abstract ``T<tid>:<op>(<object>)`` descriptors
    of the planted window.  ``min_depth`` is the minimal number of
    scheduler preemptions needed to expose the bug; ``window`` the number
    of padding ops widening the vulnerable window (the difficulty knob).
    """

    kind: str
    crash_outcome: str
    sanitizers: tuple[str, ...]
    threads: tuple[int, ...]
    objects: tuple[str, ...]
    ops: tuple[str, ...]
    min_depth: int
    window: int

    def to_dict(self) -> dict[str, Any]:
        return {
            "kind": self.kind,
            "crash_outcome": self.crash_outcome,
            "sanitizers": list(self.sanitizers),
            "threads": list(self.threads),
            "objects": list(self.objects),
            "ops": list(self.ops),
            "min_depth": self.min_depth,
            "window": self.window,
        }


def plant_bug(
    spec: ProgramSpec, kind: str, rng: random.Random, window: int = 0
) -> tuple[ProgramSpec, GroundTruth]:
    """Inject ``kind`` into ``spec``; returns the mutated spec + label."""
    if kind not in BUG_KINDS:
        raise ValueError(f"unknown bug kind {kind!r}; expected one of {BUG_KINDS}")
    if kind == "none":
        truth = GroundTruth(
            kind="none",
            crash_outcome="",
            sanitizers=(),
            threads=(),
            objects=(),
            ops=(),
            min_depth=0,
            window=0,
        )
        return spec, truth
    planters = {"race": _plant_race, "atomicity": _plant_atomicity, "deadlock": _plant_deadlock}
    spec, truth = planters[kind](spec, rng, window)
    return replace(spec, step_budget=compute_budget(spec)), truth


# ----------------------------------------------------------------------
# Counter-section surgery (race + atomicity)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class _Section:
    """A counter-update section located in a thread body."""

    thread_index: int
    start: int  # index of the lock op
    end: int  # index of the unlock op (inclusive)
    increment: int


def find_counter_sections(spec: ProgramSpec, var: str) -> list[_Section]:
    """Locate every ``[lock m, ctr_read v, pads.., ctr_write v, unlock m]``
    section updating counter ``var``.  Public so the property suite can
    cross-check labels against actual spec structure."""
    counter = next(c for c in spec.counters if c.var == var)
    sections: list[_Section] = []
    for thread_index, thread in enumerate(spec.threads):
        ops = thread.ops
        for i, op in enumerate(ops):
            if op.kind != "ctr_read" or op.target != var:
                continue
            if i == 0 or ops[i - 1].kind != "lock" or ops[i - 1].target != counter.mutex:
                continue
            j = i + 1
            while j < len(ops) and not (ops[j].kind == "ctr_write" and ops[j].target == var):
                j += 1
            if j >= len(ops):
                continue
            k = j + 1
            if k < len(ops) and ops[k].kind == "unlock" and ops[k].target == counter.mutex:
                sections.append(
                    _Section(thread_index=thread_index, start=i - 1, end=k, increment=ops[j].value)
                )
    return sections


def _pads(rng: random.Random, tid: int, count: int) -> list[OpSpec]:
    ops = []
    for _ in range(count):
        if rng.random() < 0.5:
            ops.append(OpSpec("read", f"p{tid}"))
        else:
            ops.append(OpSpec("write", f"p{tid}", value=rng.randint(0, 9)))
    return ops


def _prepend(spec: ProgramSpec, thread_index: int, new_ops: list[OpSpec]) -> ProgramSpec:
    threads = list(spec.threads)
    threads[thread_index] = ThreadSpec(ops=tuple(new_ops) + threads[thread_index].ops)
    return replace(spec, threads=tuple(threads))


def _bump_expected(spec: ProgramSpec, var: str, delta: int) -> ProgramSpec:
    counters = tuple(
        replace(c, expected=c.expected + delta) if c.var == var else c
        for c in spec.counters
    )
    return replace(spec, counters=counters)


def _plant_counter_pair(
    spec: ProgramSpec, rng: random.Random, window: int, kind: str
) -> tuple[ProgramSpec, GroundTruth]:
    """Shared body of the race/atomicity plants: a vulnerable update window
    on a victim thread + a locked partner update, both at body position 0
    (the co-reachability argument in the module docstring)."""
    counter = rng.choice(spec.counters)
    var, mutex = counter.var, counter.mutex
    victim_index, partner_index = rng.sample(range(len(spec.threads)), 2)
    victim_tid, partner_tid = victim_index + 1, partner_index + 1
    victim_inc, partner_inc = rng.randint(1, 5), rng.randint(1, 5)
    pads = _pads(rng, victim_tid, window)
    if kind == "race":
        victim_ops = [
            OpSpec("ctr_read", var),
            *pads,
            OpSpec("ctr_write", var, value=victim_inc),
        ]
        involved = (f"T{victim_tid}:r(var:{var})", f"T{victim_tid}:w(var:{var})")
    else:
        victim_ops = [
            OpSpec("lock", mutex),
            OpSpec("ctr_read", var),
            OpSpec("unlock", mutex),
            *pads,
            OpSpec("lock", mutex),
            OpSpec("ctr_write", var, value=victim_inc),
            OpSpec("unlock", mutex),
        ]
        involved = (
            f"T{victim_tid}:lock(mutex:{mutex})",
            f"T{victim_tid}:r(var:{var})",
            f"T{victim_tid}:unlock(mutex:{mutex})",
            f"T{victim_tid}:lock(mutex:{mutex})",
            f"T{victim_tid}:w(var:{var})",
            f"T{victim_tid}:unlock(mutex:{mutex})",
        )
    partner_ops = [
        OpSpec("lock", mutex),
        OpSpec("ctr_read", var),
        OpSpec("ctr_write", var, value=partner_inc),
        OpSpec("unlock", mutex),
    ]
    mutated = _prepend(spec, victim_index, victim_ops)
    mutated = _prepend(mutated, partner_index, partner_ops)
    mutated = _bump_expected(mutated, var, victim_inc + partner_inc)
    crash, sanitizers, depth = _KIND_TABLE[kind]
    truth = GroundTruth(
        kind=kind,
        crash_outcome=crash,
        sanitizers=sanitizers,
        threads=(victim_tid, partner_tid),
        objects=(f"var:{var}", f"mutex:{mutex}"),
        ops=involved,
        min_depth=depth,
        window=window,
    )
    return mutated, truth


def _plant_race(
    spec: ProgramSpec, rng: random.Random, window: int
) -> tuple[ProgramSpec, GroundTruth]:
    return _plant_counter_pair(spec, rng, window, "race")


def _plant_atomicity(
    spec: ProgramSpec, rng: random.Random, window: int
) -> tuple[ProgramSpec, GroundTruth]:
    return _plant_counter_pair(spec, rng, window, "atomicity")


# ----------------------------------------------------------------------
# Deadlock (lock-order inversion)
# ----------------------------------------------------------------------
def _plant_deadlock(
    spec: ProgramSpec, rng: random.Random, window: int
) -> tuple[ProgramSpec, GroundTruth]:
    first_index, second_index = sorted(rng.sample(range(len(spec.threads)), 2))
    mutex_a, mutex_b = "dlA", "dlB"
    tid_a, tid_b = first_index + 1, second_index + 1
    section_a = [
        OpSpec("lock", mutex_a),
        *_pads(rng, tid_a, window),
        OpSpec("lock", mutex_b),
        OpSpec("unlock", mutex_b),
        OpSpec("unlock", mutex_a),
    ]
    section_b = [
        OpSpec("lock", mutex_b),
        *_pads(rng, tid_b, window),
        OpSpec("lock", mutex_a),
        OpSpec("unlock", mutex_a),
        OpSpec("unlock", mutex_b),
    ]
    threads = list(spec.threads)
    threads[first_index] = ThreadSpec(ops=tuple(section_a) + threads[first_index].ops)
    threads[second_index] = ThreadSpec(ops=tuple(section_b) + threads[second_index].ops)
    mutated = replace(
        spec, threads=tuple(threads), mutexes=spec.mutexes + (mutex_a, mutex_b)
    )
    crash, sanitizers, depth = _KIND_TABLE["deadlock"]
    truth = GroundTruth(
        kind="deadlock",
        crash_outcome=crash,
        sanitizers=sanitizers,
        threads=(tid_a, tid_b),
        objects=(f"mutex:{mutex_a}", f"mutex:{mutex_b}"),
        ops=(
            f"T{tid_a}:lock(mutex:{mutex_a})",
            f"T{tid_a}:lock(mutex:{mutex_b})",
            f"T{tid_b}:lock(mutex:{mutex_b})",
            f"T{tid_b}:lock(mutex:{mutex_a})",
        ),
        min_depth=depth,
        window=window,
    )
    return mutated, truth


# ----------------------------------------------------------------------
# Consistency checking
# ----------------------------------------------------------------------
def validate(spec: ProgramSpec, truth: GroundTruth) -> None:
    """Raise ``AssertionError`` unless the label matches the spec structure.

    This is the internal-consistency oracle pinned by the property suite:
    every claim the ground truth makes (kind table, involved threads,
    involved objects, the actual shape of the planted site) is re-derived
    from the spec and compared.
    """
    if truth.kind not in BUG_KINDS:
        raise AssertionError(f"unknown ground-truth kind {truth.kind!r}")
    crash, sanitizers, depth = _KIND_TABLE[truth.kind]
    if truth.crash_outcome != crash:
        raise AssertionError(
            f"{truth.kind}: crash_outcome {truth.crash_outcome!r} != {crash!r}"
        )
    if truth.sanitizers != sanitizers:
        raise AssertionError(f"{truth.kind}: sanitizers {truth.sanitizers} != {sanitizers}")
    if truth.kind != "none" and truth.min_depth != depth:
        raise AssertionError(f"{truth.kind}: min_depth {truth.min_depth} != {depth}")
    if truth.window < 0:
        raise AssertionError("window must be >= 0")
    n_threads = len(spec.threads)
    if any(not (1 <= tid <= n_threads) for tid in truth.threads):
        raise AssertionError(f"ground-truth tids {truth.threads} out of range 1..{n_threads}")
    known = {f"var:{v.name}" for v in spec.vars} | {f"mutex:{m}" for m in spec.mutexes}
    for obj in truth.objects:
        if obj not in known:
            raise AssertionError(f"ground-truth object {obj!r} not in spec")

    if truth.kind == "none":
        if truth.threads or truth.objects or truth.ops:
            raise AssertionError("kind 'none' must carry no threads/objects/ops")
        _check_clean_counters(spec)
    elif truth.kind in ("race", "atomicity"):
        _check_counter_plant(spec, truth)
    elif truth.kind == "deadlock":
        _check_deadlock_plant(spec, truth)


def _sum_increments(spec: ProgramSpec, var: str) -> int:
    return sum(
        op.value for thread in spec.threads for op in thread.ops
        if op.kind == "ctr_write" and op.target == var
    )


def _check_expected_total(spec: ProgramSpec, var: str, expected: int) -> None:
    init = next(v.init for v in spec.vars if v.name == var)
    total = init + _sum_increments(spec, var)
    if total != expected:
        raise AssertionError(
            f"counter {var}: increments sum to {total}, expected {expected}"
        )


def _check_clean_counters(spec: ProgramSpec) -> None:
    for counter in spec.counters:
        _check_expected_total(spec, counter.var, counter.expected)
        for index, thread in enumerate(spec.threads):
            if _find_unguarded_pair(thread.ops, counter.var, counter.mutex) is not None:
                raise AssertionError(
                    f"bug-free spec has an unguarded update of {counter.var!r} "
                    f"in T{index + 1}"
                )


def _check_counter_plant(spec: ProgramSpec, truth: GroundTruth) -> None:
    victim_tid = truth.threads[0]
    var = truth.objects[0].removeprefix("var:")
    mutex = truth.objects[1].removeprefix("mutex:")
    if not any(c.var == var and c.mutex == mutex for c in spec.counters):
        raise AssertionError(f"{truth.kind}: {var!r}/{mutex!r} is not a spec counter")
    ops = spec.threads[victim_tid - 1].ops
    if truth.kind == "race":
        # The victim must have an unguarded ctr_read/ctr_write pair.
        site = _find_unguarded_pair(ops, var, mutex)
        if site is None:
            raise AssertionError(f"race: no unguarded update of {var!r} in T{victim_tid}")
        gap = site[1] - site[0] - 1
    else:
        site = _find_split_pair(ops, var, mutex)
        if site is None:
            raise AssertionError(
                f"atomicity: no split locked update of {var!r} in T{victim_tid}"
            )
        gap = site[1] - site[0] - 3  # exclude the unlock/lock bracketing the gap
    if gap != truth.window:
        raise AssertionError(f"{truth.kind}: window {truth.window} != actual gap {gap}")
    _check_expected_total(spec, var, next(c.expected for c in spec.counters if c.var == var))
    # The partner thread's locked update section must sit at body position 0
    # (the co-reachability guarantee — see module docstring).
    partner_sections = [
        s
        for s in find_counter_sections(spec, var)
        if s.thread_index + 1 == truth.threads[1] and s.start == 0
    ]
    if not partner_sections:
        raise AssertionError(
            f"{truth.kind}: no locked partner section at body start for {var!r}"
        )


def _find_unguarded_pair(ops, var: str, mutex: str):
    for i, op in enumerate(ops):
        if op.kind != "ctr_read" or op.target != var:
            continue
        if i > 0 and ops[i - 1].kind == "lock" and ops[i - 1].target == mutex:
            continue  # still guarded
        for j in range(i + 1, len(ops)):
            if ops[j].kind == "ctr_write" and ops[j].target == var:
                return (i, j)
            if ops[j].kind in ("lock", "unlock"):
                break
    return None


def _find_split_pair(ops, var: str, mutex: str):
    for i, op in enumerate(ops):
        if op.kind != "ctr_read" or op.target != var:
            continue
        ok = (
            i > 0
            and ops[i - 1].kind == "lock"
            and ops[i - 1].target == mutex
            and i + 1 < len(ops)
            and ops[i + 1].kind == "unlock"
            and ops[i + 1].target == mutex
        )
        if not ok:
            continue
        for j in range(i + 2, len(ops)):
            if ops[j].kind == "ctr_write" and ops[j].target == var:
                bracketed = (
                    ops[j - 1].kind == "lock"
                    and ops[j - 1].target == mutex
                    and j + 1 < len(ops)
                    and ops[j + 1].kind == "unlock"
                    and ops[j + 1].target == mutex
                )
                if bracketed:
                    return (i, j)
                break
    return None


def _check_deadlock_plant(spec: ProgramSpec, truth: GroundTruth) -> None:
    mutex_a = truth.objects[0].removeprefix("mutex:")
    mutex_b = truth.objects[1].removeprefix("mutex:")
    tid_a, tid_b = truth.threads
    order_a = _first_lock_order(spec.threads[tid_a - 1].ops, mutex_a, mutex_b)
    order_b = _first_lock_order(spec.threads[tid_b - 1].ops, mutex_a, mutex_b)
    if order_a != (mutex_a, mutex_b) or order_b != (mutex_b, mutex_a):
        raise AssertionError(
            f"deadlock: threads T{tid_a}/T{tid_b} do not lock "
            f"{mutex_a}/{mutex_b} in inverted order"
        )


def _first_lock_order(ops, mutex_a: str, mutex_b: str):
    seen = []
    for op in ops:
        if op.kind == "lock" and op.target in (mutex_a, mutex_b) and op.target not in seen:
            seen.append(op.target)
        if len(seen) == 2:
            break
    return tuple(seen)
