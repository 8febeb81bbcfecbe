#!/usr/bin/env python3
"""The paper's future-work direction, implemented: fuzzing under x86-TSO.

Section 4.1 of the paper assumes sequential consistency and explicitly
defers weak-memory behaviours to future work.  This example runs the
classic store-buffer litmus test (Dekker's core) under both memory models:

* under SC the "both threads read 0" outcome is impossible — no scheduler
  can reach it;
* under x86-TSO each thread's store can linger in its store buffer past
  the other thread's read, and RFF — with flush points exposed to the
  scheduler as ordinary events — finds the reordering in a few schedules.

The memory model is part of the runtime environment (``RunEnv``) the
fuzzer runs in, not one of its own knobs (``RffConfig``).

Run:  python examples/weak_memory.py
"""

from repro import RunEnv, fuzz, program
from repro.runtime import run_program, run_program_tso
from repro.schedulers import PosPolicy


def flag_left(t, x, y, result):
    yield t.write(x, 1)          # my flag up ...
    seen = yield t.read(y)       # ... did the other side raise theirs?
    yield t.write(result, seen)


def flag_right(t, x, y, result):
    yield t.write(y, 1)
    seen = yield t.read(x)
    yield t.write(result, seen)


@program("example/store_buffer", bug_kinds=("assertion",))
def store_buffer(t):
    x = t.var("x", 0)
    y = t.var("y", 0)
    r1 = t.var("r1", -1)
    r2 = t.var("r2", -1)
    h1 = yield t.spawn(flag_left, x, y, r1)
    h2 = yield t.spawn(flag_right, x, y, r2)
    yield t.join(h1)
    yield t.join(h2)
    a = yield t.read(r1)
    b = yield t.read(r2)
    # Mutual exclusion reasoning that is sound under SC and broken on TSO.
    t.require(not (a == 0 and b == 0), "both critical sections entered")


def main() -> None:
    budget = 300
    print(f"== store-buffer litmus, {budget} random schedules per model ==")
    sc = sum(run_program(store_buffer, PosPolicy(seed)).crashed for seed in range(budget))
    tso = sum(run_program_tso(store_buffer, PosPolicy(seed)).crashed for seed in range(budget))
    print(f"SC : {sc}/{budget} schedules violate the assertion (expected 0)")
    print(f"TSO: {tso}/{budget} schedules violate the assertion")

    print("\n== RFF under TSO ==")
    report = fuzz(
        store_buffer,
        max_executions=300,
        seed=1,
        env=RunEnv(memory_model="tso"),
        stop_on_first_crash=True,
    )
    print(f"bug found after {report.first_crash_at} schedules")
    crash = report.crashes[0]
    print(f"failure: {crash.failure}")
    print(f"abstract schedule: {crash.abstract_schedule}")


if __name__ == "__main__":
    main()
