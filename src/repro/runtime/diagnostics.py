"""Developer diagnostics for programs under test.

The runtime guarantees determinism *given* a deterministic program — but a
benchmark author can accidentally smuggle nondeterminism in (wall-clock
reads, ``random`` without a seed, iteration over ``id``-ordered sets).
:func:`verify_determinism` catches that early, and :func:`trace_to_dot`
exports a trace's happens-before structure for graph tooling.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.trace import Trace
from repro.runtime.program import Program
from repro.schedulers.pos import PosPolicy


@dataclass(frozen=True)
class DeterminismReport:
    """Outcome of a determinism check."""

    deterministic: bool
    seeds_checked: int
    #: Seed of the first diverging pair (None when deterministic).
    diverging_seed: int | None = None
    detail: str = ""


def verify_determinism(
    program: Program,
    seeds: int = 10,
    max_steps: int | None = None,
) -> DeterminismReport:
    """Run each seed twice and compare traces event-for-event.

    A divergence means the *program* (not the runtime) is nondeterministic
    — its behaviour depends on something other than the schedule — which
    silently breaks replay, abstract-schedule feedback and every
    deterministic baseline.  ``max_steps`` overrides the program's step bound.
    """
    # Lazy import: repro.core.reproduce imports repro.runtime, which imports this module.
    from repro.core.reproduce import RunEnv

    run = RunEnv(max_steps=max_steps).runner(program)
    for seed in range(seeds):
        first = run(PosPolicy(seed))
        second = run(PosPolicy(seed))
        # Compare structure AND values: value divergence (e.g. a wall-clock
        # read) is exactly the smuggled-nondeterminism case to catch.
        a = [f"{e} ={e.value!r}" for e in first.trace]
        b = [f"{e} ={e.value!r}" for e in second.trace]
        if a != b or first.outcome != second.outcome:
            mismatch = next(
                (i for i, (x, y) in enumerate(zip(a, b)) if x != y), min(len(a), len(b))
            )
            return DeterminismReport(
                deterministic=False,
                seeds_checked=seed + 1,
                diverging_seed=seed,
                detail=f"first divergence at event index {mismatch}",
            )
    return DeterminismReport(deterministic=True, seeds_checked=seeds)


def trace_to_dot(trace: Trace, include_program_order: bool = True) -> str:
    """Render a trace's event graph in Graphviz DOT.

    Nodes are events (labelled ``T<tid>: op(x)@l``); solid edges are
    program order, dashed edges are reads-from.  Paste into any DOT viewer
    to inspect the interleaving structure of a crash.
    """
    lines = ["digraph trace {", "  rankdir=TB;", '  node [shape=box, fontsize=10];']
    for event in trace.events:
        label = f"T{event.tid}: {event.kind}({event.location})\\n@{event.loc}"
        lines.append(f'  e{event.eid} [label="{label}"];')
    if include_program_order:
        last_of_thread: dict[int, int] = {}
        for event in trace.events:
            prior = last_of_thread.get(event.tid)
            if prior is not None:
                lines.append(f"  e{prior} -> e{event.eid};")
            last_of_thread[event.tid] = event.eid
    for event in trace.events:
        if event.rf not in (None, 0):
            lines.append(f'  e{event.rf} -> e{event.eid} [style=dashed, label="rf"];')
    if trace.outcome:
        lines.append(f'  outcome [label="{trace.outcome}", shape=octagon, color=red];')
        if trace.events:
            lines.append(f"  e{trace.events[-1].eid} -> outcome [color=red];")
    lines.append("}")
    return "\n".join(lines)
