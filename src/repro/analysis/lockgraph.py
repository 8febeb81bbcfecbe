"""Lock-order-graph deadlock prediction.

Builds the classic lock-acquisition graph from one trace: an edge
``m1 -> m2`` records that some thread acquired ``m2`` while holding ``m1``.
A cycle among edges contributed by *different threads* predicts a potential
ABBA deadlock — even when the observed schedule completed fine.  This is
the predictive companion to the runtime's built-in deadlock *detector*: the
detector needs the hang to happen; the predictor implicates it from a
passing run (paper Section 6, "Dynamic Analyses").

:func:`lock_order_on_event` and :func:`cycle_predictions` are the one
implementation.  :class:`~repro.analysis.online.OnlineLockOrderSanitizer`
accumulates edges per event as the executor records them, and
:func:`~repro.analysis.online.predict_deadlocks` replays a recorded trace
through a fresh sanitizer.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class DeadlockPrediction:
    """One potential deadlock: a cycle in the lock-order graph."""

    cycle: tuple[str, ...]
    threads: frozenset[int]

    def __str__(self) -> str:
        ring = " -> ".join([*self.cycle, self.cycle[0]])
        who = ", ".join(f"T{tid}" for tid in sorted(self.threads))
        return f"potential deadlock: {ring} (threads {who})"


@dataclass
class LockGraphReport:
    predictions: list[DeadlockPrediction] = field(default_factory=list)
    #: (held, acquired) -> thread ids that created the edge.
    edges: dict[tuple[str, str], set[int]] = field(default_factory=dict)

    def __len__(self) -> int:
        return len(self.predictions)

    @property
    def has_potential_deadlock(self) -> bool:
        return bool(self.predictions)


def lock_order_on_event(
    event,
    held: dict[int, list[str]],
    edges: dict[tuple[str, str], set[int]],
) -> None:
    """One lock-order step: update held stacks and graph ``edges``.

    The per-event step of ``OnlineLockOrderSanitizer``, which is also how
    ``predict_deadlocks`` analyses a recorded trace.  Events that are not
    lock operations (the vast majority of a data-heavy trace) return
    without touching ``held`` at all.
    """
    kind = event.kind
    if kind == "lock" or (kind == "trylock" and event.value):
        tid = event.tid
        location = event.location
        stack = held.get(tid)
        if stack is None:
            held[tid] = [location]
            return
        for outer in stack:
            threads = edges.get((outer, location))
            if threads is None:
                threads = edges[(outer, location)] = set()
            threads.add(tid)
        stack.append(location)
    elif kind == "unlock":
        stack = held.get(event.tid)
        if stack is not None and event.location in stack:
            stack.remove(event.location)
    elif kind == "wait":
        # Waiting releases the mutex named by the event's aux.
        stack = held.get(event.tid)
        if stack is not None and event.aux in stack:
            stack.remove(event.aux)


def cycle_predictions(edges: dict[tuple[str, str], set[int]]) -> list[DeadlockPrediction]:
    """Inter-thread cycles of the lock-order graph spanned by ``edges``.

    Every elementary cycle is found once, starting at its minimal lock: a
    depth-first walk from each lock visits only greater locks, and only
    those that lead back to the start, so an acyclic graph costs one
    reverse search per lock.  The predictions are sorted, so a report's
    text depends on neither edge order nor ``PYTHONHASHSEED``.
    """
    successors: dict[str, list[str]] = {}
    predecessors: dict[str, list[str]] = {}
    for outer, inner in edges:
        # A self-loop (nested reacquisition of one lock) is no ABBA cycle.
        if outer != inner:
            successors.setdefault(outer, []).append(inner)
            predecessors.setdefault(inner, []).append(outer)
    predictions: list[DeadlockPrediction] = []
    for start in sorted(successors):
        # The locks above ``start`` that reach it through locks above it:
        # only they can lie on a cycle whose minimal lock is ``start``.
        returning: set[str] = set()
        frontier = [start]
        while frontier:
            for outer in predecessors.get(frontier.pop(), ()):
                if outer > start and outer not in returning:
                    returning.add(outer)
                    frontier.append(outer)
        path = [start]
        pending = [iter(successors[start])]
        while pending:
            for inner in pending[-1]:
                if inner == start:
                    contributors: set[int] = set()
                    for index, outer in enumerate(path):
                        contributors |= edges[(outer, path[(index + 1) % len(path)])]
                    # A cycle one thread creates alone (nested reacquisition
                    # in a consistent order) is not a deadlock between threads.
                    if len(contributors) >= 2:
                        predictions.append(
                            DeadlockPrediction(cycle=tuple(path), threads=frozenset(contributors))
                        )
                elif inner in returning and inner not in path:
                    path.append(inner)
                    pending.append(iter(successors[inner]))
                    break
            else:
                pending.pop()
                path.pop()
    return sorted(predictions, key=lambda prediction: prediction.cycle)
