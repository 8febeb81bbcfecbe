"""Lock-order-graph deadlock prediction.

Builds the classic lock-acquisition graph from one trace: an edge
``m1 -> m2`` records that some thread acquired ``m2`` while holding ``m1``.
A cycle among edges contributed by *different threads* predicts a potential
ABBA deadlock — even when the observed schedule completed fine.  This is
the predictive companion to the runtime's built-in deadlock *detector*: the
detector needs the hang to happen; the predictor implicates it from a
passing run (paper Section 6, "Dynamic Analyses").
"""

from __future__ import annotations

from dataclasses import dataclass, field

import networkx as nx

from repro.core.trace import Trace


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

    Shared verbatim by the offline :class:`LockGraphAnalyzer` and the online
    ``OnlineLockOrderSanitizer`` so the two agree by construction.  Events
    that are not lock operations (the vast majority of a data-heavy trace)
    return without touching ``held`` at all.
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

    Each cycle starts at its minimal lock and the predictions are sorted:
    the rotation ``nx.simple_cycles`` picks follows hash order, so without
    this a report's text would depend on ``PYTHONHASHSEED``.
    """
    if not edges:
        # No nested acquisitions anywhere in the trace: the graph has no
        # edges, hence no cycles — skip building a DiGraph per execution.
        return []
    graph = nx.DiGraph()
    for (outer, inner), threads in edges.items():
        graph.add_edge(outer, inner, threads=threads)
    predictions: list[DeadlockPrediction] = []
    for cycle in nx.simple_cycles(graph):
        if len(cycle) < 2:
            continue
        contributors: set[int] = set()
        for index, outer in enumerate(cycle):
            inner = cycle[(index + 1) % len(cycle)]
            contributors |= edges.get((outer, inner), set())
        # A cycle one thread creates alone (nested reacquisition in a
        # consistent order) is not a deadlock between threads.
        if len(contributors) >= 2:
            pivot = cycle.index(min(cycle))
            predictions.append(
                DeadlockPrediction(
                    cycle=tuple(cycle[pivot:] + cycle[:pivot]), threads=frozenset(contributors)
                )
            )
    return sorted(predictions, key=lambda prediction: prediction.cycle)


class LockGraphAnalyzer:
    """Builds the lock-order graph and reports inter-thread cycles."""

    def analyze(self, trace: Trace) -> LockGraphReport:
        """Build the lock-order graph of ``trace`` and report its cycles."""
        held: dict[int, list[str]] = {}
        report = LockGraphReport()
        for event in trace.events:
            lock_order_on_event(event, held, report.edges)
        report.predictions.extend(cycle_predictions(report.edges))
        return report


def predict_deadlocks(trace: Trace) -> LockGraphReport:
    """One-call API: lock-order cycle prediction over ``trace``."""
    return LockGraphAnalyzer().analyze(trace)
