"""Layer tracing from outside the program: wrap public functions, time spans.

The traced run wraps public functions and methods of ``src/repro`` modules
(the table :data:`SPANS`) in a :class:`Tracer`.  Every call to a wrapped
function is a span of its layer; a layer's *self time* is the duration of
its spans minus the part covered by nested spans of any wrapped function.

Spans are aggregated as they close rather than stored one by one: a
campaign makes millions of scheduler-policy calls, and keeping each span
would cost more memory than the benchmark process is allowed.  The
aggregation applies the same rule a stored span tree would (see
``test_perfbench.py``).

Only the thread that created the tracer records spans.  The ``py:``
substrate runs target code on other OS threads; calls made there (the
``OpChannel.call`` rendezvous) are counted, not timed.
"""

from __future__ import annotations

import functools
import importlib
import sys
import threading
import time
from collections import defaultdict
from typing import Any, Callable

#: (layer, module, qualified name, hook) for every timed span.  ``hook``
#: names a :class:`Tracer` method that inspects the call's return value.
SPANS: tuple[tuple[str, str, str, str | None], ...] = (
    ("runtime.executor", "repro.runtime.executor", "Executor.run", "on_execution"),
    ("schedulers.policy", "repro.schedulers.pct", "PctPolicy.choose", None),
    ("schedulers.policy", "repro.schedulers.pct", "PctPolicy.notify", None),
    ("schedulers.policy", "repro.schedulers.pos", "PosPolicy.choose", None),
    ("schedulers.policy", "repro.schedulers.pos", "PosPolicy.notify", None),
    ("schedulers.policy", "repro.schedulers.random_walk", "RandomWalkPolicy.choose", None),
    ("schedulers.policy", "repro.schedulers.random_walk", "RandomWalkPolicy.notify", None),
    ("schedulers.policy", "repro.schedulers.replay", "ReplayPolicy.choose", None),
    ("core.proactive", "repro.core.proactive", "RffSchedulerPolicy.begin", None),
    ("core.proactive", "repro.core.proactive", "RffSchedulerPolicy.choose", None),
    ("core.proactive", "repro.core.proactive", "RffSchedulerPolicy.notify", None),
    ("core.feedback", "repro.core.feedback", "RfFeedback.observe", "on_observation"),
    ("core.mutation", "repro.core.mutation", "ScheduleMutator.mutate", None),
    ("core.mutation", "repro.core.mutation", "ScheduleMutator.splice", None),
    ("core.mutation", "repro.core.mutation", "EventPool.observe", None),
    ("core.power", "repro.core.power", "PowerSchedule.energy", None),
    ("core.power", "repro.core.power", "PowerSchedule.mean_frequency", None),
    ("core.fuzzer", "repro.core.fuzzer", "RffFuzzer.run", None),
    ("core.corpus", "repro.core.corpus", "Corpus.add", None),
    ("core.corpus", "repro.core.corpus", "Corpus.next_entry", None),
    ("core.reproduce", "repro.core.reproduce", "verify_replay", "on_verdict"),
    ("core.reproduce", "repro.core.reproduce", "dedup_key", None),
    ("core.reproduce", "repro.core.reproduce", "sanitizer_key", None),
    ("core.reproduce", "repro.core.reproduce", "bucket_id", None),
    ("analysis.online", "repro.analysis.online", "build_stack", None),
    ("analysis.online", "repro.analysis.online", "OnlineRaceSanitizer.on_event", None),
    ("analysis.online", "repro.analysis.online", "OnlineRaceSanitizer.finish", "on_reports"),
    ("analysis.online", "repro.analysis.online", "OnlineLocksetSanitizer.on_event", None),
    ("analysis.online", "repro.analysis.online", "OnlineLocksetSanitizer.finish", "on_reports"),
    ("analysis.online", "repro.analysis.online", "OnlineLockOrderSanitizer.on_event", None),
    ("analysis.online", "repro.analysis.online", "OnlineLockOrderSanitizer.finish", "on_reports"),
    ("substrate", "repro.substrate.gate", "SubstrateContext.activate", None),
    ("substrate", "repro.substrate.gate", "SubstrateContext.finalize", None),
    ("substrate", "repro.substrate.gate", "OpChannel.next_message", None),
    ("gen", "repro.gen.synth", "synthesize", None),
    ("harness.allocator", "repro.harness.allocator", "AllocationRun.next_plan", "on_plan"),
    ("harness.allocator", "repro.harness.allocator", "AllocationRun.observe", None),
    ("harness.allocator", "repro.harness.allocator", "AllocationRun.estimates", None),
    ("harness.allocator", "repro.harness.allocator", "AllocationRun.merged", None),
    ("harness.store", "repro.harness.store", "CorpusStore.record_slice", None),
    ("harness.store", "repro.harness.store", "CorpusStore.record_result", None),
    ("harness.store", "repro.harness.store", "CorpusStore.begin_campaign", None),
    ("harness.store", "repro.harness.store", "CorpusStore.close", None),
    ("harness.telemetry", "repro.harness.telemetry", "JsonlSink.emit", None),
    ("harness.dispatch", "multiprocessing.connection", "wait", None),
)

#: Calls counted on any thread, untimed: (layer, counter, module, qualname).
COUNTS: tuple[tuple[str, str, str, str], ...] = (
    ("substrate", "substrate.ops", "repro.substrate.gate", "OpChannel.call"),
    ("core.fuzzer", "fuzzers", "repro.core.fuzzer", "RffFuzzer.__init__"),
)

#: Layers whose functions run in the parent of a multi-process campaign.
PARENT_LAYERS = frozenset(
    {"harness.allocator", "harness.store", "harness.telemetry", "harness.dispatch"}
)


class Tracer:
    """Aggregated spans: self time per layer, inclusive time and calls per
    wrapped function, plus counts taken from return values."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.self_s: dict[str, float] = defaultdict(float)
        self.total_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.layer_calls: dict[str, int] = defaultdict(int)
        self.counts: dict[str, int] = defaultdict(int)
        #: Child time accumulated by each open span, innermost last.
        self._stack: list[float] = []
        self._owner = threading.get_ident()

    # -- wrapping --------------------------------------------------------
    def span(self, layer: str, name: str, fn: Callable, *, hook: str | None = None) -> Callable:
        """``fn`` wrapped so each call on the owner thread is a span."""
        clock = self.clock
        stack = self._stack
        owner = self._owner
        self_s, total_s, calls = self.self_s, self.total_s, self.calls
        layer_calls = self.layer_calls
        inspect = getattr(self, hook) if hook else None
        get_ident = threading.get_ident

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            if get_ident() != owner:
                return fn(*args, **kwargs)
            start = clock()
            stack.append(0.0)
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = clock() - start
                self_s[layer] += duration - stack.pop()
                total_s[name] += duration
                calls[name] += 1
                layer_calls[layer] += 1
                if stack:
                    stack[-1] += duration
            if inspect is not None:
                inspect(result)
            return result

        return traced

    def counter(self, name: str, fn: Callable) -> Callable:
        """``fn`` wrapped so each call, on any thread, bumps ``counts[name]``."""
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args: Any, **kwargs: Any) -> Any:
            counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    # -- return-value hooks ----------------------------------------------
    def on_execution(self, result: Any) -> None:
        self.counts["steps"] += result.steps
        self.counts["truncated"] += bool(result.truncated)

    def on_observation(self, observation: Any) -> None:
        self.counts["interesting"] += bool(observation.interesting)

    def on_verdict(self, verdict: Any) -> None:
        self.counts["replays"] += verdict.replays

    def on_reports(self, reports: Any) -> None:
        self.counts["sanitizer_reports"] += len(reports)

    def on_plan(self, plan: Any) -> None:
        self.counts["alloc_rounds"] += plan is not None

    # -- installation ----------------------------------------------------
    def install(self, layers: frozenset[str] | None = None) -> None:
        """Wrap every :data:`SPANS` entry of ``layers`` (all when None)."""
        for layer, module_name, qualname, hook in SPANS:
            if layers is None or layer in layers:
                wrap = functools.partial(self.span, layer, qualname, hook=hook)
                _patch(module_name, qualname, wrap)
        for layer, name, module_name, qualname in COUNTS:
            if layers is None or layer in layers:
                _patch(module_name, qualname, functools.partial(self.counter, name))

    def attributed_s(self) -> float:
        """Seconds spent inside any wrapped function (sum of self times)."""
        return sum(self.self_s.values())


def _patch(module_name: str, qualname: str, wrap: Callable[[Callable], Callable]) -> None:
    """Replace ``module.qualname`` by ``wrap(original)``.

    A method is replaced on its class.  A module function is replaced in its
    module and in every loaded ``repro`` module that imported it by name.
    """
    module = importlib.import_module(module_name)
    owner_name, _, attr = qualname.rpartition(".")
    if owner_name:
        owner = getattr(module, owner_name)
        setattr(owner, attr, wrap(getattr(owner, attr)))
        return
    original = getattr(module, attr)
    wrapped = wrap(original)
    for name, loaded in list(sys.modules.items()):
        if loaded is module or name == "repro" or name.startswith("repro."):
            if getattr(loaded, attr, None) is original:
                setattr(loaded, attr, wrapped)


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """The per-layer metrics of one traced campaign (see README.md)."""
    calls, total, self_s, counts = tracer.calls, tracer.total_s, tracer.self_s, tracer.counts
    runs = calls["Executor.run"]
    observations = calls["RfFeedback.observe"]
    # Every fuzzer seeds its corpus with one entry before its loop runs.
    admitted = calls["Corpus.add"] - counts["fuzzers"]
    return {
        "runtime.executor.runs": runs,
        "runtime.executor.steps": counts["steps"],
        "runtime.executor.self_s": self_s["runtime.executor"],
        "runtime.executor.truncated_share": counts["truncated"] / runs if runs else 0.0,
        "schedulers.policy.calls": tracer.layer_calls["schedulers.policy"],
        "schedulers.policy.self_s": self_s["schedulers.policy"],
        "core.proactive.self_s": self_s["core.proactive"],
        "core.feedback.self_s": self_s["core.feedback"],
        "core.feedback.interesting_share": (
            counts["interesting"] / observations if observations else 0.0
        ),
        "core.mutation.self_s": self_s["core.mutation"],
        "core.power.self_s": self_s["core.power"],
        "core.fuzzer.self_s": self_s["core.fuzzer"],
        "core.corpus.admit_share": admitted / observations if observations else 0.0,
        "core.reproduce.verify_s": total["verify_replay"],
        "core.reproduce.replays": counts["replays"],
        "core.reproduce.dedup_s": total["dedup_key"] + total["sanitizer_key"] + total["bucket_id"],
        "analysis.online.self_s": self_s["analysis.online"],
        "analysis.online.reports": counts["sanitizer_reports"],
        "substrate.activate_s": total["SubstrateContext.activate"] + total["SubstrateContext.finalize"],
        "substrate.handoff_wait_s": total["OpChannel.next_message"],
        "substrate.ops": counts["substrate.ops"],
        "harness.allocator.plan_s": self_s["harness.allocator"],
        "harness.allocator.rounds": counts["alloc_rounds"],
        "harness.store.append_s": total["CorpusStore.record_slice"] + total["CorpusStore.record_result"],
        "harness.store.appends": calls["CorpusStore.record_slice"] + calls["CorpusStore.record_result"],
        "harness.telemetry.emit_s": total["JsonlSink.emit"],
        "harness.dispatch.wait_s": total["wait"],
        "gen.synth_s": total["synthesize"],
    }
