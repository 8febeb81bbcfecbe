"""Run one campaign of one workload in a fresh interpreter.

    python3 perfbench/child.py '{"workload": ..., "seed": ..., "workdir": ...,
                                 "trace": false, "layers": null, "processes": null}'

``run.py`` starts this script once per measured campaign, so every
campaign pays interpreter start, imports and program construction the way
a user's ``rff campaign`` does.  ``repro`` must be importable (``run.py``
puts the checkout's ``src`` on ``PYTHONPATH``).  The last line of standard
output is one JSON object; see :func:`main`.
"""

from __future__ import annotations

import json
import resource
import sys
import time
from pathlib import Path
from typing import Any


class CellClock:
    """Seconds the campaign spent on each cell, on this process's clock.

    The serial path reports cell starts through the ``progress`` callback
    (a cell ends when the next one starts, or when the campaign returns);
    the multi-process path through ``cell_start``/``cell_end`` telemetry
    events.  A cell's time is summed over its slices and attempts.
    """

    def __init__(self) -> None:
        self.first_dispatch: float | None = None
        self.spent: dict[tuple[str, str, int], float] = {}
        self.slice_latencies: list[float] = []
        self.retries = 0
        self._open: dict[tuple[str, str, int], float] = {}

    def start(self, key: tuple[str, str, int]) -> None:
        now = time.monotonic()
        if self.first_dispatch is None:
            self.first_dispatch = now
        self._open[key] = now

    def stop(self, key: tuple[str, str, int]) -> None:
        elapsed = time.monotonic() - self._open.pop(key)
        self.spent[key] = self.spent.get(key, 0.0) + elapsed
        self.slice_latencies.append(elapsed)

    # -- serial path: Campaign.run(progress=...) --------------------------
    def progress(self, tool: str, program: str, trial: int) -> None:
        self.stop_all()
        self.start((tool, program, trial))

    def stop_all(self) -> None:
        for key in list(self._open):
            self.stop(key)


def telemetry_clock(clock: CellClock) -> Any:
    """A ``TelemetrySink`` feeding cell start/end events into ``clock``."""
    from repro.harness import TelemetrySink

    class ClockSink(TelemetrySink):
        def emit(self, event: str, **fields: Any) -> None:
            if event == "cell_start":
                clock.start((fields["tool"], fields["program"], fields["trial"]))
            elif event in ("cell_end", "cell_error", "cell_retry"):
                clock.stop((fields["tool"], fields["program"], fields["trial"]))
                clock.retries += event == "cell_retry"

    return ClockSink()


def run_campaign(spec: dict[str, Any], tracer: Any) -> dict[str, Any]:
    from workloads import WORKLOADS, config, get_program, program_names

    from repro.harness import Campaign, CorpusStore, JsonlSink, MultiSink, ParallelCampaign
    from repro.harness.groundtruth import tool_factories

    workload = WORKLOADS[spec["workload"]]
    campaign_config = config(workload, spec["seed"])
    names = program_names(workload)
    clock = CellClock()
    if workload.family == "gen50":
        # Synthesize the corpus up front, as `rff eval-gen` does; workers
        # re-synthesize each program from its name.
        from workloads import GEN_SEEDS

        from repro.gen.synth import corpus

        corpus(GEN_SEEDS.start, len(GEN_SEEDS))
    processes = spec.get("processes", workload.processes)
    if workload.pooled:
        workdir = Path(spec["workdir"])
        store = CorpusStore(workdir / "store")
        sink = MultiSink([telemetry_clock(clock), JsonlSink(workdir / "telemetry.jsonl")])
        campaign = ParallelCampaign(
            campaign_config, processes=processes, store=store, telemetry=sink
        )
        try:
            traced_before = tracer.attributed_s() if tracer else 0.0
            start = time.perf_counter()
            result = campaign.run(list(workload.tools), names)
            wall_s = time.perf_counter() - start
        finally:
            sink.close()
            store.close()
    else:
        factories = tool_factories()
        tools = [factories[name]() for name in workload.tools]
        programs = [get_program(name) for name in names]
        traced_before = tracer.attributed_s() if tracer else 0.0
        start = time.perf_counter()
        result = Campaign(campaign_config).run(tools, programs, progress=clock.progress)
        wall_s = time.perf_counter() - start
        clock.stop_all()
    cells = []
    executions = 0
    for (tool, program), trials in sorted(result.results.items()):
        for trial, r in enumerate(trials):
            executions += r.executions
            cells.append(
                {
                    "key": [tool, program, trial],
                    "found": r.found,
                    "schedules_to_bug": r.schedules_to_bug,
                    "outcome": r.outcome,
                    "bucket": r.bucket,
                    "replay_verdict": r.replay_verdict,
                    "error": r.error,
                    "sanitizers": sorted({report.sanitizer for report in r.sanitizer_reports}),
                    "spent_s": clock.spent.get((tool, program, trial)),
                }
            )
    return {
        "wall_s": wall_s,
        "executions": executions,
        "first_dispatch": clock.first_dispatch,
        "cells": cells,
        "slice_latencies": clock.slice_latencies,
        "retries": clock.retries,
        "attributed_s": (tracer.attributed_s() - traced_before) if tracer else 0.0,
    }


def main(argv: list[str]) -> int:
    """Print ``{"import_s", "wall_s", "executions", "first_dispatch",
    "cells", "slice_latencies", "retries", "attributed_s", "peak_rss_mb"}``
    plus, when traced, ``"layers"``.  ``attributed_s`` is the campaign time
    spent inside traced functions (0 untraced)."""
    spec = json.loads(argv[1])
    start = time.perf_counter()
    import repro.harness  # noqa: F401 - timed: the import cost users pay

    import_s = time.perf_counter() - start
    tracer = None
    if spec.get("trace"):
        from tracer import Tracer

        tracer = Tracer()
        layers = spec.get("layers")
        tracer.install(frozenset(layers) if layers is not None else None)
    report = run_campaign(spec, tracer)
    report["import_s"] = import_s
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    workers = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    report["peak_rss_mb"] = max(own, workers) / 1024.0  # ru_maxrss is in KiB
    if tracer is not None:
        from tracer import layer_metrics

        report["layers"] = layer_metrics(tracer)
    print(json.dumps(report, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
