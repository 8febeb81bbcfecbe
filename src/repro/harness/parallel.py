"""Fault-tolerant, supervised, observable multiprocess campaigns.

The paper runs its experiments with GNU Parallel over up to 50 cores
(Appendix A.2); :class:`ParallelCampaign` provides the same scale-out for
our campaigns.  It runs the campaign round loop of
:func:`repro.harness.campaign.run_rounds` and hands each round's slices to
a :class:`~repro.harness.pool.WorkerPool` of long-lived worker processes,
or, with ``processes=0``, runs them in-process through the same pool.
The serial :class:`~repro.harness.campaign.Campaign` is that in-process
path with the caller's tool and program instances, so every slice
derives its seed the same way everywhere: results are bit-identical to
the serial campaign and parallelism is purely a wall-clock optimisation.

The engine survives its workers:

* **crash isolation** — a worker that dies (segfault model: hard exit, OOM
  kill, SIGKILL) costs the slice it was running one attempt; the slice is
  retried on a fresh worker after a capped exponential backoff, up to
  ``max_retries`` times, and then recorded as a structured error result
  instead of aborting everything;
* **timeouts and leases** — a worker that goes ``cell_timeout`` seconds
  without finishing a slice, or ``lease_seconds`` without a heartbeat, is
  killed and handled like a crash;
* **triage** — an exhausted cell is classified as a *deterministic
  crasher* (every attempt failed the same way) or a *flaky environment*;
* **graceful degradation** — ``processes=0`` runs every slice in-process,
  and a pool whose workers cannot start at all falls back to the same
  in-process execution rather than failing;
* **resume** — with ``store`` set, every completed cell (or allocation
  slice) is recorded in a :class:`~repro.harness.store.CorpusStore`, and
  re-running the same campaign against it skips completed work and still
  produces a bit-identical :class:`~repro.harness.campaign.CampaignResult`;
* **telemetry** — every lifecycle step is emitted once into a
  :class:`~repro.harness.telemetry.TelemetrySink`: cell start, end, retry
  (with its backoff ``delay``) and error, each worker's exit (with the
  ``unfinished`` slices it held) and degradation.

Tool factories cross the process boundary *by importable reference*
(``"module:qualname"`` strings carried in every slice), never through a
module-global registry alone — so custom tools registered with
:func:`register_tool` work under the ``spawn`` start method too, where
workers do not inherit the parent's registrations.
"""

from __future__ import annotations

import importlib
import os
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Iterable

from repro.core.reproduce import RunEnv
from repro.harness.campaign import CampaignConfig, CampaignResult, run_rounds
from repro.harness.faults import ChaosPlan
from repro.harness.telemetry import TelemetrySink
from repro.harness.tools import TOOL_FACTORIES, TestingTool, tool_factory


# ----------------------------------------------------------------------
# Importable tool-factory references (resolved worker side)
# ----------------------------------------------------------------------
def resolve_ref(ref: str) -> Any:
    """Resolve an importable ``"module:qualname"`` reference."""
    module_name, _, qualname = ref.partition(":")
    if not module_name or not qualname:
        raise ValueError(f"malformed importable reference {ref!r}; expected 'module:qualname'")
    obj: Any = importlib.import_module(module_name)
    for part in qualname.split("."):
        obj = getattr(obj, part)
    return obj


def factory_ref(factory: Callable[[], TestingTool]) -> str:
    """The spawn-safe importable reference of a tool factory.

    Raises ``ValueError`` for factories a fresh worker process could not
    re-import (lambdas, closures, instance methods): those used to *silently*
    fall back to default tools in spawned workers — now they fail loudly at
    registration time.
    """
    module = getattr(factory, "__module__", None)
    qualname = getattr(factory, "__qualname__", None)
    if not module or not qualname:
        raise ValueError(
            f"tool factory {factory!r} is not an importable module-level callable; "
            "parallel workers resolve factories by 'module:qualname' reference"
        )
    ref = f"{module}:{qualname}"
    try:
        resolved = resolve_ref(ref)
    except (ImportError, AttributeError, ValueError) as exc:
        raise ValueError(f"tool factory reference {ref!r} does not resolve: {exc}") from exc
    if resolved is not factory:
        raise ValueError(
            f"tool factory reference {ref!r} resolves to a different object; "
            "register a module-level function or class"
        )
    return ref


def register_tool(name: str, factory: Callable[[], TestingTool]) -> None:
    """Add a custom tool factory to :data:`~repro.harness.tools.TOOL_FACTORIES`.

    The factory must be a module-level callable (validated eagerly) so that
    worker processes under any start method — including ``spawn``, which
    inherits nothing — can re-import it from the reference in each slice.
    """
    factory_ref(factory)  # validate now, not inside a worker
    TOOL_FACTORIES[name] = factory


# ----------------------------------------------------------------------
# The engine
# ----------------------------------------------------------------------
@dataclass
class ParallelCampaign:
    """A fault-tolerant, supervised campaign over named tools/programs.

    ``processes=0`` runs every slice in-process (also useful for
    debugging); ``processes=None`` uses the CPU count.  ``max_retries``
    bounds *extra* attempts after a worker crash, timeout or lost lease;
    in-worker Python exceptions are deterministic and are not retried.
    A slice whose retries run out is a structured error cell.  A chaos plan
    armed in the environment (:class:`~repro.harness.faults.ChaosPlan`) is
    read once per run and fires its worker faults in the pool workers.
    An unknown sanitizer name in ``config`` raises ``ValueError`` when the
    campaign is built.
    """

    config: CampaignConfig
    processes: int | None = None
    #: Seconds a worker may go without finishing a slice before it is killed.
    cell_timeout: float | None = None
    #: Extra attempts (each on a fresh worker) after crash/timeout/lost lease.
    max_retries: int = 2
    telemetry: TelemetrySink = field(default_factory=TelemetrySink)
    #: Multiprocessing start method (None = see _default_start_method).
    start_method: str | None = None
    #: Durable corpus store (CorpusStore instance or path); completed cells
    #: and slices are recorded there and resumed from it.
    store: Any = None
    #: Directory for per-worker cProfile dumps (None = profiling off);
    #: summarize with reporting.profile_summary.
    profile_dir: str | Path | None = None
    #: Interval between worker heartbeats.
    heartbeat_seconds: float = 0.5
    #: A worker silent this long loses its lease and is killed.
    lease_seconds: float = 10.0

    def __post_init__(self) -> None:
        if self.config.sanitizers:
            # An unknown name raises here, before any slice runs.  Building
            # the stack also loads it in this process, before workers fork.
            from repro.analysis.online import build_stack

            build_stack(self.config.sanitizers)

    def run(self, tool_names: list[str], program_names: list[str]) -> CampaignResult:
        """Run all campaign cells; the result is bit-identical to serial runs."""
        tools: list[tuple[str, bool]] = []
        refs: dict[str, str] = {}
        for tool_name in tool_names:
            factory = tool_factory(tool_name)
            refs[tool_name] = factory_ref(factory)
            tools.append((tool_name, factory().deterministic))
        return self._run(tools, list(program_names), refs)

    def _run(
        self,
        tools: list[tuple[str, bool]],
        programs: list[str],
        refs: dict[str, str],
        tool_instances: Iterable[TestingTool] = (),
        program_instances: Iterable[Any] = (),
    ) -> CampaignResult:
        """The round loop over a fresh pool.

        ``tools`` are ``(name, deterministic)`` pairs and ``refs`` maps tool
        names to factory references.  ``tool_instances`` and
        ``program_instances`` seed the pool's in-process caches:
        :meth:`~repro.harness.campaign.Campaign.run` passes its caller's
        this way, so tools and programs that no registry resolves still run.
        """
        from repro.harness.pool import WorkerPool

        size = self._process_count()
        context = None
        if size:
            # Imported here: in-process campaigns never start a process.
            import multiprocessing

            context = multiprocessing.get_context(self.start_method or _default_start_method())
        pool = WorkerPool(
            self,
            context,
            size,
            self._worker_profile(),
            refs,
            tools=tool_instances,
            programs=program_instances,
        )
        return run_rounds(self.config, tools, programs, pool, store=self.store)

    def _process_count(self) -> int:
        if self.processes is None:
            return os.cpu_count() or 1
        return self.processes

    def _worker_profile(self):
        from repro.harness.pool import WorkerProfile

        profile_dir = None
        if self.profile_dir is not None:
            profile_dir = str(self.profile_dir)
            Path(profile_dir).mkdir(parents=True, exist_ok=True)
        return WorkerProfile(
            env=RunEnv(sanitizers=tuple(self.config.sanitizers), guard=self.config.guard),
            verify_replays=self.config.verify_replays,
            chaos=ChaosPlan.from_env(),
            heartbeat_seconds=self.heartbeat_seconds,
            profile_dir=profile_dir,
        )


def _default_start_method() -> str:
    """Prefer ``forkserver`` on 3.12+ (fork-from-threaded-parent is deprecated
    there and the server process keeps launches cheap and thread-safe); keep
    ``fork`` on older interpreters where it is still the fastest safe default.
    The chaos plan travels in the worker profile, not the environment, so
    fault injection behaves identically across start methods."""
    import multiprocessing

    methods = multiprocessing.get_all_start_methods()
    if sys.version_info >= (3, 12) and "forkserver" in methods:
        return "forkserver"
    return "fork" if "fork" in methods else "spawn"
