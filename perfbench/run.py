"""End-to-end campaign benchmark with a per-layer traced run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all        # every workload, untraced

Run it from anywhere; it finds the checkout as the parent of this
directory and runs the ``repro`` sources under ``src/``.  Every campaign
runs in a fresh interpreter (``child.py``).

``--trace 0`` runs campaigns, cycling through :data:`SUBSEEDS` campaign
seeds derived from ``--seed``, until the next would end after
``--seconds`` (at least :data:`MIN_REPS` of them), and reports the
end-to-end metrics as medians over them.  ``--trace 1`` runs one campaign
untraced and traced and reports the per-layer metrics.  Every campaign's
cells go through the workload's output oracle, and every campaign of one
campaign seed must produce the identical (tool, program, trial) ->
(found, schedules_to_bug, outcome, bucket) map.  The last line of
standard output is one JSON object; the exit code is 0 only when every
check passed.  See README.md for the metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path
from typing import Any

from statistics import median

from stats import failed_share, highest_percentile, percentile
from workloads import WORKLOADS, Workload

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

#: Distinct campaigns a measured run cycles through.  Campaign ``i`` of a
#: run uses campaign seed ``campaign_seed(seed, i)``, so the figures average
#: over several campaigns' inputs; the first campaign also runs a second
#: time, which the determinism check compares.
SUBSEEDS = 6
#: Fewest campaigns one measured run makes, however short ``--seconds``.
MIN_REPS = SUBSEEDS + 1
#: Seconds one campaign process may take before it is killed.
CHILD_TIMEOUT = 150.0

#: The metrics, with their units, as BENCHMARK.json names them.
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in SPEC["per_layer"]}


def campaign_seed(seed: int, index: int) -> int:
    """The ``base_seed`` of a run's campaign ``index``; distinct for every
    (seed, index % SUBSEEDS)."""
    return seed * SUBSEEDS + index % SUBSEEDS


class CampaignFailed(RuntimeError):
    """A campaign process exited nonzero or timed out."""


# ----------------------------------------------------------------------
# Campaign processes
# ----------------------------------------------------------------------
def run_campaign(spec: dict[str, Any]) -> dict[str, Any]:
    """Run one campaign in a fresh interpreter and return its report, with
    ``setup_s`` measured from process start to the first cell dispatch."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    command = [sys.executable, str(HERE / "child.py"), json.dumps(spec)]
    spawned = time.monotonic()
    proc = subprocess.Popen(
        command,
        cwd=ROOT,
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        start_new_session=True,
    )
    try:
        stdout, stderr = proc.communicate(timeout=CHILD_TIMEOUT)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise CampaignFailed(f"campaign exceeded {CHILD_TIMEOUT:g}s") from None
    finally:
        if proc.poll() is None:  # interrupted: take the worker processes down too
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    if proc.returncode != 0 or not stdout.strip():
        raise CampaignFailed(f"campaign exited {proc.returncode}:\n{stderr[-3000:]}")
    report = json.loads(stdout.strip().splitlines()[-1])
    report["seed"] = spec["seed"]
    report["setup_s"] = report["first_dispatch"] - spawned
    return report


def cell_map(report: dict[str, Any]) -> dict[tuple, tuple]:
    """(tool, program, trial) -> (found, schedules_to_bug, outcome, bucket)."""
    return {
        tuple(cell["key"]): (
            cell["found"],
            cell["schedules_to_bug"],
            cell["outcome"],
            cell["bucket"],
        )
        for cell in report["cells"]
    }


def judge(workload: Workload, reports: list[dict[str, Any]]) -> dict[str, Any]:
    """Oracle and determinism verdicts over every campaign of one run: the
    campaigns of one campaign seed must produce identical cell maps."""
    from oracle import check

    attempted: list[tuple] = []
    errored: list[tuple] = []
    mismatched: list[tuple] = []
    reasons: list[str] = []
    for index, report in enumerate(reports):
        keys = [(index, *cell["key"]) for cell in report["cells"]]
        attempted += keys
        errored += [(index, *c["key"]) for c in report["cells"] if c["error"] is not None]
        for key, reason in sorted(check(workload.family, report["cells"]).items()):
            mismatched.append((index, *key))
            reasons.append(f"{'/'.join(map(str, key))}: {reason}")
    failed, share = failed_share(attempted, errored, mismatched)
    reference: dict[int, dict] = {}
    diverged = [
        index
        for index, report in enumerate(reports)
        if reference.setdefault(report["seed"], cell_map(report)) != cell_map(report)
    ]
    return {
        "attempted": len(attempted),
        "failed": failed,
        "failed_share": share,
        "reasons": sorted(set(reasons)),
        "deterministic": not diverged,
        "diverged": diverged,
    }


# ----------------------------------------------------------------------
# The two kinds of run
# ----------------------------------------------------------------------
def measure(workload: Workload, seed: int, seconds: float, scratch: Path) -> tuple[dict, list, list]:
    """Untraced campaigns for ``seconds``; returns (metrics, reports, notes)."""
    reports: list[dict[str, Any]] = []
    began = time.monotonic()
    last = 0.0
    # Start another campaign only if it should end within the time given.
    while len(reports) < MIN_REPS or time.monotonic() - began + last <= seconds:
        index = len(reports)
        spec = {
            "workload": workload.name,
            "seed": campaign_seed(seed, index),
            "workdir": str(scratch / f"c{index}"),
        }
        started = time.monotonic()
        reports.append(run_campaign(spec))
        last = time.monotonic() - started
    by_seed: dict[int, list[dict[str, Any]]] = {}
    for report in reports:
        by_seed.setdefault(report["seed"], []).append(report)
    ttfb: list[float] = []
    found: list[dict[str, Any]] = []
    for group in by_seed.values():
        # A cell's time to its bug: the median over the campaign's repetitions.
        for index, cell in enumerate(group[0]["cells"]):
            if cell["found"]:
                found.append(cell)
                ttfb.append(median(r["cells"][index]["spent_s"] for r in group))
    metrics = {
        "setup_s": median(r["setup_s"] for r in reports),
        "wall_s": median(r["wall_s"] for r in reports),
        "schedules_per_s": median(r["executions"] / r["wall_s"] for r in reports),
        "ttfb_p50_s": percentile(ttfb, 50) if ttfb else 0.0,
        "ttfb_p90_s": percentile(ttfb, 90) if ttfb else 0.0,
        # Summed over the run's distinct campaigns.
        "bugs_found": len(found),
        # Triage buckets are per program: the same frames in two programs
        # are two bugs.
        "bug_buckets": len(
            {(cell["key"][1], cell["bucket"]) for cell in found if cell["bucket"] is not None}
        ),
        "peak_rss_mb": median(r["peak_rss_mb"] for r in reports),
    }
    top = highest_percentile(len(ttfb))
    notes = [
        f"campaigns: {len(reports)} in {time.monotonic() - began:.1f}s, "
        f"campaign seeds {sorted(by_seed)}",
        f"ttfb samples: {len(ttfb)} found cells "
        f"(highest percentile with >=10 samples beyond it: {top if top else 'none'})",
    ]
    if top is None or top < 90:
        notes.append("warning: too few found cells for a supported ttfb_p90_s")
    return metrics, reports, notes


def trace(workload: Workload, seed: int, scratch: Path) -> tuple[dict, list, list]:
    """One untraced and one traced campaign; returns (metrics, reports, notes)."""
    from tracer import PARENT_LAYERS

    def spec(name: str, **extra: Any) -> dict[str, Any]:
        return {
            "workload": workload.name,
            "seed": campaign_seed(seed, 0),
            "workdir": str(scratch / name),
            **extra,
        }

    plain = run_campaign(spec("plain"))
    traced = run_campaign(
        spec("traced", trace=True, layers=sorted(PARENT_LAYERS) if workload.pooled else None)
    )
    reports = [plain, traced]
    notes = []
    if workload.pooled:
        # Worker-side layers cannot be wrapped from the parent: time them in
        # an in-process run of the same campaign, and the parent-side
        # harness layers in the real multi-process run.
        inproc = run_campaign(spec("inproc", trace=True, processes=0))
        reports.append(inproc)
        metrics = dict(inproc["layers"])
        for name, value in traced["layers"].items():
            if name.startswith("harness."):
                metrics[name] = value
        metrics["trace.unattributed_s"] = inproc["wall_s"] - inproc["attributed_s"]
        notes.append(
            "worker-side layers and trace.unattributed_s: in-process run (processes=0); "
            f"harness layers: {workload.processes}-worker run; parent-side unattributed "
            f"{traced['wall_s'] - traced['attributed_s']:.4f}s"
        )
        latencies = traced["slice_latencies"]
        metrics["harness.dispatch.slices"] = len(latencies)
        metrics["harness.dispatch.retries"] = traced["retries"]
        metrics["harness.dispatch.slice_latency_p50_s"] = median(latencies) if latencies else 0.0
    else:
        metrics = dict(traced["layers"])
        metrics["trace.unattributed_s"] = traced["wall_s"] - traced["attributed_s"]
        metrics["harness.dispatch.slices"] = 0
        metrics["harness.dispatch.retries"] = 0
        metrics["harness.dispatch.slice_latency_p50_s"] = 0.0
    metrics["setup.import_s"] = traced["import_s"]
    metrics["trace.overhead_s"] = traced["wall_s"] - plain["wall_s"]
    notes.append(
        f"untraced wall {plain['wall_s']:.4f}s, traced wall {traced['wall_s']:.4f}s"
    )
    return metrics, reports, notes


# ----------------------------------------------------------------------
# Entry point
# ----------------------------------------------------------------------
def run_workload(workload: Workload, seed: int, seconds: float, traced: bool) -> tuple[bool, dict]:
    scratch = ROOT / ".perfbench_tmp" / f"{workload.name}-{seed}-{os.getpid()}"
    try:
        if traced:
            metrics, reports, notes = trace(workload, seed, scratch)
            units = PER_LAYER
        else:
            metrics, reports, notes = measure(workload, seed, seconds, scratch)
            units = END_TO_END
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            scratch.parent.rmdir()
        except OSError:
            pass  # another run still uses it, or it was never created
    verdict = judge(workload, reports)
    print(f"== {workload.name} (seed {seed}, {'traced' if traced else 'untraced'})")
    for note in notes:
        print(f"   {note}")
    for name, unit in units.items():
        print(f"{workload.name} {name} {metrics[name]:.6g} {unit}")
    print(
        f"{workload.name} failed_share {verdict['failed_share']:.6g} ratio "
        f"({verdict['failed']} of {verdict['attempted']} cells)"
    )
    for reason in verdict["reasons"][:20]:
        print(f"   oracle: {reason}")
    if not verdict["deterministic"]:
        print(
            f"   determinism: campaigns {verdict['diverged']} differ from the first "
            "campaign with the same campaign seed"
        )
    correct = verdict["failed"] == 0 and verdict["deterministic"]
    result = {
        "correct": correct,
        "attempted": verdict["attempted"],
        "failed": verdict["failed"],
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    return correct, result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, help=f"one of {sorted(WORKLOADS)} or 'all'")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # Unwind on SIGTERM too, so the campaign process group is killed.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no repro sources under {SRC}", file=sys.stderr)
        return 2
    if args.workload != "all" and args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))  # the oracles read program labels
    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    ok = True
    for name in names:
        try:
            correct, result = run_workload(WORKLOADS[name], args.seed, args.seconds, bool(args.trace))
        except CampaignFailed as exc:
            print(f"error: {name}: {exc}", file=sys.stderr)
            return 1
        ok = ok and correct
        print(json.dumps(result, sort_keys=True))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
