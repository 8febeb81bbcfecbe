"""Renderers for the paper's tables and figures.

Everything renders to plain text (the benches ``tee`` it into
EXPERIMENTS.md-ready blocks): the Appendix B mean±std table, the Figure 4
cumulative-bugs-vs-log-schedules curves, and the Figure 5 reads-from
frequency histograms.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass

from repro.core.fuzzer import FuzzReport, RffConfig, RffFuzzer
from repro.harness.campaign import CampaignResult
from repro.harness.stats import logrank, logrank_direction
from repro.runtime.executor import Executor
from repro.runtime.program import Program
from repro.schedulers.pos import PosPolicy

#: Appendix B column order (paper's table).
APPENDIX_B_ORDER = ["PCT3", "PERIOD", "RFF", "POS", "QLearning RF", "GenMC"]


def appendix_b_table(campaign: CampaignResult, tools: list[str] | None = None) -> str:
    """Render the Appendix B table: mean ± std schedules-to-first-bug.

    Cell syntax follows the paper: ``-`` = bug never found, ``*`` = missed
    in at least one trial, ``Error`` = the tool could not run the program.
    """
    tool_names = tools or [t for t in APPENDIX_B_ORDER if t in campaign.tools()]
    width = max(len(p) for p in campaign.programs()) + 2
    header = "Benchmark/program".ljust(width) + "".join(t.rjust(18) for t in tool_names)
    lines = [header, "-" * len(header)]
    for program in campaign.programs():
        row = [program.ljust(width)]
        for tool in tool_names:
            if campaign.is_error(tool, program):
                cell = "Error"
            else:
                cell = campaign.cell(tool, program).render()
            row.append(cell.rjust(18))
        lines.append("".join(row))
    lines.append("-" * len(header))
    summary = "mean bugs found".ljust(width) + "".join(
        f"{campaign.mean_bugs_found(t):.1f}".rjust(18) for t in tool_names
    )
    lines.append(summary)
    return "\n".join(lines)


def figure4_series(campaign: CampaignResult) -> dict[str, list[tuple[int, int]]]:
    """Figure 4 data: tool -> sorted (schedules, cumulative bugs) points."""
    return {tool: campaign.cumulative_curve(tool) for tool in campaign.tools()}


def figure4_ascii(campaign: CampaignResult, width: int = 64, height: int = 16) -> str:
    """ASCII rendering of Figure 4 (cumulative bugs vs log10 schedules)."""
    series = {t: c for t, c in figure4_series(campaign).items() if c}
    if not series:
        return "(no bugs found by any tool)"
    max_bugs = max(curve[-1][1] for curve in series.values())
    max_log = max(math.log10(curve[-1][0] + 1) for curve in series.values())
    max_log = max(max_log, 1.0)
    grid = [[" "] * width for _ in range(height)]
    markers = {}
    for marker, (tool, curve) in zip("RPOCQG#@%&", sorted(series.items())):
        markers[tool] = marker
        for schedules, bugs in curve:
            x = min(width - 1, int(math.log10(schedules + 1) / max_log * (width - 1)))
            y = min(height - 1, int(bugs / max_bugs * (height - 1)))
            grid[height - 1 - y][x] = marker
    lines = [f"cumulative bugs (max {max_bugs}) vs log10(schedules)"]
    lines += ["|" + "".join(row) for row in grid]
    lines.append("+" + "-" * width)
    lines += [f"  {marker} = {tool}" for tool, marker in sorted(markers.items())]
    return "\n".join(lines)


# ----------------------------------------------------------------------
# Figure 5: reads-from signature frequency on SafeStack
# ----------------------------------------------------------------------
@dataclass
class RfDistribution:
    """Observation counts per rf signature after N schedules of one tool."""

    tool: str
    executions: int
    counts: list[int]  # descending

    @property
    def unique_signatures(self) -> int:
        return len(self.counts)

    @property
    def top_share(self) -> float:
        """Fraction of all executions consumed by the most common signature
        (the paper's ">50% under POS" observation)."""
        return self.counts[0] / self.executions if self.counts else 0.0

    def gini(self) -> float:
        """Gini coefficient of the distribution: 0 = perfectly even
        exploration, 1 = maximally skewed.  A scalar summary of Figure 5."""
        if not self.counts:
            return 0.0
        sorted_counts = sorted(self.counts)
        n = len(sorted_counts)
        cumulative = sum((i + 1) * c for i, c in enumerate(sorted_counts))
        total = sum(sorted_counts)
        if total == 0:
            return 0.0
        return (2 * cumulative) / (n * total) - (n + 1) / n


def rf_distribution_pos(program: Program, executions: int, seed: int = 0) -> RfDistribution:
    """Signature counts under plain POS (Figure 5, top)."""
    import random

    rng = random.Random(seed)
    counts: Counter = Counter()
    for _ in range(executions):
        policy = PosPolicy(seed=rng.randrange(2**63))
        result = Executor(program, policy, max_steps=program.max_steps or 20000).run()
        counts[result.trace.rf_signature()] += 1
    return RfDistribution("POS", executions, sorted(counts.values(), reverse=True))


def rf_distribution_rff(
    program: Program, executions: int, seed: int = 0, config: RffConfig | None = None
) -> RfDistribution:
    """Signature counts under RFF with greybox feedback (Figure 5, bottom)."""
    fuzzer = RffFuzzer(program, seed=seed, config=config or RffConfig())
    report: FuzzReport = fuzzer.run(executions)
    return RfDistribution("RFF", report.executions, sorted(report.signature_counts.values(), reverse=True))


def figure5_ascii(distribution: RfDistribution, bars: int = 40, height: int = 10) -> str:
    """Log-scale frequency bars for the most common rf signatures."""
    counts = distribution.counts[:bars]
    if not counts:
        return "(no executions)"
    top = math.log10(max(counts) + 1)
    lines = [
        f"{distribution.tool}: {distribution.unique_signatures} rf signatures over "
        f"{distribution.executions} schedules; top signature share "
        f"{distribution.top_share:.1%}, gini {distribution.gini():.2f}"
    ]
    for level in range(height, 0, -1):
        threshold = top * level / height
        lines.append("|" + "".join("#" if math.log10(c + 1) >= threshold else " " for c in counts))
    lines.append("+" + "-" * len(counts) + "  (signatures, most frequent first; log-scale)")
    return "\n".join(lines)


# ----------------------------------------------------------------------
# Campaign throughput (telemetry summary)
# ----------------------------------------------------------------------
def throughput_summary(aggregator, slowest: int = 3) -> str:
    """Render a campaign's telemetry aggregate as a plain-text block.

    ``aggregator`` is a :class:`~repro.harness.telemetry.TelemetryAggregator`
    attached to the campaign's sink; the block mirrors what the paper's
    Appendix A.2 infrastructure would report per 50-core run.
    """
    summary = aggregator.summary()
    lines = [
        "Campaign throughput",
        f"  cells:            {summary['cells']} completed, "
        f"{summary['failed_cells']} failed, {summary['retries']} retried",
        f"  schedules:        {summary['executions']:,} "
        f"({summary['schedules_per_sec']:,.1f}/sec)",
        f"  executor steps:   {summary['steps']:,}",
        f"  wall time:        {summary['wall_time']:.2f}s",
        f"  worker restarts:  {summary['worker_restarts']}",
    ]
    if getattr(aggregator, "batches_dispatched", 0):
        lines.append(
            f"  pooled batches:   {aggregator.batches_dispatched} dispatched, "
            f"{getattr(aggregator, 'worker_recycles', 0)} worker recycle(s)"
        )
    if getattr(aggregator, "lease_reassignments", 0):
        lines.append(
            f"  lease reassigns:  {aggregator.lease_reassignments} "
            f"({aggregator.heartbeats} heartbeats observed)"
        )
    if summary.get("sanitizer_reports"):
        by_name = aggregator.sanitizer_reports_by_name()
        breakdown = ", ".join(f"{name}: {count}" for name, count in sorted(by_name.items()))
        lines.append(f"  sanitizer hits:   {summary['sanitizer_reports']} ({breakdown})")
    slow = aggregator.slowest_cells(slowest)
    if slow:
        cells = ", ".join(
            f"{tool}/{program} trial {trial} ({wall:.2f}s)"
            for (tool, program, trial), wall in slow
        )
        lines.append(f"  slowest cells:    {cells}")
    return "\n".join(lines)


# ----------------------------------------------------------------------
# Durable store health
# ----------------------------------------------------------------------
def store_summary(inspection) -> str:
    """Render a :class:`~repro.harness.store.StoreInspection` as plain text
    (the ``rff store inspect`` output)."""
    lines = [
        f"Corpus store {inspection.path}",
        f"  segments:         {inspection.segments} "
        f"({inspection.compactions} compaction(s))",
        f"  records:          {inspection.records} "
        f"({inspection.corrupt_records} corrupt, skipped)",
        f"  cells:            {inspection.cells} completed",
        f"  bugs:             {inspection.bugs} admitted",
    ]
    if inspection.recovered_bytes:
        lines.append(
            f"  torn tail:        {inspection.recovered_bytes} byte(s) "
            f"truncated on open"
        )
    if getattr(inspection, "slices", 0):
        lines.append(f"  slices:           {inspection.slices} allocation-round record(s)")
    header = inspection.header
    if header:
        lines.append(
            f"  campaign:         {len(header.get('tools', []))} tool(s) x "
            f"{len(header.get('programs', []))} program(s) x "
            f"{header.get('trials')} trial(s), base seed {header.get('base_seed')}"
        )
        allocator = header.get("allocator")
        if allocator:
            lines.append(
                f"  allocator:        {allocator.get('name')} "
                f"({allocator.get('rounds')} round(s), "
                f"floor {allocator.get('min_cell_budget')})"
            )
    else:
        lines.append("  campaign:         (none bound yet)")
    return "\n".join(lines)


# ----------------------------------------------------------------------
# Adaptive budget allocation
# ----------------------------------------------------------------------
def allocation_summary(campaign: CampaignResult, top: int = 3) -> str:
    """Render a campaign's allocation ledger: per-round budgets, where the
    schedules went, and the per-cell totals the allocator converged on."""
    ledger = campaign.allocation
    if not ledger:
        return "Allocation: (campaign ran without a budget allocator)"
    lines = [
        f"Allocation ledger — allocator: {ledger['allocator']}, "
        f"floor {ledger.get('min_cell_budget', 1)}/cell/round"
    ]
    totals: dict[tuple[str, str, int], int] = {}
    for entry in ledger["rounds"]:
        found = sum(1 for s in entry["slices"] if s["found"])
        lines.append(
            f"  round {entry['round']}: {entry['budget']} schedules over "
            f"{entry['cells']} cell(s), {found} bug(s)"
        )
        ranked = sorted(
            entry["slices"],
            key=lambda s: (-s["allocated"], s["tool"], s["program"], s["trial"]),
        )
        for s in ranked[:top]:
            estimate = s["estimate"]
            estimate_text = f", est {estimate:.4f}" if estimate is not None else ""
            lines.append(
                f"    {s['tool']} / {s['program']} trial {s['trial']}: "
                f"{s['allocated']} schedule(s){estimate_text}"
            )
        for s in entry["slices"]:
            key = (s["tool"], s["program"], s["trial"])
            totals[key] = totals.get(key, 0) + s["allocated"]
    if totals:
        spread = sorted(totals.values())
        lines.append(
            f"  totals: {sum(spread)} schedules allocated, per-cell "
            f"min {spread[0]} / max {spread[-1]}"
        )
    return "\n".join(lines)


# ----------------------------------------------------------------------
# Sanitizer findings
# ----------------------------------------------------------------------
def sanitizer_summary(campaign: CampaignResult) -> str:
    """Render the distinct sanitizer findings of a campaign, per program.

    Findings are deduplicated across tools and trials by their
    ``dedup_key`` (sanitizer, kind, abstract-event pair), so the block
    reports *bugs*, not detection counts.
    """
    per_program: dict[str, dict[tuple, str]] = {}
    per_sanitizer: Counter[str] = Counter()
    for (_, program), trials in campaign.results.items():
        bucket = per_program.setdefault(program, {})
        for result in trials:
            for report in result.sanitizer_reports:
                if report.dedup_key not in bucket:
                    bucket[report.dedup_key] = report.message
                    per_sanitizer[report.sanitizer] += 1
    total = sum(len(bucket) for bucket in per_program.values())
    lines = [f"Sanitizer findings: {total} distinct"]
    if total:
        breakdown = ", ".join(f"{name}: {count}" for name, count in sorted(per_sanitizer.items()))
        lines.append(f"  by sanitizer:     {breakdown}")
    for program in sorted(per_program):
        bucket = per_program[program]
        if not bucket:
            continue
        lines.append(f"  {program}: {len(bucket)}")
        for key in sorted(bucket):
            lines.append(f"    [{key[0]}] {bucket[key]}")
    return "\n".join(lines)


# ----------------------------------------------------------------------
# Triage / reproduction
# ----------------------------------------------------------------------
def reproduction_summary(campaign: CampaignResult) -> str:
    """Render the replay-verification ledger of a campaign.

    Bugs are grouped per program by their triage bucket; each bucket shows
    how many trials landed in it and the replay verdicts observed.  Only
    STABLE bugs count as reproduced — FLAKY buckets are listed under a
    quarantine marker so they are never mistaken for verified findings.
    """
    per_program: dict[str, dict[str, Counter]] = {}
    stable = flaky = unverified = 0
    for (_, program), trials in campaign.results.items():
        buckets = per_program.setdefault(program, {})
        for result in trials:
            if not result.found or result.bucket is None:
                continue
            verdict = result.replay_verdict or "UNVERIFIED"
            buckets.setdefault(result.bucket, Counter())[verdict] += 1
            if verdict == "STABLE":
                stable += 1
            elif verdict == "FLAKY":
                flaky += 1
            else:
                unverified += 1
    lines = [
        "Reproduction ledger: "
        f"{stable} STABLE, {flaky} FLAKY (quarantined), {unverified} unverified"
    ]
    for program in sorted(per_program):
        buckets = per_program[program]
        if not buckets:
            continue
        lines.append(f"  {program}:")
        for bucket in sorted(buckets):
            verdicts = buckets[bucket]
            rendered = ", ".join(f"{v}×{n}" for v, n in sorted(verdicts.items()))
            marker = " [QUARANTINED]" if verdicts.get("FLAKY") else ""
            lines.append(f"    {bucket}: {rendered}{marker}")
    return "\n".join(lines)


# ----------------------------------------------------------------------
# Pairwise significance (Sections 5.2/5.3 claims)
# ----------------------------------------------------------------------
def significance_summary(
    campaign: CampaignResult, tool_a: str, tool_b: str, alpha: float = 0.05
) -> dict[str, int]:
    """Count programs where each tool is significantly faster (log-rank).

    Returns ``{"a_faster": n, "b_faster": m, "ties": k}`` over all programs,
    the shape of the paper's "significantly fewer schedules on 30/49" claims.
    """
    a_faster = b_faster = ties = 0
    for program in campaign.programs():
        times_a = campaign.schedules_to_bug(tool_a, program)
        times_b = campaign.schedules_to_bug(tool_b, program)
        if not times_a or not times_b:
            continue
        budget = campaign.config.budget_for(program)
        test = logrank(times_a, times_b, budget_a=budget, budget_b=budget)
        if test.significant(alpha):
            direction = logrank_direction(times_a, times_b)
            if direction < 0:
                a_faster += 1
            elif direction > 0:
                b_faster += 1
            else:
                ties += 1
        else:
            ties += 1
    return {"a_faster": a_faster, "b_faster": b_faster, "ties": ties}


# ----------------------------------------------------------------------
# Ground-truth differential evaluation (generated corpora)
# ----------------------------------------------------------------------
def groundtruth_summary(payload: dict) -> str:
    """Render a BENCH_groundtruth payload (see harness.groundtruth).

    One block per channel: crash-channel detection per tool and planted
    kind, then the per-sanitizer confusion with FN/FP rates — the numbers
    the CI baseline bounds.
    """
    config = payload["config"]
    kinds = payload["corpus"]["kinds"]
    breakdown = ", ".join(f"{kind}: {count}" for kind, count in sorted(kinds.items()))
    lines = [
        f"Generated corpus: {config['count']} programs from seed {config['seed']}"
        + (f" (config {config['gen_config']})" if config["gen_config"] else ""),
        f"  planted kinds:    {breakdown}",
        "",
        f"Crash channel ({config['trials']} trials x {config['budget']} schedules):",
    ]
    for tool, section in payload["tools"].items():
        planted_total = section["planted_total"]
        mean = section["mean_schedules_to_bug"]
        mean_text = f"{mean:.1f}" if mean is not None else "-"
        per_kind = ", ".join(
            f"{kind} {section['detected'].get(kind, 0)}/{count}"
            for kind, count in sorted(section["planted"].items())
        )
        lines.append(
            f"  {tool:14s} {section['detected_total']:3d}/{planted_total} planted bugs"
            f"  (mean schedules-to-bug {mean_text};  {per_kind})"
        )
        if section["spurious_crashes"]:
            lines.append(
                f"  {'':14s} !! {section['spurious_crashes']} spurious crash(es) "
                "on bug-free programs"
            )
    lines.append("")
    lines.append(
        f"Sanitizer channel (RFF x {config['sanitizer_budget']} schedules per program):"
    )
    for name, cell in payload["sanitizers"].items():
        lines.append(
            f"  {name:10s} tp={cell['tp']:3d} fn={cell['fn']:3d} fp={cell['fp']:3d} "
            f"tn={cell['tn']:3d}  fn_rate={cell['fn_rate']:.3f} fp_rate={cell['fp_rate']:.3f}"
        )
    return "\n".join(lines)


# ----------------------------------------------------------------------
# Pooled-worker profiling
# ----------------------------------------------------------------------
def profile_summary(profile_dir, top: int = 15) -> str:
    """Merge the pool workers' ``.pstats`` dumps into one hot-spot table.

    ``rff campaign --parallel N --profile DIR`` leaves one
    ``worker-<pid>.pstats`` file per worker under ``DIR`` (re-dumped after
    every batch, so even killed workers contribute their completed work);
    this merges them and renders the ``top`` functions by cumulative time.
    """
    import io
    import pstats
    from pathlib import Path

    dumps = sorted(Path(profile_dir).glob("worker-*.pstats"))
    if not dumps:
        return f"Worker profile: no .pstats dumps under {profile_dir}"
    stats = pstats.Stats(str(dumps[0]))
    for dump in dumps[1:]:
        stats.add(str(dump))
    buffer = io.StringIO()
    stats.stream = buffer
    stats.sort_stats("cumulative").print_stats(top)
    lines = [
        f"Worker profile ({len(dumps)} worker dump(s), top {top} by cumulative time)"
    ]
    # pstats prints a preamble (file list, ordering note) before the table;
    # keep everything from the column header on.
    rows = buffer.getvalue().splitlines()
    start = next((i for i, row in enumerate(rows) if "ncalls" in row), 0)
    lines.extend(f"  {row}" for row in rows[start:] if row.strip())
    return "\n".join(lines)
