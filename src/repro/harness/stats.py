"""Statistics used by the paper's evaluation.

* mean ± std cells for the Appendix B table,
* the Mann-Whitney U test for the bugs-found comparison (Section 5.2),
* the two-sample log-rank test (Mantel 1966) on schedules-to-bug with
  censoring for trials that never found the bug (Sections 5.2/5.3) —
  schedules-to-bug is survival data: a trial that exhausts its budget is a
  right-censored observation, not a missing one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


@dataclass(frozen=True)
class SummaryCell:
    """One Appendix B cell: mean ± std over trials, with found counts."""

    mean: float | None
    std: float | None
    found: int
    trials: int

    @property
    def all_found(self) -> bool:
        return self.found == self.trials

    @property
    def none_found(self) -> bool:
        return self.found == 0

    def render(self) -> str:
        """The paper's cell syntax: ``12 ± 3``, ``12 ± 3*`` (some trials
        missed), or ``-`` (no trial found the bug)."""
        if self.none_found or self.mean is None:
            return "-"
        body = f"{self.mean:.0f} ± {self.std:.0f}" if self.std is not None else f"{self.mean:.0f}"
        return body if self.all_found else body + "*"


def summarize(schedule_counts: list[int | None]) -> SummaryCell:
    """Mean ± std of schedules-to-bug over trials (found trials only)."""
    found = [s for s in schedule_counts if s is not None]
    if not found:
        return SummaryCell(mean=None, std=None, found=0, trials=len(schedule_counts))
    mean = sum(found) / len(found)
    variance = sum((s - mean) ** 2 for s in found) / len(found)
    return SummaryCell(mean=mean, std=math.sqrt(variance), found=len(found), trials=len(schedule_counts))


def mann_whitney_u(xs: list[float], ys: list[float]) -> float:
    """Two-sided Mann-Whitney U p-value (used for the bugs-found-per-trial
    comparison of Section 5.2).  Returns 1.0 for degenerate inputs."""
    if not xs or not ys:
        return 1.0
    if len(set(xs)) == 1 and set(xs) == set(ys):
        return 1.0
    # scipy is imported here, not at module level: importing it costs about
    # a second, and every campaign process imports this module.
    from scipy import stats as _scipy_stats

    return float(_scipy_stats.mannwhitneyu(xs, ys, alternative="two-sided").pvalue)


@dataclass(frozen=True)
class LogRankResult:
    """Two-group log-rank test outcome."""

    statistic: float
    p_value: float

    def significant(self, alpha: float = 0.05) -> bool:
        return self.p_value < alpha


def logrank(
    times_a: list[int | None],
    times_b: list[int | None],
    budget_a: int,
    budget_b: int | None = None,
) -> LogRankResult:
    """Two-sample log-rank test with right censoring.

    ``times_a``/``times_b`` are schedules-to-bug per trial; ``None`` means
    the trial was censored at its budget (bug never found).  Implements the
    standard Mantel (1966) chi-square on the hypergeometric event counts.
    """
    budget_b = budget_b if budget_b is not None else budget_a
    samples: list[tuple[int, bool, int]] = []  # (time, observed, group)
    for t in times_a:
        samples.append((t, True, 0) if t is not None else (budget_a, False, 0))
    for t in times_b:
        samples.append((t, True, 1) if t is not None else (budget_b, False, 1))
    event_times = sorted({time for time, observed, _ in samples if observed})
    if not event_times:
        return LogRankResult(statistic=0.0, p_value=1.0)
    observed_a = 0.0
    expected_a = 0.0
    variance = 0.0
    for when in event_times:
        at_risk = [(time, observed, group) for time, observed, group in samples if time >= when]
        n = len(at_risk)
        n_a = sum(1 for _, _, group in at_risk if group == 0)
        deaths = [(time, observed, group) for time, observed, group in at_risk if observed and time == when]
        d = len(deaths)
        d_a = sum(1 for _, _, group in deaths if group == 0)
        if n == 0 or d == 0:
            continue
        observed_a += d_a
        expected_a += d * n_a / n
        if n > 1:
            variance += d * (n_a / n) * (1 - n_a / n) * (n - d) / (n - 1)
    if variance <= 0:
        return LogRankResult(statistic=0.0, p_value=1.0)
    from scipy import stats as _scipy_stats

    statistic = (observed_a - expected_a) ** 2 / variance
    p_value = float(_scipy_stats.chi2.sf(statistic, df=1))
    return LogRankResult(statistic=statistic, p_value=p_value)


def logrank_direction(times_a: list[int | None], times_b: list[int | None]) -> int:
    """Which group finds bugs faster by crude median comparison: -1 if A,
    +1 if B, 0 if tied.  Used to attribute a significant log-rank result."""
    def score(times: list[int | None]) -> float:
        observed = sorted(t for t in times if t is not None)
        if not observed:
            return math.inf
        # Penalise censored trials by treating them as slowest.
        rank = (len(observed) - 1) // 2
        return observed[rank] * (1 + (len(times) - len(observed)))

    a, b = score(times_a), score(times_b)
    if a < b:
        return -1
    if b < a:
        return 1
    return 0
