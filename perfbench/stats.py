"""The arithmetic the benchmark reports with: percentiles, shares, names."""

from __future__ import annotations

import math
import re
from typing import Iterable, Sequence

#: A metric or workload name: letters, digits, ``_``, ``.`` and ``-``,
#: starting with a letter or digit, at most 64 characters.
NAME_PATTERN = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")

#: Percentiles the rule below chooses from.
PERCENTILES = (50.0, 90.0, 99.0, 99.9)

#: Samples that must lie beyond a percentile for it to be reported.
TAIL_SAMPLES = 10


def valid_name(name: str) -> bool:
    return NAME_PATTERN.fullmatch(name) is not None


def rank(p: float, n: int) -> int:
    """1-based nearest rank of percentile ``p`` among ``n`` sorted samples."""
    if n < 1:
        raise ValueError("a percentile needs at least one sample")
    # Rounded first, so that float error (99.9 * 10000 / 100 = 9990.000...2)
    # cannot push an exact rank up by one.
    return min(n, max(1, math.ceil(round(p * n / 100.0, 9))))


def percentile(values: Iterable[float], p: float) -> float:
    """Nearest-rank percentile: the smallest sample with at least ``p``
    percent of the samples at or below it."""
    ordered = sorted(values)
    return ordered[rank(p, len(ordered)) - 1]


def supported(p: float, n: int) -> bool:
    """Whether at least :data:`TAIL_SAMPLES` of ``n`` samples lie beyond
    the nearest rank of percentile ``p``."""
    return n - rank(p, n) >= TAIL_SAMPLES


def highest_percentile(n: int, candidates: Sequence[float] = PERCENTILES) -> float | None:
    """The highest candidate percentile with enough samples beyond it."""
    allowed = [p for p in candidates if n >= 1 and supported(p, n)]
    return max(allowed) if allowed else None


def failed_share(
    attempted: Iterable, errored: Iterable, mismatched: Iterable
) -> tuple[int, float]:
    """(failed count, failed share) over the attempted cells.

    A cell fails when it ended in an error or failed its output oracle; a
    cell that did both counts once, and keys outside ``attempted`` are
    ignored.
    """
    cells = set(attempted)
    if not cells:
        raise ValueError("no attempted cells")
    failed = cells & (set(errored) | set(mismatched))
    return len(failed), len(failed) / len(cells)
