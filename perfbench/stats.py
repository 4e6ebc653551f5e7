"""Summary statistics and failure accounting for benchmark runs."""

from __future__ import annotations

import math
import resource
import statistics
import traceback
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

#: Percentiles a latency report may use, lowest first.
PERCENTILES = (50, 75, 90, 95, 99)

#: A percentile is reported only when at least this many samples lie
#: beyond it; below that it says more about one outlier than the system.
MIN_BEYOND = 10


def peak_rss_mb() -> float:
    """Peak resident set of this process plus its largest child so far
    (Linux reports kilobytes)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def percentile(values: Sequence[float], pct: float) -> float:
    """Linear-interpolated percentile (``pct`` in 0..100)."""
    if not values:
        raise ValueError("percentile of no values")
    ordered = sorted(values)
    rank = (len(ordered) - 1) * pct / 100.0
    low = math.floor(rank)
    high = math.ceil(rank)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def samples_beyond(n: int, pct: float) -> int:
    """How many of ``n`` samples lie strictly above the ``pct`` percentile."""
    if n <= 0:
        return 0
    return n - 1 - math.floor((n - 1) * pct / 100.0)


def highest_percentile(n: int) -> Optional[int]:
    """The highest percentile in :data:`PERCENTILES` with at least
    :data:`MIN_BEYOND` of ``n`` samples beyond it, or ``None``."""
    best = None
    for pct in PERCENTILES:
        if samples_beyond(n, pct) >= MIN_BEYOND:
            best = pct
    return best


def spread(values: Sequence[float]) -> float:
    """Inter-quartile distance as a share of the median."""
    q1, median, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median if median else math.inf


@dataclass
class Tally:
    """Counts attempted and failed operations of one run.

    An operation fails when it raises or when its output check fails; a
    failed operation contributes no timing.  Every failure is kept with
    its reason so none is hidden.
    """

    attempted: int = 0
    failed: int = 0
    errors: List[str] = field(default_factory=list)

    def ok(self) -> None:
        self.attempted += 1

    def fail(self, what: str, reason: str) -> None:
        self.attempted += 1
        self.failed += 1
        self.errors.append(f"{what}: {reason}")

    def check(self, what: str, condition: bool, reason: str) -> bool:
        """Count one checked operation; returns ``condition``."""
        if condition:
            self.ok()
        else:
            self.fail(what, reason)
        return condition

    def exception(self, what: str, exc: BaseException) -> None:
        last = traceback.format_exception_only(type(exc), exc)[-1].strip()
        self.fail(what, last)

    @property
    def failed_frac(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0


@dataclass
class Samples:
    """Named timing samples of one run (seconds unless stated)."""

    values: Dict[str, List[float]] = field(default_factory=dict)

    def add(self, name: str, value: float) -> None:
        self.values.setdefault(name, []).append(value)

    def median(self, name: str) -> float:
        return statistics.median(self.values[name])

    def count(self, name: str) -> int:
        return len(self.values.get(name, ()))
