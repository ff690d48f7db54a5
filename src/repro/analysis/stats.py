"""Statistical helpers: empirical CDFs, percentiles, and means.

Every evaluation figure of the paper is a CDF over AS pairs, monitors, or
interfaces; this module supplies the shared machinery, including an ASCII
renderer used by the experiment reports.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Iterable, List, Sequence, Tuple

__all__ = [
    "EmpiricalCDF",
    "geometric_mean",
    "percentile",
]


def geometric_mean(values: Sequence[float]) -> float:
    """Geometric mean; zero if any value is zero."""
    if not values:
        raise ValueError("geometric mean of no values")
    if any(v < 0 for v in values):
        raise ValueError("geometric mean needs non-negative values")
    if any(v == 0 for v in values):
        return 0.0
    return math.exp(sum(math.log(v) for v in values) / len(values))


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile, ``q`` in [0, 100]."""
    if not values:
        raise ValueError("percentile of no values")
    if not 0.0 <= q <= 100.0:
        raise ValueError("q must be in [0, 100]")
    ordered = sorted(values)
    if q == 0.0:
        return ordered[0]
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


@dataclass(frozen=True)
class EmpiricalCDF:
    """An empirical distribution over a finite sample."""

    values: Tuple[float, ...]

    @classmethod
    def from_values(cls, values: Iterable[float]) -> "EmpiricalCDF":
        ordered = tuple(sorted(values))
        if not ordered:
            raise ValueError("an empirical CDF needs at least one value")
        return cls(values=ordered)

    def __len__(self) -> int:
        return len(self.values)

    def at(self, x: float) -> float:
        """P(X <= x)."""
        import bisect

        return bisect.bisect_right(self.values, x) / len(self.values)

    def quantile(self, q: float) -> float:
        """Inverse CDF for ``q`` in (0, 1]."""
        if not 0.0 < q <= 1.0:
            raise ValueError("q must be in (0, 1]")
        rank = max(1, math.ceil(q * len(self.values)))
        return self.values[rank - 1]

    @property
    def median(self) -> float:
        return self.quantile(0.5)

    @property
    def mean(self) -> float:
        return sum(self.values) / len(self.values)

    @property
    def min(self) -> float:
        return self.values[0]

    @property
    def max(self) -> float:
        return self.values[-1]

    def points(self) -> List[Tuple[float, float]]:
        """Step points (x, P(X <= x)) suitable for plotting."""
        n = len(self.values)
        out: List[Tuple[float, float]] = []
        for index, value in enumerate(self.values, start=1):
            if out and out[-1][0] == value:
                out[-1] = (value, index / n)
            else:
                out.append((value, index / n))
        return out

    def summary(self) -> Dict[str, float]:
        return {
            "min": self.min,
            "p25": self.quantile(0.25),
            "median": self.median,
            "p75": self.quantile(0.75),
            "max": self.max,
            "mean": self.mean,
        }
