"""Empirical CDFs and the nearest-rank percentile.

Every evaluation figure of the paper is a CDF over AS pairs, monitors, or
interfaces; this module supplies the one distribution type they share, and
the percentile the traffic and service reports read off raw samples.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence, Tuple

__all__ = ["EmpiricalCDF", "nearest_rank"]


def nearest_rank(values: Sequence[float], fraction: float) -> float:
    """Nearest-rank percentile, ``fraction`` in [0, 1]: the sorted sample
    at index ``int(fraction * n)`` (the last one for ``fraction`` 1);
    0.0 for no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(fraction * len(ordered)))]


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

