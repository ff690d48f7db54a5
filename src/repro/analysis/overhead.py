"""Control-plane overhead aggregation (§5.2, Figure 5).

The paper compares the monthly control-plane traffic received by a set of
monitor ASes (the RouteViews monitors) across protocols: each six-hour
SCION simulation is extrapolated "by leveraging the periodicity of
announcements and multiplying the traffic by the number of periods in a
month"; BGPsec assumes "a re-beaconing period of one day" and multiplies by
30. Figure 5 then plots, per monitor, the overhead of each protocol
*relative to BGP*.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from .stats import EmpiricalCDF

__all__ = [
    "SECONDS_PER_MONTH",
    "scale_to_month",
    "OverheadComparison",
]

SECONDS_PER_MONTH = 30 * 24 * 3600.0


def scale_to_month(bytes_measured: float, duration_seconds: float) -> float:
    """Extrapolate a periodic measurement window to one month."""
    if duration_seconds <= 0:
        raise ValueError("duration must be positive")
    return bytes_measured * (SECONDS_PER_MONTH / duration_seconds)


@dataclass
class OverheadComparison:
    """Per-monitor monthly overhead of several protocols relative to BGP."""

    #: protocol name -> monitor ASN -> monthly bytes received.
    monthly_bytes: Dict[str, Dict[int, float]]
    reference: str = "bgp"

    def monitors(self) -> List[int]:
        return sorted(self.monthly_bytes[self.reference])

    def relative(self, protocol: str) -> Dict[int, float]:
        """Per-monitor ratio of ``protocol`` overhead to BGP overhead.

        Monitors with zero BGP overhead are skipped (no reference point).
        """
        if protocol not in self.monthly_bytes:
            raise KeyError(f"unknown protocol {protocol!r}")
        reference = self.monthly_bytes[self.reference]
        values = self.monthly_bytes[protocol]
        out: Dict[int, float] = {}
        for asn, ref_bytes in reference.items():
            if ref_bytes <= 0:
                continue
            out[asn] = values.get(asn, 0.0) / ref_bytes
        return out

    def relative_cdf(self, protocol: str) -> EmpiricalCDF:
        ratios = list(self.relative(protocol).values())
        return EmpiricalCDF.from_values(ratios)

    def median_relative(self, protocol: str) -> float:
        return self.relative_cdf(protocol).median
