"""Traffic-run observables.

:class:`TrafficRunResult` is the complete, picklable record of one traffic
run — plain primitives only, so a disk-cached result is byte-identical to
the run that produced it and ``--jobs 1`` versus ``--jobs N`` compare
equal by pickle (the same contract as the beaconing and fault runners).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Dict, Iterable, List, Optional, Tuple

__all__ = ["TrafficRunResult", "path_key"]


def path_key(asns: Iterable[int], link_ids: Iterable[int]) -> str:
    """Stable short identifier of one concrete end-to-end path.

    blake2b over the AS sequence and the link-id sequence (the same pair
    the policies use as the deterministic tie-break), truncated to an
    8-byte hex digest. Both the traffic engine's per-path goodput
    attribution and the ``repro.multipath`` dataset exporter key paths
    this way, so rows written by different subsystems join exactly.
    """
    return _path_digest(tuple(asns), tuple(link_ids))


@lru_cache(maxsize=65536)
def _path_digest(asns: Tuple[int, ...], link_ids: Tuple[int, ...]) -> str:
    """Computed once per path: every flow and churn interval riding a
    path asks for the same key."""
    text = ",".join(str(asn) for asn in asns)
    text += "|" + ",".join(str(link_id) for link_id in link_ids)
    return hashlib.blake2b(text.encode("ascii"), digest_size=8).hexdigest()


def _percentile(values: List[float], fraction: float) -> float:
    """Nearest-rank percentile of a non-empty list."""
    ordered = sorted(values)
    index = min(len(ordered) - 1, int(fraction * len(ordered)))
    return ordered[index]


@dataclass
class TrafficRunResult:
    """Everything one traffic run reports."""

    name: str
    ticks: int
    tick_seconds: float
    link_capacity_bps: float

    # ---- per-tick series (aligned, length == ticks) ----------------------
    #: Application bytes the workload asked to deliver, per tick.
    offered_bytes: List[int] = field(default_factory=list)
    #: Application bytes actually delivered end-to-end, per tick (goodput).
    delivered_bytes: List[int] = field(default_factory=list)
    #: Application bytes lost to failed paths / unroutable flows, per tick.
    lost_bytes: List[int] = field(default_factory=list)

    # ---- flow / packet totals -------------------------------------------
    flows_started: int = 0
    flows_completed: int = 0
    flows_failed: int = 0
    packets_forwarded: int = 0
    packets_lost: int = 0
    #: Hop-field verifications performed (== hops traversed; every one is
    #: a successful MAC check — routers reject on the first failure).
    macs_verified: int = 0
    #: Per completed flow, one-way latency in seconds (propagation plus a
    #: utilization-dependent queueing term), flow-start order.
    flow_latencies: List[float] = field(default_factory=list)

    # ---- link accounting -------------------------------------------------
    #: Wire bytes carried per link over the whole run.
    link_bytes: Dict[int, int] = field(default_factory=dict)
    #: Busiest single tick per link, in wire bytes.
    link_peak_bytes: Dict[int, int] = field(default_factory=dict)

    # ---- per-path goodput attribution -----------------------------------
    #: Application bytes offered to each selected path, keyed by
    #: :func:`path_key`. Only flows that selected a path contribute;
    #: unroutable flows never reach one.
    path_offered_bytes: Dict[str, int] = field(default_factory=dict)
    #: Application bytes delivered over each selected path. Reconciles
    #: exactly with the aggregate: ``sum(path_delivered_bytes.values())
    #: == sum(delivered_bytes)``.
    path_delivered_bytes: Dict[str, int] = field(default_factory=dict)
    #: Flows actually split across more than one path (multipath
    #: strategies only; single-path runs keep this at 0).
    multipath_splits: int = 0
    #: Individual (flow, path) subflows a multipath strategy dispatched
    #: (assignments with a non-zero packet share).
    subflows: int = 0

    # ---- control-plane coupling -----------------------------------------
    cache_hits: int = 0
    cache_misses: int = 0
    #: Fresh lookups forced by data-plane failure discovery (SCMP model).
    re_lookups: int = 0
    scmp_events: int = 0

    # ---- deployment gateways --------------------------------------------
    sig_encapsulated: int = 0
    sig_decapsulated: int = 0
    #: ASes whose hosts are legacy IP (fronted by a SIG).
    legacy_asns: Tuple[int, ...] = ()

    # ---- fault coupling --------------------------------------------------
    fail_tick: Optional[int] = None
    recover_tick: Optional[int] = None
    failed_links: Tuple[int, ...] = ()

    # ------------------------------------------------------------ derived

    @property
    def duration_seconds(self) -> float:
        return self.ticks * self.tick_seconds

    def goodput_bps(self, tick: int) -> float:
        return self.delivered_bytes[tick] * 8.0 / self.tick_seconds

    def goodput_series_bps(self) -> List[float]:
        return [self.goodput_bps(tick) for tick in range(self.ticks)]

    def mean_goodput_bps(self) -> float:
        if not self.ticks:
            return 0.0
        return sum(self.delivered_bytes) * 8.0 / self.duration_seconds

    def delivered_fraction(self) -> float:
        offered = sum(self.offered_bytes)
        return sum(self.delivered_bytes) / offered if offered else 1.0

    def record_path_bytes(
        self, key: str, offered: int, delivered: int
    ) -> None:
        """Attribute one subflow's offered/delivered bytes to its path."""
        if offered:
            self.path_offered_bytes[key] = (
                self.path_offered_bytes.get(key, 0) + offered
            )
        if delivered:
            self.path_delivered_bytes[key] = (
                self.path_delivered_bytes.get(key, 0) + delivered
            )

    def goodput_shares(self) -> Dict[str, float]:
        """Each path's fraction of the run's delivered bytes, by key."""
        total = sum(self.path_delivered_bytes.values())
        if not total:
            return {}
        return {
            key: self.path_delivered_bytes[key] / total
            for key in sorted(self.path_delivered_bytes)
        }

    def cache_hit_rate(self) -> float:
        total = self.cache_hits + self.cache_misses
        return self.cache_hits / total if total else 0.0

    def link_utilization(self, link_id: int) -> float:
        """Mean utilization of one link over the run."""
        capacity = self.link_capacity_bps * self.duration_seconds / 8.0
        return self.link_bytes.get(link_id, 0) / capacity if capacity else 0.0

    def mean_utilization(self) -> float:
        """Mean utilization over links that carried any traffic."""
        if not self.link_bytes:
            return 0.0
        return sum(
            self.link_utilization(link_id) for link_id in self.link_bytes
        ) / len(self.link_bytes)

    def max_utilization(self) -> float:
        if not self.link_bytes:
            return 0.0
        return max(self.link_utilization(link_id) for link_id in self.link_bytes)

    def top_links(self, count: int = 5) -> List[Tuple[int, float]]:
        """The ``count`` most utilized links as (link_id, mean utilization)."""
        ranked = sorted(
            self.link_bytes, key=lambda link_id: (-self.link_bytes[link_id], link_id)
        )
        return [
            (link_id, self.link_utilization(link_id))
            for link_id in ranked[:count]
        ]

    def latency_percentile(self, fraction: float) -> float:
        if not self.flow_latencies:
            return 0.0
        return _percentile(self.flow_latencies, fraction)

    def goodput_dip(self) -> Optional[Tuple[int, float]]:
        """The worst goodput tick at/after the fault, as (tick, fraction of
        the pre-fault mean). ``None`` without a fault or pre-fault window."""
        if self.fail_tick is None or self.fail_tick == 0:
            return None
        pre = self.delivered_bytes[: self.fail_tick]
        baseline = sum(pre) / len(pre)
        if baseline <= 0:
            return None
        window = self.delivered_bytes[self.fail_tick :]
        worst_offset = min(range(len(window)), key=lambda i: (window[i], i))
        return (
            self.fail_tick + worst_offset,
            window[worst_offset] / baseline,
        )

    def recovered_goodput_fraction(self) -> Optional[float]:
        """Mean post-recovery goodput as a fraction of the pre-fault mean."""
        if self.fail_tick is None or self.recover_tick is None:
            return None
        pre = self.delivered_bytes[: self.fail_tick]
        post = self.delivered_bytes[self.recover_tick :]
        if not pre or not post:
            return None
        baseline = sum(pre) / len(pre)
        if baseline <= 0:
            return None
        return (sum(post) / len(post)) / baseline
