"""Per-link latency model.

§4.2 ("Optimizing for other Criteria") notes that optimizing paths for
latency needs information beyond what PCBs carry today — e.g. border
router locations or latency measurements. This module is that information
channel for the latency-aware extension: a deterministic latency per
inter-domain link, derived from the link's interconnection location (two
ASes meeting at one exchange are close; a long-haul adjacency is slower).
"""

from __future__ import annotations

import hashlib
from typing import Dict, Iterable, Tuple

from .model import Link, Topology

__all__ = ["LatencyModel"]

#: Range of the per-link latencies in seconds: 2 ms (two ASes meeting at
#: one exchange) to 50 ms (a long-haul adjacency).
MIN_LATENCY = 0.002
MAX_LATENCY = 0.050
#: Queueing sensitivity of the traffic and churn latency models: a path's
#: latency grows by this factor times its bottleneck's utilization.
QUEUEING_FACTOR = 2.0


class LatencyModel:
    """Deterministic (seeded) per-link propagation latencies in seconds,
    between :data:`MIN_LATENCY` and :data:`MAX_LATENCY`."""

    def __init__(self, topology: Topology, *, seed: int = 0) -> None:
        self.topology = topology
        self.seed = seed
        #: Per link id and per link-id tuple, valid while the topology's
        #: ``link_epoch`` is ``_epoch`` (a link re-added under its id moves it).
        self._epoch = topology.link_epoch
        self._derived_memo: Dict[int, float] = {}
        self._path_memo: Dict[Tuple[int, ...], float] = {}

    def _sync_epoch(self) -> None:
        if self._epoch != self.topology.link_epoch:
            self._epoch = self.topology.link_epoch
            self._derived_memo, self._path_memo = {}, {}

    def latency_of(self, link_id: int) -> float:
        """Latency of one link, derived once per link epoch."""
        self._sync_epoch()
        latency = self._derived_memo.get(link_id)
        if latency is None:
            link = self.topology.link(link_id)
            latency = self._derived_memo[link_id] = self._derived(link)
        return latency

    def _derived(self, link: Link) -> float:
        digest = hashlib.blake2b(
            f"{self.seed}|{link.location}|{min(link.endpoints())}|"
            f"{max(link.endpoints())}".encode(),
            digest_size=8,
        ).digest()
        fraction = int.from_bytes(digest, "big") / 2**64
        return MIN_LATENCY + fraction * (MAX_LATENCY - MIN_LATENCY)

    def path_latency(self, link_ids: Iterable[int]) -> float:
        """End-to-end propagation latency of a path (sum of its links,
        left to right from ``0`` — callers compare results bit for bit),
        summed once per link-id tuple and link epoch."""
        self._sync_epoch()
        key = link_ids if type(link_ids) is tuple else tuple(link_ids)
        total = self._path_memo.get(key)
        if total is None:
            if len(self._path_memo) >= 1 << 16:
                self._path_memo.clear()  # bounded like forwarding_key's
            latency_of = self.latency_of
            total = self._path_memo[key] = sum(
                [latency_of(link_id) for link_id in key]
            )
        return total
