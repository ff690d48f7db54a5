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


class LatencyModel:
    """Deterministic (seeded) per-link propagation latencies in seconds."""

    def __init__(
        self,
        topology: Topology,
        *,
        min_latency: float = 0.002,
        max_latency: float = 0.050,
        seed: int = 0,
    ) -> None:
        if not 0 < min_latency <= max_latency:
            raise ValueError("need 0 < min_latency <= max_latency")
        self.topology = topology
        self.min_latency = min_latency
        self.max_latency = max_latency
        self.seed = seed
        #: link id -> (the link it was derived from, derived latency). The
        #: entry is used only while the topology still maps the id to that
        #: very link object, so a link re-added under a reused id is
        #: re-derived; holding the link keeps its identity from recycling.
        self._derived_memo: Dict[int, Tuple[Link, float]] = {}

    def latency_of(self, link_id: int) -> float:
        """Latency of one link, derived once per link object."""
        link = self.topology.link(link_id)
        memo = self._derived_memo.get(link_id)
        if memo is None or memo[0] is not link:
            memo = self._derived_memo[link_id] = (link, self._derived(link))
        return memo[1]

    def _derived(self, link: Link) -> float:
        digest = hashlib.blake2b(
            f"{self.seed}|{link.location}|{min(link.endpoints())}|"
            f"{max(link.endpoints())}".encode(),
            digest_size=8,
        ).digest()
        fraction = int.from_bytes(digest, "big") / 2**64
        return self.min_latency + fraction * (
            self.max_latency - self.min_latency
        )

    def path_latency(self, link_ids: Iterable[int]) -> float:
        """End-to-end propagation latency of a path (sum of its links,
        left to right from ``0`` — callers compare results bit for bit)."""
        latency_of = self.latency_of
        return sum([latency_of(link_id) for link_id in link_ids])
