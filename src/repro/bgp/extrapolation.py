"""Extrapolating simulated overhead to a larger topology (§5.2).

The paper simulates BGPsec on the 12000-AS ``as-rel-geo`` topology and
extrapolates to the full ``as-rel`` Internet: "We assume that for a prefix
in AS A outside the AS-rel-geo topology, a router receives the same number
of update messages as for a prefix in A's lowest-tier provider within the
AS-rel-geo topology. Additionally, we assume that the routes originated
from A are longer than the routes originated from its lowest-tier provider
by their hop difference to their nearest Tier-1 provider."

This module implements exactly that mapping for any (full topology,
simulated sub-topology) pair.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Dict, Optional, Set

from ..topology.model import Topology

__all__ = ["OutsideOriginMapping", "map_outside_origins", "tier1_hop_distance"]


@dataclass(frozen=True)
class OutsideOriginMapping:
    """How one AS outside the simulated topology is represented."""

    origin: int
    #: The lowest-tier provider of the origin inside the simulation.
    proxy: int
    #: How many AS hops longer the origin's routes are than the proxy's.
    extra_hops: int


def tier1_hop_distance(
    topology: Topology, asn: int, tier1: Set[int]
) -> Optional[int]:
    """Minimum provider-chain hops from ``asn`` up to any Tier-1 AS."""
    if asn in tier1:
        return 0
    seen = {asn}
    frontier = deque([(asn, 0)])
    while frontier:
        current, depth = frontier.popleft()
        for provider in topology.providers(current):
            if provider in tier1:
                return depth + 1
            if provider not in seen:
                seen.add(provider)
                frontier.append((provider, depth + 1))
    return None


def _lowest_tier_provider_inside(
    topology: Topology, origin: int, inside: Set[int], tier1: Set[int]
) -> Optional[int]:
    """Breadth-first up the provider hierarchy for the first AS inside the
    simulated topology; among same-depth candidates, prefer the one
    *furthest* from Tier-1 (the lowest tier)."""
    seen = {origin}
    frontier = deque([origin])
    while frontier:
        level = list(frontier)
        frontier.clear()
        candidates = []
        for current in level:
            for provider in sorted(topology.providers(current)):
                if provider in inside:
                    candidates.append(provider)
                elif provider not in seen:
                    seen.add(provider)
                    frontier.append(provider)
        if candidates:
            def tier_key(asn: int):
                distance = tier1_hop_distance(topology, asn, tier1)
                return (-(distance if distance is not None else 10**6), asn)

            return min(candidates, key=tier_key)
    return None


def map_outside_origins(
    full_topology: Topology,
    simulated_asns: Set[int],
) -> Dict[int, OutsideOriginMapping]:
    """Map every AS of the full topology outside the simulation to its
    proxy and extra hop count. The Tier-1 set is every AS without a
    provider. Origins with no provider path into the simulated topology
    are skipped (their prefixes are unreachable there).
    """
    tier1 = {
        asn for asn in full_topology.asns() if not full_topology.providers(asn)
    }
    mappings: Dict[int, OutsideOriginMapping] = {}
    for origin in sorted(full_topology.asns()):
        if origin in simulated_asns:
            continue
        proxy = _lowest_tier_provider_inside(
            full_topology, origin, simulated_asns, tier1
        )
        if proxy is None:
            continue
        origin_distance = tier1_hop_distance(full_topology, origin, tier1)
        proxy_distance = tier1_hop_distance(full_topology, proxy, tier1)
        if origin_distance is None or proxy_distance is None:
            extra = 1
        else:
            extra = max(0, origin_distance - proxy_distance)
        mappings[origin] = OutsideOriginMapping(
            origin=origin, proxy=proxy, extra_hops=extra
        )
    return mappings
