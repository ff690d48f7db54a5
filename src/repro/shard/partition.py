"""ISD-aware topology partitioning for the sharded beaconing kernel.

The partitioner splits the AS set into ``N`` disjoint shards. Beacons
propagate along ISD/core structure, so when every AS carries an ISD
annotation the partitioner keeps ISDs atomic and bin-packs whole ISDs
onto shards — the shard boundary then coincides with ISD boundaries and
cross-shard traffic is minimised (the same space-partitioning argument
distributed training uses for data parallelism). Topologies without ISD
annotations (or with fewer ISDs than requested shards) fall back to a
deterministic degree-balanced assignment: ASes are placed heaviest-first
onto the shard with the lowest accumulated link degree, so per-shard
beaconing work stays roughly even.

Both strategies are pure functions of the topology and the shard count —
the same inputs always produce the same :class:`ShardPlan`, which the
warm-state cache and the determinism contract rely on.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..topology.model import Topology

__all__ = ["ShardPlan", "partition_topology"]


@dataclass(frozen=True)
class ShardPlan:
    """The result of partitioning a topology into shards."""

    num_shards: int
    #: ``asn -> shard index`` for every AS of the topology.
    assignment: Dict[int, int]
    #: Per-shard sorted member ASNs.
    members: Tuple[Tuple[int, ...], ...]
    #: Sorted link ids whose endpoints live in different shards.
    boundary_link_ids: Tuple[int, ...]
    #: ``"isd"`` (ISD-atomic bin-packing) or ``"degree"`` (fallback).
    strategy: str

    def shard_of(self, asn: int) -> int:
        return self.assignment[asn]

    def halo_asns(self, topology: Topology, shard: int) -> List[int]:
        """Members of ``shard`` plus every direct neighbor (ghost ASes).

        The halo is the sub-topology a shard simulates on: owned
        servers keep their full egress link sets, while ghost ASes exist
        only as link endpoints mirroring remote neighbor state.
        """
        halo = set(self.members[shard])
        for asn in self.members[shard]:
            halo |= topology.neighbor_set(asn)
        return sorted(halo)


def partition_topology(topology: Topology, num_shards: int) -> ShardPlan:
    """Partition ``topology`` into ``num_shards`` disjoint shards."""
    if num_shards < 1:
        raise ValueError(f"num_shards must be >= 1, got {num_shards}")
    asns = sorted(topology.asns())
    if not asns:
        raise ValueError("cannot partition an empty topology")
    effective = min(num_shards, len(asns))

    isds = _isd_groups(topology)
    if isds is not None and len(isds) >= effective:
        assignment = _pack_isds(isds, effective)
        strategy = "isd"
    else:
        assignment = _balance_by_degree(topology, asns, effective)
        strategy = "degree"

    members = _members(assignment, effective)
    boundary = _boundary_links(topology, assignment)
    return ShardPlan(
        num_shards=effective,
        assignment=assignment,
        members=members,
        boundary_link_ids=boundary,
        strategy=strategy,
    )


def _isd_groups(topology: Topology) -> Optional[Dict[int, List[int]]]:
    """ISD id -> sorted member ASNs, or None if any AS is unannotated."""
    groups: Dict[int, List[int]] = {}
    for node in topology.ases():
        if node.isd is None:
            return None
        groups.setdefault(node.isd, []).append(node.asn)
    for members in groups.values():
        members.sort()
    return groups


def _pack_isds(isds: Dict[int, List[int]], num_shards: int) -> Dict[int, int]:
    """Greedy bin-packing of whole ISDs: largest ISD first onto the shard
    with the fewest ASes (ties broken by shard index, then ISD id), so the
    result is deterministic and AS counts stay balanced."""
    loads = [0] * num_shards
    assignment: Dict[int, int] = {}
    order = sorted(isds, key=lambda isd: (-len(isds[isd]), isd))
    for isd in order:
        shard = min(range(num_shards), key=lambda s: (loads[s], s))
        for asn in isds[isd]:
            assignment[asn] = shard
        loads[shard] += len(isds[isd])
    return assignment


def _balance_by_degree(
    topology: Topology, asns: List[int], num_shards: int
) -> Dict[int, int]:
    """Fallback without ISD annotations: heaviest AS first onto the shard
    with the lowest accumulated degree (ties by member count, then shard
    index). Parallel links count individually, matching the per-interval
    work a beacon server does."""
    loads = [0] * num_shards
    sizes = [0] * num_shards
    assignment: Dict[int, int] = {}
    order = sorted(asns, key=lambda asn: (-topology.degree(asn), asn))
    for asn in order:
        shard = min(
            range(num_shards), key=lambda s: (loads[s], sizes[s], s)
        )
        assignment[asn] = shard
        loads[shard] += topology.degree(asn)
        sizes[shard] += 1
    return assignment


def _members(
    assignment: Dict[int, int], num_shards: int
) -> Tuple[Tuple[int, ...], ...]:
    buckets: List[List[int]] = [[] for _ in range(num_shards)]
    for asn in sorted(assignment):
        buckets[assignment[asn]].append(asn)
    return tuple(tuple(bucket) for bucket in buckets)


def _boundary_links(
    topology: Topology, assignment: Dict[int, int]
) -> Tuple[int, ...]:
    """Link ids crossing shard boundaries, enumerated via the cached
    adjacency index (each pair visited once from its lower ASN)."""
    boundary: List[int] = []
    for asn in sorted(assignment):
        shard = assignment[asn]
        for neighbor in sorted(topology.neighbor_set(asn)):
            if neighbor <= asn or assignment[neighbor] == shard:
                continue
            boundary.extend(
                link.link_id for link in topology.links_between(asn, neighbor)
            )
    return tuple(sorted(boundary))
