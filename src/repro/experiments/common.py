"""Shared topology construction and simulation drivers for the experiments.

Implements the Section 5.1 preparation recipes once:

* the synthetic Internet (AS-rel-geo stand-in);
* the SCION core network — the ``core_ases`` highest-degree ASes,
  partitioned into ISDs, with core links promoted — plus the *same* AS
  subset with its original business relationships for the BGP comparison;
* the large single ISD built from the top customer-cone-ranked core ASes
  and their joint customer cone (capped for the smaller presets);
* warm-up-then-measure beaconing runs for steady-state overhead.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import List, Optional, Set

from ..topology.generator import InternetGeneratorConfig, generate_internet
from ..topology.isd import (
    assign_isds,
    promote_core_links,
    prune_to_highest_degree,
    rank_by_customer_cone,
)
from ..topology.model import Relationship, Topology
from .config import ExperimentScale

__all__ = [
    "CoreTopologies",
    "build_internet",
    "build_core_topologies",
    "build_large_isd",
    "build_full_stack_topology",
]


def build_internet(scale: ExperimentScale) -> Topology:
    """The full synthetic Internet for a preset (deterministic per seed)."""
    return generate_internet(
        InternetGeneratorConfig(
            num_ases=scale.internet_ases,
            num_tier1=max(5, scale.internet_ases // 80),
            seed=scale.seed,
        )
    )


@dataclass
class CoreTopologies:
    """The three views Figure 5/6 need, sharing AS and link identifiers."""

    #: The full Internet (BGP and BGPsec run here).
    internet: Topology
    #: The highest-degree subset with original relationships (BGP view).
    bgp_core: Topology
    #: The same subset with ISDs assigned and core links promoted (SCION).
    scion_core: Topology

    def monitor_asns(self, count: int) -> List[int]:
        """The highest-degree core ASes, used as RouteViews-like monitors."""
        ranked = sorted(
            self.scion_core.asns(),
            key=lambda asn: (-self.scion_core.degree(asn), asn),
        )
        return ranked[:count]


def build_core_topologies(scale: ExperimentScale) -> CoreTopologies:
    """§5.1 core-beaconing setup: prune to the highest-degree subset, then
    partition into ISDs of ``cores_per_isd``."""
    internet = build_internet(scale)
    bgp_core = prune_to_highest_degree(internet, scale.core_ases)
    scion_core = bgp_core.subtopology(bgp_core.asns(), name="scion-core")
    assign_isds(scion_core, scale.num_isds)
    promote_core_links(scion_core)
    return CoreTopologies(
        internet=internet, bgp_core=bgp_core, scion_core=scion_core
    )


def build_large_isd(
    scale: ExperimentScale, internet: Optional[Topology] = None
) -> Topology:
    """§5.1 intra-ISD setup: the ``isd_cores`` top-ranked ASes (by customer
    cone) plus their joint customer cone, capped at ``isd_max_ases``."""
    internet = internet if internet is not None else build_internet(scale)
    cores = rank_by_customer_cone(internet)[: scale.isd_cores]
    members: Set[int] = set(cores)
    frontier = deque(cores)
    while frontier and len(members) < scale.isd_max_ases:
        current = frontier.popleft()
        for customer in sorted(internet.customers(current)):
            if customer not in members:
                members.add(customer)
                frontier.append(customer)
                if len(members) >= scale.isd_max_ases:
                    break
    isd = internet.subtopology(members, name="large-isd")
    for asn in isd.asns():
        node = isd.as_node(asn)
        node.isd = 1
        node.is_core = asn in set(cores)
    promote_core_links(isd)
    return isd


def build_full_stack_topology(
    scale: ExperimentScale, *, leaves_per_core: int = 3
) -> Topology:
    """A multi-ISD topology with leaf ASes for full-stack (Table 1,
    example) scenarios: the scaled core network plus a customer tree below
    every core AS."""
    topos = build_core_topologies(scale)
    topo = topos.scion_core
    next_asn = max(topo.asns()) + 1000
    import random

    rng = random.Random(scale.seed + 99)
    for core in sorted(topo.core_asns()):
        isd = topo.as_node(core).isd
        parents = [core]
        for _ in range(leaves_per_core):
            parent = rng.choice(parents)
            topo.add_as(next_asn, isd=isd, is_core=False)
            topo.add_link(
                parent, next_asn, Relationship.PROVIDER_CUSTOMER,
                location="leaf",
            )
            parents.append(next_asn)
            next_asn += 1
    topo.validate()
    return topo
