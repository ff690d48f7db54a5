"""Synthetic Internet-like topology generation.

The paper derives its evaluation topologies from the CAIDA ``as-rel-geo``
dataset: 12000 ASes, their business relationships, and the interconnection
locations of neighboring ASes (which determine how many *parallel* links an
adjacency has). This module generates topologies with the same structural
properties so experiments run without the (public, but network-gated)
dataset; :mod:`repro.topology.caida` can ingest the real files instead.

Structural properties reproduced:

* a heavy-tailed degree distribution, produced by preferential attachment of
  customers to transit providers;
* a densely meshed clique-like tier-1 core, a transit middle tier, and a
  large stub fringe (roughly 85 % of ASes in the Internet are stubs);
* valley-free business relationships (provider-customer and peer-peer);
* parallel inter-AS links at distinct interconnection locations, more
  numerous between high-degree ASes (large networks interconnect at many
  IXPs/PoPs).

Generation is fully deterministic for a given seed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import List, Optional, Sequence

from .model import Relationship, Topology

__all__ = ["InternetGeneratorConfig", "generate_internet", "generate_core_mesh"]


#: City pool used as interconnection locations, mirroring CAIDA geolocations.
CITIES: Sequence[str] = (
    "Zurich", "Frankfurt", "Amsterdam", "London", "Paris", "Madrid", "Milan",
    "Vienna", "Stockholm", "Warsaw", "New York", "Ashburn", "Chicago",
    "Dallas", "Seattle", "Palo Alto", "Los Angeles", "Miami", "Toronto",
    "Sao Paulo", "Tokyo", "Seoul", "Singapore", "Hong Kong", "Sydney",
    "Mumbai", "Dubai", "Johannesburg", "Moscow", "Istanbul",
)


#: ASN of the first generated AS; the others follow consecutively.
FIRST_ASN = 1
#: Fraction of non-tier-1 ASes that provide transit (the rest are stubs).
TRANSIT_FRACTION = 0.15
#: Mean number of providers per multihomed AS (>= 1).
MEAN_PROVIDERS = 1.8
#: Probability that two transit ASes with a common provider peer.
PEERING_PROBABILITY = 0.08
#: Probability that the tier-1 mesh contains a given clique edge. The full
#: clique matches the real Internet's Tier-1 mesh and guarantees
#: valley-free reachability between all ASes.
TIER1_MESH_DENSITY = 1.0


@dataclass
class InternetGeneratorConfig:
    """Knobs of the synthetic Internet generator.

    The defaults produce a miniature Internet; experiments scale
    ``num_ases`` up to the CAIDA-like 12000.
    """

    num_ases: int = 1000
    #: Number of tier-1 ASes forming the densely meshed top of the hierarchy.
    num_tier1: int = 12
    #: Geometric-distribution parameter for parallel link multiplicity;
    #: smaller means more parallel links between high-degree pairs.
    parallel_link_p: float = 0.55
    #: Cap on parallel links for a single adjacency. The CAIDA as-rel-geo
    #: dataset records tens of interconnection locations between large
    #: ISPs; this multiplicity is what makes the baseline's per-interface
    #: flooding so much costlier than per-neighbor dissemination (§5.2).
    max_parallel_links: int = 12
    seed: int = 0

    def validate(self) -> None:
        if self.num_ases < self.num_tier1:
            raise ValueError("num_ases must be at least num_tier1")
        if self.num_tier1 < 1:
            raise ValueError("need at least one tier-1 AS")
        if not 0.0 < self.parallel_link_p <= 1.0:
            raise ValueError("parallel_link_p must be in (0, 1]")
        if self.max_parallel_links < 1:
            raise ValueError("max_parallel_links must be >= 1")


@dataclass
class _Generated:
    tier1: List[int] = field(default_factory=list)
    transit: List[int] = field(default_factory=list)
    stubs: List[int] = field(default_factory=list)


def _parallel_link_count(
    rng: random.Random, config: InternetGeneratorConfig, weight: float
) -> int:
    """Sample how many parallel links an adjacency has.

    ``weight`` in [0, 1] shifts the geometric distribution: high-degree AS
    pairs (weight near 1) interconnect at many locations — tier-1 pairs in
    the as-rel-geo dataset commonly meet at 10+ exchange points.
    """
    p = min(1.0, max(0.15, config.parallel_link_p * (1.0 - 0.7 * weight)))
    count = 1
    while count < config.max_parallel_links and rng.random() > p:
        count += 1
    return count


def _add_multi_link(
    topo: Topology,
    rng: random.Random,
    config: InternetGeneratorConfig,
    a_asn: int,
    b_asn: int,
    relationship: Relationship,
    weight: float,
) -> None:
    count = _parallel_link_count(rng, config, weight)
    locations = rng.sample(CITIES, min(count, len(CITIES)))
    for location in locations:
        topo.add_link(a_asn, b_asn, relationship, location=location)


def generate_internet(
    config: Optional[InternetGeneratorConfig] = None,
) -> Topology:
    """Generate a deterministic Internet-like AS topology.

    Tier-1 ASes are densely meshed with peer links; transit ASes attach to
    providers by degree-preferential attachment and sometimes peer with each
    other; stubs attach to one or more transit/tier-1 providers. Parallel
    links appear at distinct locations.
    """
    config = config or InternetGeneratorConfig()
    config.validate()
    rng = random.Random(config.seed)
    topo = Topology(name=f"synthetic-internet-{config.num_ases}")

    asns = list(range(FIRST_ASN, FIRST_ASN + config.num_ases))
    for asn in asns:
        topo.add_as(asn)

    groups = _Generated()
    groups.tier1 = asns[: config.num_tier1]
    rest = asns[config.num_tier1 :]
    num_transit = int(round(len(rest) * TRANSIT_FRACTION))
    groups.transit = rest[:num_transit]
    groups.stubs = rest[num_transit:]

    # Tier-1 mesh: clique of peer links with many parallel links.
    for i, a_asn in enumerate(groups.tier1):
        for b_asn in groups.tier1[i + 1 :]:
            if rng.random() <= TIER1_MESH_DENSITY:
                _add_multi_link(
                    topo, rng, config, a_asn, b_asn, Relationship.PEER_PEER, 1.0
                )

    # Degree-preferential provider attachment.
    provider_pool = list(groups.tier1)

    def pick_providers(count: int) -> List[int]:
        weights = [1.0 + topo.degree(asn) for asn in provider_pool]
        chosen: List[int] = []
        pool = list(provider_pool)
        pool_weights = list(weights)
        for _ in range(min(count, len(pool))):
            pick = rng.choices(range(len(pool)), weights=pool_weights, k=1)[0]
            chosen.append(pool.pop(pick))
            pool_weights.pop(pick)
        return chosen

    def provider_count() -> int:
        extra = MEAN_PROVIDERS - 1.0
        count = 1
        while extra > 0 and rng.random() < min(extra, 0.95):
            count += 1
            extra -= 1.0
        return count

    for asn in groups.transit:
        for provider in pick_providers(provider_count()):
            weight = min(1.0, topo.degree(provider) / 50.0)
            _add_multi_link(
                topo, rng, config, provider, asn,
                Relationship.PROVIDER_CUSTOMER, weight,
            )
        provider_pool.append(asn)

    # Peering between transit ASes sharing a provider (valley-free lateral).
    for i, a_asn in enumerate(groups.transit):
        for b_asn in groups.transit[i + 1 :]:
            if topo.providers(a_asn) & topo.providers(b_asn):
                if rng.random() < PEERING_PROBABILITY:
                    _add_multi_link(
                        topo, rng, config, a_asn, b_asn,
                        Relationship.PEER_PEER, 0.3,
                    )

    for asn in groups.stubs:
        for provider in pick_providers(provider_count()):
            _add_multi_link(
                topo, rng, config, provider, asn,
                Relationship.PROVIDER_CUSTOMER, 0.0,
            )

    topo.validate()
    return topo


def generate_core_mesh(
    num_ases: int,
    *,
    mean_degree: float = 4.0,
    seed: int = 0,
    parallel_link_p: float = 0.6,
    max_parallel_links: int = 4,
) -> Topology:
    """Generate a connected mesh of SCION *core* ASes.

    Used for core-beaconing experiments when a bare core network (rather
    than a full Internet hierarchy) is wanted: a connected random multigraph
    with ``CORE`` links, heavy-tailed degrees, and parallel links.
    """
    if num_ases < 2:
        raise ValueError("a core mesh needs at least two ASes")
    rng = random.Random(seed)
    topo = Topology(name=f"core-mesh-{num_ases}")
    asns = list(range(FIRST_ASN, FIRST_ASN + num_ases))
    for asn in asns:
        topo.add_as(asn, is_core=True)

    config = InternetGeneratorConfig(
        parallel_link_p=parallel_link_p, max_parallel_links=max_parallel_links
    )

    # Random spanning tree for connectivity (degree-preferential).
    connected = [asns[0]]
    for asn in asns[1:]:
        weights = [1.0 + topo.degree(peer) for peer in connected]
        target = rng.choices(connected, weights=weights, k=1)[0]
        _add_multi_link(topo, rng, config, asn, target, Relationship.CORE, 0.5)
        connected.append(asn)

    # Extra chords until the mean interface degree is reached.
    target_links = max(num_ases - 1, int(round(num_ases * mean_degree / 2.0)))
    attempts = 0
    while topo.num_links < target_links and attempts < 50 * target_links:
        attempts += 1
        a_asn, b_asn = rng.sample(asns, 2)
        weight = min(1.0, (topo.degree(a_asn) + topo.degree(b_asn)) / 40.0)
        _add_multi_link(topo, rng, config, a_asn, b_asn, Relationship.CORE, weight)

    topo.validate()
    return topo
