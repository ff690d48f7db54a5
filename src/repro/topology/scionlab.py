"""SCIONLab-like research-testbed topology.

Appendix B of the paper evaluates the beaconing algorithms on the SCIONLab
research testbed: 21 core ASes whose core mesh is sparse ("on average, a
core AS has 2 neighbors"), plus user attachment points. SCIONLab's real core
spans sites in Europe, North America, Asia and Australia; its AS-level graph
is public but we reconstruct a deterministic equivalent with the same
aggregate properties the evaluation depends on:

* 21 core ASes;
* mean core *neighbor* degree ≈ 2 (a tree/ring-like backbone with a few
  chords, so shortest paths rarely overlap on links — the regime where the
  paper observes "limited benefit for the path-diversity-based algorithm");
* occasional parallel links between adjacent sites;
* optional non-core user ASes attached below the cores for intra-ISD
  scenarios.
"""

from __future__ import annotations

import random

from .model import Relationship, Topology

__all__ = ["scionlab_core", "SCIONLAB_CORE_COUNT"]

SCIONLAB_CORE_COUNT = 21

#: Site names of the deterministic testbed cores (flavour only).
_SITES = (
    "ETHZ", "ETHZ-AP", "SWTH", "OVGU", "GEANT", "Magdeburg", "Darmstadt",
    "Valencia", "Daejeon", "Singapore", "Tokyo", "Taiwan", "Sydney",
    "Virginia", "Oregon", "Ohio", "Ireland", "Frankfurt", "Sao-Paulo",
    "Mumbai", "Seoul",
)


def scionlab_core(*, seed: int = 7, first_asn: int = 64512) -> Topology:
    """Build the 21-core-AS testbed backbone.

    The backbone is a ring over all sites (guaranteeing connectivity and
    neighbor degree 2) with three deterministic chords between major
    attachment points and two parallel links on the busiest adjacency,
    matching the sparse multi-continent SCIONLab core.
    """
    rng = random.Random(seed)
    topo = Topology(name="scionlab-core")
    asns = list(range(first_asn, first_asn + SCIONLAB_CORE_COUNT))
    for asn, site in zip(asns, _SITES):
        topo.add_as(asn, isd=1, is_core=True, name=site)

    # Ring backbone.
    for a_asn, b_asn in zip(asns, asns[1:] + asns[:1]):
        topo.add_link(a_asn, b_asn, Relationship.CORE, location="backbone")

    # A few chords between hub sites (ETHZ, GEANT, Virginia, Singapore).
    chords = ((0, 4), (0, 13), (4, 9), (9, 13))
    for i, j in chords:
        topo.add_link(asns[i], asns[j], Relationship.CORE, location="chord")

    # Parallel link on the busiest adjacency (ETHZ <-> ETHZ-AP).
    topo.add_link(asns[0], asns[1], Relationship.CORE, location="parallel")

    # One extra randomized chord for seed-variability in tests.
    i, j = rng.sample(range(SCIONLAB_CORE_COUNT), 2)
    if not topo.links_between(asns[i], asns[j]):
        topo.add_link(asns[i], asns[j], Relationship.CORE, location="extra")

    topo.validate()
    return topo
