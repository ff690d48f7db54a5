"""IXP deployment models (Section 3.5, Figure 4).

Two ways an IXP appears in the SCION infrastructure:

* **big switch** — the IXP is a transparent L2 fabric facilitating
  bilateral peering links among its member ASes (SwissIX's dedicated SCION
  VLAN); the control plane sees only the member-to-member peering links;
* **exposed topology** — the IXP operates one SCION AS per site, the
  inter-site links become SCION core/peering links, and members attach to
  sites; members can then use SCION multi-path across the IXP's internal
  (including backup) links.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Sequence, Tuple

from ..topology.model import Relationship, Topology

__all__ = ["big_switch_peering", "ExposedIXP"]


def big_switch_peering(
    topology: Topology,
    members: Sequence[int],
    *,
    location: str = "IXP",
) -> List[int]:
    """Create bilateral peering links among all IXP members.

    Returns the created link ids. Existing adjacencies are kept; the IXP
    only adds the missing bilateral links (the role of a SCION Peering
    Coordinator).
    """
    created: List[int] = []
    ordered = sorted(set(members))
    for i, a_asn in enumerate(ordered):
        for b_asn in ordered[i + 1 :]:
            already = any(
                link.location == location
                for link in topology.links_between(a_asn, b_asn)
            )
            if already:
                continue
            link = topology.add_link(
                a_asn, b_asn, Relationship.PEER_PEER, location=location
            )
            created.append(link.link_id)
    return created


@dataclass
class ExposedIXP:
    """An IXP exposing its internal multi-site topology (Figure 4)."""

    topology: Topology
    name: str = "ixp"
    site_asns: List[int] = field(default_factory=list)

    def add_sites(
        self,
        count: int,
        *,
        first_asn: int,
        isd: int = 1,
        redundant_pairs: Sequence[Tuple[int, int]] = (),
    ) -> List[int]:
        """Create the IXP's site ASes and their inter-site links.

        Sites are ringed for base connectivity; ``redundant_pairs`` (site
        indices) add the backup links members can fail over to.
        """
        if count < 2:
            raise ValueError("an exposed IXP needs at least two sites")
        self.site_asns = list(range(first_asn, first_asn + count))
        for asn in self.site_asns:
            self.topology.add_as(
                asn, isd=isd, is_core=False, name=f"{self.name}-site"
            )
        for a_asn, b_asn in zip(
            self.site_asns, self.site_asns[1:] + self.site_asns[:1]
        ):
            if len(self.site_asns) == 2 and self.topology.links_between(a_asn, b_asn):
                break
            self.topology.add_link(
                a_asn, b_asn, Relationship.PEER_PEER,
                location=f"{self.name}-intersite",
            )
        for i, j in redundant_pairs:
            self.topology.add_link(
                self.site_asns[i],
                self.site_asns[j],
                Relationship.PEER_PEER,
                location=f"{self.name}-backup",
            )
        return list(self.site_asns)

    def attach_member(self, member_asn: int, site_index: int) -> int:
        """Peer a member AS with one IXP site; returns the link id."""
        if not self.site_asns:
            raise ValueError("add_sites() first")
        site = self.site_asns[site_index]
        link = self.topology.add_link(
            member_asn, site, Relationship.PEER_PEER,
            location=f"{self.name}-port",
        )
        return link.link_id

    def internal_link_ids(self) -> List[int]:
        sites = set(self.site_asns)
        return [
            link.link_id
            for link in self.topology.links()
            if link.a.asn in sites and link.b.asn in sites
        ]
