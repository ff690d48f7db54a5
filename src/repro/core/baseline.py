"""Baseline path construction algorithm (Section 4.2).

"Given the relatively small size of the initial SCION production network and
SCIONLab testbed, a simple baseline path construction algorithm is used,
which optimizes paths for the same metric as BGP, which is (AS) path length
... only the P shortest paths are disseminated at each interval" and "The
algorithm sends a set of paths irrespective of previously sent paths."

Per beaconing interval, for every egress interface and every origin AS, the
baseline extends and sends the ``dissemination_limit`` shortest valid stored
beacons whose path does not already contain the receiving neighbor. It keeps
no history — the source of the redundancy (and the two-orders-of-magnitude
overhead gap) that the path-diversity-based algorithm eliminates.
"""

from __future__ import annotations

from itertools import islice
from typing import Dict, List, Sequence

from ..topology.model import Link
from .beacon_store import BeaconStore
from .pcb import PCB
from .policy import PathConstructionAlgorithm, Transmission

__all__ = ["BaselineAlgorithm"]


class BaselineAlgorithm(PathConstructionAlgorithm):
    """P-shortest-paths selection, re-sent every interval, per interface."""

    name = "baseline"

    def select(
        self,
        store: BeaconStore,
        egress_links: Sequence[Link],
        now: float,
    ) -> List[Transmission]:
        sender = self.asn
        egress = [(link, self._neighbor_of(link)) for link in egress_links]
        transmissions: List[Transmission] = []
        for origin in sorted(store.origins()):
            # Sorted by path length, then issue time. Parallel links to one
            # neighbor carry the same beacons: chosen once per neighbor.
            beacons = store.beacons(origin, now)
            chosen: Dict[int, List[PCB]] = {}
            for link, neighbor in egress:
                picks = chosen.get(neighbor)
                if picks is None:
                    picks = chosen[neighbor] = list(islice(
                        (b for b in beacons if neighbor not in b.path_asns()),
                        self.dissemination_limit,
                    ))
                transmissions += [
                    Transmission(
                        pcb.extend(link.link_id, neighbor), link, sender, neighbor
                    )
                    for pcb in picks
                ]
        return transmissions
