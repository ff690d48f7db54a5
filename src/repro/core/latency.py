"""Latency-aware path construction (the §4.2 extension).

"To optimize for latency for example, the currently disseminated
information, i.e., interface numbers and traversed ASes, is insufficient.
If additional information, such as border router locations or latency
measurements were made available, then path construction could optimize
for low latency paths."

This algorithm is that extension: it reuses the diversity algorithm's
machinery — Sent PCBs Lists for retransmission suppression, the Eq. 2/3
age-lifetime exponents — but replaces the link-diversity score with a
latency quality in [0, 1]:

    quality = REFERENCE_LATENCY / (REFERENCE_LATENCY + path_latency)

so a zero-latency path scores 1 and quality halves at the reference
latency. The per-link latencies come from a
:class:`~repro.topology.latency.LatencyModel` (the "additional
information" channel).
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from ..topology.latency import LatencyModel
from ..topology.model import Link
from .beacon_store import BeaconStore
from .pcb import PCB
from .policy import PathConstructionAlgorithm, Transmission
from .scoring import DiversityParams, exponent_f, exponent_g, final_score
from .sent_registry import SentRecord, SentRegistry

__all__ = ["LatencyAwareAlgorithm"]

#: Path latency in seconds at which the quality halves.
REFERENCE_LATENCY = 0.050


class LatencyAwareAlgorithm(PathConstructionAlgorithm):
    """Selects the lowest-latency beacons per [origin, neighbor] pair,
    with the diversity algorithm's retransmission suppression."""

    name = "latency-aware"

    def __init__(
        self,
        asn: int,
        topology,
        latency_model: Optional[LatencyModel] = None,
    ) -> None:
        super().__init__(asn, topology)
        self.latency = latency_model or LatencyModel(topology)
        #: The Eq. 2/3 exponents and the threshold, at the shipped defaults.
        self.params = DiversityParams()
        self.sent = SentRegistry()

    def quality(self, link_ids: Sequence[int]) -> float:
        """Latency quality in (0, 1]; halves at the reference latency."""
        latency = self.latency.path_latency(link_ids)
        return REFERENCE_LATENCY / (REFERENCE_LATENCY + latency)

    def on_link_revoked(self, link_id: int) -> None:
        """Drop sent records for paths crossing the revoked link: the sent
        instances are invalid, and Eq. 3 must not suppress the re-send
        once the link recovers."""
        self.sent.purge_crossing(link_id)

    def select(
        self,
        store: BeaconStore,
        egress_links: Sequence[Link],
        now: float,
    ) -> List[Transmission]:
        self.sent.purge_expired(now)
        by_neighbor = {}
        for link in egress_links:
            by_neighbor.setdefault(self._neighbor_of(link), []).append(link)
        transmissions: List[Transmission] = []
        for origin in sorted(store.origins()):
            beacons = store.beacons(origin, now)
            if not beacons:
                continue
            for neighbor in sorted(by_neighbor):
                transmissions.extend(
                    self._select_pair(beacons, neighbor, by_neighbor[neighbor], now)
                )
        return transmissions

    def _select_pair(
        self,
        beacons: Sequence[PCB],
        neighbor: int,
        links: Sequence[Link],
        now: float,
    ) -> List[Transmission]:
        threshold = self.params.score_threshold
        ranked: List[Tuple] = []
        for pcb in beacons:
            if pcb.contains_as(neighbor):
                continue
            for link in links:
                counted = pcb.link_ids() + (link.link_id,)
                quality = self.quality(counted)
                record = self.sent.record(neighbor, pcb.path_key(), link.link_id)
                if record is not None and record.is_valid(now):
                    exponent = exponent_g(
                        record.remaining_lifetime(now),
                        pcb.remaining_lifetime(now),
                        self.params,
                    )
                else:
                    record = None
                    exponent = exponent_f(
                        pcb.age(now), pcb.lifetime, self.params
                    )
                score = final_score(quality, exponent)
                if score > threshold:
                    # ``counted`` is unique per candidate and ends the
                    # comparison before the beacon.
                    ranked.append((-score, -quality, counted, pcb, link, record))
        ranked.sort()
        selected: List[Transmission] = []
        for neg_score, neg_quality, counted, pcb, link, record in ranked:
            if len(selected) >= self.dissemination_limit:
                break
            child = pcb.extend(link.link_id, neighbor)
            if record is not None:
                self.sent.refresh(record, pcb)
            else:
                self.sent.add(
                    SentRecord(
                        path_key=pcb.path_key(),
                        egress_link_id=link.link_id,
                        diversity_score=-neg_quality,
                        expires_at=pcb.expires_at,
                        neighbor=neighbor,
                    ),
                )
            selected.append(
                Transmission(
                    pcb=child, link=link, sender=self.asn, receiver=neighbor
                )
            )
        return selected
