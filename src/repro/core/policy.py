"""Path-construction algorithm interface.

A *path construction algorithm* is the per-AS policy that the beacon server
triggers once per beaconing interval: given the beacons stored at this AS
and the candidate egress links for this beaconing process (core links for
core beaconing, provider-to-customer links for intra-ISD beaconing), it
decides which beacons to propagate where (Section 2.2: "The beacon server
decides which PCBs to propagate on which interfaces based on AS-local
policies").
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import List, Sequence

from ..topology.model import Link, Topology
from .beacon_store import BeaconStore
from .pcb import PCB, PCB_HOP_FIXED_BYTES, SIGNATURE_BYTES

__all__ = ["Transmission", "PathConstructionAlgorithm"]


@dataclass(frozen=True, slots=True)
class Transmission:
    """One beacon propagated over one egress link.

    ``pcb`` is the beacon *as stored by the receiver*: it already contains
    the receiver's hop entry recording the traversed link. On the wire the
    final hop's data lives in the sender's egress fields, so the serialized
    message carries one signed AS entry per hop *except* the receiver's.
    """

    pcb: PCB
    link: Link
    sender: int
    receiver: int

    def __init__(self, pcb: PCB, link: Link, sender: int, receiver: int):
        # Through the slots' own setters: one per beacon sent.
        _set_pcb(self, pcb)
        _set_link(self, link)
        _set_sender(self, sender)
        _set_receiver(self, receiver)

    @property
    def wire_size(self) -> int:
        """Bytes on the wire (one ECDSA-384-signed entry per sender-side AS):
        the stored beacon's size less the receiver's entry."""
        return self.pcb.wire_size() - PCB_HOP_FIXED_BYTES - SIGNATURE_BYTES


_set_pcb = Transmission.pcb.__set__
_set_link = Transmission.link.__set__
_set_sender = Transmission.sender.__set__
_set_receiver = Transmission.receiver.__set__


class PathConstructionAlgorithm(abc.ABC):
    """Per-AS path-construction policy.

    One instance is created per AS (algorithms may keep per-AS state such as
    Link History Tables across intervals). ``dissemination_limit`` is the
    paper's "PCB dissemination limit ... the maximum number of PCBs per
    origin AS to disseminate in a beaconing interval" — the baseline applies
    it per egress interface, the diversity-based algorithm per neighbor AS
    (Section 5.1).
    """

    #: Human-readable algorithm name used in experiment reports.
    name: str = "abstract"

    def __init__(
        self,
        asn: int,
        topology: Topology,
        *,
        dissemination_limit: int = 5,
    ) -> None:
        if dissemination_limit < 1:
            raise ValueError("dissemination_limit must be positive")
        self.asn = asn
        self.topology = topology
        self.dissemination_limit = dissemination_limit

    @abc.abstractmethod
    def select(
        self,
        store: BeaconStore,
        egress_links: Sequence[Link],
        now: float,
    ) -> List[Transmission]:
        """Choose the beacons to propagate in this interval.

        ``egress_links`` are the candidate links (all incident to this AS).
        Implementations must never propagate a beacon to an AS that is
        already on its path.
        """

    def on_link_revoked(self, link_id: int) -> None:
        """A link revocation (§4.1) reached this beacon server.

        Stateful algorithms drop their bookkeeping for paths crossing the
        revoked link so that, once the link recovers, re-dissemination is
        not suppressed by records of now-invalid sent instances. The
        stateless baseline needs no reaction.
        """

    def _neighbor_of(self, link: Link) -> int:
        return link.other(self.asn)
