"""Border routers: stateless packet forwarding over hop fields.

SCION border routers keep no inter-domain forwarding tables — everything a
router needs is in the packet (PCFS, §4.1 Mechanism 4). Our router verifies
the current hop field's MAC under its AS key, checks expiry and interface
consistency, and hands the packet to the next AS over the egress interface.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..topology.model import Topology
from .hopfield import HopField, forwarding_key
from .packet import ScionPacket

__all__ = ["ForwardingError", "BorderRouter", "RouterTable", "deliver"]


class ForwardingError(Exception):
    """A packet was dropped; the message says why."""


@dataclass
class BorderRouter:
    """The (single, logical) border router of one AS."""

    asn: int
    topology: Topology

    def __post_init__(self) -> None:
        self._key = forwarding_key(self.asn)

    @property
    def key(self) -> bytes:
        """The AS forwarding key this router verifies MACs under."""
        return self._key

    def process(
        self,
        hop: HopField,
        timestamp: float,
        prev_mac: bytes,
        destination_asn: int,
        now: float,
    ) -> Optional[int]:
        """Every check this AS makes on its hop field — the only copy.

        ``timestamp`` is the path's, ``prev_mac`` the MAC of the hop field
        before ``hop`` (:data:`~.hopfield.ZERO_MAC` for the first). Returns
        the ASN behind the egress interface, ``None`` when this AS is the
        destination. Raises :class:`ForwardingError` on the first failed
        check; nothing about a packet or path is remembered between calls.
        """
        asn = self.asn
        if hop.asn != asn:
            raise ForwardingError(
                f"packet at AS {asn} but hop field is for AS {hop.asn}"
            )
        if hop.is_expired(now):
            raise ForwardingError(f"hop field of AS {asn} expired")
        if not hop.verify(timestamp, prev_mac, key=self._key):
            raise ForwardingError(f"MAC verification failed at AS {asn}")
        if hop.egress_ifid == 0:
            if destination_asn != asn:
                raise ForwardingError(
                    f"path ends at AS {asn} but packet is addressed to "
                    f"AS {destination_asn}"
                )
            return None
        link = self.topology.as_node(asn).interfaces.get(hop.egress_ifid)
        if link is None:
            raise ForwardingError(
                f"AS {asn} has no interface {hop.egress_ifid}"
            )
        return link.other(asn)

    def forward(self, packet: ScionPacket, *, now: float) -> Tuple[ScionPacket, Optional[int]]:
        """Process the packet at this AS: one :meth:`process` step.

        Returns the packet with the cursor advanced and the ASN of the next
        AS (``None`` when this AS is the destination). Raises
        :class:`ForwardingError` on any validation failure.
        """
        path = packet.path
        if path.at_destination:
            raise ForwardingError("path already consumed")
        next_asn = self.process(
            path.current,
            path.timestamp,
            path.prev_mac(),
            packet.destination.asn,
            now,
        )
        return packet.with_path(path.advanced()), next_asn


class RouterTable:
    """Memoized :class:`BorderRouter` instances for one topology.

    A router holds its AS's forwarding key; building one per hop per
    packet dominates the data-plane hot path under a traffic workload.
    The table builds each AS's router once and reuses it for every
    subsequent packet. It remembers nothing about packets or paths.
    """

    def __init__(self, topology: Topology) -> None:
        self.topology = topology
        self._routers: Dict[int, BorderRouter] = {}

    def router(self, asn: int) -> BorderRouter:
        router = self._routers.get(asn)
        if router is None:
            router = BorderRouter(asn, self.topology)
            self._routers[asn] = router
        return router

    def __len__(self) -> int:
        return len(self._routers)

    def forwarding_key(self, asn: int) -> bytes:
        """The memoized forwarding key of ``asn`` (derives the router)."""
        return self.router(asn).key

    def deliver_packet(
        self, packet: ScionPacket, *, now: float
    ) -> Tuple[ScionPacket, List[int]]:
        """Forward a packet hop by hop to its destination.

        A cursor walk: the path's hop fields, timestamp and the packet's
        destination are read once, an integer cursor moves from router to
        router, and each router runs :meth:`BorderRouter.process` on its
        hop field — every check, for every packet — exactly as chaining
        :meth:`BorderRouter.forward` would, minus the intermediate packet
        objects nobody sees.

        Returns the fully-forwarded packet (cursor consumed) and the
        sequence of ASes traversed (source included). Raises
        :class:`ForwardingError` if any router rejects the packet.
        """
        path = packet.path
        hop_fields = path.hop_fields
        cursor = path.cursor
        end = len(hop_fields)
        source_asn = packet.source.asn
        if cursor < end and hop_fields[cursor].asn != source_asn:
            raise ForwardingError("path does not start at the packet source")
        timestamp = path.timestamp
        destination_asn = packet.destination.asn
        prev_mac = path.prev_mac()
        router = self.router
        traversed: List[int] = []
        current_asn = source_asn
        while cursor < end:
            hop = hop_fields[cursor]
            traversed.append(current_asn)
            next_asn = router(current_asn).process(
                hop, timestamp, prev_mac, destination_asn, now
            )
            cursor += 1
            if next_asn is None:
                # The only objects the walk builds: the consumed path and
                # the packet carrying it, once per packet.
                return packet.with_path(path.at(cursor)), traversed
            prev_mac = hop.mac
            current_asn = next_asn
        raise ForwardingError("path already consumed")


def deliver(
    topology: Topology,
    packet: ScionPacket,
    *,
    now: float,
    routers: Optional[RouterTable] = None,
) -> List[int]:
    """Forward a packet hop by hop to its destination.

    Returns the sequence of ASes traversed (source included). Raises
    :class:`ForwardingError` if any router rejects the packet. Pass a
    :class:`RouterTable` to reuse per-AS routers (and their derived
    forwarding keys) across packets.
    """
    if routers is None:
        routers = RouterTable(topology)
    elif routers.topology is not topology:
        raise ValueError("router table was built for a different topology")
    _, traversed = routers.deliver_packet(packet, now=now)
    return traversed
