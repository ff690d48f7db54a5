"""Border routers: stateless packet forwarding over hop fields.

SCION border routers keep no inter-domain forwarding tables — everything a
router needs is in the packet (PCFS, §4.1 Mechanism 4). Our router verifies
the current hop field's MAC under its AS key, checks expiry and interface
consistency, and hands the packet to the next AS over the egress interface.
"""

from __future__ import annotations

import hmac
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..topology.model import Link, Topology
from .hopfield import HopField, forwarding_key, keyed_mac, keyed_state
from .packet import ScionPacket

__all__ = ["ForwardingError", "BorderRouter", "RouterTable", "deliver"]


class ForwardingError(Exception):
    """A packet was dropped; the message says why."""


@dataclass
class BorderRouter:
    """The (single, logical) border router of one AS.

    A router holds what every hop it verifies would otherwise re-derive:
    its AS key's pre-keyed BLAKE2b state (:attr:`mac_state`) and its AS's
    interface table — the topology's own dict, which ``add_link`` and
    ``remove_link`` edit in place, so each lookup reads the live topology.
    Both derive from ``asn`` and ``topology``; a pickle carries neither
    (a hash state does not pickle) and loading rebuilds them.
    """

    asn: int
    topology: Topology

    def __post_init__(self) -> None:
        #: What :func:`~.hopfield.keyed_mac` copies for each MAC.
        self.mac_state = keyed_state(forwarding_key(self.asn))
        # Empty until process()'s first miss fetches the topology's dict.
        self._interfaces: Dict[int, Link] = {}

    def __getstate__(self) -> dict:
        return {"asn": self.asn, "topology": self.topology}

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self.__post_init__()

    def process(
        self,
        hop: HopField,
        timestamp: bytes,
        prev_mac: bytes,
        destination_asn: int,
        now: float,
    ) -> Optional[int]:
        """Every check this AS makes on its hop field — the only copy.

        ``timestamp`` is the path's
        :attr:`~.packet.ForwardingPath.packed_timestamp`, ``prev_mac`` the
        MAC of the hop field before ``hop`` (:data:`~.hopfield.ZERO_MAC`
        for the first). The MAC is recomputed over the bytes the packet
        carries, ``timestamp + hop.covered + prev_mac``. Returns the ASN
        behind the egress interface, ``None`` when this AS is the
        destination. Raises :class:`ForwardingError` on the first failed
        check; nothing about a packet or path is remembered between calls.
        """
        asn = self.asn
        if hop.asn != asn:
            raise ForwardingError(
                f"packet at AS {asn} but hop field is for AS {hop.asn}"
            )
        if now >= hop.expiry:
            raise ForwardingError(f"hop field of AS {asn} expired")
        expected = keyed_mac(self.mac_state, timestamp, hop.covered, prev_mac)
        # Constant time, like a real border router: '==' stops at the
        # first differing byte and leaks the match length through timing.
        if not hmac.compare_digest(expected, hop.mac):
            raise ForwardingError(f"MAC verification failed at AS {asn}")
        if hop.egress_ifid == 0:
            if destination_asn != asn:
                raise ForwardingError(
                    f"path ends at AS {asn} but packet is addressed to "
                    f"AS {destination_asn}"
                )
            return None
        link = self._interfaces.get(hop.egress_ifid)
        if link is None:
            # A held table misses where the live one would, or is not
            # fetched yet, or is stale (a removed AS's table is emptied
            # before it goes): look again in the topology, which hands
            # back a re-added AS's new table and has none for an AS it
            # no longer holds.
            topology = self.topology
            if not topology.has_as(asn):
                raise ForwardingError(f"AS {asn} is not in the topology")
            self._interfaces = topology.as_node(asn).interfaces
            link = self._interfaces.get(hop.egress_ifid)
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
            path.packed_timestamp,
            path.prev_mac(),
            packet.destination.asn,
            now,
        )
        return packet.with_path(path.advanced()), next_asn


class RouterTable:
    """Memoized :class:`BorderRouter` instances for one topology.

    A router holds its AS's keyed MAC state and interface table; building
    one per hop per packet dominates the data-plane hot path under a
    traffic workload. The table builds each AS's router once and reuses
    it for every subsequent packet. It remembers nothing about packets or
    paths.
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

    def deliver_packet(self, packet: ScionPacket, *, now: float) -> List[int]:
        """Forward a packet hop by hop to its destination.

        A cursor walk: the path's hop fields, timestamp and the packet's
        destination are read once, an integer cursor moves from router to
        router, and each router runs :meth:`BorderRouter.process` on its
        hop field — every check, for every packet — exactly as chaining
        :meth:`BorderRouter.forward` would, minus the packet objects
        nobody reads: the walk builds no path and no packet.

        Returns the ASes traversed (source included). Raises
        :class:`ForwardingError` if any router rejects the packet.
        """
        path = packet.path
        hop_fields = path.hop_fields
        cursor = path.cursor
        end = len(hop_fields)
        source_asn = packet.source.asn
        if cursor < end and hop_fields[cursor].asn != source_asn:
            raise ForwardingError("path does not start at the packet source")
        timestamp = path.packed_timestamp
        destination_asn = packet.destination.asn
        prev_mac = path.prev_mac()
        routers = self._routers
        traversed: List[int] = []
        current_asn = source_asn
        while cursor < end:
            hop = hop_fields[cursor]
            traversed.append(current_asn)
            router = routers.get(current_asn) or self.router(current_asn)
            next_asn = router.process(
                hop, timestamp, prev_mac, destination_asn, now
            )
            if next_asn is None:
                return traversed
            cursor += 1
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
    keyed MAC states) across packets.
    """
    if routers is None:
        routers = RouterTable(topology)
    elif routers.topology is not topology:
        raise ValueError("router table was built for a different topology")
    return routers.deliver_packet(packet, now=now)
