"""SCION-IP Gateways (Section 3.4).

The SIG gives legacy IP hosts transparent access to the SCION network: it
maps the destination IP address to a SCION AS via the ASMap table,
encapsulates the IP packet in a SCION packet, and routes it to a border
router; the destination-side SIG decapsulates. The carrier-grade SIG
(CGSIG) is the same function operated by the provider for many customers.
"""

from __future__ import annotations

import ipaddress
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..dataplane.packet import HostAddress, ScionPacket

__all__ = ["IPPacket", "ASMap", "ScionIPGateway", "CarrierGradeSIG"]


#: Size of a legacy IPv4 header without options.
IP_HEADER_BYTES = 20


@dataclass(frozen=True)
class IPPacket:
    """A legacy IP packet entering a SIG."""

    src_ip: str
    dst_ip: str
    payload_bytes: int = 0

    @property
    def total_bytes(self) -> int:
        return IP_HEADER_BYTES + self.payload_bytes


class ASMap:
    """Longest-prefix-match table from IP space to (ISD, AS) [ASMap, §3.4]."""

    def __init__(self) -> None:
        self._entries: List[Tuple[ipaddress.IPv4Network, Tuple[int, int]]] = []

    def add(self, prefix: str, isd: int, asn: int) -> None:
        network = ipaddress.ip_network(prefix, strict=True)
        if not isinstance(network, ipaddress.IPv4Network):
            raise ValueError("ASMap models IPv4 prefixes")
        self._entries.append((network, (isd, asn)))
        self._entries.sort(key=lambda e: e[0].prefixlen, reverse=True)

    def lookup(self, ip: str) -> Optional[Tuple[int, int]]:
        address = ipaddress.ip_address(ip)
        for network, dest in self._entries:
            if address in network:
                return dest
        return None

    def __len__(self) -> int:
        return len(self._entries)


class ScionIPGateway:
    """A SIG instance at one AS."""

    def __init__(
        self, isd: int, asn: int, asmap: ASMap, *, local_ip: str = "10.0.0.1"
    ) -> None:
        self.isd = isd
        self.asn = asn
        self.asmap = asmap
        self.local_ip = local_ip
        self.encapsulated = 0
        self.decapsulated = 0
        self.unroutable = 0

    def encapsulate(
        self, packet: IPPacket, forwarding_path
    ) -> Optional[ScionPacket]:
        """Wrap an IP packet into a SCION packet along a given path.

        Returns None (and counts it) when the ASMap has no entry for the
        destination — such traffic stays on the legacy Internet.
        """
        destination = self.asmap.lookup(packet.dst_ip)
        if destination is None:
            self.unroutable += 1
            return None
        dst_isd, dst_asn = destination
        self.encapsulated += 1
        return ScionPacket(
            source=HostAddress(self.isd, self.asn, packet.src_ip),
            destination=HostAddress(dst_isd, dst_asn, packet.dst_ip),
            path=forwarding_path,
            payload_bytes=packet.total_bytes,
        )

    def decapsulate(self, packet: ScionPacket) -> IPPacket:
        """Unwrap a SCION packet back into the inner IP packet."""
        if packet.destination.asn != self.asn:
            raise ValueError(
                f"SIG of AS {self.asn} received packet for AS "
                f"{packet.destination.asn}"
            )
        self.decapsulated += 1
        return IPPacket(
            src_ip=packet.source.local,
            dst_ip=packet.destination.local,
            payload_bytes=max(0, packet.payload_bytes - IP_HEADER_BYTES),
        )


class CarrierGradeSIG(ScionIPGateway):
    """Provider-operated SIG aggregating many legacy customers (Fig. 3c).

    Customers are plain IP prefixes; nothing changes on their premises.
    """

    def __init__(self, isd: int, asn: int, asmap: ASMap) -> None:
        super().__init__(isd, asn, asmap)
        self._customers: Dict[str, ipaddress.IPv4Network] = {}

    def attach_customer(self, name: str, prefix: str) -> None:
        network = ipaddress.ip_network(prefix, strict=True)
        self._customers[name] = network

    def customer_of(self, ip: str) -> Optional[str]:
        address = ipaddress.ip_address(ip)
        for name, network in sorted(self._customers.items()):
            if address in network:
                return name
        return None
