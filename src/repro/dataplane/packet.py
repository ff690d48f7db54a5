"""SCION packets and forwarding paths.

A forwarding path is the materialized packet-carried forwarding state: the
hop fields of an end-to-end AS-level path in forwarding order, chained MACs
included, plus a cursor the border routers advance. Host addressing is the
(ISD, AS, local address) 3-tuple of Section 2.1 — the local part is opaque
to inter-domain forwarding.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, List, Sequence, Tuple

from ..topology.model import Topology
from .hopfield import (
    HOP_FIELD_BYTES,
    INFO_FIELD_BYTES,
    ZERO_MAC,
    HopField,
    make_hop_field,
)

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids import cycles
    from .combinator import EndToEndPath

__all__ = [
    "HostAddress",
    "ForwardingPath",
    "ScionPacket",
    "build_forwarding_path",
    "build_packet",
]

#: Common header: version/flags (4), src+dst ISD-AS (16), lengths (4).
COMMON_HEADER_BYTES = 24
#: IPv4-sized local addresses on both ends.
LOCAL_ADDRESS_BYTES = 4
#: Local address of a host whose identity the experiment does not model.
DEFAULT_LOCAL = "0.0.0.1"


@dataclass(frozen=True)
class HostAddress:
    """The <ISD, AS, local address> 3-tuple."""

    isd: int
    asn: int
    local: str = DEFAULT_LOCAL

    def __str__(self) -> str:
        return f"{self.isd}-{self.asn},{self.local}"


@dataclass(frozen=True)
class ForwardingPath:
    """Hop fields in forwarding order with a cursor."""

    timestamp: float
    hop_fields: Tuple[HopField, ...]
    cursor: int = 0

    def __post_init__(self) -> None:
        if not self.hop_fields:
            raise ValueError("a forwarding path needs at least one hop field")
        if not 0 <= self.cursor <= len(self.hop_fields):
            raise ValueError("cursor out of range")

    @property
    def current(self) -> HopField:
        if self.at_destination:
            raise ValueError("path already fully traversed")
        return self.hop_fields[self.cursor]

    @property
    def at_destination(self) -> bool:
        return self.cursor >= len(self.hop_fields)

    def at(self, cursor: int) -> "ForwardingPath":
        """The same hop fields with the cursor moved to ``cursor``."""
        return ForwardingPath(self.timestamp, self.hop_fields, cursor)

    def advanced(self) -> "ForwardingPath":
        return self.at(self.cursor + 1)

    def prev_mac(self) -> bytes:
        if self.cursor == 0:
            return ZERO_MAC
        return self.hop_fields[self.cursor - 1].mac

    def asns(self) -> Tuple[int, ...]:
        return tuple(hf.asn for hf in self.hop_fields)

    def header_bytes(self) -> int:
        return INFO_FIELD_BYTES + HOP_FIELD_BYTES * len(self.hop_fields)


@dataclass(frozen=True)
class ScionPacket:
    """A data-plane packet carrying its forwarding state."""

    source: HostAddress
    destination: HostAddress
    path: ForwardingPath
    payload_bytes: int = 0

    def header_bytes(self) -> int:
        return (
            COMMON_HEADER_BYTES
            + 2 * LOCAL_ADDRESS_BYTES
            + self.path.header_bytes()
        )

    def wire_bytes(self) -> int:
        return self.header_bytes() + self.payload_bytes

    def with_path(self, path: ForwardingPath) -> "ScionPacket":
        return ScionPacket(
            self.source, self.destination, path, self.payload_bytes
        )


def build_forwarding_path(
    topology: Topology,
    asns: Sequence[int],
    link_ids: Sequence[int],
    *,
    timestamp: float,
    expiry: float,
) -> ForwardingPath:
    """Materialize hop fields (with chained MACs) for an AS-level path.

    ``asns`` is the forwarding-order AS sequence, ``link_ids`` the links
    between consecutive ASes. Interface ids are read from the topology; 0
    marks the endpoint sides.
    """
    if len(link_ids) != len(asns) - 1:
        raise ValueError("link_ids must align with consecutive AS pairs")
    hop_fields: List[HopField] = []
    prev_mac = ZERO_MAC
    for index, asn in enumerate(asns):
        if index == 0:
            ingress = 0
        else:
            ingress = topology.link(link_ids[index - 1]).end(asn).ifid
        if index == len(asns) - 1:
            egress = 0
        else:
            egress = topology.link(link_ids[index]).end(asn).ifid
        hop = make_hop_field(
            asn,
            ingress,
            egress,
            timestamp=timestamp,
            expiry=expiry,
            prev_mac=prev_mac,
        )
        prev_mac = hop.mac
        hop_fields.append(hop)
    return ForwardingPath(timestamp=timestamp, hop_fields=tuple(hop_fields))


def build_packet(
    topology: Topology,
    src: int,
    dst: int,
    path: "EndToEndPath",
    *,
    timestamp: float,
    payload_bytes: int = 0,
    src_local: str = DEFAULT_LOCAL,
    dst_local: str = DEFAULT_LOCAL,
) -> ScionPacket:
    """The packet a native SCION host in AS ``src`` sends to AS ``dst``
    over ``path``: freshly MAC-chained hop fields plus both host
    addresses. The endpoints are taken from the caller, not from the
    path, so a path that does not join them is still caught by the
    routers' source/destination checks."""
    return ScionPacket(
        source=HostAddress(topology.as_node(src).isd or 0, src, src_local),
        destination=HostAddress(
            topology.as_node(dst).isd or 0, dst, dst_local
        ),
        path=build_forwarding_path(
            topology,
            path.asns,
            path.link_ids,
            timestamp=timestamp,
            expiry=path.expires_at,
        ),
        payload_bytes=payload_bytes,
    )
