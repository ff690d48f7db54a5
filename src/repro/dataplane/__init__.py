"""Data plane substrate: hop fields, packets, routers, path combination."""

from .hopfield import (
    HOP_FIELD_BYTES,
    INFO_FIELD_BYTES,
    MAC_BYTES,
    ZERO_MAC,
    HopField,
    compute_mac,
    forwarding_key,
    make_hop_field,
)
from .packet import (
    ForwardingPath,
    HostAddress,
    ScionPacket,
    build_forwarding_path,
    build_packet,
)
from .router import BorderRouter, ForwardingError, RouterTable, deliver
from .combinator import EndToEndPath, combine_segments

__all__ = [
    "HOP_FIELD_BYTES",
    "INFO_FIELD_BYTES",
    "MAC_BYTES",
    "ZERO_MAC",
    "HopField",
    "compute_mac",
    "forwarding_key",
    "make_hop_field",
    "ForwardingPath",
    "HostAddress",
    "ScionPacket",
    "build_forwarding_path",
    "build_packet",
    "BorderRouter",
    "ForwardingError",
    "RouterTable",
    "deliver",
    "EndToEndPath",
    "combine_segments",
]
