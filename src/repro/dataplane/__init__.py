"""Data plane substrate: hop fields, packets, routers, path combination."""

from .hopfield import (
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
)
from .router import BorderRouter, ForwardingError, RouterTable, deliver
from .combinator import combine_segments

__all__ = [
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
    "BorderRouter",
    "ForwardingError",
    "RouterTable",
    "deliver",
    "combine_segments",
]
